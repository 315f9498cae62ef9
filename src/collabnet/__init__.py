"""collabnet: temporal country co-authorship network analytics.

Reconstructs annual weighted collaboration networks from publication
records, computes centrality/cohesion/community/bridging metrics over
rolling windows, runs Granger-causality panels with joint FDR correction,
forecasts metric series, and grows synthetic fitness-model networks for
hole-closure experiments.
"""

from .centrality import (
    CentralityVector,
    betweenness,
    degree_centrality,
    eigenvector_centrality,
    normalize_bc,
)
from .errors import CollabnetError, ConvergenceError, DataError, NumericError
from .graph import CollabNetwork, NetworkSlice, normalize_weights, rolling_window
from .ingest import (
    CountryYearStats,
    PublicationRecord,
    filter_countries,
    parse_publications,
    participation,
)
from .paths import BridgingReport, bridging_fraction
from .structure import (
    CommunityPartition,
    CorePartition,
    clustering,
    communities,
    ego_modularity,
    global_efficiency,
    k_core,
    modularity_score,
)
from .synth import SynthConfig, SynthRun, generate_fitness, hole_closure_experiment
from .timeseries import (
    Forecast,
    GrangerTest,
    MetricSeries,
    bh_fdr,
    forecast,
    granger_test,
)

__version__ = "0.1.0"
