"""Betweenness, eigenvector, and degree centrality plus centralization.

Betweenness counts, for every unordered node pair, the fraction of
shortest paths running through a third node. The topological variant uses
hop counts; the weighted variant uses inverse-weight distances, counting
all minimum-distance paths with a relative tie tolerance so float noise
cannot split genuinely co-minimal routes.

Both variants run Brandes' dependency accumulation over blocks of
`paths.SOURCE_BLOCK` sources: the topological one inside the cached
`CollabNetwork.hop_sweep`, the weighted one here over `paths.weighted_paths`,
whose distance rows and candidate predecessor edges come from the cached
`CollabNetwork.geodesics`, one Dijkstra per network that bridging shares.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import paths
from .errors import ConvergenceError, DataError
from .graph import CollabNetwork

EV_TOLERANCE = 1e-10  # max |Ax - lambda x| of the power iteration; of eigsh, times max(1, |lambda|)
EV_MAX_ITERATIONS = 10_000
EV_STRETCH = 100  # power steps over which the residual's geometric rate is measured


@dataclass
class CentralityVector:
    """Per-node scores for one centrality metric: float64 `array` in node order."""

    metric: str
    nodes: tuple[str, ...]
    array: np.ndarray
    meta: dict = field(default_factory=dict)

    @cached_property
    def scores(self) -> dict[str, float]:
        return dict(zip(self.nodes, self.array.tolist()))

    def __getitem__(self, node: str) -> float:
        return self.scores[node]

    def items(self):
        return self.scores.items()

    def mean(self) -> float:
        return float(self.array.mean()) if len(self.array) else 0.0


def _betweenness_weighted(network: CollabNetwork) -> np.ndarray:
    """Brandes' dependency accumulation over `weighted_paths`' DAG, one block of sources at a time.

    delta <- M ((1 + delta) / sigma) until it settles, where M[u, v] = sigma_u
    on each DAG edge u -> v. M's rows keep `succ`'s last-finalized-first
    order, so each delta_u sums its terms in the order of Brandes' pass.
    Every block reads its distances from the network's cached `geodesics`.
    On degenerate weights the result depends on node order (see `weighted_paths`).
    """
    n = network.n
    bc = np.zeros(n)
    for start in range(0, n, paths.SOURCE_BLOCK):
        sources = np.arange(start, min(start + paths.SOURCE_BLOCK, n))
        _, sigma, succ = paths.weighted_paths(network, sources)
        sigma = sigma.ravel()
        # built from its own arrays: the (data, (row, col)) form would re-sort each row's columns
        M = sp.csr_array((np.repeat(sigma, np.diff(succ.indptr)), succ.indices, succ.indptr), shape=succ.shape)
        safe_sigma = np.where(sigma == 0.0, 1.0, sigma)  # unreachable: no predecessors, finite coefficient
        delta = paths.settle(lambda delta: M @ ((1.0 + delta) / safe_sigma), np.zeros_like(sigma), n)
        delta = delta.reshape(len(sources), n)
        delta[np.arange(len(sources)), sources] = 0.0  # a source is never credited for its own paths
        for row in delta:  # one source at a time, so bc sums in source order
            bc += row
    return bc / 2.0


def betweenness(network: CollabNetwork, weighted: bool = False) -> CentralityVector:
    """Raw betweenness over unordered pairs; disconnected pairs contribute 0."""
    if network.n < 2:
        raise DataError(f"betweenness needs at least 2 nodes, got {network.n}")
    raw = _betweenness_weighted(network) if weighted else network.hop_sweep[0]
    return CentralityVector("bcw" if weighted else "bc", network.nodes, raw)


def normalize_bc(vector: CentralityVector, n: int) -> CentralityVector:
    """Divide raw betweenness by its maximum `bc_pairs(n)`."""
    return CentralityVector(vector.metric + "_norm", vector.nodes, vector.array / bc_pairs(n))


def bc_pairs(n: int) -> float:
    """(n-1)(n-2)/2, the pairs a node can lie between in an n-node network: raw betweenness's maximum."""
    if n < 3:
        raise DataError(f"normalized betweenness undefined for n={n}")
    return (n - 1) * (n - 2) / 2.0


def degree_centrality(network: CollabNetwork) -> CentralityVector:
    """Share of possible partners actually connected, ignoring weights."""
    if network.n < 2:
        raise DataError(f"degree centrality needs at least 2 nodes, got {network.n}")
    return CentralityVector("deg_norm", network.nodes, network.degrees / (network.n - 1))


def eigenvector_centrality(network: CollabNetwork) -> CentralityVector:
    """Principal eigenvector of the weighted adjacency, L2-normalized.

    Disconnected networks are scored on the largest component (ties broken
    by smallest member label) with the remaining nodes at 0 and a warning.
    Iteration runs on A + I so bipartite components cannot oscillate. Every
    EV_STRETCH steps the residual's geometric rate over the last stretch
    predicts the residual at EV_MAX_ITERATIONS; when that misses
    EV_TOLERANCE (a long chain's small spectral gap, say), ARPACK's eigsh
    solves A + I instead, and ConvergenceError is raised only if that
    misses EV_TOLERANCE * max(1, |lambda|) too. meta holds the eigenvalue,
    the solver ("power" or "eigsh") and the power steps run.
    """
    if network.n < 1:
        raise DataError("eigenvector centrality needs at least 1 node")
    comps = network.connected_components()
    if len(comps) > 1:
        comps.sort(key=lambda c: (-len(c), min(c)))
        warnings.warn(
            f"network has {len(comps)} components; eigenvector centrality computed "
            f"on the largest ({len(comps[0])} nodes), others scored 0",
            stacklevel=2,
        )
        inner = eigenvector_centrality(network.subgraph(comps[0]))
        x = np.zeros(network.n)
        x[[network.index[node] for node in inner.nodes]] = inner.array
        return CentralityVector("ev", network.nodes, x, inner.meta)

    n = network.n
    A = network.adjacency
    x = np.full(n, 1.0 / math.sqrt(n))
    ax = A @ x
    for step in range(1, EV_MAX_ITERATIONS + 1):
        nxt = ax + x  # shift by identity: same eigenvectors, spectrum moved off +/- pairs
        x = nxt / np.linalg.norm(nxt)
        ax = A @ x
        lam = float(x @ ax)
        residual = float(np.max(np.abs(ax - lam * x)))
        if residual <= EV_TOLERANCE:
            return CentralityVector("ev", network.nodes, x, {"eigenvalue": lam, "solver": "power", "iterations": step})
        if step % EV_STRETCH == 0:
            # the residual shrinks by anchor / residual per stretch; over the steps left, does it reach the tolerance?
            if step > EV_STRETCH and math.log(residual / EV_TOLERANCE) > (
                    math.log(anchor / residual) * (EV_MAX_ITERATIONS - step) / EV_STRETCH):
                break
            anchor = residual  # the residual one stretch ago, at the next check
    # a small spectral gap stalls the power iteration; Lanczos does not
    x, lam, eigsh_residual = _principal_eigsh(A)
    if eigsh_residual > EV_TOLERANCE * max(1.0, abs(lam)):
        residual = min(residual, eigsh_residual)
        raise ConvergenceError(
            f"eigenvector centrality did not converge in {step} power iterations "
            f"nor with eigsh (residual {residual:.3e})",
            residual=residual,
        )
    return CentralityVector("ev", network.nodes, x, {"eigenvalue": lam, "solver": "eigsh", "iterations": step})


def _principal_eigsh(A) -> tuple[np.ndarray, float, float]:
    """The principal eigenvector of a connected A through ARPACK's Lanczos on
    A + I from a fixed start vector: (x, lambda, max |Ax - lambda x|), x
    positive and L2-normalized. The residual is inf if ARPACK does not converge."""
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh  # loaded on first use, with scipy.linalg

    n = A.shape[0]
    try:
        _, vecs = eigsh(A + sp.eye_array(n), k=1, which="LA", v0=np.full(n, 1.0 / math.sqrt(n)))
    except ArpackNoConvergence:
        return np.full(n, math.nan), math.nan, math.inf
    x = vecs[:, 0]
    x = x / (np.linalg.norm(x) if x.sum() >= 0 else -np.linalg.norm(x))
    ax = A @ x
    lam = float(x @ ax)
    return x, lam, float(np.max(np.abs(ax - lam * x)))


def centralization(bc_norm: CentralityVector) -> float:
    """Summed gap to the maximum normalized betweenness, over n - 1."""
    vals = bc_norm.array
    return float((vals.max() - vals).sum() / (len(vals) - 1))
