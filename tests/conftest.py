import os
import sys
from pathlib import Path

import numpy as np
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from collabnet.graph import CollabNetwork

# CI sets CI: its runs draw the same hypothesis examples every time
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def make_net(edges, nodes=None, year=None, field="all") -> CollabNetwork:
    """Build a CollabNetwork from (a, b, w) triples through `from_pairs`,
    with the `nodes` no triple names added as isolated nodes."""
    from collabnet.graph import NetworkSlice

    net = CollabNetwork.from_pairs(edges, NetworkSlice(year, field, "raw"))
    names = tuple(sorted(set(nodes or ()) | set(net.nodes)))
    renumber = np.array([names.index(c) for c in net.nodes], dtype=np.intp)
    return CollabNetwork(names, renumber[net.ends], net.weight, net.slice)


def arpack_fails(*args, **kwargs):
    """Stands in for `scipy.sparse.linalg.eigsh` when ARPACK does not converge."""
    from scipy.sparse.linalg import ArpackNoConvergence

    raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))
