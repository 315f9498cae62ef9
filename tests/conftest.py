import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from collabnet.graph import CollabNetwork


def make_net(edges, nodes=None, year=None, field="all") -> CollabNetwork:
    """Build a CollabNetwork from (a, b, w) triples."""
    from collabnet.graph import NetworkSlice

    eds = {}
    ns = set(nodes or [])
    for a, b, w in edges:
        key = (a, b) if a < b else (b, a)
        eds[key] = float(w)
        ns |= {a, b}
    return CollabNetwork(tuple(sorted(ns)), eds, NetworkSlice(year, field, "raw"))


def arpack_fails(*args, **kwargs):
    """Stands in for `scipy.sparse.linalg.eigsh` when ARPACK does not converge."""
    from scipy.sparse.linalg import ArpackNoConvergence

    raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))
