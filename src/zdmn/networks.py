"""Bundled network specs used by the CLI generator and the test suite."""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .model import ChannelTable, NetworkSpec, NodeSet, Partition, require_real

# (X1, X2, Y2) of each of the 8 rows of a table over three binary variables, C order
_, _X2, _Y2 = np.unravel_index(np.arange(8), (2, 2, 2))


def _bsc(eps) -> np.ndarray:
    """Rows of a BSC(eps); an eps outside [0, 1] is a DomainError."""
    eps = require_real(eps, "eps")
    if not 0.0 <= eps <= 1.0:
        raise DomainError(f"eps {eps} outside [0, 1]")
    return np.array([[1.0 - eps, eps], [eps, 1.0 - eps]])


def bscfb_spec(eps: float) -> NetworkSpec:
    """Two-node BSC with correlated feedback.

    Channel 1 is a BSC(eps) from X1 to Y2; channel 2 deterministically sets
    Y1 = X2 xor Y2, so a zero-delay node 2 can cancel the forward noise.
    """
    s = Partition((NodeSet((1,)), NodeSet((2,))))
    g = Partition((NodeSet((2,)), NodeSet((1,))))
    q1 = ChannelTable(("X1",), ("Y2",), _bsc(eps))
    q2 = ChannelTable(("X1", "X2", "Y2"), ("Y1",), np.eye(2)[_X2 ^ _Y2])
    return NetworkSpec(2, (2, 2), (2, 2), 2, s, g, (q1, q2))


def classical_bsc_spec(eps: float) -> NetworkSpec:
    """Single-channel two-node network: a BSC(eps) from node 1 to node 2.

    Node 2 transmits nothing (|X2| = 1) and node 1 receives nothing (|Y1| = 1).
    """
    s = Partition((NodeSet((1, 2)),))
    g = Partition((NodeSet((1, 2)),))
    # Rows over (X1, X2): X2 is degenerate.  Columns over (Y1, Y2): Y1 degenerate.
    q = ChannelTable(("X1", "X2"), ("Y1", "Y2"), _bsc(eps))
    return NetworkSpec(2, (2, 1), (1, 2), 1, s, g, (q,))


def deterministic_two_node_spec() -> NetworkSpec:
    """Identity network: Y_i = X_i for both nodes through one channel."""
    s = Partition((NodeSet((1, 2)),))
    g = Partition((NodeSet((1, 2)),))
    q = ChannelTable(("X1", "X2"), ("Y1", "Y2"), np.eye(4))
    return NetworkSpec(2, (2, 2), (2, 2), 1, s, g, (q,))


def causal_relay_spec(eps1: float = 0.1, eps2: float = 0.05) -> NetworkSpec:
    """Three-node causal relay template: delayed nodes {1, 3}, zero-delay relay {2}.

    Channel 1: Y2 = BSC(eps1) copy of X1.  Channel 2: Y3 = (X2 xor Y2) through
    BSC(eps2); node 1 receives nothing and node 3 transmits nothing.
    """
    bsc1, bsc2 = _bsc(eps1), _bsc(eps2)
    s = Partition((NodeSet((1, 3)), NodeSet((2,))))
    g = Partition((NodeSet((2,)), NodeSet((1, 3))))
    q1 = ChannelTable(("X1", "X3"), ("Y2",), bsc1)
    # Rows over (X1, X2, X3, Y2) with |X3| = 1; columns over (Y1, Y3) with |Y1| = 1.
    q2 = ChannelTable(("X1", "X2", "X3", "Y2"), ("Y1", "Y3"), bsc2[_X2 ^ _Y2])
    return NetworkSpec(3, (2, 2, 1), (1, 2, 2), 2, s, g, (q1, q2))


BUNDLED = {
    "bscfb": bscfb_spec,
    "classical-bsc": classical_bsc_spec,
    "deterministic": deterministic_two_node_spec,
    "causal-relay": causal_relay_spec,
}


def bundled_spec(name: str, eps: float | None = None) -> NetworkSpec:
    """The bundled network `name`, with `eps` its channel parameter if it has one."""
    if name not in BUNDLED:
        raise DomainError(f"unknown bundled network {name!r}; choices: {sorted(BUNDLED)}")
    if name == "bscfb":
        return bscfb_spec(0.11 if eps is None else eps)
    if name == "classical-bsc":
        return classical_bsc_spec(0.25 if eps is None else eps)
    if name == "causal-relay":
        return causal_relay_spec() if eps is None else causal_relay_spec(eps)
    if eps is not None:
        raise DomainError(f"network {name!r} takes no eps, got {eps}")
    return deterministic_two_node_spec()
