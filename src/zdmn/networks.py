"""Bundled network specs used by the CLI generator and the test suite."""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .model import ChannelTable, NetworkSpec, NodeSet, Partition, require_real


def bscfb_spec(eps: float) -> NetworkSpec:
    """Two-node BSC with correlated feedback.

    Channel 1 is a BSC(eps) from X1 to Y2; channel 2 deterministically sets
    Y1 = X2 xor Y2, so a zero-delay node 2 can cancel the forward noise.
    """
    if not (0.0 <= require_real(eps, "eps") <= 1.0):
        raise DomainError(f"eps {eps} outside [0, 1]")
    s = Partition((NodeSet((1,)), NodeSet((2,))))
    g = Partition((NodeSet((2,)), NodeSet((1,))))
    q1 = ChannelTable(("X1",), ("Y2",), np.array([[1.0 - eps, eps], [eps, 1.0 - eps]]))
    rows = np.zeros((8, 2))
    for x1 in range(2):
        for x2 in range(2):
            for y2 in range(2):
                rows[(x1 * 2 + x2) * 2 + y2, x2 ^ y2] = 1.0
    q2 = ChannelTable(("X1", "X2", "Y2"), ("Y1",), rows)
    return NetworkSpec(2, (2, 2), (2, 2), 2, s, g, (q1, q2))


def classical_bsc_spec(eps: float) -> NetworkSpec:
    """Single-channel two-node network: a BSC(eps) from node 1 to node 2.

    Node 2 transmits nothing (|X2| = 1) and node 1 receives nothing (|Y1| = 1).
    """
    if not (0.0 <= require_real(eps, "eps") <= 1.0):
        raise DomainError(f"eps {eps} outside [0, 1]")
    s = Partition((NodeSet((1, 2)),))
    g = Partition((NodeSet((1, 2)),))
    # Rows over (X1, X2): X2 is degenerate.  Columns over (Y1, Y2): Y1 degenerate.
    rows = np.array([[1.0 - eps, eps], [eps, 1.0 - eps]])
    q = ChannelTable(("X1", "X2"), ("Y1", "Y2"), rows)
    return NetworkSpec(2, (2, 1), (1, 2), 1, s, g, (q,))


def deterministic_two_node_spec() -> NetworkSpec:
    """Identity network: Y_i = X_i for both nodes through one channel."""
    s = Partition((NodeSet((1, 2)),))
    g = Partition((NodeSet((1, 2)),))
    rows = np.zeros((4, 4))
    for x1 in range(2):
        for x2 in range(2):
            rows[x1 * 2 + x2, x1 * 2 + x2] = 1.0
    q = ChannelTable(("X1", "X2"), ("Y1", "Y2"), rows)
    return NetworkSpec(2, (2, 2), (2, 2), 1, s, g, (q,))


def causal_relay_spec(eps1: float = 0.1, eps2: float = 0.05) -> NetworkSpec:
    """Three-node causal relay template: delayed nodes {1, 3}, zero-delay relay {2}.

    Channel 1: Y2 = BSC(eps1) copy of X1.  Channel 2: Y3 = (X2 xor Y2) through
    BSC(eps2); node 1 receives nothing and node 3 transmits nothing.
    """
    for e in (eps1, eps2):
        if not (0.0 <= require_real(e, "eps") <= 1.0):
            raise DomainError(f"eps {e} outside [0, 1]")
    s = Partition((NodeSet((1, 3)), NodeSet((2,))))
    g = Partition((NodeSet((2,)), NodeSet((1, 3))))
    q1 = ChannelTable(("X1", "X3"), ("Y2",), np.array(
        [[1.0 - eps1, eps1], [eps1, 1.0 - eps1]]))
    # Rows over (X1, X2, X3, Y2) with |X3| = 1; columns over (Y1, Y3) with |Y1| = 1.
    rows = np.zeros((8, 2))
    for x1 in range(2):
        for x2 in range(2):
            for y2 in range(2):
                r = (x1 * 2 + x2) * 2 + y2
                rows[r, x2 ^ y2] = 1.0 - eps2
                rows[r, 1 - (x2 ^ y2)] = eps2
    q2 = ChannelTable(("X1", "X2", "X3", "Y2"), ("Y1", "Y3"), rows)
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
