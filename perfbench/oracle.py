"""Reference values for the cut bounds, independent of the program's grid.

Positive-delay mode: the cut term I(X_T; Y_{T^c} | X_{T^c}) is an average
over x_{T^c} of the mutual information of the channel x_T -> y_{T^c} at that
x_{T^c}, so its maximum over input laws is the largest Blahut-Arimoto
capacity over x_{T^c} (Blahut 1972; Arimoto 1972).  Each capacity comes with
a lower value I(p; W) and the upper certificate max_x D(W(.|x) || pW).

The bscfb network also has closed forms: in capacity mode cut {1} is
1 - H(eps) and cut {2} is 1; in positive-delay mode both are 1 - H(eps).
"""

from __future__ import annotations

import math

import numpy as np

BA_TOL = 1e-12
BA_MAX_ITER = 200_000


def binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def bscfb_reference(eps: float, mode: str) -> dict:
    """cut members -> closed-form per-cut maximum on bscfb(eps)."""
    fwd = 1.0 - binary_entropy(eps)
    return {(1,): fwd, (2,): 1.0 if mode == "capacity" else fwd}


def _channel_law(spec) -> np.ndarray:
    """P(y_1..y_N | x_1..x_N) as an array of shape |X_1|..|X_N|, |Y_1|..|Y_N|,
    built from the channel tables and their declared variables."""
    names = [f"X{i}" for i in range(1, spec.n_nodes + 1)] + \
            [f"Y{i}" for i in range(1, spec.n_nodes + 1)]
    sizes = list(spec.input_alphabet_sizes) + list(spec.output_alphabet_sizes)
    law = np.ones(sizes)
    for ch in spec.channels:
        vars_ = list(ch.input_vars) + list(ch.output_vars)
        factor = np.asarray(ch.table).reshape([sizes[names.index(v)] for v in vars_])
        order = sorted(range(len(vars_)), key=lambda j: names.index(vars_[j]))
        shape = [1] * len(names)
        for j in order:
            shape[names.index(vars_[j])] = sizes[names.index(vars_[j])]
        law = law * factor.transpose(order).reshape(shape)
    return law


def _xlogx_ratio(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum_y w log2(w / q) along the last axis, with 0 log 0 = 0."""
    safe = np.where(w > 0.0, w, 1.0)
    return np.sum(np.where(w > 0.0, w * np.log2(safe / np.where(q > 0.0, q, 1.0)), 0.0),
                  axis=-1)


def blahut_arimoto(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Capacities of a batch of channels w[b, x, y]: (lower, upper) per b."""
    b, nx, _ = w.shape
    p = np.full((b, nx), 1.0 / nx)
    for _ in range(BA_MAX_ITER):
        q = np.einsum("bx,bxy->by", p, w)
        d = _xlogx_ratio(w, q[:, None, :])
        lower = np.sum(p * d, axis=1)
        upper = d.max(axis=1)
        if np.all(upper - lower <= BA_TOL):
            break
        p = p * np.exp2(d - d.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
    return lower, upper


def positive_delay_reference(spec) -> dict:
    """cut members -> (lower, upper) of max over inputs of I(X_T; Y_Tc | X_Tc)."""
    n = spec.n_nodes
    law = _channel_law(spec)
    out = {}
    for mask in range(1, 2 ** n - 1):
        cut = tuple(i + 1 for i in range(n) if mask >> i & 1)
        rest = tuple(i + 1 for i in range(n) if not mask >> i & 1)
        # keep the outputs of the complement, sum out the rest
        drop = tuple(n + i - 1 for i in cut)
        marg = law.sum(axis=drop) if drop else law
        # axes now: X_1..X_N, then Y_rest in ascending order
        perm = [r - 1 for r in rest] + [c - 1 for c in cut] + list(range(n, marg.ndim))
        arr = marg.transpose(perm)
        n_rest = int(np.prod([spec.input_alphabet_sizes[r - 1] for r in rest]))
        n_cut = int(np.prod([spec.input_alphabet_sizes[c - 1] for c in cut]))
        arr = arr.reshape(n_rest, n_cut, -1)
        if n_cut == 1 or arr.shape[2] == 1:
            out[cut] = (0.0, 0.0)
            continue
        lower, upper = blahut_arimoto(arr)
        out[cut] = (float(lower.max()), float(upper.max()))
    return out
