"""Exact finite-probability machinery on dense tables.

Joint pmfs are flat float64 tables over a named variable list: a cell's
position is its tuple of values in numpy's C order, the first variable most
significant, so ``reshape`` gives one axis per variable.
All arithmetic is 64-bit, and mutual informations are clamped to 0 within
1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .model import (ChannelTable, NetworkSpec, NodeSet, Partition, _input_names, _shown,
                    require_integer, require_real, require_table, require_valid, x_var)

MI_CLAMP = 1e-12


@dataclass(frozen=True)
class JointPmf:
    """Probability table over an ordered list of (name, alphabet size)."""

    variables: tuple[tuple[str, int], ...]
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        names = self.names
        if not all(isinstance(n, str) for n in names) or len(set(names)) != len(names):
            raise DomainError(f"names must be distinct strings (no repeated variable names), "
                              f"got {names}")
        object.__setattr__(self, "variables", tuple(
            (n, require_integer(s, f"alphabet size of {n}", 1)) for n, s in self.variables))
        p = require_table(self.probs, "real", f"joint pmf over {names}").reshape(-1)
        cells = math.prod(self.sizes)
        if p.size != cells:
            raise DomainError(f"{p.size} probabilities for the {_shown(cells)} cells of {names}")
        object.__setattr__(self, "probs", p)

    def __reduce__(self):
        # a pickled array comes back writable: rebuild through __init__
        return JointPmf, (self.variables, self.probs)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.variables)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(s for _, s in self.variables)

    def as_array(self) -> np.ndarray:
        """The table with one axis per variable, in C order."""
        return self.probs.reshape(self.sizes if self.variables else (1,))


def _axes_of(names, wanted) -> list[int]:
    """Axis of each `wanted` variable in the variable list `names`."""
    order = {n: i for i, n in enumerate(names)}
    axes = []
    for n in wanted:
        if n not in order:
            raise DomainError(f"unknown variable {n!r}")
        axes.append(order[n])
    return axes


def _marginal(arr: np.ndarray, names, keep) -> np.ndarray:
    """Sum `arr` over the variables of `names` outside `keep`.

    `arr` has one axis per name, then any batch axes.  The kept axes come
    first in `keep` order, then the summed ones, then the batch axes, so the
    result is (*keep sizes, *batch).  When every summed axis has length 1
    the result is a reshaped view of `arr`, not a copy: callers only read
    it.  Its cells are the sum's, except that a -0.0 stays -0.0 where the
    sum gives 0.0.
    """
    keep_axes = _axes_of(names, keep)
    rest = [i for i in range(len(names)) if i not in keep_axes]
    arr = arr.transpose(keep_axes + rest + list(range(len(names), arr.ndim)))
    summed = range(len(keep), len(keep) + len(rest))
    if any(arr.shape[i] != 1 for i in summed):
        return arr.sum(axis=tuple(summed))
    return arr.reshape(arr.shape[:len(keep)] + arr.shape[len(keep) + len(rest):])


def marginalize(p: JointPmf, keep) -> JointPmf:
    """Sum out every variable not in `keep`; result variables follow `keep`."""
    keep = tuple(keep)
    if len(set(keep)) != len(keep):
        raise DomainError("duplicate variable in keep list")
    arr = _marginal(p.as_array(), p.names, keep)
    return JointPmf(tuple(zip(keep, arr.shape)), arr.reshape(-1))


def _group_size(size_of, names) -> int:
    """Product of the alphabet sizes `size_of(name)` over `names` (1 for none)."""
    return math.prod(size_of(n) for n in names)


def _row_sum(rows):
    """Sum over the first axis, one row after another.

    numpy adds a contiguous axis pairwise but a strided one row by row, so
    ``sum(axis=0)`` of an (n, 1) and of an (n, count) table can differ in the
    last bits; a running sum has one order whatever the shape, which keeps a
    batch entry independent of its batch.  Short rows run as one
    ``np.add.accumulate`` (a loop would pay Python per row), long rows as a
    loop of vector adds (accumulate walks them one strided cell at a time):
    the same additions in the same order, so the same bits.
    """
    if rows[0].size < 128:
        return np.add.accumulate(rows, axis=0)[-1].copy()
    out = rows[0].copy()
    for row in rows[1:]:
        out += row
    return out


def _clamp_mi(mi):
    """Zero the rounding negatives of a mutual information, within MI_CLAMP."""
    return np.where((mi < 0.0) & (mi >= -MI_CLAMP), 0.0, mi)


def cond_entropy_table(pbc: np.ndarray) -> np.ndarray:
    """H(B|C) in bits of an (nb, nc, *batch) table, one per batch entry.

    The one log-sum of the package: sum over b and c of
    p(b,c) log2(p(c) / p(b,c)), with 0 log 0 = 0, added over b and then
    over c in row order.  The cell terms fill one scratch table in place:
    divide, log2 and multiply, then every cell where p(b,c) > 0 fails is
    zeroed, the operations and order of
    ``np.where(pbc > 0, pbc * log2(pc / pbc), 0)``, so the same bits.
    Batch axes come last, so every step vectorises over contiguous batch
    entries; with no batch axes the result is a scalar.
    """
    pc = _row_sum(pbc)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.divide(pc, pbc)
        np.log2(terms, out=terms)
        np.multiply(pbc, terms, out=terms)
    terms[~(pbc > 0.0)] = 0.0
    return _row_sum(_row_sum(terms))


def cmi_table(pabc: np.ndarray) -> np.ndarray:
    """I(A;B|C) in bits of an (na, nb, nc, *batch) table, one per batch entry.

    I(A;B|C) = H(B|C) - H(B|A,C), both from ``cond_entropy_table``, the
    second with (a, c) as its conditioning index; a difference within
    MI_CLAMP below 0 reads 0.  With no batch axes the result is a 0-d array.
    """
    pb_ac = np.swapaxes(pabc, 0, 1).reshape((pabc.shape[1], -1) + pabc.shape[3:])
    return _clamp_mi(cond_entropy_table(_row_sum(pabc)) - cond_entropy_table(pb_ac))


def conditional_mutual_information(p: JointPmf, a_vars, b_vars, c_vars=()) -> float:
    """I(A;B|C) in bits by direct summation with 0 log 0 = 0, on the
    (|A|, |B|, |C|) table that ``_marginal`` sums out of `p`'s array."""
    a_vars, b_vars, c_vars = tuple(a_vars), tuple(b_vars), tuple(c_vars)
    groups = a_vars + b_vars + c_vars
    if len(set(groups)) != len(groups):
        raise DomainError("variable groups overlap")
    if not a_vars or not b_vars:
        return 0.0
    m = _marginal(p.as_array(), p.names, groups)
    la, lab = len(a_vars), len(a_vars) + len(b_vars)
    return float(cmi_table(m.reshape(math.prod(m.shape[:la]), math.prod(m.shape[la:lab]), -1)))


def binary_entropy(eps: float) -> float:
    """Entropy in bits of a Bernoulli(eps) variable; 0 at both endpoints."""
    eps = require_real(eps, "eps")
    if not (0.0 <= eps <= 1.0):
        raise DomainError(f"eps {eps} outside [0, 1]")
    if eps == 0.0 or eps == 1.0:
        return 0.0
    return -eps * math.log2(eps) - (1.0 - eps) * math.log2(1.0 - eps)


# ---------------------------------------------------------------------------
# Alignment of channel tables into the full (X_1..X_N, Y_1..Y_N) layout.

def _full_layout(spec: NetworkSpec) -> tuple[tuple[str, ...], tuple[int, ...]]:
    names = spec.all_x_vars() + spec.all_y_vars()
    sizes = tuple(spec.var_size(n) for n in names)
    return names, sizes


def _aligned_factor(spec: NetworkSpec, in_vars, out_vars, table: np.ndarray) -> np.ndarray:
    """View a (rows, cols, *batch) float64 conditional in the full-layout
    broadcast shape.

    Each variable's axis moves to its layout position and every other layout
    axis has length 1; batch axes stay last.
    """
    names, _ = _full_layout(spec)
    pos = {n: i for i, n in enumerate(names)}
    vars_all = tuple(in_vars) + tuple(out_vars)
    dims = [spec.var_size(v) for v in vars_all]
    batch = table.shape[2:]
    perm = sorted(range(len(vars_all)), key=lambda j: pos[vars_all[j]])
    arr = table.reshape(tuple(dims) + batch).transpose(
        perm + list(range(len(dims), len(dims) + len(batch))))
    shape = [1] * len(names)
    for j in perm:
        shape[pos[vars_all[j]]] = dims[j]
    return arr.reshape(tuple(shape) + batch)


def _channel_product(spec: NetworkSpec) -> np.ndarray:
    """q^(1) q^(2) ... q^(alpha) as one array over the full layout."""
    _, sizes = _full_layout(spec)
    arr = np.ones(sizes, dtype=np.float64)
    for ch in spec.channels[: spec.alpha]:
        arr = arr * _aligned_factor(spec, ch.input_vars, ch.output_vars, ch.table)
    return arr


def compose_channels(spec: NetworkSpec) -> ChannelTable:
    """Single equivalent channel q^(1) q^(2) ... q^(alpha) over all nodes."""
    require_valid(spec)
    _, sizes = _full_layout(spec)
    n_x = math.prod(sizes[: spec.n_nodes])
    return ChannelTable(spec.all_x_vars(), spec.all_y_vars(),
                        _channel_product(spec).reshape(n_x, -1))


def input_conditional_vars(step) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Variable lists of the free input conditional p_{X_{S_h}|X_{S^{h-1}},Y_{G^{h-1}}} of
    one ``model.step_plan`` step (S_h, S^h, G^{h-1}, G_h): channel h's inputs,
    less the X_{S_h} the conditional draws."""
    s_h, xs, ys, _ = step
    return _input_names([i for i in xs if i not in s_h], ys), tuple(map(x_var, s_h))


def all_delayed_network(spec: NetworkSpec) -> NetworkSpec:
    """The classical network `spec` becomes when every node is delayed.

    Same nodes and alphabets, alpha = 1 with S = G = ({1..N}), and one
    channel, q^(1) ... q^(alpha) (``compose_channels``).  Its capacity bound
    is the positive-delay bound of `spec`.  The grid's positive-delay mode
    and the tests' references follow this definition; no engine call builds
    the network: ``simulate.equivalence_check`` reads its channel off
    ``_channel_product``, one step per slot, on the spec's own outcome rows.
    """
    everyone = Partition((NodeSet(tuple(range(1, spec.n_nodes + 1))),))
    return NetworkSpec(spec.n_nodes, spec.input_alphabet_sizes, spec.output_alphabet_sizes, 1,
                       everyone, everyone, (compose_channels(spec),))
