"""Exact finite-probability machinery on dense tables.

Joint pmfs are flat float64 tables over a named variable list, mixed-radix
with the first variable most significant (C order of the reshaped array).
All arithmetic is 64-bit; stochasticity is checked within 1e-9 and mutual
informations are clamped to 0 within 1e-12.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SpecIOError, ZeroProbabilityEvent
from .model import ChannelTable, NetworkSpec, require_valid, x_var

SUM_TOL = 1e-9
MI_CLAMP = 1e-12


@dataclass(frozen=True)
class JointPmf:
    """Probability table over an ordered list of (name, alphabet size)."""

    variables: tuple[tuple[str, int], ...]
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64).reshape(-1)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.variables)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(s for _, s in self.variables)

    def size_of(self, name: str) -> int:
        for n, s in self.variables:
            if n == name:
                return s
        raise DomainError(f"unknown variable {name!r}")

    def as_array(self) -> np.ndarray:
        return self.probs.reshape(self.sizes if self.variables else (1,))

    def validate(self) -> list[str]:
        out = []
        n_bad = int(np.count_nonzero(~np.isfinite(self.probs)))
        if n_bad:
            out.append(f"{n_bad} non-finite entries")
        if np.any(self.probs < 0.0):
            out.append("negative entries")
        if not n_bad and abs(float(self.probs.sum()) - 1.0) > SUM_TOL:
            out.append(f"entries sum to {self.probs.sum():.9f} (not 1 within {SUM_TOL:g})")
        n_cells = int(np.prod(self.sizes, dtype=np.int64)) if self.variables else 1
        if self.probs.size != n_cells:
            out.append("table size differs from the product of alphabet sizes")
        return out


def _axes_of(p: JointPmf, names) -> list[int]:
    order = {n: i for i, (n, _) in enumerate(p.variables)}
    axes = []
    for n in names:
        if n not in order:
            raise DomainError(f"unknown variable {n!r}")
        axes.append(order[n])
    return axes


def marginalize(p: JointPmf, keep) -> JointPmf:
    """Sum out every variable not in `keep`; result variables follow `keep`."""
    keep = tuple(keep)
    if len(set(keep)) != len(keep):
        raise DomainError("duplicate variable in keep list")
    keep_axes = _axes_of(p, keep)
    rest = [i for i in range(len(p.variables)) if i not in keep_axes]
    arr = p.as_array().transpose(keep_axes + rest)
    if rest:
        arr = arr.sum(axis=tuple(range(len(keep), len(keep) + len(rest))))
    return JointPmf(tuple(p.variables[i] for i in keep_axes), arr.reshape(-1))


def condition(p: JointPmf, given: dict) -> JointPmf:
    """Conditional pmf over the remaining variables; zero-probability events raise."""
    axes = _axes_of(p, given.keys())
    idx: list = [slice(None)] * len(p.variables)
    for n, v in given.items():
        size = p.size_of(n)
        v = int(v)
        if not (0 <= v < size):
            raise DomainError(f"value {v} outside alphabet of {n!r}")
        idx[_axes_of(p, [n])[0]] = v
    sliced = p.as_array()[tuple(idx)]
    mass = float(sliced.sum())
    if mass <= 0.0:
        raise ZeroProbabilityEvent(f"conditioning event {given!r} has probability 0")
    remaining = tuple(p.variables[i] for i in range(len(p.variables)) if i not in axes)
    return JointPmf(remaining, (sliced / mass).reshape(-1))


def _group_size(size_of, names) -> int:
    """Product of the alphabet sizes `size_of(name)` over `names` (1 for none)."""
    return math.prod(size_of(n) for n in names)


def cmi_table(pabc: np.ndarray) -> np.ndarray:
    """I(A;B|C) in bits of an (na, nb, nc, *batch) table, one per batch entry.

    Batch axes come last, so the reductions over the small A, B, C axes
    vectorise over contiguous batch entries; with no batch axes the result
    is a 0-d array.
    """
    pac = pabc.sum(axis=1, keepdims=True)
    pbc = pabc.sum(axis=0, keepdims=True)
    pc = pabc.sum(axis=(0, 1), keepdims=True)
    mask = pabc > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(mask, pabc * pc / (pac * pbc), 1.0)
        terms = np.where(mask, pabc * np.log2(ratio), 0.0)
    mi = terms.sum(axis=(0, 1, 2))
    return np.where((mi < 0.0) & (mi >= -MI_CLAMP), 0.0, mi)


def conditional_mutual_information(p: JointPmf, a_vars, b_vars, c_vars=()) -> float:
    """I(A;B|C) in bits by direct summation with 0 log 0 = 0."""
    a_vars, b_vars, c_vars = tuple(a_vars), tuple(b_vars), tuple(c_vars)
    groups = a_vars + b_vars + c_vars
    if len(set(groups)) != len(groups):
        raise DomainError("variable groups overlap")
    if not a_vars or not b_vars:
        return 0.0
    m = marginalize(p, groups)
    na, nb, nc = (_group_size(p.size_of, g) for g in (a_vars, b_vars, c_vars))
    return float(cmi_table(m.probs.reshape(na, nb, nc)))


def mutual_information(p: JointPmf, a_vars, b_vars) -> float:
    return conditional_mutual_information(p, a_vars, b_vars, ())


def binary_entropy(eps: float) -> float:
    """Entropy in bits of a Bernoulli(eps) variable; 0 at both endpoints."""
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
    """Reshape a (rows, cols) conditional into the full-layout broadcast shape."""
    names, sizes = _full_layout(spec)
    pos = {n: i for i, n in enumerate(names)}
    vars_all = tuple(in_vars) + tuple(out_vars)
    dims = [spec.var_size(v) for v in vars_all]
    arr = np.asarray(table, dtype=np.float64).reshape(dims if dims else (1,))
    if not vars_all:
        return arr.reshape((1,) * len(names))
    perm = sorted(range(len(vars_all)), key=lambda j: pos[vars_all[j]])
    arr = arr.transpose(perm)
    shape = [1] * len(names)
    for j in perm:
        shape[pos[vars_all[j]]] = dims[j]
    return arr.reshape(shape)


def compose_channels(spec: NetworkSpec) -> ChannelTable:
    """Single equivalent channel q^(1) q^(2) ... q^(alpha) over all nodes."""
    require_valid(spec)
    names, sizes = _full_layout(spec)
    arr = np.ones(sizes, dtype=np.float64)
    for h in range(1, spec.alpha + 1):
        ch = spec.channels[h - 1]
        arr = arr * _aligned_factor(spec, ch.input_vars, ch.output_vars, ch.table)
    n_x = int(np.prod(sizes[: spec.n_nodes], dtype=np.int64))
    n_y = int(np.prod(sizes[spec.n_nodes:], dtype=np.int64))
    return ChannelTable(spec.all_x_vars(), spec.all_y_vars(), arr.reshape(n_x, n_y))


def input_conditional_vars(spec: NetworkSpec, h: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Variable lists for the h-th free input conditional p_{X_{S_h}|X_{S^{h-1}},Y_{G^{h-1}}}."""
    xs = tuple(x_var(i) for i in spec.input_partition.prefix(h - 1))
    ys = tuple(f"Y{i}" for i in spec.output_partition.prefix(h - 1))
    out = tuple(x_var(i) for i in spec.input_partition.blocks[h - 1])
    return xs + ys, out


def factorized_joint(spec: NetworkSpec, input_conditionals) -> JointPmf:
    """Joint from the interleaved product of input conditionals and channels."""
    require_valid(spec)
    conds = tuple(input_conditionals)
    if len(conds) != spec.alpha:
        raise DomainError(f"expected {spec.alpha} input conditionals, got {len(conds)}")
    names, sizes = _full_layout(spec)
    arr = np.ones(sizes, dtype=np.float64)
    for h in range(1, spec.alpha + 1):
        want_in, want_out = input_conditional_vars(spec, h)
        c = conds[h - 1]
        if tuple(c.input_vars) != want_in or tuple(c.output_vars) != want_out:
            raise DomainError(
                f"input conditional {h}: variables ({c.input_vars} -> {c.output_vars})"
                f" != expected ({want_in} -> {want_out})"
            )
        rows = _group_size(spec.var_size, want_in)
        cols = _group_size(spec.var_size, want_out)
        if c.table.shape != (rows, cols):
            raise DomainError(f"input conditional {h}: table shape {c.table.shape} != ({rows}, {cols})")
        bad = c.stochasticity_violations(f"input conditional {h}")
        if bad:
            raise DomainError("; ".join(bad))
        arr = arr * _aligned_factor(spec, c.input_vars, c.output_vars, c.table)
        ch = spec.channels[h - 1]
        arr = arr * _aligned_factor(spec, ch.input_vars, ch.output_vars, ch.table)
    return JointPmf(tuple(zip(names, sizes)), arr.reshape(-1))


def product_input_joint(spec: NetworkSpec, p_x: JointPmf) -> JointPmf:
    """Joint p_{X_I} times the composed channel (the positive-delay factorization)."""
    require_valid(spec)
    want = spec.all_x_vars()
    if set(p_x.names) != set(want):
        raise DomainError(f"p_X must be over exactly {want}, got {p_x.names}")
    px = marginalize(p_x, want)
    if px.sizes != tuple(spec.var_size(n) for n in want):
        raise DomainError("p_X alphabet sizes differ from the spec")
    names, sizes = _full_layout(spec)
    composed = compose_channels(spec)
    arr = _aligned_factor(spec, composed.input_vars, composed.output_vars, composed.table)
    n = spec.n_nodes
    x_shape = sizes[:n] + (1,) * n
    joint = px.probs.reshape(x_shape) * arr
    return JointPmf(tuple(zip(names, sizes)), joint.reshape(-1))


# ---------------------------------------------------------------------------
# Structured-text (JSON) import/export, same mixed-radix convention.

def joint_to_dict(p: JointPmf) -> dict:
    return {
        "variables": [[n, s] for n, s in p.variables],
        "probs": p.probs.tolist(),
    }


def joint_from_dict(d: dict) -> JointPmf:
    try:
        variables = tuple((str(n), int(s)) for n, s in d["variables"])
        probs = np.asarray(d["probs"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as e:
        raise SpecIOError(f"malformed joint pmf: {e}") from e
    return JointPmf(variables, probs)


def load_joint(path) -> JointPmf:
    try:
        with open(path, "r", encoding="utf-8") as f:
            d = json.load(f)
    except OSError as e:
        raise SpecIOError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise SpecIOError(f"cannot parse {path}: {e}") from e
    return joint_from_dict(d)


def save_joint(p: JointPmf, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(joint_to_dict(p), f, indent=1)
        f.write("\n")
