"""Cut-set outer bounds: per-cut caps, factorization checks, grid search,
and the closed-form regions of the two worked examples.

The searched outer region is a union of per-distribution polyhedra, so a
membership query can only answer "inside" or "not-found-at-this-resolution";
the per-cut maximum over the grid is additionally reported as a LOOSE hull
(max-per-cut is a superset of the union of intersections).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._grid import (BATCH, GridProblem, _normalize_mode, capacity_term_groups,
                    positive_delay_term_groups)
from .errors import DomainError
from .model import ChannelTable, NetworkSpec, NodeSet
from .probability import (JointPmf, _marginal, binary_entropy,
                          conditional_mutual_information,
                          input_conditional_vars, marginalize,
                          product_input_joint)

INSIDE = "inside"
NOT_FOUND = "not-found-at-this-resolution"

FACT_TOL = 1e-9
RATE_TOL = 1e-9


@dataclass(frozen=True)
class Cut:
    """Proper nonempty subset T of the node set."""

    nodes: NodeSet

    @classmethod
    def of(cls, items) -> "Cut":
        return cls(NodeSet(tuple(sorted(set(int(i) for i in items)))))

    def bitmask(self, n_nodes: int) -> str:
        return self.nodes.bitmask(n_nodes)


@dataclass(frozen=True)
class CutConstraint:
    """Upper bound on the total rate crossing one cut."""

    cut: Cut
    per_channel_terms: tuple[float, ...]
    cap: float


@dataclass(frozen=True)
class RateTuple:
    """Nonnegative R_{i,j} per ordered pair, zero diagonal."""

    rates: np.ndarray = field(repr=False)

    def __post_init__(self):
        r = np.asarray(self.rates, dtype=np.float64)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise DomainError("rates must be a square matrix")
        if not np.all(np.isfinite(r)):
            raise DomainError("rates must be finite")
        if np.any(r < 0.0):
            raise DomainError("rates must be nonnegative")
        if np.any(np.diag(r) != 0.0):
            raise DomainError("diagonal rates must be zero")
        r.setflags(write=False)
        object.__setattr__(self, "rates", r)

    @classmethod
    def from_pairs(cls, n_nodes: int, pairs: dict) -> "RateTuple":
        r = np.zeros((n_nodes, n_nodes))
        for (i, j), v in pairs.items():
            r[i - 1, j - 1] = v
        return cls(r)

    def flow_across(self, cut: Cut) -> float:
        """Sum of R_{i,j} over i in T, j not in T."""
        n = self.rates.shape[0]
        t = [i - 1 for i in cut.nodes]
        rest = [j for j in range(n) if j + 1 not in cut.nodes]
        return float(self.rates[np.ix_(t, rest)].sum())


@dataclass(frozen=True)
class RateRegionReport:
    """Constraint set of one searched distribution (grid coordinates included)."""

    mode: str
    grid_resolution: int
    point_index: int
    coordinates: tuple[int, ...]
    distribution: tuple[np.ndarray, ...]
    constraints: tuple[CutConstraint, ...]


@dataclass(frozen=True)
class MembershipResult:
    verdict: str
    witness: RateRegionReport | None


def enumerate_cuts(n_nodes: int) -> list[Cut]:
    """All 2^N - 2 proper nonempty subsets, lexicographic over member tuples."""
    if n_nodes < 2:
        raise DomainError("cut enumeration needs at least 2 nodes")
    subsets = []
    for r in range(1, n_nodes):
        subsets += [tuple(c) for c in itertools.combinations(range(1, n_nodes + 1), r)]
    return [Cut(NodeSet(t)) for t in sorted(subsets)]


def _require_joint_over_all(spec: NetworkSpec, joint: JointPmf) -> None:
    want = set(spec.all_x_vars() + spec.all_y_vars())
    if set(joint.names) != want:
        raise DomainError(f"joint must cover exactly {sorted(want)}")
    bad = joint.validate()
    if bad:
        raise DomainError("malformed joint: " + "; ".join(bad))


def capacity_cut_cap(spec: NetworkSpec, joint: JointPmf, cut: Cut) -> CutConstraint:
    """Per-channel terms of the capacity-region bound for one cut."""
    _require_joint_over_all(spec, joint)
    terms = []
    for h in range(1, spec.alpha + 1):
        a, b, c = capacity_term_groups(spec, cut.nodes, h)
        if not a or not b:
            terms.append(0.0)
        else:
            terms.append(conditional_mutual_information(joint, a, b, c))
    return CutConstraint(cut, tuple(terms), float(sum(terms)))


def positive_delay_cut_cap(spec: NetworkSpec, joint: JointPmf, cut: Cut) -> CutConstraint:
    """Single-term positive-delay bound I(X_T; Y_{T^c} | X_{T^c}) for one cut."""
    _require_joint_over_all(spec, joint)
    a, b, c = positive_delay_term_groups(spec, cut.nodes)
    v = conditional_mutual_information(joint, a, b, c) if (a and b) else 0.0
    return CutConstraint(cut, (v,), v)


def check_factorization(spec: NetworkSpec, joint: JointPmf, which: str) -> bool:
    """Does the joint satisfy the admissibility factorization of the given mode?

    Capacity mode: the joint must reproduce every channel as its conditional of
    Y_{G_h} given (X_{S^h}, Y_{G^{h-1}}) on positive-probability rows.  The
    positive-delay mode additionally requires the joint to equal its own input
    marginal pushed through the composed channel.
    """
    which = _normalize_mode(which)
    _require_joint_over_all(spec, joint)
    arr = joint.as_array()
    for ch in spec.channels:
        if not ch.output_vars:
            continue
        table = _marginal(arr, joint.names, ch.input_vars + ch.output_vars)
        table = table.reshape(ch.table.shape)
        mass = table.sum(axis=1)
        seen = mass > 0.0
        if np.any(np.abs(table[seen] / mass[seen, None] - ch.table[seen]) > FACT_TOL):
            return False
    if which == "positive-delay":
        px = marginalize(joint, spec.all_x_vars())
        rebuilt = product_input_joint(spec, px)
        ref = marginalize(joint, rebuilt.names)
        if np.max(np.abs(ref.probs - rebuilt.probs)) > FACT_TOL:
            return False
    return True


# ---------------------------------------------------------------------------
# Grid search.

def _scan(problem: GridProblem):
    """Yield (start, caps, terms) per batch; caps has shape (count, n_cuts)."""
    start = 0
    while start < problem.n_points:
        count = min(BATCH, problem.n_points - start)
        terms = problem.eval_batch(start, count)
        yield start, terms.sum(axis=2), terms
        start += count


def _point_report(problem: GridProblem, point: int) -> RateRegionReport:
    coordinates = problem.coordinates(point)  # refuses a point off the grid
    terms = problem.eval_batch(point, 1)[0]
    constraints = tuple(
        CutConstraint(cut, tuple(terms[ci]), float(terms[ci].sum()))
        for ci, cut in enumerate(problem.cuts))
    return RateRegionReport(
        mode=problem.which,
        grid_resolution=problem.k,
        point_index=point,
        coordinates=coordinates,
        distribution=tuple(problem.distribution_rows(point)),
        constraints=constraints,
    )


def grid_hull(spec: NetworkSpec, which: str, k: int,
              max_distributions: int = 10**7):
    """LOOSE per-cut maximum over the grid: (constraints at argmax, n_points).

    Each returned CutConstraint carries the terms of the first grid point
    attaining that cut's maximum cap; max-per-cut is only an outer hull of the
    union-of-intersections region.
    """
    problem = GridProblem(spec, which, k, max_distributions)
    best_cap = np.full(problem.n_cuts, -1.0)
    best_point = np.zeros(problem.n_cuts, dtype=np.int64)
    best_terms = np.zeros((problem.n_cuts, problem.n_slots))
    for start, caps, terms in _scan(problem):
        for ci in range(problem.n_cuts):
            b = int(np.argmax(caps[:, ci]))
            if caps[b, ci] > best_cap[ci]:
                best_cap[ci] = caps[b, ci]
                best_point[ci] = start + b
                best_terms[ci] = terms[b, ci]
    hull = tuple(
        CutConstraint(cut, tuple(best_terms[ci]), float(best_cap[ci]))
        for ci, cut in enumerate(problem.cuts))
    return hull, problem.n_points, tuple(int(p) for p in best_point)


def region_membership(spec: NetworkSpec, rates: RateTuple, which: str, k: int,
                      max_distributions: int = 10**7) -> MembershipResult:
    """Search the grid for a distribution whose every cut constraint admits `rates`.

    Absence at resolution k is not a proof of exclusion (the region is a union
    over all admissible distributions); hence the non-committal verdict name.
    """
    if rates.rates.shape[0] != spec.n_nodes:
        raise DomainError("rate tuple size differs from n_nodes")
    problem = GridProblem(spec, which, k, max_distributions)
    flows = np.array([rates.flow_across(cut) for cut in problem.cuts])
    for start, caps, _terms in _scan(problem):
        ok = np.all(caps + RATE_TOL >= flows[None, :], axis=1)
        hit = np.flatnonzero(ok)
        if hit.size:
            return MembershipResult(INSIDE, _point_report(problem, start + int(hit[0])))
    return MembershipResult(NOT_FOUND, None)


def grid_point_report(spec: NetworkSpec, which: str, k: int, point: int,
                      max_distributions: int = 10**7) -> RateRegionReport:
    return _point_report(GridProblem(spec, which, k, max_distributions), point)


def grid_conditionals(spec: NetworkSpec, which: str, k: int, point: int,
                      max_distributions: int = 10**7):
    """The searched distribution at a grid point as ChannelTable conditionals
    (capacity mode) or a JointPmf over the inputs (positive-delay mode)."""
    problem = GridProblem(spec, which, k, max_distributions)
    rows = problem.distribution_rows(point)
    if problem.which == "capacity":
        out = []
        for h in range(1, spec.alpha + 1):
            in_vars, out_vars = input_conditional_vars(spec, h)
            out.append(ChannelTable(in_vars, out_vars, rows[h - 1]))
        return out
    names = spec.all_x_vars()
    return JointPmf(tuple((n, spec.var_size(n)) for n in names), rows[0].reshape(-1))


# ---------------------------------------------------------------------------
# Closed forms for the two worked examples.

@dataclass(frozen=True)
class BscFbRegion:
    forward_cap: float  # on R_{1,2}
    reverse_cap: float  # on R_{2,1}


def bscfb_capacity_region(eps: float) -> BscFbRegion:
    """Capacity region of the feedback example: R_{1,2} <= 1-H(eps), R_{2,1} <= 1."""
    return BscFbRegion(1.0 - binary_entropy(eps), 1.0)


@dataclass(frozen=True)
class GaussianRelayBounds:
    positive_delay_cap: float
    achievable_rate: float
    separated: bool


def gaussian_relay_bounds(p: float) -> GaussianRelayBounds:
    """Positive-delay cap 0.5 log2(3 + 2P/5) vs achievable 0.5 log2(1 + 2P)."""
    if not math.isfinite(p) or p <= 0.0:
        raise DomainError(f"power must be positive and finite, got {p}")
    cap = 0.5 * math.log2(3.0 + 2.0 * p / 5.0)
    ach = 0.5 * math.log2(1.0 + 2.0 * p)
    return GaussianRelayBounds(cap, ach, ach > cap)
