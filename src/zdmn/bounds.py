"""Cut-set outer bounds: rate tuples, their cut flows and the grid search.

The positive-delay bound I(X_T; Y_{T^c} | X_{T^c}) is the capacity bound of
the all-delayed network (``probability.all_delayed_network``).  Only the grid
takes a mode, to pick the network it scans.

The searched outer region is a union of per-distribution polyhedra, so a
membership query can only answer "inside" or "not-found-at-this-resolution";
the per-cut maximum over the grid is additionally reported as a LOOSE hull
(max-per-cut is a superset of the union of intersections).

The closed forms of the two worked examples sit beside their schemes: the
feedback pair's capacity region in ``simulate``, the relay chain's rates in
``gaussian``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._grid import BATCH, GridProblem
from .errors import DomainError
from .model import (NODE_CAP, ChannelTable, Cut, NetworkSpec, _shown, require_integer,
                    require_real, require_table, require_within_cap)

INSIDE = "inside"
NOT_FOUND = "not-found-at-this-resolution"

RATE_TOL = 1e-9


def _require_proper_cut(cut: Cut, n_nodes: int) -> None:
    """Refuse a cut that is not a proper nonempty subset of 1..N."""
    members = cut.nodes.members
    if not (0 < len(members) < n_nodes and cut.nodes.strictly_increasing()
            and 1 <= members[0] and members[-1] <= n_nodes):
        shown = ", ".join(str(_shown(i)) for i in members)
        raise DomainError(f"cut [{shown}] is not a proper nonempty subset of 1..{n_nodes}")


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
        r = require_table(self.rates, "real", "rate tuple")
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise DomainError("rates must be a square matrix")
        if not np.all(np.isfinite(r)):
            raise DomainError("rates must be finite")
        if np.any(r < 0.0):
            raise DomainError("rates must be nonnegative")
        if np.any(np.diag(r) != 0.0):
            raise DomainError("diagonal rates must be zero")
        object.__setattr__(self, "rates", r)

    def __reduce__(self):
        # a pickled array comes back writable: rebuild through __init__
        return RateTuple, (self.rates,)

    @classmethod
    def from_pairs(cls, n_nodes: int, pairs: dict) -> "RateTuple":
        n_nodes = require_integer(n_nodes, "n_nodes", 1)
        require_within_cap(n_nodes, NODE_CAP, "rate tuple node count")
        r = np.zeros((n_nodes, n_nodes))
        for (i, j), v in pairs.items():
            i, j = (require_integer(k, "node index", 1) for k in (i, j))
            if max(i, j) > n_nodes:
                raise DomainError(f"rate pair ({_shown(i)}, {_shown(j)}) outside 1..{n_nodes}")
            r[i - 1, j - 1] = require_real(v, "rate")
        return cls(r)

    def flow_across(self, cut: Cut) -> float:
        """Sum of R_{i,j} over i in T, j not in T."""
        n = self.rates.shape[0]
        _require_proper_cut(cut, n)
        t = [i - 1 for i in cut.nodes]
        rest = [j for j in range(n) if j + 1 not in cut.nodes]
        return float(self.rates[np.ix_(t, rest)].sum())


@dataclass(frozen=True)
class RateRegionReport:
    """Constraint set of one searched distribution (grid coordinates included).

    ``distribution`` holds the point's free input conditionals as
    ChannelTables of the scanned network: the spec in capacity mode, the
    all-delayed network in positive-delay mode, whose one conditional is
    p(x).  Their product with that network's channels is the point's joint.
    """

    mode: str
    grid_resolution: int
    point_index: int
    coordinates: tuple[int, ...]
    distribution: tuple[ChannelTable, ...]
    constraints: tuple[CutConstraint, ...]


@dataclass(frozen=True)
class MembershipResult:
    verdict: str
    witness: RateRegionReport | None


# ---------------------------------------------------------------------------
# Grid search.

def _scan(problem: GridProblem):
    """Yield (start, caps, terms) per batch; caps has shape (count, n_cuts)."""
    start = 0
    while start < problem.n_points:
        count = min(BATCH, problem.n_points - start)
        terms = problem.eval_batch(start, count)
        # a running sum over the slots, in slot order: numpy's reduction
        # over the short innermost axis costs ~25 times as much
        caps = terms[:, :, 0].copy()
        for s in range(1, problem.n_slots):
            caps += terms[:, :, s]
        yield start, caps, terms
        start += count


def _point_report(problem: GridProblem, point: int) -> RateRegionReport:
    coordinates = problem.coordinates(point)  # refuses a point off the grid
    terms = problem.eval_batch(point, 1)[0]
    constraints = tuple(  # caps added in slot order, as ``_scan`` adds them
        CutConstraint(cut, tuple(terms[ci]), float(sum(terms[ci])))
        for ci, cut in enumerate(problem.cuts))
    return RateRegionReport(
        mode=problem.which,
        grid_resolution=problem.k,
        point_index=point,
        coordinates=coordinates,
        distribution=tuple(ChannelTable(fin, fout, rows) for (fin, fout), rows
                           in zip(problem.factors, problem.distribution_rows(point))),
        constraints=constraints,
    )


def grid_hull(spec: NetworkSpec, which: str, k: int):
    """LOOSE per-cut maximum over the grid: (hull, n_points, best_points).

    ``hull`` holds one CutConstraint per cut, carrying the terms of the first
    grid point attaining that cut's maximum cap, and ``best_points`` those
    points' indices; max-per-cut is only an outer hull of the
    union-of-intersections region.
    """
    problem = GridProblem(spec, which, k)
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


def region_membership(spec: NetworkSpec, rates: RateTuple, which: str, k: int) -> MembershipResult:
    """Search the grid for a distribution whose every cut constraint admits `rates`.

    Absence at resolution k is not a proof of exclusion (the region is a union
    over all admissible distributions); hence the non-committal verdict name.
    """
    if rates.rates.shape[0] != spec.n_nodes:
        raise DomainError("rate tuple size differs from n_nodes")
    problem = GridProblem(spec, which, k)
    flows = np.array([rates.flow_across(cut) for cut in problem.cuts])
    for start, caps, _terms in _scan(problem):
        ok = np.all(caps + RATE_TOL >= flows[None, :], axis=1)
        hit = np.flatnonzero(ok)
        if hit.size:
            return MembershipResult(INSIDE, _point_report(problem, start + int(hit[0])))
    return MembershipResult(NOT_FOUND, None)
