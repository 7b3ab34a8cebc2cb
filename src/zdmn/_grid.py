"""Simplex-grid scan over admissible distributions for the cut-set bounds.

The free parameters are the per-channel input conditionals (capacity mode) or
the joint input pmf (positive-delay mode).  Every free row ranges over the
compositions of k into the row's alphabet size.  Grid points are indexed
mixed-radix over rows, first row most significant, so scan order and reported
witnesses are deterministic.

The grid only enumerates points; ``probability`` owns the full
(X_1..X_N, Y_1..Y_N) layout.  A batch of grid points is one layout array with
a trailing batch axis: the channel product times each free factor's
(rows, cols, count) point tables, placed by ``_aligned_factor``.  Each cut
term is the joint's ``_marginal`` on A+B+C, handed as an
(|A|, |B|, |C|, count) table to ``cmi_table``, the one I(A;B|C) kernel of the
package.  The point count, and the cells one scan batch holds, are capped
from the alphabet sizes before any length-D array exists.
"""

from __future__ import annotations

import itertools
import math
import numbers

import numpy as np

from .errors import DomainError, ResourceCapError
from .model import NetworkSpec, NodeSet, require_valid, x_var, y_var
from .probability import (_aligned_factor, _channel_product, _full_layout,
                          _group_size, _marginal, cmi_table, input_conditional_vars)

BATCH = 4096  # grid points per eval_batch call of a scan
GRID_CELL_CAP = 2 ** 26  # float64 cells one scan batch holds at once


def compositions(k: int, m: int) -> np.ndarray:
    """All m-part compositions of k, shape (C(k+m-1, m-1), m), stable order."""
    n = math.comb(k + m - 1, m - 1)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(k + m - 1), m - 1)),
        dtype=np.int64, count=n * (m - 1)).reshape(n, m - 1)
    return np.diff(bars, axis=1, prepend=-1, append=k + m - 1) - 1


def capacity_term_groups(spec: NetworkSpec, cut: NodeSet, h: int):
    """(A, B, C) variable names of the h-th capacity-bound term for cut T."""
    t = set(cut.members)
    sh = set(spec.input_partition.prefix(h).members)
    gh_prev = set(spec.output_partition.prefix(h - 1).members)
    gh = set(spec.output_partition.blocks[h - 1].members)
    a = tuple(x_var(i) for i in sorted(t & sh)) + tuple(y_var(i) for i in sorted(t & gh_prev))
    b = tuple(y_var(i) for i in sorted(gh - t))
    c = tuple(x_var(i) for i in sorted(sh - t)) + tuple(y_var(i) for i in sorted(gh_prev - t))
    return a, b, c


def positive_delay_term_groups(spec: NetworkSpec, cut: NodeSet):
    """(A, B, C) = (X_T, Y_{T^c}, X_{T^c})."""
    t = set(cut.members)
    rest = [i for i in range(1, spec.n_nodes + 1) if i not in t]
    a = tuple(x_var(i) for i in sorted(t))
    b = tuple(y_var(i) for i in rest)
    c = tuple(x_var(i) for i in rest)
    return a, b, c


def _normalize_mode(which: str) -> str:
    w = which.replace("_", "-").lower()
    if w not in ("capacity", "positive-delay"):
        raise DomainError(f"mode must be capacity or positive-delay, got {which!r}")
    return w


class GridProblem:
    """Point enumeration for scanning one spec/mode/resolution triple."""

    def __init__(self, spec: NetworkSpec, which: str, k: int,
                 max_distributions: int = 10**7):
        from .bounds import enumerate_cuts  # local import to avoid a cycle

        require_valid(spec)
        self.which = _normalize_mode(which)
        if not isinstance(k, numbers.Integral) or isinstance(k, bool):
            raise DomainError(f"grid resolution k must be an integer, got {k!r}")
        self.k = int(k)
        if self.k < 1:
            raise DomainError(f"grid resolution k must be >= 1, got {self.k}")
        if max_distributions < 1:
            raise DomainError(f"max_distributions must be >= 1, got {max_distributions}")

        def group_size(group) -> int:
            return _group_size(spec.var_size, group)

        # Free factors: (row-group vars, col-group vars) per factor.
        if self.which == "capacity":
            self.factors = [input_conditional_vars(spec, h) for h in range(1, spec.alpha + 1)]
        else:
            self.factors = [((), spec.all_x_vars())]

        # Both caps are checked from the alphabet sizes alone, before any
        # length-D array is built.
        self.factor_n_rows = [group_size(fin) for fin, _ in self.factors]
        self.factor_n_cols = [group_size(fout) for _, fout in self.factors]
        n_points = 1
        for n_rows, n_cols in zip(self.factor_n_rows, self.factor_n_cols):
            n_points *= math.comb(self.k + n_cols - 1, n_cols - 1) ** n_rows
        if n_points > max_distributions:
            raise ResourceCapError(
                f"grid has {n_points} distributions, above the cap {max_distributions}")
        self.n_points = n_points

        self.cuts = enumerate_cuts(spec.n_nodes)
        self.n_cuts = len(self.cuts)
        self.n_slots = spec.alpha if self.which == "capacity" else 1
        # Cut terms: (cut_idx, slot_idx, A+B+C names, (|A|, |B|, |C|)) of
        # every term whose A and B are non-empty.
        self._terms = []
        for ci, cut in enumerate(self.cuts):
            for s in range(self.n_slots):
                if self.which == "capacity":
                    a, b, c = capacity_term_groups(spec, cut.nodes, s + 1)
                else:
                    a, b, c = positive_delay_term_groups(spec, cut.nodes)
                if a and b:
                    self._terms.append((ci, s, a + b + c, tuple(map(group_size, (a, b, c)))))
        self.names, sizes = _full_layout(spec)
        d = math.prod(sizes)
        largest_term = max((math.prod(shape) for *_, shape in self._terms), default=0)
        # per point of a batch: the joint, counted twice as headroom (the
        # factors multiply it in place), one factor's point table, its digits
        # and its output terms; then a term's marginal and about four
        # cmi_table temporaries of its size
        table = max(r * c for r, c in zip(self.factor_n_rows, self.factor_n_cols))
        per_point = (2 * d + table + sum(self.factor_n_rows)
                     + self.n_cuts * self.n_slots + 5 * largest_term)
        cells = per_point * min(BATCH, n_points)
        if cells > GRID_CELL_CAP:
            raise ResourceCapError(
                f"grid needs {cells} table cells, above the cap {GRID_CELL_CAP}")

        self.spec = spec
        self.q = _channel_product(spec)  # fixed channel product, layout shape

        # Composition tables and the global row radix.
        self.comp_tables = [compositions(self.k, m) / float(self.k)
                            for m in self.factor_n_cols]
        self.radix = np.repeat([table.shape[0] for table in self.comp_tables],
                               self.factor_n_rows)
        self.row_offset = np.concatenate(([0], np.cumsum(self.factor_n_rows)[:-1]))
        self.n_rows_total = int(self.radix.size)

    # -- point decoding ----------------------------------------------------

    def _digits(self, points: np.ndarray) -> np.ndarray:
        """(len(points), n_rows_total) per-row composition indices, first
        row most significant."""
        digits = np.empty((points.size, self.n_rows_total), dtype=np.int64)
        for r in range(self.n_rows_total - 1, -1, -1):
            points, digits[:, r] = np.divmod(points, self.radix[r])
        return digits

    def _tables(self, f: int, digits: np.ndarray) -> np.ndarray:
        """Factor f's (len(digits), rows, cols) point tables."""
        off = int(self.row_offset[f])
        return self.comp_tables[f][digits[:, off:off + self.factor_n_rows[f]]]

    def coordinates(self, point: int) -> tuple[int, ...]:
        """Per-row composition indices, first row most significant."""
        if not 0 <= point < self.n_points:
            raise DomainError(f"point {point} outside 0..{self.n_points - 1}")
        return tuple(int(v) for v in self._digits(np.array([point], dtype=np.int64))[0])

    def distribution_rows(self, point: int) -> list[np.ndarray]:
        """One row-stochastic table per free factor at this grid point."""
        digits = np.array([self.coordinates(point)], dtype=np.int64)
        return [self._tables(f, digits)[0] for f in range(len(self.factors))]

    # -- evaluation --------------------------------------------------------

    def eval_batch(self, start: int, count: int) -> np.ndarray:
        """Terms array (count, n_cuts, n_slots); empty-group terms stay 0."""
        digits = self._digits(start + np.arange(count, dtype=np.int64))
        p = np.repeat(self.q[..., None], count, axis=-1)
        for f, (fin, fout) in enumerate(self.factors):
            tables = np.moveaxis(self._tables(f, digits), 0, -1)  # (rows, cols, count)
            p *= _aligned_factor(self.spec, fin, fout, tables)

        out = np.zeros((count, self.n_cuts, self.n_slots), dtype=np.float64)
        for ci, s, abc, shape in self._terms:
            out[:, ci, s] = cmi_table(_marginal(p, self.names, abc).reshape(shape + (count,)))
        return out
