"""Simplex-grid scan over admissible distributions for the cut-set bounds.

The free parameters are the per-channel input conditionals (capacity mode) or
the joint input pmf (positive-delay mode).  Every free row ranges over the
compositions of k into the row's alphabet size.  Grid points are indexed
mixed-radix over rows, first row most significant, so scan order and reported
witnesses are deterministic.

A batch of grid points is a batch-last (D, count) array of joints over the
full (X_1..X_N, Y_1..Y_N) layout: the channel product times each free
factor's point table, expanded to D by one gather.  Each cut term sums the
joint over the variable axes outside (A, B, C), orders the rest as A+B+C and
hands the (|A|, |B|, |C|, count) table to ``probability.cmi_table``, the one
I(A;B|C) kernel of the package.  The point count, and the cells of one scan
batch's joint plus its largest term marginal, are capped from the alphabet
sizes before any length-D array exists.
"""

from __future__ import annotations

import itertools
import math
import numbers

import numpy as np

from .errors import DomainError, ResourceCapError
from .model import NetworkSpec, NodeSet, require_valid, x_var, y_var
from .probability import (_group_size, cmi_table, compose_channels,
                          input_conditional_vars)

BATCH = 4096  # grid points per eval_batch call of a scan
GRID_CELL_CAP = 2 ** 26  # float64 cells of one scan batch's joint plus its largest term marginal


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
    """Precomputed index maps for scanning one spec/mode/resolution triple."""

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
            factors = [input_conditional_vars(spec, h) for h in range(1, spec.alpha + 1)]
        else:
            factors = [((), spec.all_x_vars())]
        self.n_factors = len(factors)

        # Both caps are checked from the alphabet sizes alone, before any
        # length-D table is built.
        self.factor_n_rows = [group_size(fin) for fin, _ in factors]
        self.factor_n_cols = [group_size(fout) for _, fout in factors]
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
        groups = []  # (cut_idx, slot_idx, (A, B, C)) of every non-empty term
        for ci, cut in enumerate(self.cuts):
            for s in range(self.n_slots):
                if self.which == "capacity":
                    abc = capacity_term_groups(spec, cut.nodes, s + 1)
                else:
                    abc = positive_delay_term_groups(spec, cut.nodes)
                if abc[0] and abc[1]:
                    groups.append((ci, s, abc))
        names = spec.all_x_vars() + spec.all_y_vars()
        d = group_size(names)
        largest_term = max((group_size(a + b + c) for _, _, (a, b, c) in groups), default=0)
        cells = (d + largest_term) * min(BATCH, n_points)
        if cells > GRID_CELL_CAP:
            raise ResourceCapError(
                f"grid needs {cells} table cells, above the cap {GRID_CELL_CAP}")

        self.sizes = tuple(spec.var_size(n) for n in names)
        pos = {n: i for i, n in enumerate(names)}
        vals = np.array(np.unravel_index(np.arange(d), self.sizes)).T  # (D, nvars)

        def group_index(group) -> np.ndarray:
            idx = np.zeros(d, dtype=np.int64)
            for n in group:
                idx = idx * self.sizes[pos[n]] + vals[:, pos[n]]
            return idx

        self.q = compose_channels(spec).table.reshape(-1)  # fixed channel product
        # Per factor, the flat (row, col) cell of its point table under each
        # of the D joint cells.
        self.factor_cells = [group_index(fin) * n_cols + group_index(fout)
                             for (fin, fout), n_cols in zip(factors, self.factor_n_cols)]

        # Composition tables and the global row radix.
        self.comp_tables = [compositions(self.k, m) / float(self.k)
                            for m in self.factor_n_cols]
        self.radix = np.repeat([table.shape[0] for table in self.comp_tables],
                               self.factor_n_rows)
        self.row_offset = np.concatenate(([0], np.cumsum(self.factor_n_rows)[:-1]))
        self.n_rows_total = int(self.radix.size)

        # Cut terms: (cut_idx, slot_idx, axes summed out, A+B+C order of the
        # axes kept, (|A|, |B|, |C|)).
        self._terms = []
        for ci, s, (a, b, c) in groups:
            abc = [pos[n] for n in a + b + c]
            drop = tuple(i for i in range(len(names)) if i not in abc)
            kept = sorted(abc)
            order = tuple(kept.index(i) for i in abc) + (len(abc),)  # batch axis last
            shape = tuple(group_size(g) for g in (a, b, c))
            self._terms.append((ci, s, drop, order, shape))

    # -- point decoding ----------------------------------------------------

    def coordinates(self, point: int) -> tuple[int, ...]:
        """Per-row composition indices, first row most significant."""
        digits = [0] * self.n_rows_total
        g = point
        for r in range(self.n_rows_total - 1, -1, -1):
            g, digits[r] = divmod(g, int(self.radix[r]))
        return tuple(digits)

    def distribution_rows(self, point: int) -> list[np.ndarray]:
        """One row-stochastic table per free factor at this grid point."""
        digits = self.coordinates(point)
        out = []
        for f in range(self.n_factors):
            rows = self.factor_n_rows[f]
            table = np.empty((rows, self.factor_n_cols[f]), dtype=np.float64)
            for r in range(rows):
                table[r] = self.comp_tables[f][digits[int(self.row_offset[f]) + r]]
            out.append(table)
        return out

    # -- evaluation --------------------------------------------------------

    def eval_batch(self, start: int, count: int) -> np.ndarray:
        """Terms array (count, n_cuts, n_slots); empty-group terms stay 0."""
        idx = start + np.arange(count, dtype=np.int64)
        digits = np.empty((count, self.n_rows_total), dtype=np.int64)
        work = idx.copy()
        for r in range(self.n_rows_total - 1, -1, -1):
            digits[:, r] = work % self.radix[r]
            work //= self.radix[r]
        p = self.q[:, None]
        for f in range(self.n_factors):
            off = int(self.row_offset[f])
            dg = digits[:, off:off + self.factor_n_rows[f]]
            table = self.comp_tables[f][dg].reshape(count, -1).T  # (rows*cols, count)
            expanded = table.take(self.factor_cells[f], axis=0)
            expanded *= p
            p = expanded
        p = p.reshape(self.sizes + (count,))

        out = np.zeros((count, self.n_cuts, self.n_slots), dtype=np.float64)
        for ci, s, drop, order, shape in self._terms:
            pabc = p.sum(axis=drop).transpose(order).reshape(shape + (count,))
            out[:, ci, s] = cmi_table(pabc)
        return out
