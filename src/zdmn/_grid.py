"""Simplex-grid scan over admissible distributions for the cut-set bounds.

The free parameters are the per-channel input conditionals (capacity mode) or
the joint input pmf (positive-delay mode).  Every free row ranges over the
compositions of k into the row's alphabet size.  Grid points are indexed
mixed-radix over rows, first row most significant, so scan order and reported
witnesses are deterministic.

The per-cut mutual-information terms are evaluated for a batch of grid
points at once, with one-hot projection matrices in numpy.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DomainError, ResourceCapError
from .model import NetworkSpec, NodeSet, require_valid, x_var, y_var

MI_CLAMP = 1e-12


def compositions(k: int, m: int) -> np.ndarray:
    """All m-part compositions of k, shape (C(k+m-1, m-1), m), stable order."""
    if m == 1:
        return np.array([[k]], dtype=np.int64)
    out = np.empty((math.comb(k + m - 1, m - 1), m), dtype=np.int64)
    for r, bars in enumerate(itertools.combinations(range(k + m - 1), m - 1)):
        prev = -1
        for j, b in enumerate(bars):
            out[r, j] = b - prev - 1
            prev = b
        out[r, m - 1] = k + m - 2 - prev
    return out


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
        self.spec = spec
        self.which = _normalize_mode(which)
        self.k = int(k)
        if self.k < 1:
            raise DomainError(f"grid resolution k must be >= 1, got {self.k}")

        names = spec.all_x_vars() + spec.all_y_vars()
        sizes = np.array([spec.var_size(n) for n in names], dtype=np.int64)
        self._names = names
        pos = {n: i for i, n in enumerate(names)}

        def group_size(group) -> int:
            return math.prod(int(sizes[pos[n]]) for n in group)

        # Free factors: (row-group vars, col-group vars) per factor.
        if self.which == "capacity":
            factors = []
            for h in range(1, spec.alpha + 1):
                xs = tuple(x_var(i) for i in spec.input_partition.prefix(h - 1))
                ys = tuple(y_var(i) for i in spec.output_partition.prefix(h - 1))
                out = tuple(x_var(i) for i in spec.input_partition.blocks[h - 1])
                factors.append((xs + ys, out))
        else:
            factors = [((), spec.all_x_vars())]
        self.n_factors = len(factors)
        self.factor_vars = factors

        # The cap is checked from the alphabet sizes alone, before any
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

        d = group_size(names)
        self.d = d
        vals = np.array(np.unravel_index(np.arange(d), tuple(sizes))).T  # (D, nvars)

        def group_index(group) -> np.ndarray:
            idx = np.zeros(d, dtype=np.int64)
            for n in group:
                idx = idx * int(sizes[pos[n]]) + vals[:, pos[n]]
            return idx.astype(np.int32)

        # Fixed channel factor product Q[j].
        q = np.ones(d, dtype=np.float64)
        for h in range(1, spec.alpha + 1):
            ch = spec.channels[h - 1]
            row_idx = group_index(ch.input_vars)
            col_idx = group_index(ch.output_vars)
            q *= ch.table[row_idx, col_idx]
        self.q = q

        self.factor_row_maps = [group_index(fin) for fin, _ in factors]
        self.factor_col_maps = [group_index(fout) for _, fout in factors]

        # Composition tables and the global row radix.
        self.comp_tables = [compositions(self.k, m) / float(self.k)
                            for m in self.factor_n_cols]
        radix = []
        row_factor = []
        for f in range(self.n_factors):
            nc = self.comp_tables[f].shape[0]
            radix += [nc] * self.factor_n_rows[f]
            row_factor += [f] * self.factor_n_rows[f]
        self.radix = np.array(radix, dtype=np.int64)
        self.row_factor = np.array(row_factor, dtype=np.int64)
        self.row_offset = np.zeros(self.n_factors, dtype=np.int64)
        for f in range(1, self.n_factors):
            self.row_offset[f] = self.row_offset[f - 1] + self.factor_n_rows[f - 1]
        self.n_rows_total = int(self.radix.size)

        # Cut terms.
        self.cuts = enumerate_cuts(spec.n_nodes)
        self.n_cuts = len(self.cuts)
        self.n_slots = spec.alpha if self.which == "capacity" else 1
        self._terms = []  # (cut_idx, slot_idx, abc_of, to_ac, to_bc, to_c)
        for ci, cut in enumerate(self.cuts):
            for s in range(self.n_slots):
                if self.which == "capacity":
                    a, b, c = capacity_term_groups(spec, cut.nodes, s + 1)
                else:
                    a, b, c = positive_delay_term_groups(spec, cut.nodes)
                if not a or not b:
                    continue
                abc_of = group_index(a + b + c)
                ma, mb, mc = (group_size(g) for g in (a, b, c))
                m_abc = ma * mb * mc
                cells = np.arange(m_abc, dtype=np.int64)
                c_of = cells % mc
                ab = cells // mc
                a_of = ab // mb
                b_of = ab % mb
                to_ac = (a_of * mc + c_of).astype(np.int32)
                to_bc = (b_of * mc + c_of).astype(np.int32)
                to_c = c_of.astype(np.int32)
                self._terms.append((ci, s, abc_of, to_ac, to_bc, to_c,
                                    m_abc, ma * mc, mb * mc, mc))
        self._np_cache = None

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
        if self._np_cache is None:
            cache = []
            for (_, _, abc_of, to_ac, to_bc, to_c, m_abc, m_ac, m_bc, m_c) in self._terms:
                m = np.zeros((self.d, m_abc), dtype=np.float64)
                m[np.arange(self.d), abc_of] = 1.0
                proj_ac = np.zeros((m_abc, m_ac), dtype=np.float64)
                proj_ac[np.arange(m_abc), to_ac] = 1.0
                proj_bc = np.zeros((m_abc, m_bc), dtype=np.float64)
                proj_bc[np.arange(m_abc), to_bc] = 1.0
                proj_c = np.zeros((m_abc, m_c), dtype=np.float64)
                proj_c[np.arange(m_abc), to_c] = 1.0
                cache.append((m, proj_ac, proj_bc, proj_c))
            self._np_cache = cache
        cache = self._np_cache

        idx = start + np.arange(count, dtype=np.int64)
        digits = np.empty((count, self.n_rows_total), dtype=np.int64)
        work = idx.copy()
        for r in range(self.n_rows_total - 1, -1, -1):
            digits[:, r] = work % self.radix[r]
            work //= self.radix[r]
        p = np.broadcast_to(self.q, (count, self.d)).copy()
        for f in range(self.n_factors):
            dg = digits[:, int(self.row_offset[f]) + self.factor_row_maps[f]]
            p *= self.comp_tables[f][dg, self.factor_col_maps[f][None, :]]

        out = np.zeros((count, self.n_cuts, self.n_slots), dtype=np.float64)
        for t, (ci, s, abc_of, to_ac, to_bc, to_c, *_sizes) in enumerate(self._terms):
            m_onehot, proj_ac, proj_bc, proj_c = cache[t]
            pabc = p @ m_onehot
            pac = pabc @ proj_ac
            pbc = pabc @ proj_bc
            pc = pabc @ proj_c
            mask = pabc > 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(mask,
                                 pabc * pc[:, to_c] / (pac[:, to_ac] * pbc[:, to_bc]),
                                 1.0)
                vals = np.where(mask, pabc * np.log2(ratio), 0.0)
            mi = vals.sum(axis=1)
            mi[(mi < 0.0) & (mi >= -MI_CLAMP)] = 0.0
            out[:, ci, s] = mi
        return out
