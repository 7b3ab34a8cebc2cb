"""Simplex-grid scan over admissible distributions for the cut-set bounds.

The grid scans the capacity-mode terms of one network: the spec itself, or
in positive-delay mode the all-delayed network
(``probability.all_delayed_network``), whose one free factor is p(x) and
whose one channel is the channel product.  Both have the spec's nodes
and alphabets, so its full layout: the grid keeps the spec and reads the
scanned network's steps from ``model.step_plan`` of its two partitions,
the spec's or S = G = ({1..N}).  The free parameters are the
per-channel input conditionals; every free row ranges over the compositions
of k into the row's alphabet size.  A grid point is the index of its tuple
of per-row composition indices in numpy's C order, first row most
significant, so scan order and reported witnesses are deterministic.

The grid only enumerates points; ``probability`` owns the full
(X_1..X_N, Y_1..Y_N) layout and the one log-sum kernel,
``cond_entropy_table``.  Every cut term I(A;B|C) has p(b|a,c) fixed by the
network: A+C of term h are exactly channel h's inputs (X_{S^h}, Y_{G^{h-1}})
and B is part of its outputs Y_{G_h}.  So each term is

    I(A;B|C) = H(B|C) - sum over (a, c) of p(a,c) h(a,c),

where h(a,c) is the entropy of row (a, c) of the term's channel W(b|a,c)
and p(b,c) = sum over a of p(a,c) W(b|a,c).  W and h are computed once per
grid, so a batch of points needs only each slot's channel-input joint: the
product P_1 q_1 P_2 ... P_h of the free factors' point tables and the
channels, placed by ``_aligned_factor`` with a trailing batch axis.  That
joint reads only factors 1..h, so slot h is evaluated once per distinct
prefix of the batch, the composition indices of those factors' rows, and
its terms are gathered to the batch rows: a batch's prefixes are one
contiguous range, found and decoded by ``np.ravel_multi_index`` /
``np.unravel_index``, and only the last slot runs on the full batch.  Each
point table is one contiguous (rows, cols, count) array, taken row by row
from its factor's composition table, which is held transposed as
(cols, n_compositions).  The sums over a start from the first row's
products, not from zeros, and add the other rows through one scratch
buffer in the same order.  The point count, and the cells one scan batch
holds, are capped from the alphabet sizes before any length-D array exists;
prefix tables are never larger than the batch's.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .model import (NetworkSpec, NodeSet, Partition, _input_names, enumerate_cuts,
                    require_integer, require_valid, require_within_cap, step_plan, x_var, y_var)
from .probability import (_aligned_factor, _channel_product, _full_layout, _group_size,
                          _clamp_mi, _marginal, _row_sum, cond_entropy_table,
                          input_conditional_vars)

POINT_CAP = 10 ** 7  # grid points one scan may enumerate
BATCH = 4096  # grid points per eval_batch call of a scan
GRID_CELL_CAP = 2 ** 26  # float64 cells one scan batch holds at once


def compositions(k: int, m: int) -> np.ndarray:
    """All m-part compositions of k, shape (C(k+m-1, m-1), m), in stars-and-bars
    order: lexicographic, first part most significant.

    Built level by level: each prefix of j parts is repeated once per value
    0..r of part j + 1, r being what the prefix leaves of k, and every level
    keeps its (parent, value) pairs; the columns are then gathered back from
    the last level.  The table is column-major, so ``.T`` is a contiguous
    (m, C(k+m-1, m-1)) array.
    """
    remaining = np.array([k], dtype=np.int64)
    levels = []
    for _ in range(m - 1):
        counts = remaining + 1
        parent = np.repeat(np.arange(remaining.size), counts)
        value = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
        remaining = remaining[parent] - value
        levels.append((parent, value))
    cols = np.empty((m, remaining.size), dtype=np.int64)
    cols[m - 1] = remaining
    index = np.arange(remaining.size)
    for j in range(m - 2, -1, -1):
        parent, value = levels[j]
        cols[j] = value[index]
        index = parent[index]
    return cols.T


def capacity_term_groups(step, cut: NodeSet):
    """(A, B, C) variable names of the capacity-bound term of one ``step_plan``
    step for cut T: channel h's inputs at nodes in T, its outputs at nodes
    outside T, and its inputs at nodes outside T."""
    inside = {x_var(i) for i in cut} | {y_var(i) for i in cut}
    _, xs, ys, outs = step
    ins = _input_names(xs, ys)
    a = tuple(v for v in ins if v in inside)
    b = tuple(v for v in map(y_var, outs) if v not in inside)
    c = tuple(v for v in ins if v not in inside)
    return a, b, c


def _require_mode(which: str) -> str:
    if not (isinstance(which, str) and which in ("capacity", "positive-delay")):
        raise DomainError(f"mode must be capacity or positive-delay, got {which!r}")
    return which


class GridProblem:
    """Point enumeration for scanning one spec/mode/resolution triple."""

    def __init__(self, spec: NetworkSpec, which: str, k: int):
        require_valid(spec)
        self.which = _require_mode(which)
        self.k = require_integer(k, "grid resolution k", 1)
        self.spec = spec

        def group_size(group) -> int:
            return _group_size(spec.var_size, group)

        # Positive-delay mode scans the all-delayed network's one step; its
        # one channel has D cells, so the caps below read only the steps and
        # that channel is built after they pass.
        parts = ((spec.input_partition, spec.output_partition) if self.which == "capacity"
                 else (Partition((NodeSet(tuple(range(1, spec.n_nodes + 1))),)),) * 2)
        plan = list(step_plan(*parts))

        # Free factors: (row-group vars, col-group vars) per factor.
        self.factors = list(map(input_conditional_vars, plan))

        # The caps are checked from k and the alphabet sizes alone, before
        # any length-D array is built.
        self.factor_n_rows = [group_size(fin) for fin, _ in self.factors]
        self.factor_n_cols = [group_size(fout) for _, fout in self.factors]
        n_points = 1
        for n_rows, n_cols in zip(self.factor_n_rows, self.factor_n_cols):
            n_points *= math.comb(self.k + n_cols - 1, n_cols - 1) ** n_rows
        require_within_cap(n_points, POINT_CAP, "grid point count")
        require_within_cap(self.k, POINT_CAP, "grid resolution k")
        self.n_points = n_points

        self.cuts = enumerate_cuts(spec.n_nodes)
        self.n_cuts = len(self.cuts)
        self.n_slots = len(plan)
        # (slot_idx, cut_idx, A, B, C, (|A|, |B|, |C|)) of every term whose A
        # and B both take more than one value; the others are I(A;B|C) = 0
        groups = []
        for s in range(self.n_slots):
            for ci, cut in enumerate(self.cuts):
                a, b, c = capacity_term_groups(plan[s], cut.nodes)
                shape = tuple(map(group_size, (a, b, c)))
                if shape[0] > 1 and shape[1] > 1:
                    groups.append((s, ci, a, b, c, shape))
        self.names, sizes = _full_layout(spec)
        # Cells held at once: the channel product (D cells, once) while the
        # term channels are set up; then per point of a batch the digits,
        # the prefix and parent indices and the output terms, a factor's
        # point table and its placed copy, the slot's input joint before and
        # after that factor (a slot's inputs are its factor's rows and
        # columns, so each joint has as many cells as the largest table) and
        # a term's copy of it, and that term's p(b,c), product and entropy
        # temporaries.  A slot evaluated per prefix holds no more.
        table = max(r * c for r, c in zip(self.factor_n_rows, self.factor_n_cols))
        largest_term = max((5 * nb * nc for *_, (_, nb, nc) in groups), default=0)
        per_point = (sum(self.factor_n_rows) + 2 + self.n_cuts * self.n_slots
                     + 5 * table + largest_term)
        cells = math.prod(sizes) + per_point * min(BATCH, n_points)
        require_within_cap(cells, GRID_CELL_CAP, "grid table cell count")

        # Every term's channel is its slot's channel, fixed by the network:
        # in positive-delay mode the channel product q^(1) ... q^(alpha) of
        # the spec, already in the full layout.  Each term keeps W(b|a,c) as
        # an (|A|, |B|, |C|) table and the (|A|, |C|) entropies h(a,c) of
        # its rows.
        if self.which == "capacity":
            channels = [_aligned_factor(spec, ch.input_vars, ch.output_vars, ch.table)
                        for ch in spec.channels]
        else:
            channels = [_channel_product(spec)]
        self._terms = [[] for _ in range(self.n_slots)]  # (cut_idx, A+C names, W, h)
        for s, ci, a, b, c, shape in groups:
            w = _marginal(channels[s], self.names, a + b + c).reshape(shape)
            h = cond_entropy_table(np.swapaxes(w, 0, 1)[:, None])
            self._terms[s].append((ci, a + c, w, h))
        # the channels between consecutive free factors, with a batch axis
        self._channels = [ch[..., None] for ch in channels[:len(self.factors) - 1]]

        # Composition tables, held transposed as contiguous
        # (cols, n_compositions) arrays, and the global row radix.
        self.comp_tables = [compositions(self.k, m).T / float(self.k)
                            for m in self.factor_n_cols]
        self.radix = np.repeat([table.shape[1] for table in self.comp_tables],
                               self.factor_n_rows)
        self.row_offset = np.concatenate(([0], np.cumsum(self.factor_n_rows)[:-1]))

    # -- point decoding ----------------------------------------------------

    def _tables(self, f: int, digits) -> np.ndarray:
        """Factor f's point tables as one contiguous (rows, cols, count) array,
        from ``digits``, the ``np.unravel_index`` of count points: one
        composition index per row."""
        off = int(self.row_offset[f])
        table = self.comp_tables[f]
        return np.stack([table.take(row, axis=1)
                         for row in digits[off:off + self.factor_n_rows[f]]])

    def coordinates(self, point: int) -> tuple[int, ...]:
        """Per-row composition indices, first row most significant."""
        if not 0 <= point < self.n_points:
            raise DomainError(f"point {point} outside 0..{self.n_points - 1}")
        return tuple(int(v) for v in np.unravel_index(point, self.radix))

    def distribution_rows(self, point: int) -> list[np.ndarray]:
        """One row-stochastic table per free factor at this grid point."""
        digits = [[v] for v in self.coordinates(point)]
        return [self._tables(f, digits)[..., 0] for f in range(len(self.factors))]

    # -- evaluation --------------------------------------------------------

    def _prefixes(self, digits, rows: int):
        """(local, prefix digits) of a batch over its first ``rows`` rows.

        A batch of consecutive points has one contiguous range of distinct
        prefixes (the digits of those rows); ``prefix digits`` holds that
        range's digits and ``local`` maps each batch row to its entry in the
        range.  Over every row a prefix is the point itself, so the batch's
        own digits and the whole range serve as they are.
        """
        if rows == len(self.radix):
            return slice(None), digits
        radix = self.radix[:rows]
        prefix = np.ravel_multi_index(digits[:rows], radix)
        return prefix - prefix[0], np.unravel_index(np.arange(prefix[0], prefix[-1] + 1), radix)

    def eval_batch(self, start: int, count: int) -> np.ndarray:
        """Terms array (count, n_cuts, n_slots); terms with a constant A or B
        stay 0.

        Slot h's terms read only factors 1..h, so they are evaluated once per
        distinct prefix of the batch, the composition digits of those
        factors' rows, and then gathered to the batch rows.  Points run in C
        order, first row most significant, so a batch's slot-h prefixes are
        one contiguous range; slot h's joint P_1 q_1 P_2 ... P_h is the
        previous slot's joint taken from its prefixes to slot h's, times
        channel h-1 and then factor h's point tables, so no variable is ever
        summed out and the last slot runs on the full batch.

        Each term is I(A;B|C) = H(B|C) - sum over (a, c) of p(a,c) h(a,c),
        with p(b,c) = sum over a of p(a,c) W(b|a,c); a and c are added in
        row order, so a point's terms do not depend on its batch.  The sums
        over a start from the a = 0 products themselves (0.0 + x is x for
        x >= 0) and add each further row through one scratch buffer, so a
        term allocates no zero-filled or per-row temporaries.
        """
        digits = np.unravel_index(start + np.arange(count), self.radix)
        out = np.zeros((count, self.n_cuts, self.n_slots), dtype=np.float64)
        joint, local = np.ones(()), None
        for s, (fin, fout) in enumerate(self.factors):
            prev_local = local
            local, prefix_digits = self._prefixes(
                digits, int(self.row_offset[s]) + self.factor_n_rows[s])
            if s:
                # every batch row with one slot-s prefix has one slot s-1 prefix
                parent = np.empty(prefix_digits[0].size, dtype=np.intp)
                parent[local] = prev_local
                joint = joint.take(parent, axis=-1) * self._channels[s - 1]
            joint = joint * _aligned_factor(self.spec, fin, fout,
                                            self._tables(s, prefix_digits))
            n = joint.shape[-1]
            for ci, ac, w, h in self._terms[s]:
                na, nb, nc = w.shape
                pac = _marginal(joint, self.names, ac).reshape(na, nc, n)
                pbc = np.multiply(w[0][:, :, None], pac[0])
                linear = np.multiply(h[0][:, None], pac[0])
                pbc_row, linear_row = np.empty_like(pbc), np.empty_like(linear)
                for wa, ha, pa in zip(w[1:], h[1:], pac[1:]):
                    pbc += np.multiply(wa[:, :, None], pa, out=pbc_row)
                    linear += np.multiply(ha[:, None], pa, out=linear_row)
                terms = _clamp_mi(cond_entropy_table(pbc) - _row_sum(linear))
                out[:, ci, s] = terms[local]
        return out
