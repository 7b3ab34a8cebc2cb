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
``np.unravel_index`` (``_ravel`` / ``_unravel`` take a radix of any
length), and the last slot's dense terms run on the full batch.

Most terms are read off per-column tables instead.  A term splits over the
columns c of its C: H(B|C) - sum p(a,c) h(a,c) is the sum over c of
H_c - L_c, each read from column c's entries of p(a,c) alone.

Slot 1's joint is factor 1's one row, p(x) over X_{S_1}, whose entries are
counts / k.  A column's count vector v (|v| <= k) takes one of
C(k + |A|, |A|) values (|v| = k, one of C(k + |A| - 1, |A| - 1), when C
takes one value), so at set-up each slot-1 term tabulates H_c(v) and
L_c(v) for every c and every v, by the same a-ordered sums and the same
log-sum kernel, with the count vectors as the batch.  A batch ranks each
column's v among them, with a binomial table, and adds the table entries
over c in column order: the same bits as evaluating the joint, once per
term, column and count vector instead of once per grid point.  Every
positive-delay term is a slot-1 term.

In a later slot h, column c's entries p(a,c) are products of channel
entries and of free-factor entries from the rows of factors 1..h whose
row variables agree with c on those in C, the ones in A ranging freely.
So H_c and L_c read only the composition digits of those touched rows,
and a term is tabulated when its tables, one per column over every digit
tuple of its touched rows, hold fewer cells than its slot has prefixes
over the whole grid, the slot's dense evaluations; any other term stays
dense.  The tables are filled by the slot's own dense evaluation, in
scan-sized batches, at the points whose touched rows hold each tuple and
every other row digit 0.  A batch ravels each distinct touched-row set's
digits once and adds H_c and L_c at those indices over c in column
order, on the full batch, so it builds a slot's joint only when that
slot or a later one has a dense term.

Each point table is one contiguous (rows, cols, count) array, taken row by
row from its factor's one composition table, transposed to (cols,
n_compositions): factor 1's held as counts, ranked by slot 1 and divided by
k for the slots after it, the later factors' held as counts / k.
The sums over a start from the first row's products, not from zeros, and
add the other rows through one scratch buffer in the same order.  The
point count, and the cells the composition and column tables, a table
fill and one scan batch hold, are capped from the alphabet sizes and k
before any length-D array or table exists; prefix tables are never larger
than the batch's.
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


_ROWS_PER_CALL = 32  # radix entries one np.unravel_index call takes (numpy caps them)


def _unravel(index, radix) -> tuple:
    """``np.unravel_index(index, radix)`` for a radix of any length: past
    ``_ROWS_PER_CALL`` entries the radix goes in groups of that many, each
    group one entry of an outer radix, unravelled the same way."""
    if len(radix) <= _ROWS_PER_CALL:
        return np.unravel_index(index, radix)
    groups = [radix[i:i + _ROWS_PER_CALL] for i in range(0, len(radix), _ROWS_PER_CALL)]
    outer = _unravel(index, [math.prod(group) for group in groups])
    return tuple(digit for part, group in zip(outer, groups)
                 for digit in np.unravel_index(part, group))


def _ravel(digits, radix):
    """``np.ravel_multi_index(digits, radix)`` for a radix of any length, by
    the groups of ``_unravel``."""
    if len(radix) <= _ROWS_PER_CALL:
        return np.ravel_multi_index(digits, radix)
    groups = [slice(i, i + _ROWS_PER_CALL) for i in range(0, len(radix), _ROWS_PER_CALL)]
    return _ravel([np.ravel_multi_index(digits[g], radix[g]) for g in groups],
                  [math.prod(radix[g]) for g in groups])


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
        # term channels are set up; the factors' composition tables, one
        # each, slot 1's column tables and the binomial table their ranks
        # read, and the largest build among them (a ``compositions`` call
        # holds its levels beside the table; a column table also its count
        # vectors over k, and p(b,c), h(a,c) p(a,c) and entropy
        # temporaries); then per point of a batch the digits, the prefix and
        # parent indices and the output terms, a factor's point table and
        # its placed copy, the slot's input joint before and after that
        # factor (a slot's inputs are its factor's rows and columns, so each
        # joint has as many cells as the largest table) and a term's copy of
        # it, and that term's p(b,c), product and entropy temporaries, or for
        # a tabled term its slot's touched-row indices, its own flat indices
        # and the H_c and L_c it gathers.  A slot evaluated per prefix holds
        # no more.  The later slots' tables and their touched rows are held
        # too; they are filled in batches of the scan's size, never beside a
        # scan batch, each point holding its digits and their indices, or
        # the slot's joint and one term's dense temporaries and the entries
        # it keeps, so a point of a fill is counted as the larger of the two.
        comps = [(m, math.comb(self.k + m - 1, m - 1)) for m in self.factor_n_cols]
        shapes = {}  # (|A|, |B|, m) -> [count vectors, columns] of slot 1's tables
        # (slot, cut) -> (A, C, touched rows and table cells per column,
        # term shape) of each later-slot term read off tables: one whose
        # tables hold fewer cells than its slot's dense evaluations over the
        # whole grid, its prefixes
        tabled, columns = {}, {}  # and slot -> its tabled terms' columns
        for s, ci, a, b, c, (na, nb, nc) in groups:
            if s == 0:
                m = _column_parts(na, nc)
                shapes.setdefault((na, nb, m), [math.comb(self.k + m - 1, m - 1), 0])[1] += nc
                continue
            prefixes = math.prod(n ** r for (_, n), r in zip(comps[:s + 1], self.factor_n_rows))
            touched = [group_size([v for v in fin if v in a]) for fin, _ in self.factors[:s + 1]]
            n_cells = math.prod(n ** t for (_, n), t in zip(comps, touched))
            if nc * n_cells < prefixes:
                tabled[s, ci] = (a, c, sum(touched), n_cells, (na, nb, nc))
                columns[s] = columns.get(s, 0) + nc
        table = max(r * c for r, c in zip(self.factor_n_rows, self.factor_n_cols))
        rows = sum(self.factor_n_rows)
        held = (sum(m * n for m, n in comps) + sum(2 * nc * n for n, nc in shapes.values())
                + max((m for _, _, m in shapes), default=0) * (self.k + 1)
                + sum(nc * (2 * n + t) for _, _, t, n, (_, _, nc) in tabled.values()))
        build = max([(3 * m + 3) * n for m, n in comps]
                    + [(3 * m + 3 + na + (5 * nb + 2) * nc) * n
                       for (na, nb, m), (n, nc) in shapes.items()])
        largest_term = max([5 * nb * nc for *_, (_, nb, nc) in groups]
                           + [2 * columns[s] + 3 * nc + 3
                              for (s, _), (*_, (_, _, nc)) in tabled.items()], default=0)
        per_point = max([rows + 2 + self.n_cuts * self.n_slots + 5 * table + largest_term]
                        + [rows + 4 + max(3 * t, 5 * table + 5 * nb * nc + 2)
                           for _, _, t, _, (_, nb, nc) in tabled.values()])
        cells = math.prod(sizes) + held + build + per_point * min(BATCH, n_points)
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

        # Composition tables, one per factor, in contiguous (cols,
        # n_compositions) arrays: factor 1's as counts, which slot 1 ranks,
        # the later factors' as counts / k, which their slots read as
        # floats in every batch; and the global row radix.
        tables = (compositions(self.k, m).T for m in self.factor_n_cols)
        self.comp_tables = [next(tables)] + [table / float(self.k) for table in tables]
        self.radix = np.repeat([table.shape[1] for table in self.comp_tables],
                               self.factor_n_rows)
        self.row_offset = np.concatenate(([0], np.cumsum(self.factor_n_rows)[:-1]))
        self._binom, self._columns = self._column_tables()
        # per slot after the first: (touched-row sets, tabled terms, dense
        # terms); a batch builds the input joints of the slots up to the last
        # one with a dense term
        self._later = [self._later_tables(s, tabled) for s in range(1, self.n_slots)]
        self._joint_slots = max((s for s, (*_, dense) in enumerate(self._later, 1) if dense),
                                default=0)

    def _column_tables(self):
        """(binomial table, columns) of slot 1's terms.  ``columns`` holds per
        term (cut_idx, cols, offsets, last, H, L): the factor column of each
        (a, c) with a < m - 1, the rank's offsets into the binomial table,
        per column its last flat table index, and the (|C|, n_vectors)
        tables H_c(v) and L_c(v), read by flat index, over every count
        vector v a column can hold, in ``compositions(k, m)`` order: each v
        with |v| <= k, its slack k - |v| the m-th part, or with one column
        (|C| = 1) each v with |v| = k, m = |A| (``_column_parts``), the
        factor's own compositions.  The terms of one shape (|A|, |B|, m) are
        built together, their columns side by side.

        Slot 1's free factor has one row, p(x_{S_1}), and its joint is that
        row's point table, counts / k; a term's A+C are X_{S_1}, so column c
        of its p(a,c) is the counts v_a of the factor columns (a, c), over k.
        H_c(v) = sum over b of p(b,c) log2(p(c)/p(b,c)) and
        L_c(v) = sum over a of h(a,c) v_a / k come from the a-ordered sums
        and the log-sum kernel of the slots after it, with the count vectors
        as batch entries, so the table entries are those sums' own bits.
        The flat binomial table holds at [e, s] C(k - s + e - 1, e): the
        number of count vectors that agree with v before part j and exceed it
        at j, where v's parts through j sum to s and e = m - 1 - j parts
        follow j.  So v's rank is n_vectors - 1 less their sum over the
        parts j < m - 1, exact in int64 and below n_vectors.
        """
        if not self._terms[0]:
            return None, []
        k, (_, fout) = self.k, self.factors[0]
        place = np.arange(self.factor_n_cols[0]).reshape([self.spec.var_size(v) for v in fout])
        parts = max(_column_parts(*w.shape[::2]) for _, _, w, _ in self._terms[0])
        binom = np.zeros((parts, k + 1), dtype=np.int64)
        binom[0] = 1
        for e in range(1, parts):
            binom[e, :k] = np.cumsum(binom[e - 1, -2::-1])[::-1]
        by_shape = {}  # (|A|, |B|, m) -> the slot-1 terms whose tables are built together
        for term in self._terms[0]:
            na, nb, nc = term[2].shape
            by_shape.setdefault((na, nb, _column_parts(na, nc)), []).append(term)
        out = []
        for (na, _, m), terms in by_shape.items():
            # the terms' columns side by side: one table build for all of them
            pbc, linear = _channel_sums(np.concatenate([w for _, _, w, _ in terms], axis=2),
                                        np.concatenate([h for *_, h in terms], axis=1),
                                        (self.comp_tables[0] if m == self.factor_n_cols[0]
                                         else compositions(k, m).T)[:na, None] / float(k))
            entropy = cond_entropy_table(pbc[:, None])
            n_vectors = entropy.shape[1]
            offsets = np.arange(m - 1, 0, -1)[:, None, None] * (k + 1)
            end = 0
            for ci, ac, w, _ in terms:
                start, end = end, end + w.shape[2]
                cols = place.transpose([fout.index(v) for v in ac]).reshape(na, -1)[:m - 1]
                last = np.arange(n_vectors - 1, (end - start) * n_vectors, n_vectors)[:, None]
                out.append((ci, cols, offsets, last,
                            entropy[start:end], linear[start:end]))
        return binom.ravel(), out

    def _later_tables(self, s: int, tabled):
        """(sets, tables, dense) of slot s + 1 >= 2.  ``tables`` holds per
        term in ``tabled`` (cut_idx, which, offsets, H, L): per column c the
        entry in ``sets`` of its touched rows and c's offset into the flat
        (|C| * cells) tables H_c and L_c, over every digit tuple of those
        rows in C order (``_touched_rows``, ``_fill``).  ``sets`` holds each
        distinct touched-row set once, with its radix as a tuple, so a batch
        ravels it once; ``dense`` holds the other terms, which run on the
        slot's joint."""
        sets, tables, dense = {}, [], []
        for term in self._terms[s]:
            if (s, term[0]) not in tabled:
                dense.append(term)
                continue
            a, c, _, n_cells, _ = tabled[s, term[0]]
            touched = self._touched_rows(s, a, c)
            which = [sets.setdefault(tuple(rows), len(sets)) for rows in touched.tolist()]
            offsets = np.arange(0, touched.shape[0] * n_cells, n_cells)[:, None]
            tables.append((term[0], np.array(which), offsets,
                           *self._fill(s, term, touched, n_cells)))
        return [(rows, tuple(self.radix[list(rows)].tolist())) for rows in sets], tables, dense

    def _touched_rows(self, s: int, a, c) -> np.ndarray:
        """(|C|, rows) indices, in ``radix``, of the free rows column c of a
        slot s + 1 term with A = a and C = c reads, in row order: per factor
        1..s+1, its rows whose variables in C take c's values, those in A
        ranging freely (each factor's row variables are channel s + 1's
        inputs, so each lies in A or C)."""
        size = self.spec.var_size

        def values(names, axis):
            """Each name's digit over every value of ``names`` in C order,
            along ``axis`` of a (columns, free rows) grid."""
            if not names:
                return {}
            digits = np.unravel_index(np.arange(_group_size(size, names)), list(map(size, names)))
            return {v: np.expand_dims(d, axis) for v, d in zip(names, digits)}

        fixed, nc = values(c, 1), _group_size(size, c)
        out = []
        for f, (fin, _) in enumerate(self.factors[:s + 1]):
            free = [v for v in fin if v in a]
            digits = {**fixed, **values(free, 0)}
            rows = (np.ravel_multi_index(np.broadcast_arrays(*[digits[v] for v in fin]),
                                         list(map(size, fin))) if fin else 0)
            out.append(np.broadcast_to(self.row_offset[f] + rows,
                                       (nc, _group_size(size, free))))
        return np.concatenate(out, axis=1)

    def _fill(self, s: int, term, touched, n_cells: int):
        """The flat (|C| * cells) tables H_c and L_c of one slot s + 1 term,
        by its dense evaluation: entry c * cells + t is column c's H_c and
        L_c at the grid point whose touched rows of c hold digit tuple t (in
        C order) and every other row digit 0, which is every point's column
        c whose touched rows hold t.  Points run in batches of at most
        ``BATCH``; each evaluates every column and keeps its own."""
        ci, ac, w, h = term
        na, _, nc = w.shape
        radix = self.radix[touched[0]]
        n_rows = int(self.row_offset[s]) + self.factor_n_rows[s]
        entropy, linear = np.empty(nc * n_cells), np.empty(nc * n_cells)
        for start in range(0, nc * n_cells, BATCH):
            entries = np.arange(start, min(start + BATCH, nc * n_cells))
            col, cell = np.unravel_index(entries, (nc, n_cells))
            own = (col, np.arange(entries.size))
            digits = np.zeros((n_rows, entries.size), dtype=np.intp)
            digits[touched[col].T, own[1]] = _unravel(cell, radix)
            joint = self._first_joint(self._tables(0, digits))
            for f in range(1, s + 1):
                joint = self._extend(joint, f, digits)
            pbc, lin = _channel_sums(w, h, _marginal(joint, self.names, ac)
                                     .reshape(na, nc, entries.size))
            entropy[entries] = cond_entropy_table(pbc[:, None])[own]
            linear[entries] = lin[own]
        return entropy, linear

    # -- point decoding ----------------------------------------------------

    def _tables(self, f: int, digits) -> np.ndarray:
        """Factor f's point tables, as its composition table holds them
        (counts of k for factor 1), in one contiguous (rows, cols, count)
        array, from ``digits``, the ``_unravel`` of count points: one
        composition index per row."""
        off = int(self.row_offset[f])
        table = self.comp_tables[f]
        return np.stack([table.take(row, axis=1)
                         for row in digits[off:off + self.factor_n_rows[f]]])

    def coordinates(self, point: int) -> tuple[int, ...]:
        """Per-row composition indices, first row most significant."""
        if not 0 <= point < self.n_points:
            raise DomainError(f"point {point} outside 0..{self.n_points - 1}")
        return tuple(int(v) for v in _unravel(point, self.radix))

    def distribution_rows(self, point: int) -> list[np.ndarray]:
        """One row-stochastic table per free factor at this grid point."""
        digits = [[v] for v in self.coordinates(point)]
        rows = [self._tables(f, digits)[..., 0] for f in range(len(self.factors))]
        rows[0] = rows[0] / float(self.k)
        return rows

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
        radix = tuple(self.radix[:rows].tolist())  # numpy reads a tuple's sizes faster
        prefix = _ravel(digits[:rows], radix)
        return prefix - prefix[0], _unravel(np.arange(prefix[0], prefix[-1] + 1), radix)

    def _first_joint(self, tables) -> np.ndarray:
        """Slot 1's input joint, factor 1's point tables (counts) over k."""
        return _aligned_factor(self.spec, *self.factors[0], tables / float(self.k))

    def _extend(self, joint, f: int, digits) -> np.ndarray:
        """Slot f + 1's input joint from slot f's: times channel f and then
        factor f + 1's point tables at ``digits``."""
        fin, fout = self.factors[f]
        return (joint * self._channels[f - 1]
                * _aligned_factor(self.spec, fin, fout, self._tables(f, digits)))

    def eval_batch(self, start: int, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """Terms array (count, n_cuts, n_slots); terms with a constant A or B
        stay 0.  ``out``, if given, is that array, its constant terms' cells
        0, as a scan's one zeroed buffer keeps them.

        Slot h's terms read only factors 1..h, so a slot evaluated densely
        runs once per distinct prefix of the batch, the composition digits
        of those factors' rows, and is then gathered to the batch rows.
        Points run in C order, first row most significant, so a batch's
        slot-h prefixes are one contiguous range.

        Slot 1's terms are read off its column tables: each column's count
        vector is ranked in ``compositions`` order, and H_c and L_c at that
        rank are added over c in column order.  A later slot's tabled term
        ravels each column's touched-row digits, once per distinct set of
        those rows, and adds H_c and L_c at that index over c in column
        order, on the full batch.  Slot 2's joint is slot 1's point tables;
        slot h's joint P_1 q_1 P_2 ... P_h is the previous slot's joint taken
        from its prefixes to slot h's, times channel h-1 and then factor h's
        point tables, so no variable is ever summed out; it is built up to
        the last slot with a dense term, and that slot's dense terms run on
        its prefixes, the full batch for the last slot.

        Each term is I(A;B|C) = H(B|C) - sum over (a, c) of p(a,c) h(a,c),
        with p(b,c) = sum over a of p(a,c) W(b|a,c); a and c are added in
        row order, so a point's terms do not depend on its batch, and every
        table holds the same sums as the dense evaluation would.
        """
        digits = _unravel(start + np.arange(count), self.radix)
        if out is None:
            out = np.zeros((count, self.n_cuts, self.n_slots), dtype=np.float64)
        local, prefix_digits = self._prefixes(digits, self.factor_n_rows[0])
        counts = self._tables(0, prefix_digits)
        for ci, cols, offsets, last, entropy, linear in self._columns:
            parts = counts[0, cols]
            # running sums over a, row by row: np.cumsum over axis 0 walks
            # the rows one strided cell at a time
            for row, prev in zip(parts[1:], parts):
                row += prev
            parts += offsets
            index = last - self._binom.take(parts).sum(axis=0)  # (c, rank) in the tables
            terms = _row_sum(entropy.take(index)) - _row_sum(linear.take(index))
            out[:, ci, 0] = _clamp_mi(terms)[local]
        if self._joint_slots:
            joint = self._first_joint(counts)
        for s, (sets, tables, dense) in enumerate(self._later, 1):
            if s <= self._joint_slots:
                prev_local = local
                local, prefix_digits = self._prefixes(
                    digits, int(self.row_offset[s]) + self.factor_n_rows[s])
                # every batch row with one slot-s prefix has one slot s-1 prefix
                parent = np.empty(prefix_digits[0].size, dtype=np.intp)
                parent[local] = prev_local
                joint = self._extend(joint.take(parent, axis=-1), s, prefix_digits)
                n = joint.shape[-1]
            for ci, ac, w, h in dense:
                na, _, nc = w.shape
                pbc, linear = _channel_sums(w, h, _marginal(joint, self.names, ac)
                                            .reshape(na, nc, n))
                terms = _clamp_mi(cond_entropy_table(pbc) - _row_sum(linear))
                out[:, ci, s] = terms[local]
            if tables:
                index = np.stack([_ravel([digits[r] for r in rows], radix)
                                  for rows, radix in sets])
                for ci, which, offsets, entropy, linear in tables:
                    flat = index[which]
                    flat += offsets
                    terms = _row_sum(entropy.take(flat)) - _row_sum(linear.take(flat))
                    out[:, ci, s] = _clamp_mi(terms)
        return out


def _column_parts(na: int, nc: int) -> int:
    """Parts m of the compositions of k that list the count vectors one
    column of a slot-1 term with |A| = na and |C| = nc can hold: na and the
    slack k - |v|, or with one column, which then holds all of k, na."""
    return na + 1 if nc > 1 else na


def _channel_sums(w: np.ndarray, h: np.ndarray, pac: np.ndarray):
    """(p(b,c), h(a,c) p(a,c) summed over a) of a term's (|A|, |B|, |C|)
    channel W, its (|A|, |C|) row entropies h and an (|A|, |C| or 1, *batch)
    p(a,c): (|B|, |C|, *batch) and (|C|, *batch) tables.

    Both sums over a start from the a = 0 products themselves (0.0 + x is x
    for x >= 0) and add each further row through one scratch buffer, in row
    order, so they allocate no zero-filled or per-row temporaries.
    """
    pbc = np.multiply(w[0][:, :, None], pac[0])
    linear = np.multiply(h[0][:, None], pac[0])
    pbc_row, linear_row = np.empty_like(pbc), np.empty_like(linear)
    for wa, ha, pa in zip(w[1:], h[1:], pac[1:]):
        pbc += np.multiply(wa[:, :, None], pa, out=pbc_row)
        linear += np.multiply(ha[:, None], pa, out=linear_row)
    return pbc, linear
