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
grid, so a set of points needs only each slot's channel-input joint: the
product P_1 q_1 P_2 ... P_h of the free factors' point tables and the
channels, placed by ``_aligned_factor`` with trailing batch axes.

Points are evaluated in Cartesian blocks of the grid.  A row with one
composition always reads digit 0; every other row (a live row) has a batch
axis of its own.  A block holds the leading live rows at fixed digits, one
row over a digit range [lo, hi) and every later row whole, so its points
are one contiguous run in C order.  Each row's digits are a contiguous
range, so its point tables are a slice of its factor's composition table
on the row's own axis, and the block is evaluated by broadcasting: slot
h's joint spans only the axes of factors 1..h's rows, so it is built once
per distinct digit tuple of those rows in the block, and its terms
broadcast to the block's points.  A scan block takes ceil(BATCH / tail)
digits of its partial row, the first live row whose later rows hold
tail <= BATCH points together, so it holds fewer than BATCH + tail points;
``eval_batch`` splits any window of points into at most 2L - 1 blocks for
L live rows, decoding only the window's first point.

Most terms are read off per-column tables instead.  A term splits over the
columns c of its C: H(B|C) - sum p(a,c) h(a,c) is the sum over c of
H_c - L_c, each read from column c's entries of p(a,c) alone.

Slot 1's joint is factor 1's one row, p(x) over X_{S_1}, whose entries are
counts / k.  A column's count vector v (|v| <= k) takes one of
C(k + |A|, |A|) values (|v| = k, one of C(k + |A| - 1, |A| - 1), when C
takes one value), so at set-up each slot-1 term tabulates H_c(v) and
L_c(v) for every c and every v, by the same a-ordered sums and the same
log-sum kernel, with the count vectors as the batch.  A block ranks each
column's v among them, with a binomial table, once per digit of factor 1's
row in the block, and adds the table entries over c in column order: the
same bits as evaluating the joint, once per term, column and count vector
instead of once per grid point.  Every positive-delay term is a slot-1
term.

In a later slot h, column c's entries p(a,c) are products of channel
entries and of free-factor entries from the rows of factors 1..h whose
row variables agree with c on those in C, the ones in A ranging freely.
So H_c and L_c read only the composition digits of those touched rows,
and a term is tabulated when its tables, one per column over every digit
tuple of its touched rows, hold fewer cells than its slot has prefixes
over the whole grid, the slot's dense evaluations; any other term stays
dense.  Each column's tables are filled by the slot's own dense
evaluation of that column alone, in blocks over its touched rows with
every other row at digit 0.  A block ravels each distinct touched-row
set's digit ranges once, by ``np.ravel_multi_index`` over their broadcast
axes, so the index spans only those rows' axes, and adds H_c and L_c at
those indices over c in column order; it builds a slot's joint only when
that slot or a later one has a dense term.

Each composition table is one contiguous (cols, n_compositions) array:
factor 1's held as counts, ranked by slot 1 and divided by k for the slots
after it, the later factors' held as counts / k.  The sums over a start
from the first row's products, not from zeros, and add the other rows
through one scratch buffer in the same order.  The point count, and the
cells the composition and column tables, a table fill and the largest
scan block hold, are capped from the alphabet sizes and k before any
length-D array or table exists.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DomainError
from .model import (NetworkSpec, NodeSet, Partition, _input_names, enumerate_cuts,
                    require_integer, require_valid, require_within_cap, step_plan, x_var, y_var)
from .probability import (_aligned_factor, _channel_product, _full_layout, _group_size,
                          _clamp_mi, _marginal, _row_sum, cond_entropy_table,
                          input_conditional_vars)

POINT_CAP = 10 ** 7  # grid points one scan may enumerate
BATCH = 4096  # grid points a scan block reaches: ceil(BATCH / tail) partial-row digits
GRID_CELL_CAP = 2 ** 26  # float64 cells a grid's tables and one scan block hold at once


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


def _partial_row(radix) -> tuple[int, int, int]:
    """(row, digits, tail) of the scan blocks over a nonempty ``radix``: the
    partial row is the first whose later rows hold tail <= BATCH points
    together, and a block takes ceil(BATCH / tail) of its digits."""
    row, tail = 0, math.prod(radix[1:])
    while tail > BATCH:
        row += 1
        tail //= radix[row]
    return row, -(-BATCH // tail), tail


def _block_points(radix) -> int:
    """Points of the largest scan block over ``radix``."""
    if not radix:
        return 1
    row, digits, tail = _partial_row(radix)
    return min(digits, radix[row]) * tail


def _scan_blocks(radix):
    """The scan's Cartesian blocks over ``radix``, in C order, each one
    (lo, hi) digit range per row: the rows before the partial row at one
    digit each, the partial row over ``_partial_row``'s digits (fewer at its
    end) and every later row whole.  With no rows, the one empty block."""
    if not radix:
        yield ()
        return
    row, digits, _ = _partial_row(radix)
    whole = tuple((0, n) for n in radix[row + 1:])
    for lead in itertools.product(*map(range, radix[:row])):
        fixed = tuple((d, d + 1) for d in lead)
        for lo in range(0, radix[row], digits):
            yield fixed + ((lo, min(lo + digits, radix[row])),) + whole


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
        # temporaries); the later slots' tables; then per point of the
        # largest scan block the output terms, a factor's point table and its
        # placed copy, the slot's input joint before and after that factor
        # (a slot's inputs are its factor's rows and columns, so each joint
        # has as many cells as the largest table) and a term's copy of it,
        # and that term's p(b,c), product and entropy temporaries, or for a
        # tabled term its slot's touched-row indices, a column's flat
        # indices and the H_c and L_c it adds.  A block's digit ranges and
        # slot-1 ranks run over single rows, so per point they hold less
        # than a point table.  A table is filled in blocks over one
        # column's touched rows, never beside a scan block, each point
        # holding the slot's joint, its copy and one column's temporaries.
        comps = [(m, math.comb(self.k + m - 1, m - 1)) for m in self.factor_n_cols]
        shapes = {}  # (|A|, |B|, m) -> [count vectors, columns] of slot 1's tables
        # (slot, cut) -> (A, C, the radix of a column's touched live rows and
        # its table cells, term shape) of each later-slot term read off
        # tables: one whose tables hold fewer cells than its slot's dense
        # evaluations over the whole grid, its prefixes
        tabled, columns = {}, {}  # and slot -> its tabled terms' columns
        for s, ci, a, b, c, (na, nb, nc) in groups:
            if s == 0:
                m = _column_parts(na, nc)
                shapes.setdefault((na, nb, m), [math.comb(self.k + m - 1, m - 1), 0])[1] += nc
                continue
            prefixes = math.prod(n ** r for (_, n), r in zip(comps[:s + 1], self.factor_n_rows))
            touched = [group_size([v for v in fin if v in a]) for fin, _ in self.factors[:s + 1]]
            radix = [n for (_, n), t in zip(comps, touched) if n > 1 for _ in range(t)]
            n_cells = math.prod(radix)
            if nc * n_cells < prefixes:
                tabled[s, ci] = (a, c, radix, n_cells, (na, nb, nc))
                columns[s] = columns.get(s, 0) + nc
        table = max(r * c for r, c in zip(self.factor_n_rows, self.factor_n_cols))
        held = (sum(m * n for m, n in comps) + sum(2 * nc * n for n, nc in shapes.values())
                + max((m for _, _, m in shapes), default=0) * (self.k + 1)
                + sum(2 * nc * n for _, _, _, n, (_, _, nc) in tabled.values()))
        build = max([(3 * m + 3) * n for m, n in comps]
                    + [(3 * m + 3 + na + (5 * nb + 2) * nc) * n
                       for (na, nb, m), (n, nc) in shapes.items()])
        largest_term = max([5 * nb * nc for *_, (_, nb, nc) in groups]
                           + [2 * columns[s] + 3 * nc + 3
                              for (s, _), (*_, (_, _, nc)) in tabled.items()], default=0)
        live_radix = [n for (_, n), r in zip(comps, self.factor_n_rows) if n > 1
                      for _ in range(r)]
        self.block_points = _block_points(live_radix)
        fills = [(5 * table + 5 * nb + 2) * _block_points(radix)
                 for _, _, radix, _, (_, nb, _) in tabled.values()]
        cells = (math.prod(sizes) + held + build
                 + max([(self.n_cuts * self.n_slots + 5 * table + largest_term)
                        * self.block_points] + fills))
        require_within_cap(cells, GRID_CELL_CAP, "grid table cell count")

        # Composition tables, one per factor, in contiguous (cols,
        # n_compositions) arrays: factor 1's as counts, which slot 1 ranks,
        # the later factors' as counts / k, which their slots read as
        # floats; the global row radix; and per live row (one of more than
        # one composition) its batch axis, in row order: ``_first_axis``
        # holds each factor's first axis, or -1 where its rows have one
        # composition, and ``_axis_shape`` the shape that puts a digit range
        # on an axis.
        tables = (compositions(self.k, m).T for m in self.factor_n_cols)
        self.comp_tables = [next(tables)] + [table / float(self.k) for table in tables]
        self.radix = np.repeat([table.shape[1] for table in self.comp_tables],
                               self.factor_n_rows)
        self.row_offset = np.concatenate(([0], np.cumsum(self.factor_n_rows)[:-1]))
        self._live_radix = tuple(live_radix)
        self._first_axis, n_axes = [], 0
        for (_, n), rows in zip(comps, self.factor_n_rows):
            self._first_axis.append(n_axes if n > 1 else -1)
            n_axes += rows if n > 1 else 0
        self._axis_shape = [(1,) * i + (-1,) + (1,) * (n_axes - 1 - i) for i in range(n_axes)]
        # points past each axis: the stride of one digit in C order
        self._tails = [math.prod(live_radix[i + 1:]) for i in range(n_axes)]

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
        # the channels between consecutive free factors, with a length-1
        # axis per live row
        self._channels = [ch.reshape(ch.shape + (1,) * n_axes)
                          for ch in channels[:len(self.factors) - 1]]
        self._binom, self._columns = self._column_tables()
        # per slot after the first: (touched-row sets, tabled terms, dense
        # terms); a block builds the input joints of the slots up to the last
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
        term in ``tabled`` (cut_idx, which, H, L): per column c the entry in
        ``sets`` of its touched live rows, and the (|C|, cells) tables H_c
        and L_c, row c over every digit tuple of c's touched rows in C order
        (``_touched_axes``, ``_fill``).  ``sets`` holds each distinct set of
        those rows' axes once, with their radix, so a block ravels it once;
        ``dense`` holds the other terms, which run on the slot's joint."""
        sets, tables, dense = {}, [], []
        for term in self._terms[s]:
            if (s, term[0]) not in tabled:
                dense.append(term)
                continue
            a, c, _, n_cells, _ = tabled[s, term[0]]
            touched = self._touched_axes(s, a, c)
            which = [sets.setdefault(axes, len(sets)) for axes in touched]
            tables.append((term[0], which, *self._fill(s, term, touched, n_cells)))
        return ([(axes, tuple(self._live_radix[i] for i in axes)) for axes in sets],
                tables, dense)

    def _touched_axes(self, s: int, a, c) -> list[tuple[int, ...]]:
        """Per column c of a slot s + 1 term with A = a and C = c, the axes
        of the live free rows it reads, in row order: per factor 1..s+1, its
        rows whose variables in C take c's values, those in A ranging freely
        (each factor's row variables are channel s + 1's inputs, so each
        lies in A or C); a factor whose rows hold one composition has none."""
        size = self.spec.var_size

        def values(names, axis):
            """Each name's digit over every value of ``names`` in C order,
            along ``axis`` of a (columns, free rows) grid."""
            if not names:
                return {}
            digits = np.unravel_index(np.arange(_group_size(size, names)), list(map(size, names)))
            return {v: np.expand_dims(d, axis) for v, d in zip(names, digits)}

        fixed, nc = values(c, 1), _group_size(size, c)
        axes = [np.zeros((nc, 0), dtype=np.intp)]
        for f, (fin, _) in enumerate(self.factors[:s + 1]):
            if self._first_axis[f] < 0:
                continue
            free = [v for v in fin if v in a]
            digits = {**fixed, **values(free, 0)}
            row = (np.ravel_multi_index(np.broadcast_arrays(*[digits[v] for v in fin]),
                                        list(map(size, fin))) if fin else 0)
            axes.append(np.broadcast_to(self._first_axis[f] + row, (nc, _group_size(size, free))))
        return list(map(tuple, np.concatenate(axes, axis=1).tolist()))

    def _fill(self, s: int, term, touched, n_cells: int):
        """The (|C|, cells) tables H_c and L_c of one slot s + 1 term, by its
        dense evaluation of one column at a time: entry (c, t) is column c's
        H_c and L_c at the grid points whose touched rows of c hold digit
        tuple t (in C order) and every other row digit 0, which is every
        point's column c whose touched rows hold t.  Each column runs in the
        scan's blocks over its touched rows (``_scan_blocks``) and sums only
        its own slice of W, h and p(a,c)."""
        _, ac, w, h = term
        na, _, nc = w.shape
        entropy, linear = np.empty((nc, n_cells)), np.empty((nc, n_cells))
        for col, axes in enumerate(touched):
            radix = [self._live_radix[i] for i in axes]
            col_entropy, col_linear = entropy[col].reshape(radix), linear[col].reshape(radix)
            ranges = [(0, 1)] * len(self._live_radix)
            for block in _scan_blocks(radix):
                for i, digits in zip(axes, block):
                    ranges[i] = digits
                joint = self._first_joint(ranges)
                for f in range(1, s + 1):
                    joint = self._extend(joint, f, ranges)
                pac = _marginal(joint, self.names, ac).reshape(na, nc, -1)[:, col:col + 1]
                pbc, lin = _channel_sums(w[:, :, col:col + 1], h[:, col:col + 1], pac)
                where = tuple(slice(lo, hi) for lo, hi in block)
                shape = tuple(hi - lo for lo, hi in block)
                col_entropy[where] = cond_entropy_table(pbc).reshape(shape)
                col_linear[where] = lin.reshape(shape)
        return entropy, linear

    # -- point decoding ----------------------------------------------------

    def coordinates(self, point: int) -> tuple[int, ...]:
        """Per-row composition indices, first row most significant."""
        if not 0 <= point < self.n_points:
            raise DomainError(f"point {point} outside 0..{self.n_points - 1}")
        return tuple(int(v) for v in _unravel(point, self.radix))

    def distribution_rows(self, point: int) -> list[np.ndarray]:
        """One row-stochastic table per free factor at this grid point."""
        ranges = [(d, d + 1) for d, n in zip(self.coordinates(point), self.radix) if n > 1]
        rows = [self._factor_table(f, ranges).reshape(n_rows, -1)
                for f, n_rows in enumerate(self.factor_n_rows)]
        rows[0] = rows[0] / float(self.k)
        return rows

    # -- evaluation --------------------------------------------------------

    def blocks(self):
        """(start, count) of the scan's blocks, in C order: ``_scan_blocks``
        over the live rows, each one a window ``eval_batch`` takes whole."""
        start = 0
        for ranges in _scan_blocks(self._live_radix):
            count = math.prod(hi - lo for lo, hi in ranges)
            yield start, count
            start += count

    def _window_blocks(self, start: int, count: int):
        """The Cartesian blocks, (lo, hi) per live row, of the points
        start..start + count - 1 in C order: from the window's first point
        each block is the longest run of the first row whose later rows are
        all at digit 0 and fit in what is left whole, so a window has at
        most 2L - 1 blocks over L live rows.  Only the first point is
        decoded; each block's end carries into the next one's digits."""
        radix, tails = self._live_radix, self._tails
        if not radix:
            yield ()
            return
        digits = [int(d) for d in np.unravel_index(start, radix)]
        left = count
        while left:
            row = max([next(i for i, tail in enumerate(tails) if tail <= left)]
                      + [i for i, d in enumerate(digits) if d])
            lo = digits[row]
            hi = min(radix[row], lo + left // tails[row])
            yield (tuple((d, d + 1) for d in digits[:row]) + ((lo, hi),)
                   + tuple((0, n) for n in radix[row + 1:]))
            left -= (hi - lo) * tails[row]
            digits[row] = hi
            while row and digits[row] == radix[row]:
                digits[row] = 0
                row -= 1
                digits[row] += 1

    def _factor_table(self, f: int, ranges) -> np.ndarray:
        """Factor f's point tables over the block ``ranges``, as its
        composition table holds them (counts of k for factor 1), in one
        (rows, cols, *axes) array: each row's compositions over its digit
        range on its own axis, every other axis of length 1."""
        table, n_rows, n_axes = self.comp_tables[f], self.factor_n_rows[f], len(ranges)
        first = self._first_axis[f]
        if first < 0:  # one column, so one composition: every row of every point reads it
            return np.broadcast_to(table, (n_rows, 1) + (1,) * n_axes)
        axes = range(first, first + n_rows)
        shape = [hi - lo if i in axes else 1 for i, (lo, hi) in enumerate(ranges)]
        out = np.empty((n_rows, table.shape[0], *shape), dtype=table.dtype)
        for row, i in zip(out, axes):
            lo, hi = ranges[i]
            row[...] = table[:, lo:hi].reshape((table.shape[0],) + self._axis_shape[i])
        return out

    def _first_joint(self, ranges) -> np.ndarray:
        """Slot 1's input joint, factor 1's point tables (counts) over k."""
        return _aligned_factor(self.spec, *self.factors[0],
                               self._factor_table(0, ranges) / float(self.k))

    def _extend(self, joint, f: int, ranges) -> np.ndarray:
        """Slot f + 1's input joint from slot f's: times channel f and then
        factor f + 1's point tables over ``ranges``."""
        fin, fout = self.factors[f]
        return (joint * self._channels[f - 1]
                * _aligned_factor(self.spec, fin, fout, self._factor_table(f, ranges)))

    def eval_batch(self, start: int, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """Terms array (count, n_cuts, n_slots) of the points start..start +
        count - 1; terms with a constant A or B stay 0.  ``out``, if given,
        is that array, C-contiguous (each block writes through a reshaped
        view of it), its constant terms' cells 0, as a scan's one zeroed
        buffer keeps them.

        The window is split into its Cartesian blocks (``_window_blocks``;
        a scan asks for one block at a time), and each block is evaluated
        by broadcasting, one axis per live row (``_eval_block``).
        """
        if not (0 <= start and 0 <= count and start + count <= self.n_points):
            raise DomainError(f"points {start}..{start + count - 1} outside "
                              f"0..{self.n_points - 1}")
        if out is None:
            out = np.zeros((count, self.n_cuts, self.n_slots), dtype=np.float64)
        done = 0
        for ranges in (self._window_blocks(start, count) if count else ()):
            shape = tuple(hi - lo for lo, hi in ranges)
            size = math.prod(shape)
            self._eval_block(ranges, out[done:done + size].reshape(shape + out.shape[1:]))
            done += size
        return out

    def _eval_block(self, ranges, out) -> None:
        """Write the terms of the block ``ranges`` into ``out``, its
        (*block axes, n_cuts, n_slots) view.

        Slot 1's terms are read off its column tables: each column's count
        vector is ranked in ``compositions`` order, once per digit of
        factor 1's row in the block, and H_c and L_c at that rank are added
        over c in column order.  A later slot's tabled term ravels each
        column's touched-row digit ranges, once per distinct set of those
        rows, over their axes alone, and adds H_c and L_c at that index over
        c in column order.  Slot 2's joint is slot 1's point tables; slot
        h's joint P_1 q_1 P_2 ... P_h is the previous slot's joint times
        channel h-1 and then factor h's point tables, so no variable is ever
        summed out; it spans the axes of factors 1..h's rows alone, and it
        is built up to the last slot with a dense term.

        Each term is I(A;B|C) = H(B|C) - sum over (a, c) of p(a,c) h(a,c),
        with p(b,c) = sum over a of p(a,c) W(b|a,c); a and c are added in
        row order, so a point's terms do not depend on its block, and every
        table holds the same sums as the dense evaluation would.
        """
        axis = self._first_axis[0]
        lo, hi = ranges[axis] if axis >= 0 else (0, 1)
        first_shape = self._axis_shape[axis] if axis >= 0 else ()
        counts = self.comp_tables[0][:, lo:hi]
        for ci, cols, offsets, last, entropy, linear in self._columns:
            # the rank, part by part over a running sum of the parts, so a
            # block holds (|C|, digits) arrays only: np.cumsum over the parts
            # would walk them one strided cell at a time
            running = counts[cols[0]]
            index = last - self._binom.take(running + offsets[0])  # (c, rank) in the tables
            for col, offset in zip(cols[1:], offsets[1:]):
                running += counts[col]
                index -= self._binom.take(running + offset)
            terms = _row_sum(entropy.take(index)) - _row_sum(linear.take(index))
            out[..., ci, 0] = _clamp_mi(terms).reshape(first_shape)
        if self._joint_slots:
            joint = self._first_joint(ranges)
        for s, (sets, tables, dense) in enumerate(self._later, 1):
            if s <= self._joint_slots:
                joint = self._extend(joint, s, ranges)
            for ci, ac, w, h in dense:
                na, _, nc = w.shape
                pbc, linear = _channel_sums(w, h, _marginal(joint, self.names, ac)
                                            .reshape(na, nc, -1))
                terms = _clamp_mi(cond_entropy_table(pbc) - _row_sum(linear))
                out[..., ci, s] = terms.reshape(joint.shape[len(self.names):])
            if tables:
                digits = [lo if hi - lo == 1 else np.arange(lo, hi).reshape(shape)
                          for (lo, hi), shape in zip(ranges, self._axis_shape)]
                index = [np.ravel_multi_index([digits[i] for i in axes], radix)
                         for axes, radix in sets]
                for ci, which, entropy, linear in tables:
                    cells = [index[i] for i in which]
                    terms = _column_sum(entropy, cells) - _column_sum(linear, cells)
                    out[..., ci, s] = _clamp_mi(terms)


def _column_parts(na: int, nc: int) -> int:
    """Parts m of the compositions of k that list the count vectors one
    column of a slot-1 term with |A| = na and |C| = nc can hold: na and the
    slack k - |v|, or with one column, which then holds all of k, na."""
    return na + 1 if nc > 1 else na


def _channel_sums(w: np.ndarray, h: np.ndarray, pac: np.ndarray):
    """(p(b,c), h(a,c) p(a,c) summed over a) of a term's (|A|, |B|, |C|)
    channel W, its (|A|, |C|) row entropies h and an (|A|, |C| or 1, batch)
    p(a,c): (|B|, |C|, batch) and (|C|, batch) tables.

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


def _column_sum(tables: np.ndarray, cells) -> np.ndarray:
    """Sum over the columns c, in order, of row c of ``tables`` at the
    index array ``cells[c]``, broadcast: ``_row_sum``'s additions over the
    entries stacked, without stacking them."""
    total = tables[0].take(cells[0])
    for table, index in zip(tables[1:], cells[1:]):
        total = total + table.take(index)
    return total
