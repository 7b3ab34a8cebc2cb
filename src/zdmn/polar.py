"""Forward error-correcting block code used on the binary forward link.

A natural-order polar transform (lower-triangular kernel, no bit reversal)
of size 2^ceil(log2 n), shortened down to n by freezing the tail inputs,
which pins the tail codeword bits to 0 so they need not be transmitted.
Decoding is CRC-aided successive-cancellation list decoding with an integer
min-sum update rule, batched over blocks in numpy.  A shortened bit enters
the decoder with the LLR B, the smallest power of two above n, which
decodes exactly as an infinite one would; every decoder LLR then stays
within 2B + n of 0, so PolarCode builds its LLR rows in int16 for every
shortened n < 8192 and every unshortened n up to MAX_N, and the decoder
runs in the rows' own dtype.  The decoder
walks the tree node by node rather than leaf by leaf (Sarkis, Giard, Vardy,
Thibeault & Gross 2014, "Fast polar decoders"): a subtree whose leaves are
all frozen (Rate-0) or all frozen but the last (Rep) is decoded in one step
from its input LLRs, with the same path metrics, decisions and list order
as the leaf-by-leaf decoder.  The list engine copies path state lazily: it
keeps one LLR and one partial-sum buffer per tree depth, and a list
reorder moves no data.  Each finished left subtree keeps the ancestry of
the paths over its own reorders, and each buffer that a reorder leaves out
of path order is read once, through one such ancestry; the decided bits
are recovered by tracing the recorded parent rows back once at the end.
A prune that keeps each path's better child, in path order, is recognised
from the candidate metrics and skips the sort; any other prune takes one
sort of packed (metric, index) keys.  A code without CRC bits checks every
path, so it decodes to the best-metric path.  The information set
is picked by exact density evolution of this decoder (Mori & Tanaka 2009;
Tal & Vardy 2013, "How to construct polar codes"): every LLR of the
genie-aided successive-cancellation decoder is an integer, so its law under
the all-zero codeword is a finite pmf, and each position's decision error
probability follows exactly; the most reliable positions carry information.
The laws are swept one tree depth at a time, each distinct pair of input
laws of a depth combined once and the f-steps batched by law length; the
sweep holds one depth's distinct laws, 62 MB at MAX_N.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .model import _shown, require_integer, require_real, require_within_cap

MAX_N = 2 ** 14  # largest blocklength PolarCode accepts
_DECODE_CHUNK = 256  # most blocks per decoder call
_DECODE_LANES = 2 ** 23  # blocks x list paths x code length per decoder call
_CRC_POLYS = {0: 0, 8: 0x07, 16: 0x1021}

_construction_cache: dict = {}


# ---------------------------------------------------------------------------
# encoding


def _encode_batch(u: np.ndarray) -> np.ndarray:
    """Butterfly transform of (B, n) bit blocks; xor pairs (i, i + step)."""
    x = u.copy()
    b, n = x.shape
    step = 1
    while step < n:
        v = x.reshape(b, n // (2 * step), 2, step)
        v[:, :, 0, :] ^= v[:, :, 1, :]
        step *= 2
    return x


def _crc_matrix(k: int, nc: int) -> np.ndarray:
    """(k, nc) GF(2) generator of the nc-bit CRC (MSB-first, zero init) of k bits.

    The CRC is linear in the message, so row j is the CRC of the unit
    vector e_j: the polynomial for the last bit, and one zero shifted
    through the register per earlier position.
    """
    poly, top = _CRC_POLYS[nc], 1 << nc
    regs = [poly]
    for _ in range(k - 1):
        reg = regs[-1] << 1
        regs.append(reg ^ poly ^ top if reg & top else reg)
    regs = np.array(regs[::-1], dtype=np.int64)
    return ((regs[:, None] >> np.arange(nc - 1, -1, -1)) & 1).astype(np.float32)


def _crc_bits(bits: np.ndarray, gen: np.ndarray) -> np.ndarray:
    """CRC of each row of a (B, k) bit array as bits @ gen mod 2.

    float32 sums of at most k ones are exact for k < 2^24.
    """
    return (bits.astype(np.float32) @ gen % 2).astype(np.uint8)


# ---------------------------------------------------------------------------
# successive-cancellation list engine
#
# Lazy path copies (Tal & Vardy 2015, "List decoding of polar codes", IV).
# P[d] holds the LLRs at depth d (width n >> d) and S[d] the partial sums of
# the most recent completed left child at depth d, as 0/-1 int8 masks; both
# are (width, B, lanes) arrays, position first, so the halves that an f- or
# g-step combines are contiguous blocks however narrow the node.  A lane
# axis of size 1 means the data is shared by every path: depth 0 is the
# channel LLR, and every buffer written before the first information bit
# stays shared.  A width axis of size 1 in S[d] means one value for every
# position (a Rate-0 or Rep node's partial sums).
#
# Ancestry.  A list reorder moves no data.  Paths are flat rows b * L + j,
# and the ancestry of a stretch of decoding gives, for each path, the row of
# its ancestor at the stretch's start; None stands for the identity.
# left[d] is the ancestry over the most recently finished left child at
# depth d.  Only two kinds of buffer are read after a reorder, each exactly
# once and after exactly the reorders of one subtree: the right sibling's
# g-step reads P[d - 1], written as the left child at depth d began,
# through left[d]; the ripple out of a right child at depth d reads S[d],
# written as that right child began, through the ancestry over the right
# child.  The ripple builds that ancestry as it climbs: a Rep node's
# reorder starts it as its parent rows (anc = flat), and each level d first
# gathers S[d] through anc and then composes anc = left[d][anc], the
# ancestry over the parent subtree; where the ripple stops, at a left
# child, anc becomes its left[d].  Every other read is of a buffer written
# since the last reorder (the f-steps' P, the g-step's S[l0], written by the
# previous node after its reorder), and a buffer with one lane is shared by
# every path, so neither is gathered.  A finished subtree's partial sums are
# built in one buffer of its final width, each ripple level XORed into
# place.  Decided bits are not stored per path: each Rep node records its
# bits at its last leaf, each reorder its parent rows, and U is traced back
# once at the end into a (n_code, B, L) array, one stacked gather per run of
# leaves between two reorders.
#
# The tree is split once into nodes (_node_split): the largest subtrees
# that are Rate-0 or Rep, a single leaf being one or the other.  The update
# schedule per node (phi, depth d, width w = n >> d): one g-step at depth
# m - trailing_zeros(phi), f-steps down to depth d, the node's rule on its
# input alpha = P[d], then a partial-sum ripple from depth d across the
# trailing ones of phi >> (m - d).  PM is the path metric, the sum of the
# magnitudes of the leaf LLRs that the decisions violate.  Under min-sum
# this sum over a Rate-0 node is sum(max(-alpha, 0)), and over a Rep node
# whose bits are all b it is sum(max(-alpha, 0)) for b = 0 and
# sum(max(alpha, 0)) for b = 1, so a Rep node branches once, exactly like
# an information leaf.
#
# Widths.  f selects one input up to sign and g adds or subtracts two, and
# the halves they combine depend on disjoint channel positions, so every
# LLR is a signed sum of disjoint channel LLRs of its row.  The row's sum
# of |LLR| therefore bounds every value the LLR buffers hold, and the
# decoder runs in the dtype of the rows it is given; path metrics are
# int64.  PolarCode picks that dtype, and a shortened row has a far tighter
# bound than its sum.  Its tail,
# the channel positions n..n_code - 1, holds B, which stands for
# +infinity, and every other position +-1, so every LLR is c * B + r with
# integers c, r and |r| <= n.  Call a node whose leaves are [phi, phi + w)
# straddling if phi < n < phi + w and all-tail if phi >= n.  The tail is a
# suffix of the natural order, and induction down the tree from the
# channel row gives, for every B > n:
# - on a straddling node, c = 1 on the elements i with phi + i >= n and
#   c = 0 on the others.  Its f-child pairs element i with element i + w:
#   c = 1 meets c = 1 (both inputs above 0, the smaller kept) or c = 0
#   meets c >= 0 (the c = 0 input kept up to sign, as |a| + |r| <= n < B).
#   Its g-child adds a c = 0 left half to the right half, or is all-tail;
# - on a node whose leaves miss the tail (phi + w <= n), c = 0.  That
#   covers every Rep node and every single information leaf, whose last
#   leaf is an information bit;
# - an all-tail node is all frozen, so it is never split, and it is made
#   only as the g-child of a straddling node, with c in {1, 2}: its right
#   half has c = 1, and where the left half has c = 1 the partial sum is a
#   XOR of tail inputs, 0 on every path, so the g-step adds.
# Every comparison an f-step makes thus orders (c, r) as B = infinity
# does.  No path metric contains B: a Rep or leaf penalty sums c = 0
# values, and a Rate-0 penalty max(-alpha, 0) is 0 where c >= 1.  So
# every B > n gives the same (U, PM) as B = infinity, and every buffer
# value is at most 2B + n in magnitude.  PolarCode.shortened_llr is the
# smallest power of two above n (2048 at n = 2000), and PolarCode builds
# its rows in _lane_dtype of that bound (of n when unshortened, of B + n
# with one shortened bit): int16 at every shortened n < 8192 and int32 at
# every shortened n > 8192.
#
# Pruning.  Once the list is full, a Rep node's 2L candidates are, in index
# order, PM_j + pen0_j and PM_j + pen1_j for each path j, and the stable
# sort keeps the L smallest.  Let best_j and worst_j be path j's smaller
# and larger candidate, the bit-0 child on a tie.  When best is
# non-decreasing along the row and worst_i > best_{L-1} for every i < L - 1,
# the stable sort returns each path's best child in path order: the bests
# come first, in index order, every other worst_i after best_{L-1}, and
# worst_{L-1} after best_{L-1} by value or by index.  Conversely, a sort
# that keeps the paths in order keeps each one's best child (a path's worse
# child sorts after its better one), so the test holds exactly when the
# list keeps its order.  When it holds in every block, PM = best, each
# path's bit is pen1 < pen0, and no key, sort or ancestry is made.  Best's
# order must be checked, not assumed: Rate-0 nodes add per-path penalties,
# so PM is not sorted between prunes.  A single leaf has best = PM and
# worst = PM + |alpha|.  A node whose list reorders still sorts exactly as
# before: one sort of the keys PM << s | index, s = bit_length(2L - 1),
# distinct keys sorted by metric and then by index, which is the stable
# order.  This is exact while every candidate metric is below 2^(63 - s),
# and PolarCode's metrics stay far below it.  A node's elements depend on
# disjoint channel positions, and every element with c >= 1 adds 0 to PM
# (above), so a node adds at most n to PM, and every candidate metric is
# at most n * n_code.  Every key is then below (n * n_code + 1) * 2^s, and
# 2^s < 4L, so below 2^40 when n, n_code <= 2^14 and L * n_code <= 2^23.


def _f_step(av, cv):
    """Min-sum check update: sign(a) sign(c) min(|a|, |c|).

    Computed as max(min(a, c), -max(a, c)) in four passes: with equal
    signs one candidate is min(|a|, |c|) and the other is negative; with
    opposite signs or a zero operand both are <= 0, and the larger is
    -min(|a|, |c|).
    """
    out = np.minimum(av, cv)
    tmp = np.maximum(av, cv)
    np.negative(tmp, out=tmp)
    np.maximum(out, tmp, out=out)
    return out


def _g_step(av, cv, s):
    """Variable update: c + a, or c - a where the partial-sum mask s is -1."""
    out = np.bitwise_xor(av, s)
    out -= s  # (a ^ -1) + 1 == -a
    out += cv
    return out


def _node_split(frozen):
    """Decoding-tree nodes (phi, depth, rep) of a frozen mask, in decoding order.

    Each node is the largest subtree whose leaves are all frozen (Rate-0,
    rep False) or all frozen but the last (Rep, rep True); a single leaf is
    one of the two.  phi is the node's first leaf.
    """
    n = len(frozen)
    info = np.concatenate([[0], np.cumsum(np.asarray(frozen) == 0)]).tolist()
    nodes = []

    def visit(phi, d):
        w = n >> d
        k = info[phi + w] - info[phi]
        if k == 0 or (k == 1 and not frozen[phi + w - 1]):
            nodes.append((phi, d, k == 1))
        else:
            visit(phi, d + 1)
            visit(phi + w // 2, d + 1)

    visit(0, 0)
    return nodes


def _lane_dtype(bound):
    """The narrowest of int16, int32 and int64 that holds every integer in [-bound, bound]."""
    return np.int16 if bound < 2 ** 15 else np.int32 if bound < 2 ** 31 else np.int64


def _gather(buf, rows):
    """A (width, B, lanes) buffer in path order: row rows[p] for flat path p.

    rows None is the identity, and a shared buffer (one lane) needs no gather.
    """
    if rows is None or buf.shape[2] == 1:
        return buf
    w, b, lanes = buf.shape
    return buf.reshape(w, b * lanes).take(rows, axis=1).reshape(w, b, lanes)


def _scl_run(llr0, frozen, L):
    """Run the list decoder on (B, n_code) LLR blocks; returns (U, PM).

    The list holds min(L, 2**k) paths, k the number of information leaves,
    so it is full at the end and every returned lane is a decoded path.
    The LLRs decode in their own dtype, which must hold every value the
    buffers take ("Widths"); they are copied position first unless llr0 is
    already the transpose of a contiguous (n_code, B) array.  Every packed
    prune key must stay below 2^63 ("Pruning").
    U is a (B, L, n_code) view of a contiguous (n_code, B, L) array.
    """
    B, n = llr0.shape
    m = n.bit_length() - 1
    L = min(L, 1 << int(np.count_nonzero(np.asarray(frozen) == 0)))
    P = [np.ascontiguousarray(llr0.T)[:, :, None]] + [None] * m
    S = [None] * (m + 1)
    left = [None] * (m + 1)  # ancestry over the finished left child at depth d
    row = (np.arange(B) * L)[:, None]
    row_dtype = np.min_scalar_type(B * L - 1)
    shift = (2 * L - 1).bit_length()  # packed key: PM << shift | candidate index
    cand = np.arange(2 * L)
    PM = np.zeros((B, L), dtype=np.int64)
    zeros = np.zeros((1, B, 1), dtype=np.int8)
    runs = [(None, [], [])]  # (flat parent rows or None, leaves, bits) per reorder

    a = 1
    for phi, depth, rep in _node_split(frozen):
        if phi == 0:
            lo = 1
        else:
            tz = (phi & -phi).bit_length() - 1
            l0 = m - tz
            w = n >> l0
            seg = _gather(P[l0 - 1], left[l0])
            P[l0] = _g_step(seg[:w], seg[w:], S[l0])
            lo = l0 + 1
        for d in range(lo, depth + 1):
            w = n >> d
            seg = P[d - 1]
            P[d] = _f_step(seg[:w], seg[w:])
        alpha = P[depth]
        anc = None  # ancestry over this node: None = the list kept its order
        if not rep:  # Rate-0: every bit 0
            PM += np.maximum(-alpha, 0).sum(axis=0, dtype=np.int64)
            x = zeros
        else:  # Rep: every bit a copy of one decided bit
            if depth == m:  # one leaf: the penalties are max(-alpha, 0) and max(alpha, 0)
                al = alpha[0]
                one = al < 0
                best, worst = PM, PM + np.abs(al)
            else:
                pen0 = np.maximum(-alpha, 0).sum(axis=0, dtype=np.int64)
                pen1 = pen0 + alpha.sum(axis=0, dtype=np.int64)  # sum of max(alpha, 0)
                one = pen1 < pen0
                best, worst = PM + np.minimum(pen0, pen1), PM + np.maximum(pen0, pen1)
            leaf = phi + (n >> depth) - 1
            if (a == L and (best[:, 1:] >= best[:, :-1]).all()
                    and (worst[:, :-1] > best[:, -1:]).all()):
                # the sort would keep each path's best child in path order
                PM, bit = best, one.view(np.uint8)
                runs[-1][1].append(leaf)
                runs[-1][2].append(bit)
            else:
                c0 = np.where(one, worst, best)  # PM + pen0
                c1 = np.where(one, best, worst)  # PM + pen1
                if 2 * a <= L:  # list still growing: keep every extension
                    l2 = 2 * a
                    PM[:, 0:l2:2] = c0[:, :a]
                    PM[:, 1:l2:2] = c1[:, :a]
                    parent = np.arange(L)
                    parent[:l2] >>= 1
                    bit = np.zeros((B, L), dtype=np.uint8)
                    bit[:, 1:l2:2] = 1
                    a = l2
                else:  # keep the L best of 2a extensions; ties keep lower index
                    pmc = np.empty((B, 2 * a), dtype=np.int64)
                    pmc[:, 0::2] = c0[:, :a]
                    pmc[:, 1::2] = c1[:, :a]
                    pmc <<= shift
                    pmc |= cand[:2 * a]
                    pmc = np.sort(pmc, axis=1)
                    PM = pmc[:, :L] >> shift
                    order = pmc[:, :L] & ((1 << shift) - 1)
                    bit = (order & 1).astype(np.uint8)
                    parent = order >> 1
                    a = L
                anc = (parent + row).reshape(-1)  # reorder the list: move no data
                runs.append((anc.astype(row_dtype), [leaf], [bit]))
            x = -bit.view(np.int8)[None]
        ph = phi >> (m - depth)
        top = depth - (((ph + 1) & -(ph + 1)).bit_length() - 1)  # less the trailing ones of ph
        if top == depth:  # a left child (or the whole tree)
            S[depth], left[depth] = x, anc
        elif top > 0:  # x: the partial sums of the right child; ripple up to depth top
            W, w = n >> top, n >> depth
            out = np.empty((W, B, L), dtype=np.int8)
            out[W - w:] = x
            for d in range(depth, top, -1):
                np.bitwise_xor(_gather(S[d], anc), out[W - w:], out=out[W - 2 * w:W - w])
                if left[d] is not None:
                    anc = left[d] if anc is None else left[d][anc]
                w *= 2
            S[top], left[top] = out, anc
    U = np.zeros((n, B, L), dtype=np.uint8)
    cur = None  # flat row of each final path's ancestor; None = identity
    for flat, leaves, bits in reversed(runs):
        if leaves:
            got = np.stack(bits).reshape(len(leaves), B * L)
            U[leaves] = (got if cur is None else got.take(cur, axis=1)).reshape(-1, B, L)
        if flat is not None:
            cur = flat if cur is None else flat[cur]
    return U.transpose(1, 2, 0), PM


# ---------------------------------------------------------------------------
# code construction and the code classes


# Density evolution (Mori & Tanaka 2009).  By the symmetry of the channel
# and of the min-sum rules, the genie-aided decoder (every earlier decision
# set to the truth) errs at a position with the same probability as under
# the all-zero codeword, where every partial sum is 0 and the g-step is
# c + a.  The channel LLR is +1 or -1, so an LLR at depth d is an integer
# in [-2^d, 2^d]: it is held as a pmf array p with p[h + v] = P(LLR = v),
# h = len(p) // 2.  A shortened bit's LLR is the +inf atom, which never
# mixes with a finite law: g(a, inf) = inf and f(a, inf) = a.  The two
# halves of a node's LLRs depend on disjoint channel outputs, so each
# step combines independent laws.
#
# The sweep holds one depth at a time: every distinct law of the depth, in
# one bank per law length (a (laws, length) array), and the law id of every
# element of every node, -1 for +inf.  Law ids run in order of length, and
# id i is row row[i] of the bank of length size[i].


def _de_side(q, k):
    """P(A = t), P(A >= t), P(A >= t + 1) for t = 1..k, per row, from q[:, t-1] = P(A = t)."""
    ge = np.zeros((q.shape[0], q.shape[1] + 1))
    np.cumsum(q[:, ::-1], axis=1, out=ge[:, -2::-1])
    return q[:, :k], ge[:, :k], ge[:, 1:k + 1]


def _de_f(pa, pc):
    """Law of sign(A) sign(C) min(|A|, |C|) for each row pair of A and C laws."""
    ha, hc = pa.shape[1] // 2, pc.shape[1] // 2
    k = min(ha, hc)
    ap, ap_ge, ap_gt = _de_side(pa[:, ha + 1:], k)
    an, an_ge, an_gt = _de_side(pa[:, ha - 1::-1], k)
    cp, cp_ge, cp_gt = _de_side(pc[:, hc + 1:], k)
    cn, cn_ge, cn_gt = _de_side(pc[:, hc - 1::-1], k)
    # min(|A|, |C|) = t: one magnitude is t and the other at least t
    pos = ap * cp_ge + ap_gt * cp + an * cn_ge + an_gt * cn
    neg = ap * cn_ge + ap_gt * cn + an * cp_ge + an_gt * cp
    zero = pa[:, ha] + pc[:, hc] * (ap_ge[:, 0] + an_ge[:, 0])  # A = 0, or A != 0 and C = 0
    return np.hstack([neg[:, ::-1], zero[:, None], pos])


def _leaf_error(p):
    """P(L < 0) + P(L = 0) / 2 of a law (or of each row): the decoder
    decides 0 on a tie, and the genie's bit is uniform."""
    h = p.shape[-1] // 2
    return p[..., :h].sum(axis=-1) + 0.5 * p[..., h]


def _de_depth(banks, size, row, ia, ic, leaf):
    """Children of the distinct (left law, right law) pairs ia, ic of a depth.

    Returns (child, banks, size, row) of the next depth, where child is a
    (2, pairs) array of law ids, row 0 for the f-children and row 1 for
    the g-children.  At the leaf depth child holds instead each child's
    error (0 for +inf, which never errs), and every leaf law is reduced as
    soon as it is made.  The f-laws of the finite pairs take one batched
    _de_f per (left length, right length) group, the g-laws one np.convolve
    per pair.
    """
    fa, fc = ia >= 0, ic >= 0
    one = np.flatnonzero(fa ^ fc)  # f(a, inf) = f(inf, a) = a, and g is inf
    src = np.maximum(ia, ic)[one]
    both = np.flatnonzero(fa & fc)
    la, lc = size[ia[both]], size[ic[both]]
    if leaf:
        child, new_banks, new_size, new_row = np.zeros((2, len(ia))), None, None, None
    else:  # number the child laws in order of length, then allocate their banks
        lengths = np.zeros((2, len(ia)), dtype=np.int64)  # 0 for +inf
        lengths[0, one] = size[src]
        lengths[0, both] = np.minimum(la, lc)
        lengths[1, both] = la + lc - 1
        flat = lengths.ravel()
        order = np.argsort(flat, kind="stable")[np.count_nonzero(flat == 0):]
        new_size = flat[order]
        bank_len, count = np.unique(new_size, return_counts=True)
        new_row = np.arange(len(order)) - np.repeat(np.cumsum(count) - count, count)
        new_banks = {length: np.empty((rows, length))
                     for length, rows in zip(bank_len.tolist(), count.tolist())}
        child = np.full(flat.size, -1)
        child[order] = np.arange(len(order))
        child = child.reshape(2, -1)

    def put(kind, sel, laws):
        if leaf:
            child[kind, sel] = _leaf_error(laws)
        else:
            new_banks[laws.shape[-1]][new_row[child[kind, sel]]] = laws

    # np.unique without return_index would import numpy.ma (numpy 2.4)
    one_len = size[src]
    for j in np.unique(one_len, return_index=True)[1].tolist():
        pick = one_len == one_len[j]
        put(0, one[pick], banks[int(one_len[j])][row[src[pick]]])
    pair_len = la * (lc.max(initial=0) + 1) + lc  # one key per (left, right) length
    for j in np.unique(pair_len, return_index=True)[1].tolist():
        sel = both[pair_len == pair_len[j]]
        len_a, len_c = int(la[j]), int(lc[j])
        pa, pc = banks[len_a][row[ia[sel]]], banks[len_c][row[ic[sel]]]
        put(0, sel, _de_f(pa, pc))
        for r, s in enumerate(sel.tolist()):
            put(1, s, np.convolve(pa[r], pc[r]))
    return child, new_banks, new_size, new_row


def _code_length(n: int) -> int:
    """Length 2^ceil(log2 n), at least 2, of the code shortened to n."""
    return 1 << max(1, math.ceil(math.log2(n)))


def _genie_errors(n: int, eps: float) -> np.ndarray:
    """Exact genie-aided decision error probability of every input position.

    Sweeps the decoding tree of the length-2^ceil(log2 n) code one depth at
    a time.  At depth d the law ids of the 2^d nodes form one (2^d, w)
    array; one np.unique finds every distinct (left law, right law) pair of
    the depth, _de_depth makes each pair's two children once, and the
    unique inverse gives the children's ids.  Every distinct pair gets the
    same float operations, in the same order, as a node-by-node walk gives
    it.  The sweep holds one depth's distinct laws and the next's, about
    2 * 3^d cells each: its traced peak is 2.4 MB at n = 2000 and 62 MB at
    MAX_N.
    """
    n_code = _code_length(n)
    ids = np.full((1, n_code), -1)
    ids[0, :n] = 0
    banks, size, row = {3: np.array([[eps, 0.0, 1.0 - eps]])}, np.array([3]), np.array([0])
    while ids.shape[1] > 1:
        w = ids.shape[1] // 2
        a, c = ids[:, :w].ravel(), ids[:, w:].ravel()
        _, first, inv = np.unique((a + 1) * (len(size) + 1) + c + 1,
                                  return_index=True, return_inverse=True)
        child, banks, size, row = _de_depth(banks, size, row, a[first], c[first], w == 1)
        # node r's f-child is node 2r of the next depth, its g-child 2r + 1
        ids = child[:, inv].reshape(2, -1, w).transpose(1, 0, 2).reshape(-1, w)
    return ids.reshape(-1)  # the leaf depth's "ids" are the errors


def _construct(n: int, k_total: int, eps: float):
    """Info set: the k_total positions below n with the least genie error."""
    errs = _genie_errors(n, eps)
    order = np.argsort(errs[:n], kind="stable")
    info = np.sort(order[:k_total])
    return info, float(errs[info].sum())


def _decode_chunk_blocks(n_code: int, list_size: int) -> int:
    """Blocks per decoder call: at most _DECODE_CHUNK, and few enough that the
    list decoder's LLR lanes (blocks x paths x code bits, int16 or int32 as
    _lane_dtype picks) stay within the _DECODE_LANES budget, which PolarCode
    refuses a list size to exceed."""
    return min(_DECODE_CHUNK, _DECODE_LANES // (list_size * n_code))


def _require_bits(blocks, what: str) -> np.ndarray:
    """Blocks as a 2-D uint8 array, refusing any entry but 0 and 1 (NaN included)."""
    blocks = np.atleast_2d(np.asarray(blocks))
    if not np.all((blocks == 0) | (blocks == 1)):
        raise DomainError(f"{what} must hold only the bits 0 and 1")
    return blocks.astype(np.uint8)


class PolarCode:
    """Shortened polar code, CRC-aided list decoding over hard decisions.

    ``decode_batch`` returns, per received block, the payload of the
    best-metric path whose CRC checks (falling back to the best-metric path
    when none does), so the whole pipeline stays in integer arithmetic and
    is reproducible bit for bit.
    ``list_size=1, crc_bits=0`` reduces to plain successive cancellation.
    """

    def __init__(self, n: int, k: int, eps: float, *, list_size: int = 16,
                 crc_bits: int = 16):
        n, k = require_integer(n, "n", 1), require_integer(k, "k", 1)
        list_size = require_integer(list_size, "list_size", 1)
        crc_bits = require_integer(crc_bits, "crc_bits", 0)
        if crc_bits not in _CRC_POLYS:
            raise DomainError(f"crc_bits must be one of {sorted(_CRC_POLYS)}")
        if k + crc_bits > n:
            raise DomainError(f"need k + crc_bits <= n, "
                              f"got k={_shown(k)}, crc_bits={crc_bits}, n={_shown(n)}")
        eps = require_real(eps, "crossover eps")
        if not 0.0 <= eps < 0.5:
            raise DomainError(f"crossover eps must be in [0, 0.5), got {eps}")
        require_within_cap(n, MAX_N, "blocklength")
        n_code = _code_length(n)
        require_within_cap(list_size * n_code, _DECODE_LANES, "list size x code length")
        self.n = n
        self.k = k
        self.eps = eps
        self.list_size = list_size
        self.crc_bits = crc_bits
        self.k_total = self.k + self.crc_bits
        key = (self.n, self.k_total, self.eps)
        if key not in _construction_cache:
            _construction_cache[key] = _construct(self.n, self.k_total, self.eps)
        self.n_code = n_code
        # a shortened bit's LLR: above n it decodes as +infinity ("Widths" above)
        self.shortened_llr = 1 << self.n.bit_length()
        self._crc_gen = _crc_matrix(self.k, self.crc_bits)
        self.info_positions, self.sc_union_bound = _construction_cache[key]
        self.frozen = np.ones(self.n_code, dtype=np.uint8)
        self.frozen[self.info_positions] = 0

    def encode_batch(self, msgs: np.ndarray) -> np.ndarray:
        msgs = _require_bits(msgs, "messages")
        if msgs.shape[1] != self.k:
            raise DomainError(f"messages must have {self.k} bits")
        info = np.hstack([msgs, _crc_bits(msgs, self._crc_gen)])
        u = np.zeros((msgs.shape[0], self.n_code), dtype=np.uint8)
        u[:, self.info_positions] = info
        return _encode_batch(u)[:, :self.n]

    def decode_batch(self, ys: np.ndarray) -> np.ndarray:
        ys = _require_bits(ys, "received blocks")
        if ys.shape[1] != self.n:
            raise DomainError(f"received blocks must have {self.n} bits")
        out = np.empty((ys.shape[0], self.k), dtype=np.uint8)
        step = _decode_chunk_blocks(self.n_code, self.list_size)
        for s in range(0, ys.shape[0], step):
            out[s:s + step] = self._decode_chunk(ys[s:s + step])
        return out

    def _decode_chunk(self, ys: np.ndarray) -> np.ndarray:
        b = ys.shape[0]
        tail = self.n_code - self.n
        # every LLR is within 2B + n of 0 ("Widths" above) and within the row sum
        lanes = _lane_dtype(min(2, tail) * self.shortened_llr + self.n)
        llr = np.empty((self.n_code, b), dtype=lanes)  # the decoder's layout
        llr[:self.n] = 1 - 2 * ys.T.astype(lanes)
        if tail:
            llr[self.n:] = self.shortened_llr
        u_all, pm = _scl_run(llr.T, self.frozen, self.list_size)
        cand = u_all[:, :, self.info_positions]
        pay = cand[:, :, :self.k]
        order = np.argsort(pm, axis=1, kind="stable")
        calc = _crc_bits(pay.reshape(-1, self.k), self._crc_gen)
        stored = cand[:, :, self.k:].reshape(calc.shape)
        ok = np.all(calc == stored, axis=1).reshape(pm.shape)
        ok_ord = np.take_along_axis(ok, order, axis=1)
        first = np.argmax(ok_ord, axis=1)
        pick = np.where(ok_ord.any(axis=1), first, 0)
        chosen = order[np.arange(b), pick]
        return pay[np.arange(b), chosen]
