"""Forward error-correcting block code used on the binary forward link.

A natural-order polar transform (lower-triangular kernel, no bit reversal)
of size 2^ceil(log2 n), shortened down to n by freezing the tail inputs,
which pins the tail codeword bits to 0 so they need not be transmitted.
Decoding is CRC-aided successive-cancellation list decoding with an integer
min-sum update rule, batched over blocks in numpy.  The list engine copies
path state lazily: it keeps one LLR and one partial-sum buffer per tree
depth, each read through a per-depth map from path to buffer row, so a
list reorder only composes index maps; the decided bits are recovered by
tracing the recorded parent rows back once at the end.  The information set
is picked by a seeded genie-aided Monte Carlo construction: run the L=1
decoder on random blocks with every decision corrected to the truth, count
per-position decision errors, keep the most reliable positions.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

BIG = np.int64(1) << np.int64(40)  # pseudo-infinite LLR of a shortened (known-zero) bit
_CONSTRUCTION_SEED = 0x5EED_C0DE
_CONSTRUCTION_BLOCKS = 25000
_CONSTRUCTION_CHUNK = 2048
_DECODE_CHUNK = 256
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


def _crc_bits(bits: np.ndarray, nc: int) -> np.ndarray:
    """CRC of each row of a (B, k) bit array, MSB-first, zero init."""
    poly = _CRC_POLYS[nc]
    mask = (1 << nc) - 1
    reg = np.zeros(bits.shape[0], dtype=np.int64)
    for j in range(bits.shape[1]):
        reg ^= bits[:, j].astype(np.int64) << (nc - 1)
        msb = (reg >> (nc - 1)) & 1
        reg = ((reg << 1) & mask) ^ (msb * poly)
    out = (reg[:, None] >> np.arange(nc - 1, -1, -1)) & 1
    return out.astype(np.uint8)


# ---------------------------------------------------------------------------
# successive-cancellation list engine
#
# Lazy path copies (Tal & Vardy 2015, "List decoding of polar codes", IV).
# P[d] holds the LLRs at depth d (width n >> d) and S[d] the partial sums of
# the most recent completed left child at depth d, as 0/-1 int8 masks; both
# are (B, lanes, width) arrays.  A lane axis of size 1 means the data is
# shared by every path: depth 0 is the channel LLR, and every buffer written
# before the first information bit stays shared.  maps[0, d] / maps[1, d]
# give, for each path (flat row b * L + j), the flat row that holds its
# P[d] / S[d] data, so a reorder of the list composes the parent rows into
# the maps and moves no data.  A buffer is gathered only when it is read
# through a moved map: the g-step reads P[l0 - 1], the partial-sum ripple
# reads the left children S[d].  Every write makes a fresh buffer in path
# order and resets its map.  The f-steps read buffers written in the same
# leaf, and the g-step's S[l0] was written by the previous leaf after its
# reorder, so neither is ever gathered.  Decided bits are not stored per
# path: each information leaf records its bits and parent rows, and U is
# traced back once at the end.
#
# The update schedule per leaf phi: one g-step at depth m - trailing_zeros(phi),
# f-steps below it, then a partial-sum ripple across the trailing ones of phi.
# PM is the path metric (sum of magnitudes of violated leaf LLRs).


def _f_step(av, cv):
    """Min-sum check update: sign(a) sign(c) min(|a|, |c|).

    Built in place from an integer sign mask, which allocates fewer
    temporaries than multiplying by np.sign.  A zero operand makes the
    minimum 0, so its sign does not matter.
    """
    out = np.abs(av)
    tmp = np.abs(cv)
    np.minimum(out, tmp, out=out)
    np.bitwise_xor(av, cv, out=tmp)
    tmp >>= 63  # -1 where the signs differ, else 0
    out ^= tmp
    out -= tmp
    return out


def _g_step(av, cv, s):
    """Variable update: c + a, or c - a where the partial-sum mask s is -1."""
    out = np.bitwise_xor(av, s)
    out -= s  # (a ^ -1) + 1 == -a
    out += cv
    return out


def _scl_run(llr0, frozen, L, genie_u=None, errs=None):
    """Run the list decoder on (B, n_code) LLR blocks; returns (U, PM).

    With ``genie_u`` (construction mode, L == 1) every decision is corrected
    to the true bit and per-position decision errors are added to ``errs``.
    """
    B, n = llr0.shape
    m = n.bit_length() - 1
    P = [llr0[:, None, :]] + [None] * m
    S = [None] * (m + 1)
    ident = np.arange(B * L)
    maps = np.tile(ident, (2, m + 1, 1))
    moved = np.zeros((2, m + 1), dtype=bool)
    row = (np.arange(B) * L)[:, None]
    row_dtype = np.min_scalar_type(B * L - 1)
    PM = np.zeros((B, L), dtype=np.int64)
    trace = []  # (phi, bits, flat parent rows or None) per information leaf

    def read(k, d):  # k = 0: P[d], k = 1: S[d], in path order
        buf = (P, S)[k][d]
        if not moved[k, d] or buf.shape[1] == 1:
            return buf
        w = buf.shape[2]
        return buf.reshape(B * L, w).take(maps[k, d], axis=0).reshape(B, L, w)

    def wrote(k, d):
        maps[k, d] = ident
        moved[k, d] = False

    a = 1
    for phi in range(n):
        if phi == 0:
            lo = 1
        else:
            tz = (phi & -phi).bit_length() - 1
            l0 = m - tz
            w = n >> l0
            seg = read(0, l0 - 1)
            P[l0] = _g_step(seg[..., :w], seg[..., w:], S[l0])
            wrote(0, l0)
            lo = l0 + 1
        for d in range(lo, m + 1):
            w = n >> d
            seg = P[d - 1]
            P[d] = _f_step(seg[..., :w], seg[..., w:])
            wrote(0, d)
        llr = P[m][:, :, 0]
        if frozen[phi]:
            PM += np.maximum(-llr, 0)
            bit = np.zeros((B, 1), dtype=np.uint8)
        elif genie_u is not None:  # construction mode, L == 1
            dec = (llr[:, 0] < 0).astype(np.uint8)
            bit = genie_u[:, phi:phi + 1]
            errs[phi] += int(np.count_nonzero(dec != bit[:, 0]))
            trace.append((phi, bit, None))
        else:
            llr = np.broadcast_to(llr, (B, L))
            pen0 = np.maximum(-llr, 0)
            pen1 = np.maximum(llr, 0)
            if 2 * a <= L:  # list still growing: keep every extension
                l2 = 2 * a
                PM[:, :l2] = np.repeat(PM[:, :a], 2, axis=1)
                PM[:, 0:l2:2] += pen0[:, :a]
                PM[:, 1:l2:2] += pen1[:, :a]
                parent = np.arange(L)
                parent[:l2] >>= 1
                bit = np.zeros((B, L), dtype=np.uint8)
                bit[:, 1:l2:2] = 1
                a = l2
            else:  # keep the L best of 2L extensions; ties keep lower index
                pmc = np.empty((B, 2 * L), dtype=np.int64)
                pmc[:, 0::2] = PM + pen0
                pmc[:, 1::2] = PM + pen1
                order = np.argsort(pmc, axis=1, kind="stable")[:, :L]
                PM = np.take_along_axis(pmc, order, axis=1)
                bit = (order & 1).astype(np.uint8)
                parent = order >> 1
            flat = (parent + row).reshape(-1)
            if np.array_equal(flat, ident):
                trace.append((phi, bit, None))
            else:  # reorder the list: compose the maps, move no data
                maps[...] = maps[..., flat]
                moved[...] = True
                trace.append((phi, bit, flat.astype(row_dtype)))
        x = -bit.astype(np.int8)[..., None]
        d, ph = m, phi
        while d > 0 and (ph & 1) == 1:
            y = read(1, d) ^ x
            x = np.concatenate([y, np.broadcast_to(x, y.shape)], axis=2)
            ph >>= 1
            d -= 1
        if d > 0:
            S[d] = x
            wrote(1, d)
    U = np.zeros((B, L, n), dtype=np.uint8)
    cur = None  # flat row of each final path's ancestor; None = identity
    for phi, bit, flat in reversed(trace):
        U[:, :, phi] = bit if cur is None else bit.reshape(-1)[cur].reshape(B, L)
        if flat is not None:
            cur = flat if cur is None else flat[cur]
    return U, PM


# ---------------------------------------------------------------------------
# code construction and the code classes


def _construct(n: int, k_total: int, eps: float, blocks: int):
    """Genie Monte Carlo construction: per-position error counts -> info set."""
    n_code = 1 << max(1, math.ceil(math.log2(n)))
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=_CONSTRUCTION_SEED,
                               spawn_key=(n_code, n, k_total))))
    frz = np.zeros(n_code, dtype=np.uint8)
    frz[n:] = 1  # shortened tail, transmitted as known zeros
    errs = np.zeros(n_code, dtype=np.int64)
    done = 0
    while done < blocks:
        b = min(_CONSTRUCTION_CHUNK, blocks - done)
        u = rng.integers(0, 2, size=(b, n_code), dtype=np.uint8)
        u[:, n:] = 0
        noise = (rng.random((b, n)) < eps).astype(np.uint8)
        x = _encode_batch(u)
        llr = np.empty((b, n_code), dtype=np.int64)
        llr[:, :n] = 1 - 2 * (x[:, :n] ^ noise).astype(np.int64)
        llr[:, n:] = BIG
        _scl_run(llr, frz, 1, genie_u=u, errs=errs)
        done += b
    order = np.argsort(errs[:n], kind="stable")
    info = np.sort(order[:k_total])
    union_bound = float(errs[info].sum()) / blocks
    return n_code, info, union_bound


class PolarCode:
    """Shortened polar code, CRC-aided list decoding over hard decisions.

    ``decode`` returns the payload of the best-metric path whose CRC checks
    (falling back to the best-metric path when none does), so the whole
    pipeline stays in integer arithmetic and is reproducible bit for bit.
    ``list_size=1, crc_bits=0`` reduces to plain successive cancellation.
    """

    def __init__(self, n: int, k: int, eps: float, *, list_size: int = 16,
                 crc_bits: int = 16,
                 construction_blocks: int = _CONSTRUCTION_BLOCKS):
        if crc_bits not in _CRC_POLYS:
            raise DomainError(f"crc_bits must be one of {sorted(_CRC_POLYS)}")
        if not (1 <= k and k + crc_bits <= n):
            raise DomainError(f"need 1 <= k and k + crc_bits <= n, "
                              f"got k={k}, crc_bits={crc_bits}, n={n}")
        if not (0.0 <= eps < 0.5):
            raise DomainError(f"crossover eps must be in [0, 0.5), got {eps}")
        if list_size < 1:
            raise DomainError("list_size must be >= 1")
        self.n = int(n)
        self.k = int(k)
        self.eps = float(eps)
        self.list_size = int(list_size)
        self.crc_bits = int(crc_bits)
        self.k_total = self.k + self.crc_bits
        key = (self.n, self.k_total, round(self.eps, 12), construction_blocks)
        if key not in _construction_cache:
            _construction_cache[key] = _construct(self.n, self.k_total,
                                                  self.eps, construction_blocks)
        self.n_code, self.info_positions, self.sc_union_bound = \
            _construction_cache[key]
        self.frozen = np.ones(self.n_code, dtype=np.uint8)
        self.frozen[self.info_positions] = 0

    def encode_batch(self, msgs: np.ndarray) -> np.ndarray:
        msgs = np.atleast_2d(np.asarray(msgs, dtype=np.uint8))
        if msgs.shape[1] != self.k:
            raise DomainError(f"messages must have {self.k} bits")
        if self.crc_bits:
            info = np.hstack([msgs, _crc_bits(msgs, self.crc_bits)])
        else:
            info = msgs
        u = np.zeros((msgs.shape[0], self.n_code), dtype=np.uint8)
        u[:, self.info_positions] = info
        return _encode_batch(u)[:, :self.n]

    def decode_batch(self, ys: np.ndarray) -> np.ndarray:
        ys = np.atleast_2d(np.asarray(ys, dtype=np.uint8))
        if ys.shape[1] != self.n:
            raise DomainError(f"received blocks must have {self.n} bits")
        out = np.empty((ys.shape[0], self.k), dtype=np.uint8)
        for s in range(0, ys.shape[0], _DECODE_CHUNK):
            out[s:s + _DECODE_CHUNK] = self._decode_chunk(ys[s:s + _DECODE_CHUNK])
        return out

    def _decode_chunk(self, ys: np.ndarray) -> np.ndarray:
        b = ys.shape[0]
        llr = np.empty((b, self.n_code), dtype=np.int64)
        llr[:, :self.n] = 1 - 2 * ys.astype(np.int64)
        llr[:, self.n:] = BIG
        u_all, pm = _scl_run(llr, self.frozen, self.list_size)
        cand = u_all[:, :, self.info_positions]
        pay = cand[:, :, :self.k]
        order = np.argsort(pm, axis=1, kind="stable")
        if self.crc_bits:
            calc = _crc_bits(pay.reshape(-1, self.k), self.crc_bits)
            stored = cand[:, :, self.k:].reshape(-1, self.crc_bits)
            ok = np.all(calc == stored, axis=1).reshape(b, self.list_size)
            ok_ord = np.take_along_axis(ok, order, axis=1)
            first = np.argmax(ok_ord, axis=1)
            pick = np.where(ok_ord.any(axis=1), first, 0)
        else:
            pick = np.zeros(b, dtype=np.int64)
        chosen = order[np.arange(b), pick]
        return pay[np.arange(b), chosen]

    def encode(self, msg: np.ndarray) -> np.ndarray:
        return self.encode_batch(msg)[0]

    def decode(self, y: np.ndarray) -> np.ndarray:
        return self.decode_batch(y)[0]


class RandomCodebookCode:
    """Random binary codebook with minimum-Hamming-distance decoding.

    Only viable at tiny blocklengths (the codebook is materialized); kept as
    a pluggable alternative to the polar default.
    """

    MAX_K = 16

    def __init__(self, n: int, k: int, seed: int = 0):
        if not (1 <= k <= min(n, self.MAX_K)):
            raise DomainError(f"need 1 <= k <= min(n, {self.MAX_K}), got k={k}")
        self.n = int(n)
        self.k = int(k)
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=seed, spawn_key=(n, k))))
        self.codebook = rng.integers(0, 2, size=(1 << k, n), dtype=np.uint8)

    def _index(self, msg: np.ndarray) -> np.ndarray:
        weights = 1 << np.arange(self.k - 1, -1, -1, dtype=np.int64)
        return np.asarray(msg, dtype=np.int64) @ weights

    def encode_batch(self, msgs: np.ndarray) -> np.ndarray:
        msgs = np.atleast_2d(np.asarray(msgs, dtype=np.uint8))
        return self.codebook[self._index(msgs)]

    def decode_batch(self, ys: np.ndarray) -> np.ndarray:
        ys = np.atleast_2d(np.asarray(ys, dtype=np.uint8))
        # Hamming distance to every codeword; ties go to the lowest index.
        dist = (ys[:, None, :] ^ self.codebook[None, :, :]).sum(axis=2)
        idx = np.argmin(dist, axis=1)
        bits = (idx[:, None] >> np.arange(self.k - 1, -1, -1)) & 1
        return bits.astype(np.uint8)

    def encode(self, msg: np.ndarray) -> np.ndarray:
        return self.encode_batch(msg)[0]

    def decode(self, y: np.ndarray) -> np.ndarray:
        return self.decode_batch(y)[0]
