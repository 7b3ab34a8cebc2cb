"""Block code: transform oracle, SC reference decoder, CRC vectors."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from zdmn import polar
from zdmn.errors import DomainError, ResourceCapError
from zdmn.polar import PolarCode, _crc_bits, _crc_matrix, _encode_batch

_INF = 1 << 40  # a pseudo-infinite LLR for a known-zero bit
_CRC_POLYS = {8: 0x07, 16: 0x1021}


def _crc_reference(bits, nc):
    """Shift-register CRC of each row of a (B, k) bit array, MSB-first, zero init."""
    poly = _CRC_POLYS[nc]
    mask = (1 << nc) - 1
    reg = np.zeros(bits.shape[0], dtype=np.int64)
    for j in range(bits.shape[1]):
        reg ^= bits[:, j].astype(np.int64) << (nc - 1)
        msb = (reg >> (nc - 1)) & 1
        reg = ((reg << 1) & mask) ^ (msb * poly)
    out = (reg[:, None] >> np.arange(nc - 1, -1, -1)) & 1
    return out.astype(np.uint8)


def _kron_transform(m: int) -> np.ndarray:
    g = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    out = np.array([[1]], dtype=np.uint8)
    for _ in range(m):
        out = np.kron(out, g)
    return out


def _sc_reference(llr, frozen):
    """Independent recursive successive-cancellation decoder (integer min-sum).

    Returns the full decided input vector; ties (zero LLR) decide 0, matching
    a stable best-first selection.
    """
    frozen = np.asarray(frozen)

    def rec(seg, lo):
        if seg.shape[0] == 1:
            u = 0 if frozen[lo] else int(seg[0] < 0)
            return [u], np.array([u], dtype=np.uint8)
        w = seg.shape[0] // 2
        a, c = seg[:w], seg[w:]
        f = np.sign(a) * np.sign(c) * np.minimum(np.abs(a), np.abs(c))
        ul, xl = rec(f, lo)
        g = np.where(xl == 1, c - a, c + a)
        ur, xr = rec(g, lo + w)
        return ul + ur, np.concatenate([xl ^ xr, xr])

    u, _ = rec(np.asarray(llr, dtype=np.int64), 0)
    return np.array(u, dtype=np.uint8)


_KRON = [_kron_transform(m) for m in range(9)]


def _sign(x):
    return (x > 0) - (x < 0)


def _leaf_llr(llr, u, phi):
    """LLR of leaf ``phi`` from the channel LLRs and the decided prefix ``u``.

    Walks the recursive min-sum formula down one branch: the left half of a
    segment sees f(a, c); the right half sees c +/- a, with the sign taken
    from the codeword of the left half's decided bits (Kronecker oracle).
    """
    llr = [int(v) for v in llr]
    while len(llr) > 1:
        w = len(llr) // 2
        a, c = llr[:w], llr[w:]
        if phi < w:
            llr = [_sign(x) * _sign(y) * min(abs(x), abs(y)) for x, y in zip(a, c)]
        else:
            xl = (np.asarray(u[:w]) @ _KRON[w.bit_length() - 1]) % 2
            llr = [y - x if b else y + x for x, y, b in zip(a, c, xl)]
            u, phi = u[w:], phi - w
    return llr[0]


def _scl_reference(llr, frozen, L):
    """Per-path list decoder: each path recomputes its leaf LLRs from scratch.

    While the list grows every extension is kept (0 then 1 per parent); once
    it is full, the interleaved 2L candidates are stably sorted by metric and
    the best L kept.  Returns the paths' decided bits and metrics.
    """
    paths = [([], 0)]
    for phi in range(len(llr)):
        ext = []
        for u, pm in paths:
            v = _leaf_llr(llr, u, phi)
            ext.append((u + [0], pm + max(-v, 0)))
            if not frozen[phi]:
                ext.append((u + [1], pm + max(v, 0)))
        if len(ext) > L:
            ext = sorted(ext, key=lambda p: p[1])[:L]  # sorted() is stable
        paths = ext
    return (np.array([u for u, _ in paths], dtype=np.uint8),
            np.array([pm for _, pm in paths], dtype=np.int64))


# ---------------------------------------------------------------------------
# encoding


def test_encode_matches_kronecker_power_oracle():
    rng = np.random.Generator(np.random.Philox(1))
    for m in range(1, 7):
        n = 1 << m
        u = rng.integers(0, 2, size=(50, n), dtype=np.uint8)
        want = (u @ _kron_transform(m)) % 2
        got = _encode_batch(u)
        assert np.array_equal(got, want)


def test_shortened_tail_is_all_zero():
    code = PolarCode(100, 30, 0.11, list_size=1, crc_bits=8)
    assert code.n_code == 128
    rng = np.random.Generator(np.random.Philox(2))
    msgs = rng.integers(0, 2, size=(40, 30), dtype=np.uint8)
    info = np.hstack([msgs, _crc_reference(msgs, 8)])
    u = np.zeros((40, 128), dtype=np.uint8)
    u[:, code.info_positions] = info
    full = _encode_batch(u)
    assert np.array_equal(full[:, :100], code.encode_batch(msgs))
    assert not full[:, 100:].any()


def test_noiseless_roundtrip():
    rng = np.random.Generator(np.random.Philox(3))
    for n, k, crc, lst in ((16, 4, 0, 1), (32, 10, 8, 4), (100, 20, 16, 8)):
        code = PolarCode(n, k, 0.11, list_size=lst, crc_bits=crc)
        msgs = rng.integers(0, 2, size=(25, k), dtype=np.uint8)
        assert np.array_equal(code.decode_batch(code.encode_batch(msgs)), msgs)


# ---------------------------------------------------------------------------
# list decoder against the recursive reference


def test_list_of_one_matches_recursive_reference():
    rng = np.random.Generator(np.random.Philox(4))
    for n in (2, 4, 8, 16, 32):
        for _ in range(20):
            frozen = rng.integers(0, 2, size=n, dtype=np.uint8)
            llr = rng.integers(-3, 4, size=(1, n)).astype(np.int64)
            u, _pm = polar._scl_run(llr, frozen, 1)
            want = _sc_reference(llr[0], frozen)
            assert np.array_equal(u[0, 0], want)


def test_list_decoder_matches_per_path_reference():
    rng = np.random.Generator(np.random.Philox(8))
    for n in (2, 4, 8, 16, 32, 64):
        for L in (2, 3, 4, 5, 6, 8, 16):
            for trial in range(3):
                frozen = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(np.uint8)
                llr = rng.integers(-3, 4, size=(2, n)).astype(np.int64)  # zeros tie
                if trial == 2:  # shortened tail: known-zero bits at +infinity
                    t = int(rng.integers(n // 2, n))
                    llr[:, t:] = _INF
                    frozen[t:] = 1
                u, pm = polar._scl_run(llr, frozen, L)
                for b in range(2):
                    want_u, want_pm = _scl_reference(llr[b], frozen, L)
                    assert np.array_equal(u[b], want_u), (n, L, trial, b)
                    assert np.array_equal(pm[b], want_pm), (n, L, trial, b)


def test_kept_list_checks_the_order_of_the_best_children():
    # leaf 5 is a Rate-0 leaf between information leaves: its penalties
    # leave the metrics unsorted, so at leaf 6 each path's best child is
    # kept in path order only if those children's metrics are in order
    frozen = np.array([1, 1, 0, 0, 0, 1, 0, 1], dtype=np.uint8)
    rng = np.random.Generator(np.random.Philox(14))
    llr = rng.integers(-3, 4, size=(40, 8)).astype(np.int64)
    # at leaf 6 the best children's metrics are [5, 5, 4], every other
    # child's 6: the children beyond the list sort after the last kept one,
    # yet the list reorders
    llr[0] = (-2, 3, 1, -2, 0, 3, 0, -2)
    for rows in (llr[:1], llr):
        u, pm = polar._scl_run(rows, frozen, 3)
        for b in range(len(rows)):
            want_u, want_pm = _scl_reference(rows[b], frozen, 3)
            assert np.array_equal(u[b], want_u), b
            assert np.array_equal(pm[b], want_pm), b


@pytest.mark.parametrize("n", (128, 256))
def test_list_decoder_matches_per_path_reference_at_width(n):
    # a random mask at information density about 1/2 puts frozen leaves
    # between information leaves: single Rate-0 leaves, and Rate-0 and Rep
    # nodes of several widths
    rng = np.random.Generator(np.random.Philox(15 + n))
    frozen = (rng.random(n) < 0.5).astype(np.uint8)
    kinds = {(d < n.bit_length() - 1, rep) for _phi, d, rep in polar._node_split(frozen)}
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}
    llr = rng.integers(-3, 4, size=(4, n)).astype(np.int64)
    for L in (3, 16):
        u, pm = polar._scl_run(llr, frozen, L)
        for b in range(4):
            want_u, want_pm = _scl_reference(llr[b], frozen, L)
            assert np.array_equal(u[b], want_u), (L, b)
            assert np.array_equal(pm[b], want_pm), (L, b)


def _dtype_spy(monkeypatch):
    """Record the dtype of every LLR row array that _scl_run receives."""
    seen, real = [], polar._scl_run
    monkeypatch.setattr(polar, "_scl_run",
                        lambda llr0, *a: seen.append(llr0.dtype) or real(llr0, *a))
    return seen


def test_llr_width_at_the_int32_bound(monkeypatch):
    # every LLR is a signed sum of one row's channel LLRs, and the decoder
    # runs in the rows' own dtype: int32 rows whose sum of |LLR| is
    # 2**31 - 1 decode exactly, and a row at 2**31 in int64 rows
    seen = _dtype_spy(monkeypatch)
    rng = np.random.Generator(np.random.Philox(12))
    for total, want in ((2 ** 31 - 1, np.int32), (2 ** 31, np.int64)):
        for trial in range(4):
            frozen = (rng.random(8) < 0.5).astype(np.uint8)
            llr = rng.integers(-3, 4, size=(2, 8)).astype(np.int64)
            j = int(rng.integers(0, 8))
            llr[1, j] = 0
            llr[1, j] = (-1) ** trial * (total - int(np.abs(llr[1]).sum()))
            llr = llr.astype(want)
            for L in (1, 2, 3, 4):
                u, pm = polar._scl_run(llr, frozen, L)
                assert seen[-1] == want
                for b in range(2):
                    want_u, want_pm = _scl_reference(llr[b], frozen, L)
                    assert np.array_equal(u[b], want_u), (total, trial, L, b)
                    assert np.array_equal(pm[b], want_pm), (total, trial, L, b)


def test_llr_width_at_the_int16_bound(monkeypatch):
    # int16 rows whose sum of |LLR| is 2**15 - 1 decode exactly in int16,
    # and a row at 2**15 in int32 rows
    seen = _dtype_spy(monkeypatch)
    rng = np.random.Generator(np.random.Philox(16))
    for total, want in ((2 ** 15 - 1, np.int16), (2 ** 15, np.int32)):
        for trial in range(4):
            frozen = (rng.random(8) < 0.5).astype(np.uint8)
            llr = rng.integers(-3, 4, size=(2, 8)).astype(np.int64)
            j = int(rng.integers(0, 8))
            llr[1, j] = 0
            llr[1, j] = (-1) ** trial * (total - int(np.abs(llr[1]).sum()))
            llr = llr.astype(want)
            for L in (1, 2, 3, 4):
                u, pm = polar._scl_run(llr, frozen, L)
                assert seen[-1] == want
                for b in range(2):
                    want_u, want_pm = _scl_reference(llr[b], frozen, L)
                    assert np.array_equal(u[b], want_u), (total, trial, L, b)
                    assert np.array_equal(pm[b], want_pm), (total, trial, L, b)


def _sort_spy(monkeypatch):
    """Record every np.sort ("sort") and np.argsort (its kind) call."""
    calls = []
    real_sort, real_argsort = np.sort, np.argsort
    monkeypatch.setattr(np, "sort", lambda *a, **kw: calls.append("sort") or real_sort(*a, **kw))
    monkeypatch.setattr(np, "argsort",
                        lambda *a, **kw: calls.append(kw.get("kind")) or real_argsort(*a, **kw))
    return calls


def test_candidate_sort_packs_keys_just_below_the_packed_key_bound(monkeypatch):
    # at L = 2 a packed key PM << 2 | index is exact while PM < 2**61; the
    # list is full after leaf 6, and leaf 7's LLR carries the huge channel
    # LLR, so its wrong-bit candidate metric lands just below 2**61
    calls = _sort_spy(monkeypatch)
    frozen = np.array([1, 1, 1, 1, 1, 1, 0, 0], dtype=np.uint8)
    rng = np.random.Generator(np.random.Philox(13))
    huge = 2 ** 61 - 64
    # leaf 7 keeps each path's bit-0 child, so the list reorders (and a
    # sort runs) only where leaf 6 left a block's two paths in
    # decreasing metric order: in some of these batches and not others
    reorders = []
    for _ in range(4):
        llr = rng.integers(-3, 4, size=(2, 8)).astype(np.int64)
        llr[:, 7] = huge
        calls.clear()
        u, pm = polar._scl_run(llr, frozen, 2)
        assert pm.max() < 2 ** 62
        want = [_scl_reference(llr[b], frozen, 2) for b in range(2)]
        reorders.append(any(want_u[0, 6] == 1 for want_u, _pm in want))
        assert calls == (["sort"] if reorders[-1] else [])
        for b, (want_u, want_pm) in enumerate(want):
            assert np.array_equal(u[b], want_u), b
            assert np.array_equal(pm[b], want_pm), b
    assert True in reorders and False in reorders
    # here the huge metrics themselves are sorted at leaf 7
    llr = np.array([[-1, -2, 2, 1, 2, huge, 1, -huge]], dtype=np.int64)
    calls.clear()
    u, pm = polar._scl_run(llr, frozen, 2)
    assert calls == ["sort"]
    assert pm.min() > 2 ** 61 - 128
    want_u, want_pm = _scl_reference(llr[0], frozen, 2)
    assert np.array_equal(u[0], want_u)
    assert np.array_equal(pm[0], want_pm)


@pytest.mark.parametrize("n", (2000, 8191))
def test_path_metrics_and_packed_keys_stay_within_the_pruning_bound(n, monkeypatch):
    # uniformly random words (eps 0.5) at L = 16: a node adds at most n to a
    # path metric, so PM <= n * n_code, and every packed sort key stays
    # below 2**40, far from the 2**63 a key must stay below
    code = PolarCode(n, int(0.4 * n), 0.11)
    rng = np.random.Generator(np.random.Philox(36))
    llr = np.full((4, code.n_code), code.shortened_llr,
                  dtype=polar._lane_dtype(2 * code.shortened_llr + n))
    llr[:, :n] = 1 - 2 * rng.integers(0, 2, size=(4, n))
    keys, real_sort = [], np.sort
    monkeypatch.setattr(np, "sort",
                        lambda a, *r, **kw: keys.append(int(a.max())) or real_sort(a, *r, **kw))
    _u, pm = polar._scl_run(llr, code.frozen, code.list_size)
    assert keys and max(keys) < 2 ** 40
    assert 0 < pm.max() <= n * code.n_code


def _noisy_blocks(code, eps, blocks, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    msgs = rng.integers(0, 2, size=(blocks, code.k), dtype=np.uint8)
    x = code.encode_batch(msgs)
    return x ^ (rng.random(x.shape) < eps).astype(np.uint8)


@pytest.mark.parametrize("n", (200, 700, 1500, 2000))
def test_smallest_shortened_llr_decodes_as_pseudo_infinite(n, monkeypatch):
    # every LLR is c * B + r with |r| <= n and c in {0, 1, 2}, so any B
    # above n orders the decoder's comparisons as B = infinity does
    code = PolarCode(n, int(0.4 * n), 0.11)
    assert code.shortened_llr > n >= code.shortened_llr // 2
    ys = []
    for seed, eps in enumerate((0.11, 0.3, 0.5)):
        y = _noisy_blocks(code, eps, 6, 20 + seed)
        ys.append(y)
        llr = np.full((6, code.n_code), code.shortened_llr, dtype=np.int64)
        llr[:, :n] = 1 - 2 * y.astype(np.int64)
        llr_inf = llr.copy()
        llr_inf[:, n:] = _INF
        u, pm = polar._scl_run(llr, code.frozen, code.list_size)
        u_inf, pm_inf = polar._scl_run(llr_inf, code.frozen, code.list_size)
        assert np.array_equal(u, u_inf), eps
        assert np.array_equal(np.argsort(pm, axis=1, kind="stable"),
                              np.argsort(pm_inf, axis=1, kind="stable")), eps
    ys = np.vstack(ys)
    # every buffer value is within 2B + n of 0, below 2**15 for n < 8192
    assert 2 * code.shortened_llr + n < 2 ** 15
    seen = _dtype_spy(monkeypatch)
    got = code.decode_batch(ys)
    monkeypatch.setattr(code, "shortened_llr", _INF)
    assert np.array_equal(got, code.decode_batch(ys))
    assert seen == [np.int16, np.int64]


def test_shortened_int16_lanes_decode_as_pseudo_infinite():
    # random tail-shortened codes: k random information positions below n,
    # the tail n..n_code - 1 frozen.  int16 rows with B, the smallest power
    # of two above n, give the (U, PM) of B = 2**23 and of B = _INF
    rng = np.random.Generator(np.random.Philox(34))
    ns = [17] + [(1 << j) + 1 for j in range(5, 13)] + [8191]  # n_code / 2 + 1
    ns += np.exp(rng.uniform(np.log(17), np.log(2048), size=250 - len(ns))).astype(int).tolist()
    for n in ns:
        n_code = polar._code_length(n)
        k = int(rng.integers(1, n + 1))
        L = int(rng.choice([1, 2, 4, 8, 16]))
        frozen = np.ones(n_code, dtype=np.uint8)
        frozen[rng.choice(n, size=k, replace=False)] = 0
        u = np.zeros((1, n_code), dtype=np.uint8)
        u[:, frozen == 0] = rng.integers(0, 2, size=(1, k))
        noisy = polar._encode_batch(u)[:, :n] ^ (rng.random((1, n)) < rng.random() / 2)
        # int64 before 1 - 2 * y: on uint8 the -1 wraps to 255
        y = np.vstack([noisy, rng.integers(0, 2, size=(1, n))]).astype(np.int64)
        big = 1 << n.bit_length()
        assert n < big <= 2 * n and 2 * big + n < 2 ** 15
        llr = np.empty((6, n_code), dtype=np.int64)
        llr[:, :n] = np.tile(1 - 2 * y, (3, 1))
        llr[:2, n:], llr[2:4, n:], llr[4:, n:] = big, 2 ** 23, _INF
        u16, pm16 = polar._scl_run(llr[:2].astype(np.int16), frozen, L)
        u, pm = polar._scl_run(llr[2:], frozen, L)  # rows: B = 2**23, then _INF
        for b in range(2):
            for ref in (b, b + 2):
                assert np.array_equal(u16[b], u[ref]), (n, k, L, b, ref)
                assert np.array_equal(pm16[b], pm[ref]), (n, k, L, b, ref)


def test_forward_code_llrs_stay_within_twice_the_shortened_llr_plus_n(monkeypatch):
    # uniformly random words (eps 0.5), decoded in int32 rows, which hold the
    # true values: every f- and g-step output is within 2B + n of 0, and the
    # all-tail g-children of straddling nodes reach c = 2
    code = PolarCode(2000, 800, 0.11)
    big = code.shortened_llr
    seen = []
    for name in ("_f_step", "_g_step"):
        real = getattr(polar, name)
        monkeypatch.setattr(polar, name, lambda *a, real=real: (
            lambda out: seen.append(int(np.abs(out).max())) or out)(real(*a)))
    rng = np.random.Generator(np.random.Philox(35))
    llr = np.full((8, code.n_code), big, dtype=np.int32)
    llr[:, :2000] = 1 - 2 * rng.integers(0, 2, size=(8, 2000))
    polar._scl_run(llr, code.frozen, code.list_size)
    assert len(seen) > 1000
    assert 2 * big < max(seen) <= 2 * big + 2000


def test_forward_code_decodes_with_int16_llrs(monkeypatch):
    # the bscfb forward code: n = 2000 at rate 0.4, list 16
    seen = _dtype_spy(monkeypatch)
    code = PolarCode(2000, 800, 0.11)
    assert code.list_size == 16 and code.n_code == 2048
    code.decode_batch(_noisy_blocks(code, 0.11, 2, 30))
    assert seen == [np.int16]


@pytest.mark.parametrize("n, want", ((8191, np.int16), (8193, np.int32), (16384, np.int16)))
def test_lane_dtype_of_the_largest_codes(n, want, monkeypatch):
    # int16 while 2B + n < 2**15, every shortened n < 8192; an unshortened
    # row's sum of |LLR| is n.  The lanes depend on n alone, so a cheap
    # information set (the last k + crc positions below n) stands in
    monkeypatch.setattr(polar, "_construction_cache", {})
    monkeypatch.setattr(polar, "_construct", lambda n, k_total, eps: (
        np.arange(n - k_total, n), 0.0))
    seen = _dtype_spy(monkeypatch)
    code = PolarCode(n, 64, 0.11, list_size=2, crc_bits=8)
    msgs = np.random.Generator(np.random.Philox(n)).integers(0, 2, size=(2, 64), dtype=np.uint8)
    assert np.array_equal(code.decode_batch(code.encode_batch(msgs)), msgs)
    assert seen == [want]


def test_forward_code_decoder_equals_golden_bits():
    # sha256 of _scl_run's (U, PM) and of decode_batch on 64 noisy blocks of
    # the bscfb forward code, taken before the kept-list prune and the
    # per-subtree ancestry replaced the per-depth index maps
    code = PolarCode(2000, 800, 0.11)
    y = _noisy_blocks(code, 0.11, 64, 32)
    llr = np.full((64, code.n_code), code.shortened_llr, dtype=np.int64)
    llr[:, :2000] = 1 - 2 * y.astype(np.int64)
    u, pm = polar._scl_run(llr, code.frozen, 16)
    assert u.shape == (64, 16, 2048) and pm.dtype == np.int64
    got = hashlib.sha256(np.ascontiguousarray(u).tobytes() + pm.tobytes()).hexdigest()
    assert got == "e0c95db90061ed2b40906afb44561d8bae6187afe90d9813adb3fe883aa4c9ef"
    got = hashlib.sha256(code.decode_batch(y).tobytes()).hexdigest()
    assert got == "5b90e4f8306cb611c48c941bb87844804f5422198a15b2c61bf67c89697d88dc"


def test_node_split_of_forward_code():
    frozen = PolarCode(2000, 800, 0.11).frozen
    m = 11
    nodes = polar._node_split(frozen)
    end = 0
    for phi, d, rep in nodes:
        w = 1 << (m - d)
        assert phi == end and phi % w == 0  # the nodes tile the leaves in order
        leaves = frozen[phi:phi + w]
        assert np.all(leaves[:-1]) and rep == (leaves[-1] == 0)
        if d > 0:  # the enclosing subtree is neither Rate-0 nor Rep
            lo = phi - phi % (2 * w)
            assert not np.all(frozen[lo:lo + 2 * w - 1])
        end = phi + w
    assert end == 2048
    kinds = [(d == m, rep) for _phi, d, rep in nodes]
    assert kinds.count((False, False)) == 32  # Rate-0 nodes
    assert kinds.count((False, True)) == 84  # Rep nodes
    assert sum(leaf for leaf, _rep in kinds) == 732  # single leaves
    assert len(nodes) == 848


def test_node_shortcuts_match_per_path_reference():
    code = PolarCode(200, 60, 0.11, crc_bits=0)
    assert code.n_code == 256
    wide = {rep for _phi, d, rep in polar._node_split(code.frozen) if d <= 5}
    assert wide == {False, True}  # Rate-0 and Rep nodes of width >= 8
    rng = np.random.Generator(np.random.Philox(9))
    msgs = rng.integers(0, 2, size=(2, 60), dtype=np.uint8)
    x = code.encode_batch(msgs)
    y = x ^ (rng.random(x.shape) < 0.11).astype(np.uint8)
    llr = np.full((2, 256), code.shortened_llr, dtype=np.int64)
    llr[:, :200] = 1 - 2 * y.astype(np.int64)
    for L in (1, 4, 8):
        u, pm = polar._scl_run(llr, code.frozen, L)
        for b in range(2):
            want_u, want_pm = _scl_reference(llr[b], code.frozen, L)
            assert np.array_equal(u[b], want_u), (L, b)
            assert np.array_equal(pm[b], want_pm), (L, b)


def test_crc0_decodes_to_the_best_metric_path():
    # a zero-width CRC checks on every path, so decode_batch returns the
    # payload of the first path of least metric
    code = PolarCode(64, 20, 0.11, list_size=8, crc_bits=0)
    assert code._crc_gen.shape == (20, 0)
    ys = _noisy_blocks(code, 0.3, 200, 37)
    llr = np.full((200, code.n_code), code.shortened_llr, dtype=np.int64)
    llr[:, :64] = 1 - 2 * ys.astype(np.int64)
    u, pm = polar._scl_run(llr, code.frozen, code.list_size)
    best = np.sort(pm, axis=1)
    assert (best[:, 0] == best[:, 1]).any()  # ties: the first such path wins
    first = np.argsort(pm, axis=1, kind="stable")[:, 0]
    want = u[np.arange(200), first][:, code.info_positions[:code.k]]
    assert np.array_equal(code.decode_batch(ys), want)


def test_list_larger_than_codebook_changes_nothing():
    # a list of 2**k paths holds every codeword, so a longer list decodes alike
    words = ((np.arange(2 ** 16)[:, None] >> np.arange(16)) & 1).astype(np.uint8)
    for k in (1, 2, 3):
        want = PolarCode(16, k, 0.11, list_size=2 ** k, crc_bits=0).decode_batch(words)
        for lst in (8, 16):
            got = PolarCode(16, k, 0.11, list_size=lst, crc_bits=0).decode_batch(words)
            assert np.array_equal(got, want), (k, lst)


def test_decoder_handles_shortened_llr_like_reference():
    code = PolarCode(12, 4, 0.11, list_size=1, crc_bits=0)
    rng = np.random.Generator(np.random.Philox(5))
    ys = rng.integers(0, 2, size=(30, 12), dtype=np.uint8)
    got = code.decode_batch(ys)
    for t in range(30):
        llr = np.empty(code.n_code, dtype=np.int64)
        llr[:12] = 1 - 2 * ys[t].astype(np.int64)
        llr[12:] = code.shortened_llr
        full_u = _sc_reference(llr, code.frozen)
        assert np.array_equal(got[t], full_u[code.info_positions][:4])


def test_batched_decode_equals_single():
    code = PolarCode(16, 6, 0.2, list_size=4, crc_bits=8)
    rng = np.random.Generator(np.random.Philox(6))
    ys = rng.integers(0, 2, size=(300, 16), dtype=np.uint8)  # crosses chunking
    batch = code.decode_batch(ys)
    for t in range(0, 300, 37):
        assert np.array_equal(code.decode_batch(ys[t:t + 1])[0], batch[t])


def test_decode_chunk_stays_within_lane_budget():
    # forward-code's n=2000 (n_code 2048) keeps the full 256 blocks
    assert polar._decode_chunk_blocks(2048, 16) == 256
    # at MAX_N 32 blocks of 16 paths: 2**23 lanes, about 128 MB of LLR
    # buffers over all depths in int64; int32 halves the bytes per lane,
    # and int16 halves them again
    assert polar._decode_chunk_blocks(polar.MAX_N, 16) == 32
    assert polar._decode_chunk_blocks(polar.MAX_N, 16) * 16 * polar.MAX_N <= 2 ** 23
    # the largest list PolarCode accepts at MAX_N decodes one block per call
    assert polar._decode_chunk_blocks(polar.MAX_N, polar._DECODE_LANES // polar.MAX_N) == 1


def test_chunked_decode_equals_single_blocks(monkeypatch):
    code = PolarCode(16, 6, 0.2, list_size=4, crc_bits=8)
    monkeypatch.setattr(polar, "_DECODE_LANES", 3 * 4 * code.n_code)
    assert polar._decode_chunk_blocks(code.n_code, 4) == 3
    rng = np.random.Generator(np.random.Philox(8))
    ys = rng.integers(0, 2, size=(10, 16), dtype=np.uint8)
    batch = code.decode_batch(ys)
    for t in range(10):
        assert np.array_equal(code.decode_batch(ys[t:t + 1])[0], batch[t])


def test_list_decoding_improves_on_plain_sc():
    kw = dict(crc_bits=16)
    code1 = PolarCode(128, 32, 0.11, list_size=1, **kw)
    code16 = PolarCode(128, 32, 0.11, list_size=16, **kw)
    rng = np.random.Generator(np.random.Philox(42))
    msgs = rng.integers(0, 2, size=(300, 32), dtype=np.uint8)
    x = code1.encode_batch(msgs)
    y = x ^ (rng.random(x.shape) < 0.11).astype(np.uint8)
    e1 = int(np.count_nonzero(np.any(code1.decode_batch(y) != msgs, axis=1)))
    e16 = int(np.count_nonzero(np.any(code16.decode_batch(y) != msgs, axis=1)))
    assert e16 < e1


# ---------------------------------------------------------------------------
# CRC


def test_crc_known_answer_vectors():
    # published check values of the 9-byte string "123456789" for the
    # zero-init, non-reflected polynomials in use: CRC-8 0x07 -> 0xF4,
    # CRC-16/XMODEM 0x1021 -> 0x31C3
    data = np.unpackbits(np.frombuffer(b"123456789", dtype=np.uint8))
    bits = data[None, :]
    for nc, want in ((8, 0xF4), (16, 0x31C3)):
        assert polar._CRC_POLYS[nc] == _CRC_POLYS[nc]
        for got in (_crc_reference(bits, nc)[0], _crc_bits(bits, _crc_matrix(72, nc))[0]):
            assert int("".join(map(str, got)), 2) == want


def test_crc_matrix_product_matches_shift_register():
    rng = np.random.Generator(np.random.Philox(10))
    for k in (1, 2, 17, 800, 3000):
        bits = rng.integers(0, 2, size=(40, k), dtype=np.uint8)
        bits[0] = 1  # every row of the generator at once
        for nc in (8, 16):
            got = _crc_bits(bits, _crc_matrix(k, nc))
            assert got.dtype == np.uint8
            assert np.array_equal(got, _crc_reference(bits, nc)), (k, nc)


def test_crc_detects_every_single_bit_flip():
    rng = np.random.Generator(np.random.Philox(7))
    msg = rng.integers(0, 2, size=(1, 24), dtype=np.uint8)
    gen = _crc_matrix(24, 16)
    stored = _crc_bits(msg, gen)[0]
    for j in range(24):
        bent = msg.copy()
        bent[0, j] ^= 1
        assert not np.array_equal(_crc_bits(bent, gen)[0], stored)


# ---------------------------------------------------------------------------
# construction: exact genie error against independent oracles


def _genie_leaf_llrs(llr, u):
    """Leaf LLRs of every row of ``llr`` when each earlier decision is the
    true bit of ``u``, by the recursive min-sum formula."""
    w = llr.shape[1] // 2
    if w == 0:
        return llr
    a, c = llr[:, :w], llr[:, w:]
    f = np.sign(a) * np.sign(c) * np.minimum(np.abs(a), np.abs(c))
    xl = (u[:w] @ _KRON[w.bit_length() - 1]) % 2
    g = np.where(xl == 1, c - a, c + a)
    return np.hstack([_genie_leaf_llrs(f, u[:w]), _genie_leaf_llrs(g, u[w:])])


def _exhaustive_genie_errors(n, eps):
    """Per-position genie decision error, averaged over every input u (zero
    on the shortened tail) and every noise pattern, weighted exactly."""
    n_code = 1 << max(1, (n - 1).bit_length())
    m = n_code.bit_length() - 1
    patterns = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(np.uint8)
    weight = eps ** patterns.sum(axis=1) * (1 - eps) ** (n - patterns.sum(axis=1))
    errs = np.zeros(n_code)
    for bits in patterns:
        u = np.zeros(n_code, dtype=np.int64)
        u[:n] = bits
        x = (u @ _KRON[m]) % 2
        assert not x[n:].any()  # shortened tail codeword bits are 0
        llr = np.full((len(patterns), n_code), _INF, dtype=np.int64)
        llr[:, :n] = 1 - 2 * (x[:n] ^ patterns).astype(np.int64)
        dec = (_genie_leaf_llrs(llr, u) < 0).astype(np.int64)
        errs += weight @ (dec != u)
    return errs / len(patterns)


def test_genie_errors_match_exhaustive_enumeration():
    for n in (2, 3, 4, 5, 6, 7, 8):
        for eps in (0.11, 0.3):
            want = _exhaustive_genie_errors(n, eps)
            got = polar._genie_errors(n, eps)
            assert np.max(np.abs(got - want)) <= 1e-12, (n, eps)


# sha256 of _genie_errors(n, eps).tobytes(), taken before the level sweep replaced
# the depth-first walk: every float64 bit of the construction is pinned
_GENIE_SHA256 = {
    (2, 0.0): "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
    (2, 0.05): "3ce34045a6dd16eeb397d961b406dfb2b79f01ef6eee1775c5acc4b1212a8df1",
    (2, 0.11): "9a086c037b78e27ed647bfea25a5f8c316a1752afdfcb878784fbbb88e0d163a",
    (2, 0.3): "da4005480d7d3e31a52a46f23aa32459fc196f03e81386c097f9f88477e4728b",
    (3, 0.0): "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
    (3, 0.05): "b677bb44256b24dd5c0a520e6c3f469e4b12579a883d46777cdd497fdb4bf221",
    (3, 0.11): "a94afe270603b7ac6ecf57853f8967ce0c9b44033cb95c2e7d46aba60d9326e8",
    (3, 0.3): "c45ff7b108297bdef5d46b82cbd2c90cc4bf36853838575a415dc7685e6b0437",
    (48, 0.0): "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
    (48, 0.05): "fcda84959b35f5e5388be2989a518b31e43d4cc5fe7791bec088816dbeaab9a6",
    (48, 0.11): "c28bf99ac50319b07003e7d7a899fbf8268da0bf90f5be60c12abfffb9307de7",
    (48, 0.3): "458ac726bfa33a2a812709880ad96fe5d9c95bcd0c68d831429b38f5252f0b9b",
    (100, 0.0): "5f70bf18a086007016e948b04aed3b82103a36bea41755b6cddfaf10ace3c6ef",
    (100, 0.05): "fa9e4d19f695ec58e208296ea1565cfac7fc80ca6da3af5cf257fa70a5db77e6",
    (100, 0.11): "b8a6b51d7a31eaed67f6a0f033d1218d9f42185efeb0c69646f16ff7591eaf58",
    (100, 0.3): "6b709a6f8aa6ebce3f329e8efca78ac94200e16ae5b6c683cea74bddfdef8773",
    (129, 0.0): "e5a00aa9991ac8a5ee3109844d84a55583bd20572ad3ffcd42792f3c36b183ad",
    (129, 0.05): "91b2c452aa8c392c6498c47e14c6b58fa04dd7f2230bed8a51beba0163a48f5a",
    (129, 0.11): "7c8f022ded92798950d137eb50a907810f245614ecd938ad347bfc9d8a474912",
    (129, 0.3): "e2a30b64594b6a48d15f2eac2b9492d13162b41b94df3d1b3b5b85a2c7b7228f",
    (700, 0.0): "9f1dcbc35c350d6027f98be0f5c8b43b42ca52b7604459c0c42be3aa88913d47",
    (700, 0.05): "4cac6a42bf24f32d416f53eb39a1a7d3d13700791cc248e61b3068ec15f8fd46",
    (700, 0.11): "b3c49df8fa4d98e8c45b4b92d56d01742b4fd23b06f9c722a32fecd4775517d0",
    (700, 0.3): "f00d08ed8f536d4dbb79f43b1e39ed26d96ca335760e6ab519e6c07dfc613993",
    (1025, 0.0): "4fe7b59af6de3b665b67788cc2f99892ab827efae3a467342b3bb4e3bc8e5bfe",
    (1025, 0.05): "26e8715d6644414e2d735d78ef5cacb69682727f4cd0231347261b46424ec863",
    (1025, 0.11): "cb9ac91bba85c8229f2cd9fd69d1187af999df7e286899833cae23bbaf3d4f13",
    (1025, 0.3): "e86f78e00b3f82ee0c080569e44e012f6d0affe0695e2c05eeba5919eef303aa",
    (2000, 0.0): "4fe7b59af6de3b665b67788cc2f99892ab827efae3a467342b3bb4e3bc8e5bfe",
    (2000, 0.05): "3685bc2c0ea0816cc1329b60591dc01108acc464c1fc344be574057ecaae6789",
    (2000, 0.11): "9cc23dd244a3815d03de75b64889cfce857064278cfa6181f9875758f90e7040",
    (2000, 0.3): "a87684d77aaa15cacbbb437fed9c750ca1df399d8d1e082d5c83838565b07cab",
    (2048, 0.0): "4fe7b59af6de3b665b67788cc2f99892ab827efae3a467342b3bb4e3bc8e5bfe",
    (2048, 0.05): "f86079eec9a8d237e2f239171e361d391c130820d3b240d0dffce320fefb783b",
    (2048, 0.11): "84d873ee45f58ac5e24377139dfa77c67be253b6cbc17b36a92ed17b5445f908",
    (2048, 0.3): "c2e09c91ca02f07af3bf100df2a2f0c9a79ae8495dc3e136125347a989dd7ae0",
    (4097, 0.0): "de2f256064a0af797747c2b97505dc0b9f3df0de4f489eac731c23ae9ca9cc31",
    (4097, 0.05): "ee90be0f94e530fcd2bad21342890c879ed255893d5fbc301875d51147463754",
    (4097, 0.11): "34c40cd3cccf999d7948d34bacf41f45c4bb084506f008c8a0cbc6784aa03a57",
    (4097, 0.3): "e3a602a229e49c59a966a8ed44fd654f42a54066fb04a9fc3df14e5e2abff530",
}


def test_genie_errors_equal_golden_bits():
    for (n, eps), want in _GENIE_SHA256.items():
        got = hashlib.sha256(polar._genie_errors(n, eps).tobytes()).hexdigest()
        assert got == want, (n, eps)
    polar._construction_cache.clear()
    code = PolarCode(2000, 800, 0.11)  # the bscfb forward code
    info = code.info_positions.astype(np.int64).tobytes()
    assert hashlib.sha256(info).hexdigest() == (
        "1ec669667f85e7b65b072a969dc3fd3edadd06d131ea26e696cc7214a6323211")
    assert code.sc_union_bound.hex() == "0x1.f1da7a48232b1p-1"


def test_sweep_batches_each_depth(monkeypatch):
    # per depth: the pairs are distinct, one batched _de_f per (left length,
    # right length) group of finite pairs and one np.convolve per finite pair
    depths = []
    real_depth, real_f, real_convolve = polar._de_depth, polar._de_f, np.convolve

    def depth(banks, size, row, ia, ic, leaf):
        assert len(set(zip(ia.tolist(), ic.tolist()))) == len(ia)
        fin = (ia >= 0) & (ic >= 0)
        groups = set(zip(size[ia[fin]].tolist(), size[ic[fin]].tolist()))
        depths.append({"groups": len(groups), "pairs": int(fin.sum()), "f": 0, "conv": 0})
        return real_depth(banks, size, row, ia, ic, leaf)

    def count(key, real):
        def call(*args):
            depths[-1][key] += 1
            return real(*args)
        return call

    monkeypatch.setattr(polar, "_de_depth", depth)
    monkeypatch.setattr(polar, "_de_f", count("f", real_f))
    monkeypatch.setattr(np, "convolve", count("conv", real_convolve))
    polar._genie_errors(2000, 0.11)
    assert len(depths) == 11
    assert all(d["f"] == d["groups"] and d["conv"] == d["pairs"] for d in depths)
    # a node-by-node walk makes 2,056 calls of each
    assert sum(d["f"] for d in depths) == 60
    assert sum(d["conv"] for d in depths) == 2056


def test_sweep_memory_stays_within_one_depth():
    # one depth's distinct laws, about 2 * 3^d cells: 7.3 MB traced at n = 4096
    tracemalloc.start()
    try:
        polar._genie_errors(4096, 0.11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_construction_two_position_closed_form():
    for eps in (0.05, 0.11, 0.3):
        errs = polar._genie_errors(2, eps)
        assert errs[0] == pytest.approx(2 * eps * (1 - eps), abs=1e-15)
        assert errs[1] == pytest.approx(eps, abs=1e-15)
        code = PolarCode(2, 1, eps, crc_bits=0, list_size=1)
        assert code.info_positions.tolist() == [1]
        assert code.sc_union_bound == pytest.approx(eps, abs=1e-15)


def test_noiseless_construction_picks_first_positions():
    for n, k, crc in ((16, 4, 0), (100, 30, 8), (300, 60, 16)):
        code = PolarCode(n, k, 0.0, crc_bits=crc)
        assert code.info_positions.tolist() == list(range(k + crc))
        assert code.sc_union_bound == 0.0


# ---------------------------------------------------------------------------
# construction determinism


def test_construction_cached_and_deterministic():
    polar._construction_cache.clear()
    a = PolarCode(48, 12, 0.11)
    b = PolarCode(48, 12, 0.11)
    assert a.info_positions is b.info_positions  # cache hit
    assert a.sc_union_bound == b.sc_union_bound
    polar._construction_cache.clear()
    c = PolarCode(48, 12, 0.11)
    assert np.array_equal(a.info_positions, c.info_positions)
    assert a.sc_union_bound == c.sc_union_bound
    assert len(a.info_positions) == 12 + 16
    assert np.all(a.info_positions < 48)  # shortened tail never carries info


def test_construction_cache_keys_on_exact_eps():
    # eps 2e-13 apart build different codes, whichever is built first
    near = 0.11 + 2e-13
    want = {0.11: "0x1.14719a3e9c8a3p+1", near: "0x1.14719a3ea1db8p+1"}
    for order in ((0.11, near), (near, 0.11)):
        polar._construction_cache.clear()
        for eps in order:
            assert PolarCode(64, 20, eps).sc_union_bound.hex() == want[eps], order


def test_code_parameter_validation():
    for args, kw, what in (((64.7, 4, 0.11), {}, "n"), ((64, 4.5, 0.11), {}, "k"),
                           ((64, True, 0.11), {}, "k"),
                           ((64, 4, 0.11), {"list_size": 2.5}, "list_size"),
                           ((64, 4, 0.11), {"list_size": True}, "list_size"),
                           ((64, 4, 0.11), {"crc_bits": 8.0}, "crc_bits"),
                           ((polar.MAX_N + 0.5, 4, 0.11), {}, "n"),  # before the cap
                           ((16, 4, 0.7), {"crc_bits": 8.0}, "crc_bits")):  # before eps
        with pytest.raises(DomainError, match=f"^{what} must be an integer"):
            PolarCode(*args, **kw)
    code = PolarCode(np.int64(64), np.int32(4), 0.11, list_size=np.uint8(2),
                     crc_bits=np.int16(8))
    assert (code.n, code.k, code.list_size, code.crc_bits) == (64, 4, 2, 8)
    assert all(type(v) is int for v in (code.n, code.k, code.list_size, code.crc_bits))
    with pytest.raises(DomainError):
        PolarCode(16, 4, 0.11, crc_bits=4)
    with pytest.raises(DomainError):
        PolarCode(16, 10, 0.11, crc_bits=8)  # k + crc exceeds n
    with pytest.raises(DomainError):
        PolarCode(16, 0, 0.11)
    with pytest.raises(DomainError):
        PolarCode(16, 4, 0.5)
    with pytest.raises(DomainError):
        PolarCode(16, 4, -0.1)
    with pytest.raises(DomainError):
        PolarCode(16, 4, 0.11, list_size=0)
    with pytest.raises(ResourceCapError):
        PolarCode(polar.MAX_N + 1, 8, 0.11)
    with pytest.raises(ResourceCapError):  # before construction or any decoding
        PolarCode(32, 4, 0.11, list_size=2 ** 40)
    assert PolarCode(32, 4, 0.11, list_size=polar._DECODE_LANES // 32).n_code == 32
    code = PolarCode(16, 4, 0.11, crc_bits=0)
    with pytest.raises(DomainError):
        code.encode_batch(np.zeros((2, 5), dtype=np.uint8))
    with pytest.raises(DomainError):
        code.decode_batch(np.zeros((2, 15), dtype=np.uint8))


def test_code_refuses_a_non_real_eps():
    for eps in ("0.11", None, 0.11j, False):
        with pytest.raises(DomainError, match="^crossover eps must be a real number"):
            PolarCode(64, 4, eps)
    assert PolarCode(64, 4, np.float32(0.125)).eps == 0.125


def test_blocks_must_hold_only_bits():
    # a 3 would encode to a "codeword" of 3s, a received 2 would read as
    # LLR -3 and 0.5 as 0, and NaN would decode as 0 with only a warning
    code = PolarCode(16, 4, 0.11, crc_bits=0)
    for bad in (3, 2, -1, 0.5, np.nan, np.inf):
        msgs = np.zeros((2, 4))
        msgs[1, 2] = bad
        with pytest.raises(DomainError, match="^messages must hold only the bits 0 and 1"):
            code.encode_batch(msgs)
        ys = np.zeros((2, 16))
        ys[0, 5] = bad
        with pytest.raises(DomainError, match="^received blocks must hold only the bits 0 and 1"):
            code.decode_batch(ys)
    with pytest.raises(DomainError, match="^received blocks must hold only"):
        code.decode_batch([["1"] * 16])
    # 0 and 1 in any dtype decode alike
    ys = np.random.Generator(np.random.Philox(16)).integers(0, 2, size=(5, 16))
    want = code.decode_batch(ys.astype(np.uint8))
    for cast in (bool, np.int64, np.float64):
        assert np.array_equal(code.decode_batch(ys.astype(cast)), want)
        msgs = want.astype(cast)
        assert np.array_equal(code.encode_batch(msgs), code.encode_batch(want))
