"""Relay chain: slot identities, gate statistics, codebook error estimates."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import optimize, stats

from zdmn import model
from zdmn.errors import DomainError, ResourceCapError
from zdmn.gaussian import (
    CDF_WINDOW_CAP,
    CELL_CAP,
    CODEBOOK_CAP,
    RELAY_POWER_MARGIN,
    CodebookResult,
    GaussianRelayConfig,
    _ncx2_cdf,
    _nn_decode,
    _normals,
    _relay_core,
    codebook_experiment,
    neutralization_rate,
    separation_report,
    simulate_relay,
)


def _config(**kw):
    base = dict(P=5.0, n=64, seed=0, delta=0.5)
    base.update(kw)
    return GaussianRelayConfig(**base)


# ---------------------------------------------------------------------------
# configuration and trace algebra


def test_config_validation():
    cfg = _config()
    assert cfg.relay_power == 5.0 + RELAY_POWER_MARGIN
    assert cfg.relay_budget == 64 * 15.0
    with pytest.raises(DomainError):
        GaussianRelayConfig(P=5.0, n=0)
    with pytest.raises(DomainError):
        GaussianRelayConfig(P=5.0, n=1.5)
    with pytest.raises(DomainError):
        GaussianRelayConfig(P=5.0, n=True)
    with pytest.raises(DomainError):
        GaussianRelayConfig(P=0.0, n=4)
    with pytest.raises(DomainError):
        GaussianRelayConfig(P=math.inf, n=4)
    with pytest.raises(DomainError):
        GaussianRelayConfig(P=5.0, n=4, delta=-0.1)
    with pytest.raises(DomainError):
        GaussianRelayConfig(P=5.0, n=4, delta=5.0)
    with pytest.raises(DomainError, match="seed must be >= 0"):
        GaussianRelayConfig(P=5.0, n=4, seed=-1)


def test_config_refuses_a_non_real_power():
    # a bool would read as 0 or 1, and None or a string would end in a bare TypeError
    for P in ("5", None, 5j, True):
        with pytest.raises(DomainError, match="^source power must be a real number"):
            GaussianRelayConfig(P, 8)
    assert GaussianRelayConfig(np.float32(5.0), 8) == GaussianRelayConfig(5.0, 8)


def test_config_refuses_a_non_real_back_off():
    for delta in ("a", None, 0.5j, True):
        with pytest.raises(DomainError, match="^power back-off must be a real number"):
            GaussianRelayConfig(5.0, 8, delta=delta)
    assert GaussianRelayConfig(5.0, 8, delta=np.float64(0.5)) == GaussianRelayConfig(5.0, 8)


def test_config_stores_float64_powers():
    # a float32 power would run the relay budget and the experiments' power
    # arithmetic in float32
    single = GaussianRelayConfig(np.float32(5.1), 8, delta=np.float32(0.5))
    double = GaussianRelayConfig(float(np.float32(5.1)), 8, delta=0.5)
    assert type(single.P) is float and type(single.delta) is float and single == double
    assert type(single.relay_power) is float and single.relay_power == double.relay_power
    assert neutralization_rate(single, blocks=20) == neutralization_rate(double, blocks=20)
    for method in ("analytic", "exhaustive"):
        assert (codebook_experiment(single, 1.0, trials=20, method=method)
                == codebook_experiment(double, 1.0, trials=20, method=method))


def test_trace_identities_and_budget_invariant():
    cfg = _config(n=256)
    rng = np.random.Generator(np.random.Philox(123))
    x1 = math.sqrt(cfg.P - cfg.delta) * rng.standard_normal(cfg.n)
    tr = simulate_relay(cfg, x1)
    assert np.max(np.abs(tr.y2 - (tr.x1 + 3.0 * tr.z2))) < 1e-12
    assert np.max(np.abs(tr.y3 - (2.0 * tr.x1 + tr.x2 - tr.y2 + tr.z3))) < 1e-12
    want_gate = np.cumsum(tr.y2 ** 2) <= tr.budget
    assert np.array_equal(tr.gate, want_gate)
    assert np.array_equal(tr.x2, np.where(tr.gate, tr.y2, 0.0))
    assert np.sum(tr.x2 ** 2) <= tr.budget + 1e-9
    assert tr.x1.shape == (256,)
    # reproducible per seed; fresh noise across seeds
    again = simulate_relay(cfg, x1)
    assert np.array_equal(tr.z2, again.z2) and np.array_equal(tr.z3, again.z3)
    other = simulate_relay(_config(n=256, seed=1), x1)
    assert not np.array_equal(tr.z2, other.z2)


def test_relay_noise_is_its_block_row():
    cfg = _config(n=7)  # a window of 21 normals, drawn from 22 uniforms
    n = cfg.n
    rows = _normals(cfg.seed, (2,), 0, 5, 3 * n)
    tr = simulate_relay(cfg, np.zeros(n))
    assert np.array_equal(tr.z2, rows[0, :n]) and np.array_equal(tr.z3, rows[0, n:2 * n])
    # neutralization_rate's block b is row b: z2, z3, then the source's unit draw
    rows = _normals(cfg.seed, (2,), 0, 40, 3 * n)
    x1 = math.sqrt(cfg.P - cfg.delta) * rows[:, 2 * n:]
    gate = _relay_core(cfg, x1, rows[:, :n], rows[:, n:2 * n])[3]
    opens = int(np.count_nonzero(gate.all(axis=1)))
    assert 0 < opens < 40
    assert neutralization_rate(cfg, blocks=40) == opens / 40


def test_batched_draws_leave_results_unchanged(monkeypatch):
    cfg = _config(n=12)
    methods = ("analytic", "exhaustive")
    rate = neutralization_rate(cfg, blocks=50)
    results = [codebook_experiment(cfg, 0.5, trials=50, method=m) for m in methods]
    monkeypatch.setattr(model, "DRAW_CELLS", 100)  # 2 trials or blocks per batch
    assert neutralization_rate(cfg, blocks=50) == rate
    assert [codebook_experiment(cfg, 0.5, trials=50, method=m) for m in methods] == results


def test_box_muller_normals_pass_ks():
    # 10^5 draws from odd-width windows; 1.628 / sqrt(N) is the two-sided 1%
    # critical value of the Kolmogorov-Smirnov statistic
    z = _normals(3, (3,), 0, 4000, 25).ravel()
    assert z.size == 10 ** 5
    assert stats.kstest(z, stats.norm.cdf).statistic < 1.628 / math.sqrt(z.size)


def test_box_muller_normals_in_place(monkeypatch):
    # the normals overwrite their uniforms; only one block of at most
    # DRAW_CELLS cosines sits beside them, and blocking changes no bit
    def formula(seed, purpose, lo, hi, width):
        half = -(-width // 2)
        u = model.trial_uniforms(seed, purpose, lo, hi, 2 * half)
        radius = np.sqrt(-2.0 * np.log(1.0 - u[:, :half]))
        angle = 2.0 * np.pi * u[:, half:]
        return np.hstack([radius * np.cos(angle), radius * np.sin(angle)])[:, :width]

    want = formula(0, (4,), 0, 2 ** 16, 16)
    for cells in (model.DRAW_CELLS, 2 ** 16, 1000):  # blocks of 2^17, 2^13, 125 rows
        monkeypatch.setattr(model, "DRAW_CELLS", cells)
        tracemalloc.start()
        try:
            got = _normals(0, (4,), 0, 2 ** 16, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a half-size temporary would add 4 MB
        assert peak <= got.nbytes + 8 * cells + 2 ** 20
        assert np.array_equal(got, want)
    assert np.array_equal(_normals(5, (3,), 7, 1007, 25), formula(5, (3,), 7, 1007, 25))


def test_open_gate_cancels_relay_noise():
    # a budget of 128 * (10^6 + 10) against 9 z2^2 per slot keeps the gate open
    cfg = _config(n=128, P=1e6)
    tr = simulate_relay(cfg, np.zeros(128))
    assert tr.all_open
    assert np.max(np.abs(tr.y3 - tr.z3)) < 1e-12  # zero source, clean slot


def test_shut_gate_leaves_amplified_noise():
    cfg = _config(n=128)
    rng = np.random.Generator(np.random.Philox(7))
    x1 = rng.standard_normal(128)
    x1[0] = 100.0  # y2^2 >= (100 - 3 * 8.6)^2 in slot 1 alone, above the budget 128 * 15
    tr = simulate_relay(cfg, x1)
    assert not tr.gate.any()
    assert np.max(np.abs(tr.y3 - (tr.x1 - 3.0 * tr.z2 + tr.z3))) < 1e-12
    assert not tr.x2.any()


def test_simulate_relay_rejects_wrong_shape():
    cfg = _config(n=8)
    with pytest.raises(DomainError):
        simulate_relay(cfg, np.zeros(9))
    with pytest.raises(DomainError):
        simulate_relay(cfg, np.zeros((2, 8)))


# ---------------------------------------------------------------------------
# gate-open frequency against closed forms


def test_neutralization_single_slot_gaussian_source():
    # the gate's running sum of y2^2 never decreases, so a block stays open
    # exactly when its final sum is at most n(P + 10); y2 is i.i.d.
    # N(0, P - delta + 9), so P(open) = F_chi2_n(n(P + 10) / (P - delta + 9))
    blocks = 20000
    for n in (1, 8, 64):
        cfg = _config(n=n)
        x = n * (cfg.P + 10.0) / (cfg.P - cfg.delta + 9.0)
        want = stats.chi2.cdf(x, n)
        if n == 1:  # one slot: y2^2 <= P + 10
            assert math.isclose(want, 2.0 * stats.norm.cdf(math.sqrt(15.0 / 13.5)) - 1.0)
        got = neutralization_rate(cfg, blocks=blocks)
        se = math.sqrt(want * (1.0 - want) / blocks)
        assert abs(got - want) < 3.5 * se, n  # 3.5 binomial standard errors


def test_neutralization_without_backoff_needs_length():
    got = neutralization_rate(_config(n=4000, delta=0.0), blocks=200)
    assert got >= 0.95


def test_neutralization_validation():
    with pytest.raises(DomainError):
        neutralization_rate(_config(), blocks=0)
    # a fractional or boolean count is refused before any cap arithmetic
    for blocks in (2.5, True):
        with pytest.raises(DomainError, match="block count must be an integer"):
            neutralization_rate(_config(), blocks=blocks)
    cfg = _config(n=8)
    assert neutralization_rate(cfg, blocks=np.int64(40)) == neutralization_rate(cfg, blocks=40)


def test_open_gate_conditional_law_moments():
    cfg = _config(n=20000)
    rng = np.random.Generator(np.random.Philox(99))
    x1 = math.sqrt(cfg.P - cfg.delta) * rng.standard_normal(cfg.n)
    tr = simulate_relay(cfg, x1)
    assert tr.all_open
    resid = tr.y3 - 2.0 * tr.x1  # should be exactly the terminal's own noise
    assert abs(float(resid.mean())) < 3.0 / math.sqrt(cfg.n)
    assert abs(float(resid.var()) - 1.0) < 0.1


# ---------------------------------------------------------------------------
# codebook experiment


def test_codebook_rate_zero_never_errs():
    cfg = _config(n=8)
    an = codebook_experiment(cfg, 0.0, trials=50, method="analytic")
    ex = codebook_experiment(cfg, 0.0, trials=50, method="exhaustive")
    assert an.error_rate == 0.0 and an.errors is None
    assert ex.error_rate == 0.0 and ex.errors == 0
    assert an.codebook_size == ex.codebook_size == 1


def test_codebook_far_above_capacity_fails():
    res = codebook_experiment(_config(n=16), 3.0, trials=200, method="auto")
    assert res.method == "analytic"  # 2**48 codewords never materialize
    assert res.codebook_size == 1 << 48
    assert res.error_rate >= 0.9


def _redraw_errors(cfg, m, trials):
    """Errors of a codebook drawn afresh every trial: trial t sends the unit
    draw of its purpose-(3,) window, as ``analytic`` does, against m - 1
    competitors from its purpose-(6,) window; nearest to y3 by ||y3 - 2c||^2."""
    n, scale = cfg.n, math.sqrt(cfg.P - cfg.delta)
    errors = 0
    for lo in range(0, trials, 25):  # 25 trials of M = 4096, n = 12: 10 MB of codebooks
        hi = min(trials, lo + 25)
        z = _normals(cfg.seed, (3,), lo, hi, 3 * n)
        x1, z2, z3 = scale * z[:, :n], z[:, n:2 * n], z[:, 2 * n:]
        y2 = x1 + 3.0 * z2
        x2 = np.where(np.cumsum(y2 * y2, axis=1) <= cfg.relay_budget, y2, 0.0)
        y3 = 2.0 * x1 + x2 - y2 + z3
        others = scale * _normals(cfg.seed, (6,), lo, hi, (m - 1) * n).reshape(hi - lo, m - 1, n)
        codebooks = np.concatenate([x1[:, None], others], axis=1)
        dist = ((y3[:, None, :] - 2.0 * codebooks) ** 2).sum(axis=2)
        errors += int(np.count_nonzero(dist.argmin(axis=1) != 0))
    return errors


def test_codebook_analytic_matches_redraw_ensemble():
    cfg = _config(n=12)
    an = codebook_experiment(cfg, 1.0, trials=400, method="analytic")
    assert an.codebook_size == 4096
    rd_rate = _redraw_errors(cfg, 4096, 400) / 400
    se = math.sqrt(max(rd_rate * (1 - rd_rate), 1e-6) / 400)
    assert abs(an.error_rate - rd_rate) <= 3.5 * se
    ex = codebook_experiment(cfg, 1.0, trials=400, method="exhaustive")
    # one fixed codebook may sit off the ensemble mean, but not far
    assert abs(ex.error_rate - an.error_rate) <= 0.08


def _nearest(codebook, received):
    """Per received word, argmin of ||y - 2c||^2 (argmin keeps the lowest index)."""
    return np.array([np.argmin(((y - 2.0 * codebook) ** 2).sum(axis=1)) for y in received])


def test_nn_decode_memory_and_direct_argmin():
    rng = np.random.default_rng(3)
    codebook = rng.standard_normal((1 << 16, 16))
    received = 2.0 * codebook[rng.integers(0, 1 << 16, 100)] + rng.standard_normal((100, 16))
    tracemalloc.start()
    try:
        got = _nn_decode(codebook, received)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * model.DRAW_CELLS * 8
    # a received word is scored against the whole codebook at once, which
    # stays within DRAW_CELLS scores because no codebook is larger
    assert CODEBOOK_CAP <= model.DRAW_CELLS
    assert np.array_equal(got, _nearest(codebook, received))


def test_nn_decode_ties_go_to_the_lowest_index():
    rng = np.random.default_rng(4)
    codebook = rng.standard_normal((40, 3))
    codebook[[25, 39]] = codebook[3]
    codebook[30] = codebook[10]
    received = np.concatenate([2.0 * codebook[[25, 39, 30, 3]], rng.standard_normal((20, 3))])
    want = _nearest(codebook, received)
    assert list(want[:4]) == [3, 3, 10, 3]
    assert np.array_equal(_nn_decode(codebook, received), want)


def test_codebook_rate_effective_rounding():
    res = codebook_experiment(_config(n=10), 0.55, trials=1, method="analytic")
    assert res.codebook_size == 1 << 6  # ceil(5.5) information bits
    assert res.rate_effective == 0.6
    assert res.rate_requested == 0.55
    exact = codebook_experiment(_config(n=10), 0.5, trials=1, method="analytic")
    assert exact.codebook_size == 1 << 5  # exact products stay exact


def test_codebook_refuses_a_non_real_rate():
    cfg = _config(n=8)
    for rate in ("0.5", None, 1 + 2j, True):
        with pytest.raises(DomainError, match="^rate must be a real number"):
            codebook_experiment(cfg, rate, trials=10)
    assert (codebook_experiment(cfg, np.float32(0.5), trials=10)
            == codebook_experiment(cfg, 0.5, trials=10))


def test_codebook_validation_and_caps():
    cfg = _config(n=8)
    with pytest.raises(DomainError):
        codebook_experiment(cfg, -0.5, trials=10)
    with pytest.raises(DomainError):
        codebook_experiment(cfg, math.nan, trials=10)
    with pytest.raises(DomainError):
        codebook_experiment(cfg, 1.0, trials=0)
    for trials in (2.5, True):
        with pytest.raises(DomainError, match="trial count must be an integer"):
            codebook_experiment(cfg, 0.5, trials=trials)
    assert (codebook_experiment(cfg, 0.5, trials=np.int64(10))
            == codebook_experiment(cfg, 0.5, trials=10))
    for method in ("montecarlo", "redraw"):
        with pytest.raises(DomainError, match="method must be one of"):
            codebook_experiment(cfg, 1.0, trials=10, method=method)
    # 2^22 codewords of length 8: inside CELL_CAP, above CODEBOOK_CAP
    with pytest.raises(ResourceCapError,
                       match=f"^codeword count 4194304 is above the cap of {CODEBOOK_CAP}$"):
        codebook_experiment(cfg, 2.75, trials=10, method="exhaustive")
    with pytest.raises(ResourceCapError,  # 2**768 codewords
                       match="^log2 of the codeword count 768 is above the cap of 512$"):
        codebook_experiment(_config(n=512), 1.5, trials=1)
    # rate * n is inf here, which math.ceil cannot round
    with pytest.raises(ResourceCapError,
                       match="^log2 of the codeword count inf is above the cap of 512$"):
        codebook_experiment(_config(n=16), 1e308, trials=1)
    capped = codebook_experiment(cfg, 2.75, trials=10, method="auto")
    assert capped.method == "analytic" and capped.codebook_size == 4 * CODEBOOK_CAP


def test_powers_outside_the_float_range_are_refused():
    # 2P would overflow to inf, and so would the cap and the rate
    with pytest.raises(DomainError, match="overflows 2P"):
        separation_report(1e308)
    # at P = 1e307 the block sums of squares overflow; at P = 1e306 they
    # would if a normal in y3 reached its Box-Muller bound of 8.57
    for power, n in ((1e307, 16), (1e306, 16), (1e300, 10 ** 6)):
        with pytest.raises(DomainError, match="overflows the experiments' sums"):
            GaussianRelayConfig(P=power, n=n)
    # 1 / (4 P) is inf for the smallest subnormal power
    with pytest.raises(DomainError, match="overflows the experiments' sums"):
        GaussianRelayConfig(P=5e-324, n=1, delta=0.0)
    # within the bound every experiment runs clean under warnings-as-errors
    cfg = GaussianRelayConfig(P=1e300, n=16)
    assert 0.0 <= neutralization_rate(cfg, blocks=20) <= 1.0
    for method in ("analytic", "exhaustive"):
        assert math.isfinite(codebook_experiment(cfg, 0.5, trials=20, method=method).error_rate)


def test_analytic_refuses_a_cdf_window_above_the_cap():
    # at P - delta = 1e-12 the noncentralities run to 3e13, and one value's
    # Poisson window would hold 1e8 terms; it is refused before any term
    # array is built (one would take 800 MB), and the exhaustive method runs
    cfg = _config(P=1e-12, n=16, delta=0.0)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match=f"^noncentral chi-square CDF term count "
                                                   f"97080186 is above the cap of "
                                                   f"{CDF_WINDOW_CAP}$"):
            codebook_experiment(cfg, 1.0, trials=20, method="analytic")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert math.isfinite(codebook_experiment(cfg, 0.5, trials=20, method="exhaustive").error_rate)
    # so one value's window always fits a batch
    assert CDF_WINDOW_CAP <= model.DRAW_CELLS


def test_ncx2_cdf_matches_scipy_on_a_grid():
    # x runs over scipy's quantiles at CDF levels from 1e-30 to 1 - 1e-12;
    # where scipy's own value is more than 1e-12 off (by up to 4.5e-11, at
    # 15 far-lower-tail points), 50-digit sums stand in for it
    import ncx2_reference as ref

    exact = {(r["n"], r["nc"], r["level"]): (r["x"], r["cdf"])
             for r in json.loads(ref.TABLE.read_text(encoding="utf-8"))}
    assert len(exact) == 15
    for n in ref.DFS:
        for nc in ref.noncentralities(n):
            law = stats.chi2(n) if nc == 0.0 else stats.ncx2(n, nc)
            x = law.ppf(ref.LEVELS)
            oracle = law.cdf(x)
            for k, level in enumerate(ref.LEVELS):
                if (n, nc, level) in exact:
                    x[k], oracle[k] = exact[n, nc, level]
                    # scipy agrees with the 50-digit sum, if not to 1e-12
                    assert law.cdf(x[k]) == pytest.approx(oracle[k], rel=1e-10)
            assert 0.99e-30 < oracle.min() < 1.01e-30 and 1 - 2e-12 < oracle.max() < 1.0
            np.testing.assert_allclose(_ncx2_cdf(x, n, np.full(x.shape, nc)), oracle,
                                       rtol=1e-12, atol=0.0, err_msg=f"n={n} nc={nc}")


def test_ncx2_cdf_edges(monkeypatch):
    # F(0) = 0; a zero noncentrality sums a one-term window; huge x gives 1
    assert _ncx2_cdf(np.array([0.0, 2.0]), 2, np.array([5.0, 0.0])).tolist() == [
        0.0, pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)]
    assert _ncx2_cdf(np.array([1e4]), 3, np.array([10.0]))[0] == pytest.approx(1.0, rel=1e-14)
    assert _ncx2_cdf(np.array([]), 3, np.array([])).shape == (0,)
    # values in batches of one, each window above the batch size, agree
    # with one shared batch
    x, nc = np.array([500.0, 3.0, 50.0]), np.array([900.0, 8.0, 400.0])
    shared = _ncx2_cdf(x, 8, nc)
    monkeypatch.setattr(model, "DRAW_CELLS", 10)
    np.testing.assert_allclose(_ncx2_cdf(x, 8, nc), shared, rtol=1e-13, atol=0.0)


def test_codebook_cell_caps_checked_before_any_draw():
    # 10^8 trials of n = 64 would be 47.7 GiB of float64 per trial array; a
    # 2^17-word codebook at n = 4096 passes the codeword cap at 4.3 GB
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match=f"^trials x blocklength 6400000000 is "
                                                   f"above the cap of {CELL_CAP}$"):
            codebook_experiment(_config(n=64), 1.2, trials=10 ** 8)
        with pytest.raises(ResourceCapError, match=f"^codewords x blocklength 536870912 is "
                                                   f"above the cap of {CELL_CAP}$"):
            codebook_experiment(_config(n=4096), 0.004, trials=2, method="exhaustive")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    res = codebook_experiment(_config(n=4096), 0.004, trials=1, method="auto")
    assert res.method == "analytic" and res.codebook_size == 2 ** 17


def test_relay_windows_capped_before_any_draw():
    # a block or trial window holds 3n normals: one block at n = 2 * 10^6
    # peaked at 115 MB, so a window above CELL_CAP is refused before any draw
    cfg = _config(n=CELL_CAP // 3 + 1)
    window = f"^3 x blocklength {CELL_CAP + 1} is above the cap of {CELL_CAP}$"
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match=window):
            neutralization_rate(cfg, blocks=1)
        with pytest.raises(ResourceCapError, match=window):
            simulate_relay(cfg, np.zeros(1))
        with pytest.raises(ResourceCapError, match=window):
            codebook_experiment(cfg, 0.0, trials=1)
        # blocks are drawn in batches, so only their count bounds the time
        with pytest.raises(ResourceCapError, match=f"^blocks x blocklength {CELL_CAP + 64} "
                                                   f"is above the cap of {CELL_CAP}$"):
            neutralization_rate(_config(n=64), blocks=CELL_CAP // 64 + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_codebook_result_string():
    res = CodebookResult(method="exhaustive", n=8, codebook_size=16, trials=10,
                         rate_requested=0.5, rate_effective=0.5,
                         error_rate=0.1, errors=1)
    s = str(res)
    assert "M=16" in s and "errors=1" in s and "error_rate=0.100000" in s
    res2 = CodebookResult(method="analytic", n=8, codebook_size=16, trials=10,
                          rate_requested=0.5, rate_effective=0.5,
                          error_rate=0.1, errors=None)
    assert "errors=-" in str(res2)


# ---------------------------------------------------------------------------
# separation report


def test_separation_report_refuses_a_non_real_power():
    for P in ("5", None, 5j, True):
        with pytest.raises(DomainError, match="^power must be a real number"):
            separation_report(P)
    assert separation_report(np.float32(5.0)) == separation_report(5.0)


def test_separation_report_refuses_a_non_real_operating_rate():
    for rate in ("1.2", None, 1.2j, True):
        with pytest.raises(DomainError, match="^operating rate must be a real number"):
            separation_report(5.0, rate)
    assert separation_report(5.0, np.float64(1.2)) == separation_report(5.0)


def test_separation_report_fields():
    for p in (1.0, 1.25, 5.0, 0.3, 17.0):
        r = separation_report(p)
        assert abs(r.positive_delay_cap - 0.5 * math.log2(3 + 2 * p / 5)) < 1e-15
        assert abs(r.achievable_rate - 0.5 * math.log2(1 + 2 * p)) < 1e-15
        assert r.separated == (p > 1.25)
    r5 = separation_report(5.0)
    assert abs(r5.positive_delay_cap - 1.160964047443681) < 1e-12
    assert abs(r5.achievable_rate - 1.7297158093186487) < 1e-12
    assert r5.separated and r5.exceeds_cap and r5.operating_rate == 1.2
    r125 = separation_report(1.25)
    assert not r125.separated
    assert abs(r125.positive_delay_cap - r125.achievable_rate) < 1e-15
    r1 = separation_report(1.0, operating_rate=0.5)
    assert not r1.separated and not r1.exceeds_cap
    assert r1.positive_delay_cap > r1.achievable_rate
    text = str(r5)
    assert "separated:            yes" in text
    assert "positive-delay cap:   1.160964 bits/slot" in text
    with pytest.raises(DomainError):
        separation_report(5.0, operating_rate=0.0)
    for bad in (-1.0, 0.0):
        with pytest.raises(DomainError, match=f"^power must be positive, got {bad}$"):
            separation_report(bad)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match=f"^power must be finite, got {bad}$"):
            separation_report(bad)


# input correlations of (X1, X2) searched for the relay chain's cut-set bound
_RHO = np.linspace(-1.0, 1.0, 200_001)


def _max_min_cut_cap(p):
    """Cut-set bound of the delayed relay chain at source power p, by a 1-D
    search over the correlation rho of jointly Gaussian (X1, X2).

    Given x2 the relay hears x1 + 3 z2 and the terminal, once y2 is added
    back, 2 x1 + z3: cut {1} is 0.5 log2(1 + 37 (1 - rho^2) p / 9).  The
    terminal hears x1 + x2 - 3 z2 + z3 with x2 at power p + 10: cut {1, 2}
    is 0.5 log2(1 + (2p + 10 + 2 rho sqrt(p (p + 10))) / 10).
    """
    cut1 = 0.5 * np.log2(1.0 + 37.0 * (1.0 - _RHO ** 2) * p / 9.0)
    cut12 = 0.5 * np.log2(1.0 + (2.0 * p + 10.0 + 2.0 * _RHO * math.sqrt(p * (p + 10.0))) / 10.0)
    return float(np.minimum(cut1, cut12).max())


def test_printed_relay_forms_bracket_the_max_min_cut_cap():
    for p in (0.1, 0.3, 1.0, 1.25, 5.0, 17.0, 100.0):
        r = separation_report(p)
        # the printed cap relaxes cut {1, 2} at rho = 1: valid, never below the bound
        assert _max_min_cut_cap(p) <= r.positive_delay_cap
        # the printed rate never claims more than the neutralized channel carries
        assert r.achievable_rate <= 0.5 * math.log2(1 + 4 * p)
    for p, want in ((1.0, 0.7184), (1.25, 0.7555), (5.0, 1.0968), (17.0, 1.6177)):
        assert abs(_max_min_cut_cap(p) - want) < 1e-4
    # both zero-delay values pass the bound well below the printed crossing P = 5/4
    rate = optimize.brentq(
        lambda p: separation_report(p).achievable_rate - _max_min_cut_cap(p), 0.1, 5.0)
    assert abs(rate - 0.7876) < 1e-4
    neutral = optimize.brentq(
        lambda p: 0.5 * math.log2(1 + 4 * p) - _max_min_cut_cap(p), 0.01, 5.0)
    assert abs(neutral - 0.2778) < 1e-4
