"""Relay chain: slot identities, gate statistics, codebook error estimates."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from zdmn import simulate
from zdmn.errors import DomainError, ResourceCapError
from zdmn.gaussian import (
    CELL_CAP,
    RELAY_POWER_MARGIN,
    CodebookResult,
    GaussianRelayConfig,
    _nn_decode,
    _normals,
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
    assert tr.relay_power <= tr.budget + 1e-9
    assert tr.n == 256
    # reproducible per (seed, block); fresh noise across blocks
    again = simulate_relay(cfg, x1)
    assert np.array_equal(tr.z2, again.z2) and np.array_equal(tr.z3, again.z3)
    other = simulate_relay(cfg, x1, block=1)
    assert not np.array_equal(tr.z2, other.z2)


def test_relay_noise_is_its_block_row():
    cfg = _config(n=7)  # a window of 21 normals, drawn from 22 uniforms
    rows = _normals(cfg.seed, (2,), 0, 5, 3 * cfg.n)
    for b in (0, 3, 4):
        tr = simulate_relay(cfg, np.zeros(7), block=b)
        assert np.array_equal(tr.z2, rows[b, :7]) and np.array_equal(tr.z3, rows[b, 7:14])
    with pytest.raises(DomainError):
        simulate_relay(cfg, np.zeros(7), block=-1)
    # neutralization_rate's block b hears the z2 of simulate_relay(block=b)
    const = np.full(cfg.n, math.sqrt(cfg.P))
    opened = [simulate_relay(cfg, const, block=b).all_open for b in range(40)]
    assert 0 < sum(opened) < 40
    assert neutralization_rate(cfg, blocks=40, source="deterministic") == sum(opened) / 40


def test_batched_draws_leave_results_unchanged(monkeypatch):
    cfg = _config(n=12)
    methods = ("analytic", "exhaustive", "redraw")
    rates = [neutralization_rate(cfg, blocks=50, source=s) for s in ("gaussian", "deterministic")]
    results = [codebook_experiment(cfg, 0.5, trials=50, method=m) for m in methods]
    monkeypatch.setattr(simulate, "DRAW_CELLS", 100)  # 1 redraw trial, else 2 per batch
    assert [neutralization_rate(cfg, blocks=50, source=s)
            for s in ("gaussian", "deterministic")] == rates
    assert [codebook_experiment(cfg, 0.5, trials=50, method=m) for m in methods] == results


def test_box_muller_normals_pass_ks():
    # 10^5 draws from odd-width windows; 1.628 / sqrt(N) is the two-sided 1%
    # critical value of the Kolmogorov-Smirnov statistic
    z = _normals(3, (3,), 0, 4000, 25).ravel()
    assert z.size == 10 ** 5
    assert stats.kstest(z, stats.norm.cdf).statistic < 1.628 / math.sqrt(z.size)


def test_open_gate_cancels_relay_noise():
    cfg = _config(n=128)
    tr = simulate_relay(cfg, np.zeros(128), budget=1e18)
    assert tr.all_open
    assert np.max(np.abs(tr.y3 - tr.z3)) < 1e-12  # zero source, clean slot


def test_shut_gate_leaves_amplified_noise():
    cfg = _config(n=128)
    rng = np.random.Generator(np.random.Philox(7))
    x1 = rng.standard_normal(128)
    tr = simulate_relay(cfg, x1, budget=0.0)
    assert not tr.gate.any()
    assert np.max(np.abs(tr.y3 - (tr.x1 - 3.0 * tr.z2 + tr.z3))) < 1e-12
    assert tr.relay_power == 0.0


def test_simulate_relay_rejects_wrong_shape():
    cfg = _config(n=8)
    with pytest.raises(DomainError):
        simulate_relay(cfg, np.zeros(9))
    with pytest.raises(DomainError):
        simulate_relay(cfg, np.zeros((2, 8)))


def test_trace_csv_roundtrip():
    cfg = _config(n=5)
    tr = simulate_relay(cfg, np.full(5, math.sqrt(cfg.P)))
    lines = tr.to_csv().strip().split("\n")
    assert lines[0] == "slot,x1,z2,y2,x2,z3,y3"
    assert len(lines) == 6
    k, x1v, z2v, y2v, x2v, z3v, y3v = lines[3].split(",")
    assert int(k) == 3
    assert float(x1v) == tr.x1[2] and float(y3v) == tr.y3[2]


# ---------------------------------------------------------------------------
# gate-open frequency against closed forms


def test_neutralization_single_slot_gaussian_source():
    cfg = _config(n=1)
    got = neutralization_rate(cfg, blocks=20000, source="gaussian")
    # single-slot open probability: y2 ~ N(0, P - delta + 9) against P + 10
    want = 2.0 * stats.norm.cdf(math.sqrt(15.0 / 13.5)) - 1.0
    assert abs(got - want) < 0.011  # 3.5 binomial standard errors


def test_neutralization_single_slot_deterministic_source():
    cfg = _config(n=1)
    got = neutralization_rate(cfg, blocks=20000, source="deterministic")
    # y2 ~ N(sqrt(P), 9): (y2/3)^2 is noncentral chi-square, 1 dof, nc P/9
    want = stats.ncx2.cdf(15.0 / 9.0, df=1, nc=5.0 / 9.0)
    assert abs(got - want) < 0.011


def test_neutralization_without_backoff_needs_length():
    got = neutralization_rate(_config(n=4000, delta=0.0), blocks=200)
    assert got >= 0.95


def test_neutralization_validation():
    with pytest.raises(DomainError):
        neutralization_rate(_config(), blocks=0)
    with pytest.raises(DomainError):
        neutralization_rate(_config(), source="adversarial")


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


def test_codebook_analytic_matches_redraw_ensemble():
    cfg = _config(n=12)
    an = codebook_experiment(cfg, 1.0, trials=400, method="analytic")
    rd = codebook_experiment(cfg, 1.0, trials=400, method="redraw")
    assert an.codebook_size == rd.codebook_size == 4096
    se = math.sqrt(max(rd.error_rate * (1 - rd.error_rate), 1e-6) / 400)
    assert abs(an.error_rate - rd.error_rate) <= 3.5 * se
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
    assert peak <= 2 * simulate.DRAW_CELLS * 8
    assert np.array_equal(got, _nearest(codebook, received))


def test_nn_decode_ties_go_to_the_lowest_index(monkeypatch):
    rng = np.random.default_rng(4)
    codebook = rng.standard_normal((40, 3))
    codebook[[25, 39]] = codebook[3]
    codebook[30] = codebook[10]
    received = np.concatenate([2.0 * codebook[[25, 39, 30, 3]], rng.standard_normal((20, 3))])
    want = _nearest(codebook, received)
    assert list(want[:4]) == [3, 3, 10, 3]
    # 8 scores per block: one received word against 8 codewords at a time,
    # so the copies of a codeword sit in different blocks
    for cells in (simulate.DRAW_CELLS, 8):
        monkeypatch.setattr(simulate, "DRAW_CELLS", cells)
        assert np.array_equal(_nn_decode(codebook, received), want)


def test_codebook_rate_effective_rounding():
    res = codebook_experiment(_config(n=10), 0.55, trials=1, method="analytic")
    assert res.codebook_size == 1 << 6  # ceil(5.5) information bits
    assert res.rate_effective == 0.6
    assert res.rate_requested == 0.55
    exact = codebook_experiment(_config(n=10), 0.5, trials=1, method="analytic")
    assert exact.codebook_size == 1 << 5  # exact products stay exact


def test_codebook_validation_and_caps():
    cfg = _config(n=8)
    with pytest.raises(DomainError):
        codebook_experiment(cfg, -0.5, trials=10)
    with pytest.raises(DomainError):
        codebook_experiment(cfg, math.nan, trials=10)
    with pytest.raises(DomainError):
        codebook_experiment(cfg, 1.0, trials=0)
    with pytest.raises(DomainError):
        codebook_experiment(cfg, 1.0, trials=10, cap=0)
    with pytest.raises(DomainError):
        codebook_experiment(cfg, 1.0, trials=10, method="montecarlo")
    with pytest.raises(ResourceCapError):
        codebook_experiment(cfg, 2.0, trials=10, cap=4, method="exhaustive")
    with pytest.raises(ResourceCapError):
        codebook_experiment(cfg, 2.0, trials=10, cap=4, method="redraw")
    with pytest.raises(ResourceCapError):
        codebook_experiment(_config(n=512), 1.5, trials=1)  # 2**768 codewords
    capped = codebook_experiment(cfg, 2.0, trials=10, cap=4, method="auto")
    assert capped.method == "analytic"


def test_codebook_cell_caps_checked_before_any_draw():
    # 10^8 trials of n = 64 would be 47.7 GiB of float64 per trial array; a
    # 2^17-word codebook at n = 4096 passes the codeword cap at 4.3 GB
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match=f"> cap {CELL_CAP}"):
            codebook_experiment(_config(n=64), 1.2, trials=10 ** 8)
        for method in ("exhaustive", "redraw"):
            with pytest.raises(ResourceCapError, match=f"> cap {CELL_CAP}"):
                codebook_experiment(_config(n=4096), 0.004, trials=2, method=method)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    res = codebook_experiment(_config(n=4096), 0.004, trials=1, method="auto")
    assert res.method == "analytic" and res.codebook_size == 2 ** 17


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


def test_separation_report_fields():
    r5 = separation_report(5.0)
    assert abs(r5.positive_delay_cap - 1.160964047443681) < 1e-12
    assert abs(r5.achievable_rate - 1.7297158093186487) < 1e-12
    assert r5.separated and r5.exceeds_cap and r5.operating_rate == 1.2
    r125 = separation_report(1.25)
    assert not r125.separated
    assert abs(r125.positive_delay_cap - r125.achievable_rate) < 1e-15
    r1 = separation_report(1.0, operating_rate=0.5)
    assert not r1.separated and not r1.exceeds_cap
    text = str(r5)
    assert "separated:            yes" in text
    assert "positive-delay cap:   1.160964 bits/slot" in text
    with pytest.raises(DomainError):
        separation_report(5.0, operating_rate=0.0)
    with pytest.raises(DomainError):
        separation_report(-1.0)
