"""Acceptance suite: every shipped claim re-verified end to end.

Each test prints one ``acceptance N: PASS/FAIL`` line (visible under
``pytest -s``) and then asserts, so a red run names the criterion that
broke.  Budgeted runtimes are asserted, not just hoped for.
"""

import math
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from zdmn import networks
from zdmn.bounds import grid_hull
from zdmn.gaussian import (
    GaussianRelayConfig,
    codebook_experiment,
    neutralization_rate,
    separation_report,
    simulate_relay,
)
from zdmn.model import DelayProfile, save_spec
from zdmn.probability import binary_entropy
from zdmn.simulate import (
    bscfb_scheme,
    check_memoryless_markov,
    check_positive_delay_markov,
    equivalence_check,
    random_table_code,
    save_code,
)

_EPS_SET = (0.05, 0.11, 0.25)


def _announce(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nacceptance {num}: {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="session")
def scheme_run():
    """The full-size masked-feedback run, shared by criteria 1 and 3."""
    t0 = time.monotonic()
    result = bscfb_scheme(eps=0.11, n=2000, forward_rate=0.4, seed=7, trials=200)
    return result, time.monotonic() - t0


@pytest.fixture(scope="session")
def enumeration_run():
    """Exact joints for every bundled network x 20 unit-delay random codes,
    shared by criteria 4 and 5."""
    cases = []
    for name in sorted(networks.BUNDLED):
        spec = networks.bundled_spec(name)
        profile = DelayProfile.of((1,) * spec.n_nodes)
        for n in (1, 2):
            for seed in range(10):
                cases.append((spec, random_table_code(spec, n, profile, seed=seed)))
    t0 = time.monotonic()
    l1 = [equivalence_check(spec, code) for spec, code in cases]
    el_equiv = time.monotonic() - t0
    t0 = time.monotonic()
    cmi = []
    for spec, code in cases:
        vals = [v for (_k, _h, v) in check_memoryless_markov(spec, code)]
        vals += [v for (_k, _h, v) in check_positive_delay_markov(spec, code)]
        cmi.append(max(vals))
    el_markov = time.monotonic() - t0
    return l1, el_equiv, cmi, el_markov, len(cases)


def test_acceptance_1_feedback_corner_point(capsys, scheme_run):
    result, elapsed = scheme_run
    rev = result.report.pairs[(2, 1)]
    fwd = result.report.pairs[(1, 2)]
    ok = rev.errors == 0 and fwd.estimate < 0.1 and elapsed < 60.0
    _announce(capsys, 1, ok,
              f"reverse {rev.errors}/200 (exact zero required), "
              f"forward {fwd.estimate:.4f} < 0.1, {elapsed:.1f}s < 60s "
              f"(eps=0.11, n=2000, rate 0.4, seed 7)")
    assert rev.errors == 0
    assert fwd.estimate < 0.1
    assert elapsed < 60.0


def test_acceptance_2_capacity_grid_reaches_region(capsys):
    details = []
    ok = True
    for eps in _EPS_SET:
        spec = networks.bscfb_spec(eps)
        t0 = time.monotonic()
        hull, _, _ = grid_hull(spec, "capacity", 8)
        elapsed = time.monotonic() - t0
        by_cut = {c.cut.nodes.members: c.cap for c in hull}
        want_fwd = 1.0 - binary_entropy(eps)
        d_fwd = abs(by_cut[(1,)] - want_fwd)
        d_rev = abs(by_cut[(2,)] - 1.0)
        details.append(f"eps={eps}: |{by_cut[(1,)]:.4f}-{want_fwd:.4f}|"
                       f"={d_fwd:.4f}, |{by_cut[(2,)]:.4f}-1|={d_rev:.4f}, "
                       f"{elapsed:.1f}s")
        ok = ok and d_fwd <= 0.01 and d_rev <= 0.01 and elapsed < 60.0
    _announce(capsys, 2, ok, "k=8 per-cut maxima within 0.01; " + "; ".join(details))
    assert ok


def test_acceptance_3_positive_delay_strictly_smaller(capsys, scheme_run):
    result, _ = scheme_run
    rev_rate = result.achieved_rates[1]
    rev_exact = result.report.pairs[(2, 1)].errors == 0
    details = []
    ok = rev_exact and rev_rate == 1.0
    for eps in _EPS_SET:
        spec = networks.bscfb_spec(eps)
        hull, _, _ = grid_hull(spec, "positive-delay", 8)
        threshold = 1.0 - binary_entropy(eps) + 0.01
        caps = [c.cap for c in hull]
        within = all(c <= threshold for c in caps)
        exceeds = rev_rate > threshold
        details.append(f"eps={eps}: max cut cap {max(caps):.4f} <= {threshold:.4f}, "
                       f"demonstrated reverse rate 1 > {threshold:.4f}")
        ok = ok and within and exceeds
    _announce(capsys, 3, ok,
              "unit-delay caps exclude the zero-delay operating point; "
              + "; ".join(details))
    assert ok


def test_acceptance_4_stepwise_equals_composed(capsys, enumeration_run):
    l1, elapsed, _, _, n_cases = enumeration_run
    worst = max(l1)
    ok = worst <= 1e-9 and elapsed < 60.0
    _announce(capsys, 4, ok,
              f"{n_cases} codes over {len(networks.BUNDLED)} networks, "
              f"worst L1 {worst:.2e} <= 1e-9, {elapsed:.1f}s < 60s")
    assert ok


def test_acceptance_5_markov_invariants_vanish(capsys, enumeration_run):
    _, _, cmi, elapsed, n_cases = enumeration_run
    worst = max(cmi)
    ok = worst <= 1e-9
    _announce(capsys, 5, ok,
              f"{n_cases} codes, worst conditional MI {worst:.2e} <= 1e-9 "
              f"(memoryless and delayed-input chains), {elapsed:.1f}s")
    assert ok


def test_acceptance_6_gaussian_relay_numbers(capsys):
    t0 = time.monotonic()
    rep = separation_report(5.0)
    d_cap = abs(rep.positive_delay_cap - 1.160964)
    d_ach = abs(rep.achievable_rate - 1.729716)
    gate = neutralization_rate(
        GaussianRelayConfig(P=5.0, n=1000, seed=0, delta=0.5), blocks=200)
    cfg = GaussianRelayConfig(P=5.0, n=100000, seed=0, delta=0.5)
    rng = np.random.Generator(np.random.Philox(2026))
    x1 = math.sqrt(cfg.P - cfg.delta) * rng.standard_normal(cfg.n)
    tr = simulate_relay(cfg, x1)
    resid = tr.y3 - 2.0 * tr.x1
    mean_tol = 3.0 / math.sqrt(cfg.n)
    mean_dev = abs(float(resid.mean()))
    var_dev = abs(float(resid.var()) - 1.0)
    elapsed = time.monotonic() - t0
    ok = (d_cap <= 1e-6 and d_ach <= 1e-6 and gate >= 0.95 and tr.all_open
          and mean_dev < mean_tol and var_dev < 0.1 and elapsed < 120.0)
    _announce(capsys, 6, ok,
              f"cap dev {d_cap:.1e} <= 1e-6, rate dev {d_ach:.1e} <= 1e-6, "
              f"gate-open {gate:.3f} >= 0.95 (n=1000), conditional law at 1e5 "
              f"slots: |mean| {mean_dev:.4f} < {mean_tol:.4f}, "
              f"|var-1| {var_dev:.4f} < 0.1, {elapsed:.1f}s < 120s")
    assert ok


def test_acceptance_7_codebook_trend_above_cap(capsys):
    rep = separation_report(5.0, operating_rate=1.2)
    rates = []
    for n in (8, 16, 24):
        cfg = GaussianRelayConfig(P=5.0, n=n, seed=0, delta=0.5)
        res = codebook_experiment(cfg, 1.2, trials=1000, method="analytic")
        rates.append(res.error_rate)
    monotone = rates[0] >= rates[1] >= rates[2]
    ok = monotone and all(r < 1.0 for r in rates) and rep.exceeds_cap
    _announce(capsys, 7, ok,
              f"operating rate 1.2 > cap {rep.positive_delay_cap:.3f}; error "
              f"rate over n=(8,16,24): "
              + " >= ".join(f"{r:.4f}" for r in rates)
              + " (1000 trials each, nonincreasing)")
    assert ok


def test_acceptance_8_cli_byte_identical(capsys, tmp_path):
    spec_f = str(tmp_path / "net.json")
    code_f = str(tmp_path / "code.json")
    save_spec(networks.bscfb_spec(0.11), spec_f)
    save_code(random_table_code(networks.bscfb_spec(0.11), 1,
                                DelayProfile.of((1, 1)), seed=0), code_f)
    gen_spec_out = str(tmp_path / "gen_spec.json")
    gen_code_out = str(tmp_path / "gen_code.json")
    trace_out = str(tmp_path / "trace.csv")
    commands = [
        (["validate", "--spec", spec_f], ()),
        (["feasible", "--spec", spec_f, "--all"], ()),
        (["feasible", "--spec", spec_f, "--profile", "1,0"], ()),
        (["bound", "--spec", spec_f, "--grid", "4", "--format", "json"], ()),
        (["bound", "--spec", spec_f, "--grid", "4", "--mode", "positive-delay",
          "--format", "csv"], ()),
        (["simulate", "--spec", spec_f, "--code", code_f, "--trials", "25",
          "--seed", "3", "--trace-out", trace_out], (trace_out,)),
        (["bscfb", "--eps", "0.11", "--n", "64", "--rate", "0.25",
          "--trials", "30", "--seed", "1"], ()),
        (["gaussian", "--power", "5", "--experiment", "--n", "8",
          "--blocks", "20", "--trials", "10", "--seed", "2"], ()),
        (["generate", "spec", "--name", "causal-relay", "--out", gen_spec_out],
         (gen_spec_out,)),
        (["generate", "code", "--spec", spec_f, "--n", "1", "--seed", "5",
          "--out", gen_code_out], (gen_code_out,)),
    ]
    mismatched = []
    for argv, written in commands:
        runs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-m", "zdmn.cli"] + argv,
                                  capture_output=True, timeout=300)
            assert proc.returncode == 0, (argv, proc.stderr.decode())
            files = tuple(pathlib.Path(f).read_bytes() for f in written)
            runs.append((proc.stdout, files))
        if runs[0] != runs[1]:
            mismatched.append(argv[0])
    ok = not mismatched
    _announce(capsys, 8, ok,
              f"{len(commands)} commands x 2 seeded runs each: stdout and "
              f"written files byte-identical"
              + ("" if ok else f"; mismatches: {mismatched}"))
    assert ok
