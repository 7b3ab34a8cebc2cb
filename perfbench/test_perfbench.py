"""Tests of the benchmark itself: the oracle, the seeded inputs, the tracer
and the metric names.  Run from the checkout root:

    python3 -m pytest perfbench -q
"""

import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
from zdmn import model, networks, simulate  # noqa: E402
from zdmn.bounds import grid_hull  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("eps", [0.05, 0.11, 0.25])
def test_oracle_matches_closed_form_on_bscfb(eps):
    want = 1.0 - oracle.binary_entropy(eps)
    ref = oracle.positive_delay_reference(networks.bscfb_spec(eps))
    assert set(ref) == {(1,), (2,)}
    for lower, upper in ref.values():
        assert abs(lower - want) <= 1e-9
        assert abs(upper - want) <= 1e-9
    assert oracle.bscfb_reference(eps, "positive-delay") == {(1,): want, (2,): want}
    assert oracle.bscfb_reference(eps, "capacity") == {(1,): want, (2,): 1.0}


def test_blahut_arimoto_certificate_brackets_known_capacity():
    # Z channel with p = 1/2: capacity log2(5/4)
    w = np.array([[[1.0, 0.0], [0.5, 0.5]]])
    lower, upper = oracle.blahut_arimoto(w)
    assert lower[0] <= upper[0] <= lower[0] + 1e-12
    assert abs(upper[0] - np.log2(1.25)) <= 1e-9


def test_grid_never_exceeds_oracle_on_ternary_network():
    spec = inputs.ternary_network(5)
    ref = oracle.positive_delay_reference(spec)
    hull, _, _ = grid_hull(spec, "positive-delay", 2)
    for c in hull:
        lower, upper = ref[c.cut.nodes.members]
        assert lower <= upper <= lower + 1e-9
        assert c.cap <= upper + 1e-9


def test_generators_are_deterministic_per_seed():
    a, b, c = inputs.ternary_network(3), inputs.ternary_network(3), inputs.ternary_network(4)
    assert model.validate_spec(a).ok
    for ca, cb in zip(a.channels, b.channels):
        assert np.array_equal(ca.table, cb.table)
    assert not np.array_equal(a.channels[2].table, c.channels[2].table)

    def code_dicts(cases):
        return [json.dumps(simulate.code_to_dict(code)) for _spec, code in cases]

    assert code_dicts(inputs.engine_cases(3).values()) == \
        code_dicts(inputs.engine_cases(3).values())
    assert code_dicts(inputs.engine_cases(3).values()) != \
        code_dicts(inputs.engine_cases(4).values())
    enum3 = [(n, s, c) for n, s, c in inputs.enumeration_codes(3)]
    assert len(enum3) == 4 * 2 * inputs.ENUM_SEEDS
    assert code_dicts([(s, c) for _n, s, c in enum3]) == \
        code_dicts([(s, c) for _n, s, c in inputs.enumeration_codes(3)])
    r3, r3b = inputs.membership_rates(3), inputs.membership_rates(3)
    for x, y in zip(r3, r3b):
        assert np.array_equal(x.rates, y.rates)
    assert inputs.derive_seed(3, "task", 1, 2) == inputs.derive_seed(3, "task", 1, 2)
    assert inputs.derive_seed(3, "task", 1, 2) != inputs.derive_seed(4, "task", 1, 2)


def test_membership_rates_straddle_the_region():
    fwd = 1.0 - oracle.binary_entropy(inputs.MEMBERSHIP_EPS)
    for seed in range(20):
        inside, outside = inputs.membership_rates(seed)
        assert inside.rates[0, 1] < fwd and inside.rates[1, 0] < 1.0
        assert outside.rates[0, 1] > fwd


def test_metric_names_and_benchmark_file_agree():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    assert e2e == list(run.E2E_UNITS)
    assert layer == list(run.LAYER_UNITS)
    for m in bench["end_to_end"]:
        assert m["unit"] == run.E2E_UNITS[m["name"]]
    for m in bench["per_layer"]:
        assert m["unit"] == run.LAYER_UNITS[m["name"]]
    for name in e2e + layer + [w["name"] for w in bench["workloads"]]:
        assert NAME.fullmatch(name), name
    assert len(set(e2e + layer)) == len(e2e) + len(layer)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)


def test_tracer_wraps_every_alias_and_restores():
    spec = networks.bscfb_spec(0.11)
    orig = model.validate_spec
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert simulate.validate_spec is model.validate_spec is not orig
        code = simulate.random_table_code(spec, 1, model.DelayProfile.of((1, 1)), seed=0)
        simulate.estimate_error(spec, code, 3, seed=1)
    finally:
        tracer.uninstall()
    assert simulate.validate_spec is model.validate_spec is orig
    tot = tracer.totals()
    assert tot["simulate.run_trial"]["calls"] == 3
    assert tot["model.validate_spec"]["calls"] == 4      # once per call and per trial
    (est,) = [s for s in tracer.spans if s[1] == "simulate.estimate_error"]
    direct = sum(end - start for _i, _n, start, end, parent, _t, _u in tracer.spans
                 if parent == est[0])
    assert tot["simulate.estimate_error"]["self_s"] == pytest.approx(est[3] - est[2] - direct)


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    tracer.spans[:] = [(1, "child", 1.0, 3.0, 0, "t", 1),
                       (2, "child", 4.0, 5.0, 0, "t", 1),
                       (0, "parent", 0.0, 10.0, -1, "t", 1)]
    tot = tracer.totals()
    assert tot["parent"]["s"] == 10.0 and tot["parent"]["self_s"] == 7.0
    assert tot["child"]["calls"] == 2 and tot["child"]["self_s"] == 3.0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0


def test_scipy_stats_subtree_from_importtime():
    parsed = [(6, "scipy.stats._a", 10), (4, "scipy.stats._b", 30), (4, "numpy", 5),
              (4, "scipy.stats.c", 7), (2, "zdmn.gaussian", 60), (0, "zdmn", 80)]
    assert run._subtree_us(parsed, "scipy.stats") == 37
    assert run._subtree_us([(0, "zdmn", 80)], "scipy.stats") == 0


def test_task_p50_is_geometric_mean_of_kind_medians():
    tasks = [{"label": "a", "seconds": s} for s in (1.0, 2.0, 9.0)]
    tasks += [{"label": "b", "seconds": s} for s in (8.0, 8.0)]
    assert run.task_p50(tasks) == pytest.approx(4.0)


def test_host_speed_scale_reads_probes_around_a_span():
    sampler = hostspeed.Sampler()
    sampler.starts = [0.1 * i for i in range(100)]
    # slow host for the first five seconds, fast after
    sampler.times = [2 * hostspeed.REF_S if t < 5.0 else hostspeed.REF_S / 2
                     for t in sampler.starts]
    assert sampler.scale(1.0, 1.2) == pytest.approx(0.5)
    assert sampler.scale(8.0, 8.0) == pytest.approx(2.0)
    assert sampler.scale(50.0, 51.0) == pytest.approx(2.0)     # nearest probe only


def test_stopwatch_leaves_out_probes_that_ran_inside():
    sampler = hostspeed.Sampler()
    with hostspeed.Stopwatch(sampler) as sw:
        sampler._on_alarm()
        sampler._on_alarm()
    assert sw.raw == pytest.approx(sw.end - sw.start - sum(sampler.times))
    assert sw.adjusted() == pytest.approx(sw.raw * sampler.scale(sw.start, sw.end))
    with hostspeed.Stopwatch(hostspeed.Unadjusted()) as plain:
        pass
    assert plain.adjusted() == plain.raw == plain.end - plain.start
