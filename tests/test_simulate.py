"""Engine: slot ordering, determinism, exact joints, scheme behavior."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from zdmn import networks, simulate
from zdmn.errors import DomainError, ResourceCapError, SpecIOError
from zdmn.model import DelayProfile, enumerate_feasible_profiles
from zdmn.polar import PolarCode
from zdmn.probability import marginalize
from zdmn.simulate import (
    TableCode,
    bscfb_engine_code,
    bscfb_scheme,
    check_memoryless_markov,
    check_positive_delay_markov,
    code_from_dict,
    code_to_dict,
    equivalence_check,
    estimate_error,
    induced_joint,
    load_code,
    random_table_code,
    run_trial,
    save_code,
    wilson_half_width,
)

_UNIT = DelayProfile.of((1, 1))


def _tiny_polar(n, k):
    return PolarCode(n, k, 0.11, list_size=1, crc_bits=0)


# ---------------------------------------------------------------------------
# index folding


def test_fold_unfold_roundtrip():
    rng = np.random.Generator(np.random.Philox(0))
    for _ in range(200):
        sizes = tuple(int(s) for s in rng.integers(1, 5, size=rng.integers(1, 6)))
        vals = tuple(int(rng.integers(0, s)) for s in sizes)
        assert simulate._fold_index(vals, sizes) == np.ravel_multi_index(vals, sizes)
    assert simulate._fold_index((1, 0, 1), (2, 3, 2)) == 1 * 6 + 0 * 2 + 1


# ---------------------------------------------------------------------------
# trial execution


def test_run_trial_deterministic_and_trials_distinct():
    spec = networks.bscfb_spec(0.11)
    code = random_table_code(spec, 3, _UNIT, seed=9)
    a = run_trial(spec, code, seed=3, trial=5)
    b = run_trial(spec, code, seed=3, trial=5)
    assert a.messages == b.messages and a.estimates == b.estimates
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    ys = [run_trial(spec, code, seed=3, trial=t).y for t in range(6)]
    assert any(not np.array_equal(ys[0], y) for y in ys[1:])


def test_scheme_engine_reverse_stream_exact_per_slot():
    # node 2's masked bit cancels against the feedback loop slot by slot
    spec = networks.bscfb_spec(0.11)
    code = bscfb_engine_code(4, _tiny_polar(4, 1))
    for t in range(12):
        trace = run_trial(spec, code, seed=11, trial=t)
        w_rev = trace.messages[(2, 1)]
        for k in range(4):
            assert trace.y[k, 0] == (w_rev >> k) & 1
        assert trace.estimates[(2, 1)] == w_rev


def test_estimate_error_batch_window_invariance(monkeypatch):
    spec = networks.bundled_spec("causal-relay")
    code = random_table_code(spec, 2, DelayProfile.of((1, 0, 1)), seed=4)
    trials = 40
    report = estimate_error(spec, code, trials=trials, seed=8)
    counts = {p: 0 for p in code.message_pairs()}
    for t in range(trials):
        trace = run_trial(spec, code, seed=8, trial=t)
        for p in counts:
            counts[p] += trace.estimates[p] != trace.messages[p]
    assert {p: s.errors for p, s in report.pairs.items()} == counts
    for stats in report.pairs.values():
        assert stats.trials == trials
        assert stats.estimate == stats.errors / trials
    for chunk in (1, 3, 7):
        monkeypatch.setattr(simulate, "_TRIAL_CHUNK", chunk)
        assert estimate_error(spec, code, trials=trials, seed=8).pairs == report.pairs


def test_trial_uniforms_window_invariance():
    # rows [lo, hi) of a call equal the same rows of a [0, hi) call at every
    # width, so a trial's draws never depend on the batch that holds it
    for purpose, width in itertools.product(((), (1,), (6,)), (1, 3, 4, 5, 17)):
        whole = simulate.trial_uniforms(11, purpose, 0, 30, width)
        assert whole.shape == (30, width)
        for lo, hi in ((0, 1), (7, 8), (5, 30), (29, 30)):
            assert np.array_equal(simulate.trial_uniforms(11, purpose, lo, hi, width),
                                  whole[lo:hi])
    assert not np.array_equal(simulate.trial_uniforms(11, (), 0, 4, 8),
                              simulate.trial_uniforms(11, (1,), 0, 4, 8))


def _serial_slots(spec, code, messages, picks, prob=1.0):
    """Reference slot order: one trial, one slot and one channel at a time.

    ``picks`` yields one item per step in slot-then-channel order: a float
    is a uniform that picks the channel's column by inverse cdf, an int is
    the column itself.  Returns x and y (n, N) and ``prob`` times the chosen
    channel entries, multiplied in step order.
    """
    nn, n = spec.n_nodes, code.n
    x = np.zeros((n, nn), dtype=np.int64)
    y = np.zeros((n, nn), dtype=np.int64)
    for k in range(1, n + 1):
        for h in range(1, spec.alpha + 1):
            for i in spec.input_partition.blocks[h - 1].members:
                plen = k - code.delay_profile.delay_of(i)
                w_idx = np.ravel_multi_index(
                    code.w_row_of(i, messages),
                    [code.message_sizes[i - 1][j - 1] for j in range(1, nn + 1) if j != i])
                y_idx = np.ravel_multi_index(tuple(y[:plen, i - 1]),
                                             (code.output_sizes[i - 1],) * plen)
                x[k - 1, i - 1] = code.encoder_tables[i - 1][k - 1][w_idx, y_idx]
            in_vars = spec.channel_input_vars(h)
            row = spec.channels[h - 1].table[np.ravel_multi_index(
                [(x if v[0] == "X" else y)[k - 1, int(v[1:]) - 1] for v in in_vars],
                [spec.var_size(v) for v in in_vars])]
            col = next(picks)
            if isinstance(col, float):
                cum = np.cumsum(row)
                col = min(int(np.searchsorted(cum, col, side="right")), cum.shape[0] - 1)
            prob *= row[col]
            out_vars = spec.channel_output_vars(h)
            for v, sym in zip(out_vars, np.unravel_index(
                    col, [spec.var_size(v) for v in out_vars])):
                y[k - 1, int(v[1:]) - 1] = sym
    return x, y, prob


def _serial_trial(spec, code, seed, trial):
    """Reference engine: one trial through ``_serial_slots``.

    It reads the stream layout on its own: trial t owns counter blocks
    [t*c, (t+1)*c) of one Philox stream, c = ceil((P + n*alpha) / 4); the
    first P doubles give the messages, the next n*alpha the channel draws.
    """
    pairs = code.message_pairs()
    blocks = math.ceil((len(pairs) + code.n * spec.alpha) / 4)
    bits = np.random.Philox(np.random.SeedSequence(entropy=seed))
    bits.advance(trial * blocks)
    draws = iter(np.random.Generator(bits).random(4 * blocks).tolist())
    messages = {(i, j): math.floor(next(draws) * code.message_sizes[i - 1][j - 1])
                for (i, j) in pairs}
    x, y, _ = _serial_slots(spec, code, messages, draws)
    estimates = {(i, j): code.decode(i, j, code.w_row_of(j, messages),
                                     tuple(int(v) for v in y[:, j - 1]))
                 for (i, j) in pairs}
    return messages, x, y, estimates


def _serial_joint(spec, code):
    """Reference induced joint: ``_serial_slots`` summed over every message
    tuple and every column per step, cells ordered (W, then per slot
    X_1..X_N, Y_1..Y_N)."""
    pairs = code.message_pairs()
    m = [code.message_sizes[i - 1][j - 1] for (i, j) in pairs]
    sizes = m + [*spec.input_alphabet_sizes, *spec.output_alphabet_sizes] * code.n
    columns = [spec.channels[h].table.shape[1] for h in range(spec.alpha)] * code.n
    p_w = 1.0
    for size in m:
        p_w /= size
    flat = np.zeros(math.prod(sizes))
    for wcell in itertools.product(*map(range, m)):
        for cols in itertools.product(*map(range, columns)):
            x, y, prob = _serial_slots(spec, code, dict(zip(pairs, wcell)), iter(cols), p_w)
            xy = np.concatenate([x, y], axis=1).reshape(-1)
            flat[np.ravel_multi_index((*wcell, *xy), sizes)] += prob
    return flat


def _assert_matches_serial(spec, code, seed, trials):
    errors = {p: 0 for p in code.message_pairs()}
    for t in range(trials):
        messages, x, y, estimates = _serial_trial(spec, code, seed, t)
        trace = run_trial(spec, code, seed=seed, trial=t)
        assert trace.messages == messages and trace.estimates == estimates
        assert np.array_equal(trace.x, x) and np.array_equal(trace.y, y)
        for p in errors:
            errors[p] += estimates[p] != messages[p]
    report = estimate_error(spec, code, trials=trials, seed=seed)
    assert {p: s.errors for p, s in report.pairs.items()} == errors


def test_batch_engine_matches_serial_reference_table_codes(bundled_specs):
    for (name, spec), n in itertools.product(sorted(bundled_specs.items()), (1, 2, 3)):
        for r, profile in enumerate(enumerate_feasible_profiles(spec)):
            code = random_table_code(spec, n, profile, seed=10 * n + r)
            _assert_matches_serial(spec, code, seed=n + r, trials=12)


def test_scheme_engine_code_tables_equal_closure_form():
    # node 1 sends codeword bit k whatever it heard; node 2 masks message bit
    # k-1 with its current-slot symbol; node 1 reads the reverse message off
    # its received word, node 2 decodes the forward one
    for n, k in ((1, 1), (3, 2), (4, 1), (4, 4)):
        fwd = _tiny_polar(n, k)
        code = bscfb_engine_code(n, fwd)
        assert isinstance(code, TableCode)
        for w in range(2 ** k):
            bits = np.array([(w >> (k - 1 - b)) & 1 for b in range(k)], dtype=np.uint8)
            codeword = fwd.encode_batch(bits[None, :])[0]
            for slot in range(1, n + 1):
                assert np.all(code.encoder_tables[0][slot - 1][w] == codeword[slot - 1])
        for w in range(2 ** n):
            for slot in range(1, n + 1):
                for y_idx in range(2 ** slot):
                    want = ((w >> (slot - 1)) & 1) ^ (y_idx & 1)
                    assert code.encoder_tables[1][slot - 1][w, y_idx] == want
        for y_idx in range(2 ** n):
            y_seq = [(y_idx >> (n - 1 - s)) & 1 for s in range(n)]
            est = fwd.decode_batch(np.array(y_seq, dtype=np.uint8)[None, :])[0]
            want_fwd = sum(int(b) << (k - 1 - pos) for pos, b in enumerate(est))
            assert np.all(code.decoder_tables[(1, 2)][:, y_idx] == want_fwd)
            want_rev = sum(b << s for s, b in enumerate(y_seq))
            assert np.all(code.decoder_tables[(2, 1)][:, y_idx] == want_rev)


def test_scheme_engine_code_over_cell_cap():
    fwd = {n: _tiny_polar(n, 1) for n in (12, 40)}
    tracemalloc.start()
    try:
        for n, code in fwd.items():
            with pytest.raises(ResourceCapError, match=str(simulate.CODE_CELL_CAP)):
                bscfb_engine_code(n, code)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20  # checked before any table is built or word decoded
    with pytest.raises(DomainError):
        bscfb_engine_code(3, _tiny_polar(4, 1))  # codewords of the wrong length


def test_batch_engine_matches_serial_reference_zero_delay_scheme():
    spec = networks.bscfb_spec(0.11)
    for n in (2, 3, 4):
        _assert_matches_serial(spec, bscfb_engine_code(n, _tiny_polar(n, 1)),
                               seed=n, trials=12)


def _exact_error_probabilities(spec, code):
    """P(estimate != message) per pair, from the exact induced joint."""
    joint = induced_joint(spec, code)
    pairs = code.message_pairs()
    w_names = [f"W{i}.{j}" for (i, j) in pairs]
    out = {}
    for (i, j) in pairs:
        y_names = [f"Y{j}.{k}" for k in range(1, code.n + 1)]
        marg = marginalize(joint, w_names + y_names).as_array()
        err = 0.0
        for cell in itertools.product(*map(range, marg.shape)):
            messages = dict(zip(pairs, cell[:len(pairs)]))
            est = code.decode(i, j, code.w_row_of(j, messages), cell[len(pairs):])
            if est != messages[(i, j)]:
                err += float(marg[cell])
        out[(i, j)] = err
    return out


def test_error_counts_match_exact_probabilities():
    spec = networks.bundled_spec("causal-relay")
    code = random_table_code(spec, 2, DelayProfile.of((1, 0, 1)), seed=12)
    exact = _exact_error_probabilities(spec, code)
    trials = 20000
    report = estimate_error(spec, code, trials=trials, seed=2024)
    for pair, stats in report.pairs.items():
        p = exact[pair]
        assert abs(stats.errors - trials * p) <= 6 * math.sqrt(trials * p * (1 - p)) + 1


# ---------------------------------------------------------------------------
# exact induced joints


def test_induced_joint_one_slot_scheme_marginal():
    eps = 0.11
    spec = networks.bscfb_spec(eps)
    joint = induced_joint(spec, bscfb_engine_code(1, _tiny_polar(1, 1)))
    assert joint.validate() == []
    m = marginalize(joint, ("W1.2", "Y2.1"))
    want = np.array([0.5 * (1 - eps), 0.5 * eps, 0.5 * eps, 0.5 * (1 - eps)])
    assert np.allclose(m.probs, want, atol=1e-12)
    # the reverse stream arrives exactly: estimate distribution == message
    mw = marginalize(joint, ("W2.1", "Y1.1"))
    assert np.allclose(mw.probs, [0.5, 0.0, 0.0, 0.5], atol=1e-15)


def test_markov_and_equivalence_unit_delay_codes():
    for name, n, seed in (("bscfb", 2, 0), ("causal-relay", 1, 1),
                          ("deterministic", 2, 2)):
        spec = networks.bundled_spec(name)
        profile = DelayProfile.of((1,) * spec.n_nodes)
        code = random_table_code(spec, n, profile, seed=seed)
        for (_k, _h, v) in check_memoryless_markov(spec, code):
            assert v <= 1e-9
        for (_k, _h, v) in check_positive_delay_markov(spec, code):
            assert v <= 1e-9
        assert equivalence_check(spec, code) <= 1e-9


def test_zero_delay_code_accepted_only_where_meaningful():
    spec = networks.bscfb_spec(0.11)
    code = bscfb_engine_code(2, _tiny_polar(2, 1))
    assert code.delay_profile.delays == (1, 0)
    # memoryless factorization still holds at zero delay ...
    for (_k, _h, v) in check_memoryless_markov(spec, code):
        assert v <= 1e-9
    # ... but the delayed-input checks refuse the profile outright
    with pytest.raises(DomainError):
        check_positive_delay_markov(spec, code)
    with pytest.raises(DomainError):
        equivalence_check(spec, code)


def test_induced_joint_matches_serial_reference(bundled_specs):
    for (name, spec), n in itertools.product(sorted(bundled_specs.items()), (1, 2)):
        for r, profile in enumerate(enumerate_feasible_profiles(spec)):
            code = random_table_code(spec, n, profile, seed=20 * n + r)
            assert np.array_equal(induced_joint(spec, code).probs,
                                  _serial_joint(spec, code)), (name, n, profile)


def test_induced_joint_chunk_invariance(monkeypatch):
    spec = networks.bundled_spec("causal-relay")
    code = random_table_code(spec, 1, DelayProfile.of((1, 0, 1)), seed=5)
    whole = induced_joint(spec, code).probs
    for chunk in (1, 7):
        monkeypatch.setattr(simulate, "_TRIAL_CHUNK", chunk)
        assert np.array_equal(induced_joint(spec, code).probs, whole)


def test_induced_joint_resource_cap(monkeypatch):
    spec = networks.bscfb_spec(0.11)
    code = random_table_code(spec, 2, _UNIT, seed=0)
    monkeypatch.setattr(simulate, "JOINT_CAP", 10)
    with pytest.raises(ResourceCapError, match="cap of 10"):
        induced_joint(spec, code)


# ---------------------------------------------------------------------------
# code objects and their serialization


def test_table_code_json_roundtrip(tmp_path):
    spec = networks.bundled_spec("causal-relay")
    code = random_table_code(spec, 2, DelayProfile.of((1, 1, 1)), seed=6)
    path = tmp_path / "code.json"
    save_code(code, path)
    loaded = load_code(path)
    a = run_trial(spec, code, seed=2, trial=3)
    b = run_trial(spec, loaded, seed=2, trial=3)
    assert a.messages == b.messages and a.estimates == b.estimates
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def test_code_io_errors(tmp_path):
    with pytest.raises(SpecIOError):
        load_code(tmp_path / "missing.json")
    spec = networks.bscfb_spec(0.11)
    good = code_to_dict(random_table_code(spec, 1, _UNIT, seed=0))
    for key in ("n", "encoders", "decoders", "message_sizes"):
        bad = {k: v for k, v in good.items() if k != key}
        with pytest.raises(SpecIOError):
            code_from_dict(bad)
    assert code_from_dict(good).n == 1


def test_code_validation_errors():
    spec = networks.bscfb_spec(0.11)
    with pytest.raises(DomainError):
        random_table_code(spec, 1, DelayProfile.of((0, 1)), seed=0)  # infeasible
    with pytest.raises(DomainError):
        random_table_code(spec, 0, _UNIT, seed=0)
    good = random_table_code(spec, 1, _UNIT, seed=0)
    with pytest.raises(DomainError):
        dataclasses.replace(good, message_sizes=((1, 2),))  # not square
    with pytest.raises(DomainError):
        dataclasses.replace(good, message_sizes=((2, 2), (2, 1)))  # diagonal must be unit
    seven = np.full_like(good.encoder_tables[0][0], 7)
    rogue = dataclasses.replace(good, encoder_tables=((seven,), good.encoder_tables[1]))
    with pytest.raises(DomainError):
        run_trial(spec, rogue, seed=0)  # symbol outside the input alphabet


def _unreachable_rogue_code():
    """Identity network, n=2: node 1 always sends 0 in slot 1, so it never
    hears 1 before slot 2; that slot-2 entry holds the out-of-range 7."""
    spec = networks.bundled_spec("deterministic")
    code = random_table_code(spec, 2, _UNIT, seed=0)
    first, second = code.encoder_tables[0]
    second = second.copy()
    second[:, 1] = 7
    tables = ((np.zeros_like(first), second), code.encoder_tables[1])
    return spec, dataclasses.replace(code, encoder_tables=tables)


def test_unreachable_out_of_range_encoder_symbol_rejected():
    spec, rogue = _unreachable_rogue_code()
    for call in (lambda: estimate_error(spec, rogue, trials=20, seed=0),
                 lambda: induced_joint(spec, rogue)):
        with pytest.raises(DomainError, match="node 1, slot 2 has symbol 7"):
            call()


def test_negative_seed_is_a_domain_error():
    spec = networks.bscfb_spec(0.11)
    code = random_table_code(spec, 1, _UNIT, seed=0)
    calls = (lambda: estimate_error(spec, code, trials=3, seed=-1),
             lambda: run_trial(spec, code, seed=-1),
             lambda: random_table_code(spec, 1, _UNIT, seed=-1),
             lambda: bscfb_scheme(0.11, 8, 0.25, seed=-1, trials=3,
                                  forward_code=_tiny_polar(8, 2)))
    for call in calls:
        with pytest.raises(DomainError, match="seed must be >= 0"):
            call()


def test_trace_csv_layout():
    spec = networks.bscfb_spec(0.11)
    code = random_table_code(spec, 3, _UNIT, seed=1)
    trace = run_trial(spec, code, seed=5, trial=0)
    lines = trace.to_csv().strip().split("\n")
    assert lines[0] == "slot,node,X,Y"
    assert len(lines) == 1 + 3 * 2
    slot, node, xv, yv = map(int, lines[1].split(","))
    assert (slot, node) == (1, 1)
    assert xv == trace.x[0, 0] and yv == trace.y[0, 0]


# ---------------------------------------------------------------------------
# the masked-feedback scheme at full speed


def test_scheme_trial_windows_leave_counts_unchanged(monkeypatch):
    # trials run in windows of _TRIAL_CHUNK; each trial has its own stream
    fwd = PolarCode(64, 16, 0.11)
    whole = bscfb_scheme(0.11, 64, 0.25, seed=3, trials=30, forward_code=fwd)
    monkeypatch.setattr(simulate, "_TRIAL_CHUNK", 7)
    windowed = bscfb_scheme(0.11, 64, 0.25, seed=3, trials=30, forward_code=fwd)
    assert windowed == whole


def test_scheme_reverse_always_exact_forward_reasonable():
    fwd = PolarCode(64, 16, 0.11)
    res = bscfb_scheme(0.11, 64, 0.25, seed=3, trials=50, forward_code=fwd)
    assert res.forward_bits == 16
    assert res.achieved_rates == (0.25, 1.0)
    assert res.report.pairs[(2, 1)].errors == 0
    assert res.report.pairs[(1, 2)].estimate <= 0.5
    text = str(res)
    assert "P_1->2" in text and "reverse 1.000000" in text


def test_scheme_validation():
    with pytest.raises(DomainError):
        bscfb_scheme(0.0, 8, 0.2, seed=0)
    with pytest.raises(DomainError):
        bscfb_scheme(0.11, 8, 0.75, seed=0)  # at/above forward capacity
    with pytest.raises(DomainError):
        bscfb_scheme(0.11, 8, -0.1, seed=0)
    with pytest.raises(DomainError):
        bscfb_scheme(0.11, 8, float("nan"), seed=0)
    with pytest.raises(DomainError):
        bscfb_scheme(0.11, 0, 0.2, seed=0)


# ---------------------------------------------------------------------------
# interval arithmetic


def test_wilson_half_width_solves_score_equation():
    z = simulate._WILSON_Z
    for errors, trials in ((0, 50), (5, 200), (50, 50), (13, 29)):
        p_hat = errors / trials
        half = wilson_half_width(errors, trials)
        center = (p_hat + z * z / (2 * trials)) / (1 + z * z / trials)
        for bound in (center - half, center + half):
            lhs = (p_hat - bound) ** 2
            rhs = z * z * bound * (1 - bound) / trials
            assert abs(lhs - rhs) < 1e-12
    assert wilson_half_width(0, 10) > 0.0
    assert abs(wilson_half_width(2, 10) - wilson_half_width(8, 10)) < 1e-15
    with pytest.raises(DomainError):
        wilson_half_width(0, 0)
