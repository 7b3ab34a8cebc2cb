"""Engine: slot ordering, determinism, exact joints, scheme behavior."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from zdmn import model, networks, simulate
from zdmn.errors import DomainError, ResourceCapError, SpecIOError
from zdmn.model import (ChannelTable, DelayProfile, NetworkSpec, NodeSet, Partition,
                        enumerate_feasible_profiles)
from zdmn.polar import PolarCode
from zdmn.probability import JointPmf, all_delayed_network, binary_entropy, marginalize
from zdmn.simulate import (
    TableCode,
    bscfb_capacity_region,
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

from oracles import (bscfb_engine_code, dense_equivalence, dense_step_cmis, joint_violations,
                     random_network, two_network_equivalence)

_UNIT = DelayProfile.of((1, 1))


def _tiny_polar(n, k):
    return PolarCode(n, k, 0.11, list_size=1, crc_bits=0)


def _mixed_alphabet_spec():
    """Three nodes with alphabets of sizes 1, 2 and 3: channel 1 emits the
    ternary Y2 and the binary Y3 from the ternary X1, channel 2 emits Y1 from
    everything before it.  Nodes 2 and 3 may have zero delay."""
    s = Partition((NodeSet((1,)), NodeSet((2, 3))))
    g = Partition((NodeSet((2, 3)), NodeSet((1,))))
    return random_network((3, 2, 1), (2, 3, 2), s, g, 3)


def _empty_block_spec():
    """Two binary nodes with S = ({}, {1, 2}) and G = ({1, 2}, {}): channel 1
    reads no input and channel 2 emits no output."""
    s = Partition((NodeSet(()), NodeSet((1, 2))))
    g = Partition((NodeSet((1, 2)), NodeSet(())))
    return random_network((2, 2), (2, 2), s, g, 4)


# ---------------------------------------------------------------------------
# indices


def test_decode_indices_first_symbol_most_significant():
    # node 2 originates messages of sizes 3 (to node 1) and 2 (to node 3)
    # and hears a ternary word of two slots; its decoder cell (w, y) is 9w + y
    sizes, outs = ((1, 2, 2), (3, 1, 2), (2, 2, 1)), (2, 3, 2)
    shapes = list(simulate.table_shapes(2, sizes, (1, 1, 1), outs))
    encoders = tuple(tuple(np.zeros(shape, dtype=np.int64) for kind, i, _, shape in shapes
                           if kind == "encoder" and i == node) for node in (1, 2, 3))
    decoders = {(i, j): np.zeros(shape, dtype=np.int64)
                for kind, i, j, shape in shapes if kind == "decoder"}
    decoders[(1, 2)] = np.arange(54).reshape(6, 9)
    code = TableCode(n=2, message_sizes=sizes,
                     delay_profile=DelayProfile.of((1, 1, 1)), input_sizes=(2, 2, 2),
                     output_sizes=outs, encoder_tables=encoders, decoder_tables=decoders)
    # w_row (1, 0) has index 1 * 2 + 0, received word (2, 0) has 2 * 3 + 0
    assert code.decode(1, 2, (1, 0), (2, 0)) == 9 * 2 + 6
    messages = {(2, 1): 2, (2, 3): 1, (1, 2): 0}
    assert code.decode(1, 2, code.w_row_of(2, messages), (0, 1)) == 9 * 5 + 1


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


# Error counts per pair (``message_pairs`` order) of estimate_error for every
# bundled network x feasible profile x n in {1, 3} x 25 and 2,000 trials, code
# seed 100 n + r (r the profile's position) and run seed 7 n + r + trials.
_GOLDEN_COUNTS = {
    ('bscfb', (1, 0), 1, 25): (13, 17),
    ('bscfb', (1, 0), 1, 2000): (999, 1455),
    ('bscfb', (1, 0), 3, 25): (15, 8),
    ('bscfb', (1, 0), 3, 2000): (1049, 585),
    ('bscfb', (1, 1), 1, 25): (13, 12),
    ('bscfb', (1, 1), 1, 2000): (1039, 1022),
    ('bscfb', (1, 1), 3, 25): (5, 15),
    ('bscfb', (1, 1), 3, 2000): (647, 919),
    ('causal-relay', (1, 0, 1), 1, 25): (14, 8, 13, 8, 9, 14),
    ('causal-relay', (1, 0, 1), 1, 2000): (971, 985, 985, 988, 1015, 1003),
    ('causal-relay', (1, 0, 1), 3, 25): (9, 9, 12, 17, 11, 7),
    ('causal-relay', (1, 0, 1), 3, 2000): (1201, 984, 998, 1014, 990, 970),
    ('causal-relay', (1, 1, 1), 1, 25): (13, 16, 14, 13, 12, 16),
    ('causal-relay', (1, 1, 1), 1, 2000): (1029, 986, 991, 1007, 1004, 1010),
    ('causal-relay', (1, 1, 1), 3, 25): (9, 8, 15, 12, 12, 11),
    ('causal-relay', (1, 1, 1), 3, 2000): (912, 939, 994, 961, 989, 1025),
    ('classical-bsc', (1, 1), 1, 25): (16, 9),
    ('classical-bsc', (1, 1), 1, 2000): (990, 984),
    ('classical-bsc', (1, 1), 3, 25): (16, 10),
    ('classical-bsc', (1, 1), 3, 2000): (1168, 925),
    ('deterministic', (1, 1), 1, 25): (15, 16),
    ('deterministic', (1, 1), 1, 2000): (995, 1016),
    ('deterministic', (1, 1), 3, 25): (14, 15),
    ('deterministic', (1, 1), 3, 2000): (1015, 1075),
}

# (estimate.hex(), half_width.hex()) per pair of the same reports, in the
# same order: the report floats too stay bit for bit.
_GOLDEN_FLOATS = {
    ('bscfb', (1, 0), 1, 25): (
        ('0x1.0a3d70a3d70a4p-1', '0x1.75746ef828b87p-3'),
        ('0x1.5c28f5c28f5c3p-1', '0x1.60190277ac815p-3'),
    ),
    ('bscfb', (1, 0), 1, 2000): (
        ('0x1.ff7ced916872bp-2', '0x1.66addd292e380p-6'),
        ('0x1.747ae147ae148p-1', '0x1.3f7b1562f8c0ap-6'),
    ),
    ('bscfb', (1, 0), 3, 25): (
        ('0x1.3333333333333p-1', '0x1.6f2d9a9a39961p-3'),
        ('0x1.47ae147ae147bp-2', '0x1.60190277ac815p-3'),
    ),
    ('bscfb', (1, 0), 3, 2000): (
        ('0x1.0c8b439581062p-1', '0x1.663fd2a6ce34fp-6'),
        ('0x1.2b851eb851eb8p-2', '0x1.466632c7d0d8bp-6'),
    ),
    ('bscfb', (1, 1), 1, 25): (
        ('0x1.0a3d70a3d70a4p-1', '0x1.75746ef828b87p-3'),
        ('0x1.eb851eb851eb8p-2', '0x1.75746ef828b87p-3'),
    ),
    ('bscfb', (1, 1), 1, 2000): (
        ('0x1.09fbe76c8b439p-1', '0x1.66682fc2df024p-6'),
        ('0x1.05a1cac083127p-1', '0x1.6697ba8f59bc6p-6'),
    ),
    ('bscfb', (1, 1), 3, 25): (
        ('0x1.999999999999ap-3', '0x1.35f7f289d0121p-3'),
        ('0x1.3333333333333p-1', '0x1.6f2d9a9a39961p-3'),
    ),
    ('bscfb', (1, 1), 3, 2000): (
        ('0x1.4b4395810624ep-2', '0x1.4fa270f71d5dcp-6'),
        ('0x1.d6872b020c49cp-2', '0x1.6580c588323edp-6'),
    ),
    ('causal-relay', (1, 0, 1), 1, 25): (
        ('0x1.1eb851eb851ecp-1', '0x1.735fd755ec998p-3'),
        ('0x1.47ae147ae147bp-2', '0x1.60190277ac815p-3'),
        ('0x1.0a3d70a3d70a4p-1', '0x1.75746ef828b87p-3'),
        ('0x1.47ae147ae147bp-2', '0x1.60190277ac815p-3'),
        ('0x1.70a3d70a3d70ap-2', '0x1.68cad31e995d7p-3'),
        ('0x1.1eb851eb851ecp-1', '0x1.735fd755ec998p-3'),
    ),
    ('causal-relay', (1, 0, 1), 1, 2000): (
        ('0x1.f126e978d4fdfp-2', '0x1.66875d530e106p-6'),
        ('0x1.f851eb851eb85p-2', '0x1.66a3995787b8fp-6'),
        ('0x1.f851eb851eb85p-2', '0x1.66a3995787b8fp-6'),
        ('0x1.f9db22d0e5604p-2', '0x1.66a74f9d2a453p-6'),
        ('0x1.03d70a3d70a3dp-1', '0x1.66a3995787b8fp-6'),
        ('0x1.00c49ba5e353fp-1', '0x1.66ad7f50b3c9dp-6'),
    ),
    ('causal-relay', (1, 0, 1), 3, 25): (
        ('0x1.70a3d70a3d70ap-2', '0x1.68cad31e995d7p-3'),
        ('0x1.70a3d70a3d70ap-2', '0x1.68cad31e995d7p-3'),
        ('0x1.eb851eb851eb8p-2', '0x1.75746ef828b87p-3'),
        ('0x1.5c28f5c28f5c3p-1', '0x1.60190277ac815p-3'),
        ('0x1.c28f5c28f5c29p-2', '0x1.735fd755ec999p-3'),
        ('0x1.1eb851eb851ecp-2', '0x1.54eaf337dd3b8p-3'),
    ),
    ('causal-relay', (1, 0, 1), 3, 2000): (
        ('0x1.3374bc6a7ef9ep-1', '0x1.5f5f9180e5231p-6'),
        ('0x1.f7ced916872b0p-2', '0x1.66a22da5bbec8p-6'),
        ('0x1.fef9db22d0e56p-2', '0x1.66adb9f8032f6p-6'),
        ('0x1.0395810624dd3p-1', '0x1.66a4ed9132499p-6'),
        ('0x1.fae147ae147aep-2', '0x1.66a953cb82e0bp-6'),
        ('0x1.f0a3d70a3d70ap-2', '0x1.6684a8e9f3322p-6'),
    ),
    ('causal-relay', (1, 1, 1), 1, 25): (
        ('0x1.0a3d70a3d70a4p-1', '0x1.75746ef828b87p-3'),
        ('0x1.47ae147ae147bp-1', '0x1.68cad31e995d7p-3'),
        ('0x1.1eb851eb851ecp-1', '0x1.735fd755ec998p-3'),
        ('0x1.0a3d70a3d70a4p-1', '0x1.75746ef828b87p-3'),
        ('0x1.eb851eb851eb8p-2', '0x1.75746ef828b87p-3'),
        ('0x1.47ae147ae147bp-1', '0x1.68cad31e995d7p-3'),
    ),
    ('causal-relay', (1, 1, 1), 1, 2000): (
        ('0x1.076c8b4395810p-1', '0x1.66875d530e107p-6'),
        ('0x1.f8d4fdf3b645ap-2', '0x1.66a4ed9132499p-6'),
        ('0x1.fb645a1cac083p-2', '0x1.66aa32b014f0bp-6'),
        ('0x1.01cac083126e9p-1', '0x1.66abaa14df514p-6'),
        ('0x1.010624dd2f1aap-1', '0x1.66ad2d3334851p-6'),
        ('0x1.028f5c28f5c29p-1', '0x1.66a953cb82e0bp-6'),
    ),
    ('causal-relay', (1, 1, 1), 3, 25): (
        ('0x1.70a3d70a3d70ap-2', '0x1.68cad31e995d7p-3'),
        ('0x1.47ae147ae147bp-2', '0x1.60190277ac815p-3'),
        ('0x1.3333333333333p-1', '0x1.6f2d9a9a39961p-3'),
        ('0x1.eb851eb851eb8p-2', '0x1.75746ef828b87p-3'),
        ('0x1.eb851eb851eb8p-2', '0x1.75746ef828b87p-3'),
        ('0x1.c28f5c28f5c29p-2', '0x1.735fd755ec999p-3'),
    ),
    ('causal-relay', (1, 1, 1), 3, 2000): (
        ('0x1.d2f1a9fbe76c9p-2', '0x1.654a5e5836eb4p-6'),
        ('0x1.e0c49ba5e353fp-2', '0x1.66033e7457f53p-6'),
        ('0x1.fced916872b02p-2', '0x1.66ac4295614e0p-6'),
        ('0x1.ec083126e978dp-2', '0x1.66682fc2df024p-6'),
        ('0x1.fa5e353f7ced9p-2', '0x1.66a85d6fef706p-6'),
        ('0x1.0666666666666p-1', '0x1.66914413c2121p-6'),
    ),
    ('classical-bsc', (1, 1), 1, 25): (
        ('0x1.47ae147ae147bp-1', '0x1.68cad31e995d7p-3'),
        ('0x1.70a3d70a3d70ap-2', '0x1.68cad31e995d7p-3'),
    ),
    ('classical-bsc', (1, 1), 1, 2000): (
        ('0x1.fae147ae147aep-2', '0x1.66a953cb82e0bp-6'),
        ('0x1.f7ced916872b0p-2', '0x1.66a22da5bbec8p-6'),
    ),
    ('classical-bsc', (1, 1), 3, 25): (
        ('0x1.47ae147ae147bp-1', '0x1.68cad31e995d7p-3'),
        ('0x1.999999999999ap-2', '0x1.6f2d9a9a39961p-3'),
    ),
    ('classical-bsc', (1, 1), 3, 2000): (
        ('0x1.2b020c49ba5e3p-1', '0x1.61975d47139f5p-6'),
        ('0x1.d99999999999ap-2', '0x1.65abcafb41551p-6'),
    ),
    ('deterministic', (1, 1), 1, 25): (
        ('0x1.3333333333333p-1', '0x1.6f2d9a9a39961p-3'),
        ('0x1.47ae147ae147bp-1', '0x1.68cad31e995d7p-3'),
    ),
    ('deterministic', (1, 1), 1, 2000): (
        ('0x1.fd70a3d70a3d7p-2', '0x1.66acc39f7543ap-6'),
        ('0x1.04189374bc6a8p-1', '0x1.66a22da5bbec8p-6'),
    ),
    ('deterministic', (1, 1), 3, 25): (
        ('0x1.1eb851eb851ecp-1', '0x1.735fd755ec998p-3'),
        ('0x1.3333333333333p-1', '0x1.6f2d9a9a39961p-3'),
    ),
    ('deterministic', (1, 1), 3, 2000): (
        ('0x1.03d70a3d70a3dp-1', '0x1.66a3995787b8fp-6'),
        ('0x1.1333333333333p-1', '0x1.65abcafb41551p-6'),
    ),
}

_GOLDEN_TRACE = ("slot,node,X,Y\n1,1,1,0\n1,2,1,0\n1,3,0,0\n2,1,1,0\n2,2,1,0\n2,3,0,0\n"
                 "3,1,0,0\n3,2,0,2\n3,3,0,0\n")


def test_engine_outputs_equal_golden_literals(bundled_specs):
    # a fixed seed gives bit-for-bit the same counts and traces across
    # versions of the engine, not only the serial reference's
    counts, floats = {}, {}
    for name, spec in sorted(bundled_specs.items()):
        for r, profile in enumerate(enumerate_feasible_profiles(spec)):
            for n in (1, 3):
                code = random_table_code(spec, n, profile, seed=100 * n + r)
                for trials in (25, 2000):
                    report = estimate_error(spec, code, trials, seed=7 * n + r + trials)
                    stats = [report.pairs[p] for p in code.message_pairs()]
                    counts[(name, profile.delays, n, trials)] = tuple(s.errors for s in stats)
                    floats[(name, profile.delays, n, trials)] = tuple(
                        (s.estimate.hex(), s.half_width.hex()) for s in stats)
    assert counts == _GOLDEN_COUNTS
    assert floats == _GOLDEN_FLOATS
    spec = _mixed_alphabet_spec()
    code = random_table_code(spec, 3, DelayProfile.of((1, 0, 0)), seed=31, message_size=3)
    trace = run_trial(spec, code, seed=5, trial=17)
    assert trace.to_csv() == _GOLDEN_TRACE
    assert trace.messages == {(1, 2): 0, (1, 3): 2, (2, 1): 1, (2, 3): 0, (3, 1): 2, (3, 2): 1}
    assert trace.estimates == {(1, 2): 0, (1, 3): 1, (2, 1): 1, (2, 3): 1, (3, 1): 2, (3, 2): 1}


def test_trial_uniforms_window_invariance():
    # rows [lo, hi) of a call equal the same rows of a [0, hi) call at every
    # width, so a trial's draws never depend on the batch that holds it
    for purpose, width in itertools.product(((), (1,), (6,)), (1, 3, 4, 5, 17)):
        whole = model.trial_uniforms(11, purpose, 0, 30, width)
        assert whole.shape == (30, width)
        for lo, hi in ((0, 1), (7, 8), (5, 30), (29, 30)):
            assert np.array_equal(model.trial_uniforms(11, purpose, lo, hi, width),
                                  whole[lo:hi])
    assert not np.array_equal(model.trial_uniforms(11, (), 0, 4, 8),
                              model.trial_uniforms(11, (1,), 0, 4, 8))


def test_trial_windows_stop_before_the_counter_wraps():
    # Philox's counter wraps after 2^256 blocks; an n = 3 code of the
    # feedback pair draws 8 uniforms, two blocks, a trial, so trial 2^255
    # would replay trial 0 and 2^255 - 1 is the last trial that fits
    last = 2 ** 255 - 1
    assert not np.array_equal(model.trial_uniforms(5, (), last, last + 1, 8),
                              model.trial_uniforms(5, (), 0, 1, 8))
    with pytest.raises(DomainError, match="past the 2\\*\\*256 blocks"):
        model.trial_uniforms(5, (), last + 1, last + 2, 8)
    # one block a trial: the last trial is 2^256 - 1
    model.trial_uniforms(5, (), 2 ** 256 - 1, 2 ** 256, 4)
    with pytest.raises(DomainError, match="past the 2\\*\\*256 blocks"):
        model.trial_uniforms(5, (), 0, 2 ** 256 + 1, 4)
    spec = networks.bscfb_spec(0.11)
    code = bscfb_engine_code(3, _tiny_polar(3, 1))
    assert run_trial(spec, code, 5, last).trial == last
    with pytest.raises(DomainError, match="past the 2\\*\\*256 blocks"):
        run_trial(spec, code, 5, last + 1)


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
                plen = k - code.delay_profile.delays[i - 1]
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
    cases = [(spec, 2) for _, spec in sorted(bundled_specs.items())]
    cases += [(_mixed_alphabet_spec(), 3), (_empty_block_spec(), 2)]
    for (spec, m), n in itertools.product(cases, (1, 2, 3)):
        for r, profile in enumerate(enumerate_feasible_profiles(spec)):
            code = random_table_code(spec, n, profile, seed=10 * n + r, message_size=m)
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
            with pytest.raises(ResourceCapError, match=f"^running sum of code table cells \\d+ "
                                                       f"is above the cap of "
                                                       f"{simulate.CODE_CELL_CAP}$"):
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


def _searchsorted_columns(table, rows, u):
    """The column per trial by inverse cdf: searchsorted(side="right") of u
    in the trial's cumulative row, capped at the last column."""
    cum = np.cumsum(table, axis=1)
    return np.array([min(int(np.searchsorted(cum[r], v, side="right")), cum.shape[1] - 1)
                     for r, v in zip(rows, u)])


def _draws(table, rows, u):
    cum_t = np.ascontiguousarray(np.cumsum(table, axis=1)[:, :-1].T)
    return simulate._draw_column(cum_t, rows, u)


def test_draw_column_is_capped_searchsorted():
    table = np.array([
        [0.0, 0.5, 0.0, 0.5, 0.0],     # zero entries repeat cumulative values
        [0.2, 0.3, 0.5, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0],
        [0.1, 0.1, 0.1, 0.1, 0.6],
    ])
    tenths = np.full((1, 10), 0.1)     # its float cumsum ends below 1
    assert np.cumsum(tenths)[-1] < 1.0
    for t in (table, tenths):
        cum = np.cumsum(t, axis=1)
        for r in range(t.shape[0]):
            # every cumulative entry, its float neighbours, 0 and the largest uniform
            u = np.concatenate([cum[r], np.nextafter(cum[r], 0.0),
                                np.nextafter(cum[r], 2.0), [0.0, 1.0 - 2.0 ** -53]])
            u = u[(u >= 0.0) & (u < 1.0)]
            rows = np.full(u.shape, r)
            assert np.array_equal(_draws(t, rows, u), _searchsorted_columns(t, rows, u))
    u = np.linspace(0.0, 1.0, 101)[:-1]
    # a 1-column channel always emits column 0
    one = np.ones((3, 1))
    rows = np.arange(100) % 3
    assert np.array_equal(_draws(one, rows, u), np.zeros(100, dtype=np.int64))
    assert np.array_equal(_searchsorted_columns(one, rows, u), np.zeros(100))
    # a channel without inputs has the one row 0, a scalar that broadcasts
    single = table[4:5]
    assert np.array_equal(_draws(single, 0, u),
                          _searchsorted_columns(single, np.zeros(100, dtype=int), u))


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
    assert joint_violations(joint) == []
    m = marginalize(joint, ("W1.2", "Y2.1"))
    want = np.array([0.5 * (1 - eps), 0.5 * eps, 0.5 * eps, 0.5 * (1 - eps)])
    assert np.allclose(m.probs, want, atol=1e-12)
    # the reverse stream arrives exactly: estimate distribution == message
    mw = marginalize(joint, ("W2.1", "Y1.1"))
    assert np.allclose(mw.probs, [0.5, 0.0, 0.0, 0.5], atol=1e-15)


def test_markov_checks_pass_the_paper_groups(monkeypatch):
    # every engine code gives CMIs of about 0, so a wrong group could pass
    # unnoticed; pin the (A, B, C) columns each check asks for on bscfb,
    # n = 2, by the names of the induced joint's variables
    spec = networks.bscfb_spec(0.11)
    code = random_table_code(spec, 2, _UNIT, seed=0)
    names = induced_joint(spec, code).names
    calls = []
    monkeypatch.setattr(simulate, "_rows_cmi", lambda _c, _p, _s, _n, *groups: calls.append(
        tuple(tuple(names[col] for col in cols) for cols in groups)))
    past = {1: ("W1.2", "W2.1"),
            2: ("W1.2", "W2.1", "X1.1", "X2.1", "Y1.1", "Y2.1")}
    check_memoryless_markov(spec, code)
    # I(past; Y_{G_h} | X_{S^h}, Y_{G^{h-1}})
    assert calls == [(past[k], (f"Y{j}.{k}",), c)
                     for k in (1, 2)
                     for j, c in ((2, (f"X1.{k}",)),
                                  (1, (f"X1.{k}", f"X2.{k}", f"Y2.{k}")))]
    calls.clear()
    check_positive_delay_markov(spec, code)
    # I(past, X_{S_h}; Y_{G^{h-1}} | X_{S^{h-1}})
    assert calls == [groups for k in (1, 2) for groups in (
        (past[k] + (f"X1.{k}",), (), ()),
        (past[k] + (f"X2.{k}",), (f"Y2.{k}",), (f"X1.{k}",)))]


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
    cases = [(name, spec, n, 2) for (name, spec), n
             in itertools.product(sorted(bundled_specs.items()), (1, 2))]
    cases += [("empty-block", _empty_block_spec(), n, 2) for n in (1, 2)]
    # at n = 2 its 3^6 message tuples take the serial reference about 20 s per profile
    cases.append(("mixed-alphabet", _mixed_alphabet_spec(), 1, 3))
    for name, spec, n, m in cases:
        for r, profile in enumerate(enumerate_feasible_profiles(spec)):
            code = random_table_code(spec, n, profile, seed=20 * n + r, message_size=m)
            assert np.array_equal(induced_joint(spec, code).probs,
                                  _serial_joint(spec, code)), (name, n, profile)


def test_induced_joint_chunk_invariance(monkeypatch):
    spec = networks.bundled_spec("causal-relay")
    code = random_table_code(spec, 1, DelayProfile.of((1, 0, 1)), seed=5)
    whole = induced_joint(spec, code).probs
    for chunk in (1, 7):
        monkeypatch.setattr(simulate, "_TRIAL_CHUNK", chunk)
        assert np.array_equal(induced_joint(spec, code).probs, whole)


def _compared_with_dense(spec, code) -> int:
    """Hold the checks on `code`'s outcome rows to the oracles' same checks on
    the dense induced joint, by variable names, within 1e-14: the memoryless
    check always, the positive-delay check and ``equivalence_check`` at the
    all-one profile.  Returns how many values were compared."""
    compared = 0
    checks = [(check_memoryless_markov, "memoryless")]
    if set(code.delay_profile.delays) == {1}:
        checks.append((check_positive_delay_markov, "positive-delay"))
        assert abs(equivalence_check(spec, code) - dense_equivalence(spec, code)) <= 1e-14
        compared += 1
    for check, which in checks:
        got, want = check(spec, code), dense_step_cmis(spec, code, which)
        assert [kh for *kh, _ in got] == [kh for *kh, _ in want]
        assert all(abs(g - w) <= 1e-14 for (*_, g), (*_, w) in zip(got, want))
        compared += len(got)
    return compared


def test_checks_on_rows_equal_the_dense_reference(bundled_specs):
    cases = [(spec, n, 2) for (_, spec), n in itertools.product(sorted(bundled_specs.items()),
                                                                (1, 2))]
    cases += [(_mixed_alphabet_spec(), 1, 3)]
    cases += [(_empty_block_spec(), n, 2) for n in (1, 2)]
    compared = 0
    for spec, n, m in cases:
        for r, profile in enumerate(enumerate_feasible_profiles(spec)):
            code = random_table_code(spec, n, profile, seed=30 * n + r, message_size=m)
            compared += _compared_with_dense(spec, code)
    assert compared == 99


def _random_shapes():
    """(seed, spec) of 100 seeded networks: N in {2, 3} nodes, alpha in
    {1, 2, 3} channels, alphabets of 1 to 3 letters, partition blocks that
    may be empty.  A shape whose dense joint at n = 2 would pass 2^20 cells
    is drawn again, which keeps the dense reference to about 2 s."""
    rng = np.random.Generator(np.random.Philox(43))
    seed = 0
    while seed < 100:
        nn, alpha = int(rng.integers(2, 4)), int(rng.integers(1, 4))
        x_sizes, y_sizes = (tuple(rng.integers(1, 4, nn).tolist()) for _ in range(2))
        s, g = (Partition(tuple(NodeSet(tuple((np.flatnonzero(block == h) + 1).tolist()))
                                for h in range(alpha))) for block in rng.integers(0, alpha, (2, nn)))
        if 2 ** (nn * (nn - 1)) * (math.prod(x_sizes) * math.prod(y_sizes)) ** 2 > 2 ** 20:
            continue
        seed += 1
        yield seed, random_network(x_sizes, y_sizes, s, g, seed)


def test_checks_on_random_shapes_equal_the_dense_reference():
    # the 100 random shapes at every feasible profile, n = 1 and 2
    shapes, compared = set(), 0
    for seed, spec in _random_shapes():
        s, g = spec.input_partition, spec.output_partition
        sizes = spec.input_alphabet_sizes + spec.output_alphabet_sizes
        shapes.add((spec.n_nodes, spec.alpha, 1 in sizes, not all(s.blocks + g.blocks)))
        for n, profile in itertools.product((1, 2), enumerate_feasible_profiles(spec)):
            compared += _compared_with_dense(spec, random_table_code(spec, n, profile, seed=seed))
    # every (N, alpha) came with a one-letter alphabet and, where alpha > 1, an empty block
    assert shapes >= {(nn, alpha, True, alpha > 1) for nn in (2, 3) for alpha in (1, 2, 3)}
    assert compared == 2039


def test_each_slot_numbers_its_past_once(monkeypatch):
    # bscfb at n = 2: the memoryless check's A is the past alone, numbered
    # once per slot; the positive-delay check's first channel has no B and
    # its second an A of its own.  No CMI builds a JointPmf: cmi_table reads
    # the (|A|, |B|, |C|) table the rows sum into
    spec = networks.bscfb_spec(0.11)
    code = random_table_code(spec, 2, _UNIT, seed=0)
    numbered, joints = [], []
    number, post_init = simulate._numbered, JointPmf.__post_init__
    monkeypatch.setattr(simulate, "_numbered", lambda key: numbered.append(1) or number(key))
    monkeypatch.setattr(JointPmf, "__post_init__",
                        lambda self: joints.append(1) or post_init(self))
    check_memoryless_markov(spec, code)
    assert (len(numbered), len(joints)) == (2, 0)
    numbered.clear()
    check_positive_delay_markov(spec, code)
    assert len(numbered) == 2


def test_equivalence_check_equals_the_two_network_route_bit_for_bit(bundled_specs):
    # one enumeration, the composed probability read off the stepwise rows,
    # gives the very floats of enumerating the spec and its all-delayed
    # network apart: every bundled spec at n = 1, 2, 3 and seeds 0-2, the two
    # hand-built shapes and the 100 random shapes, at the all-one profile
    cases = [(spec, n, seed, 2) for (_, spec), n, seed
             in itertools.product(sorted(bundled_specs.items()), (1, 2, 3), range(3))]
    cases += [(_mixed_alphabet_spec(), n, 0, 3) for n in (1, 2)]
    cases += [(_empty_block_spec(), n, 0, 2) for n in (1, 2, 3)]
    cases += [(spec, n, seed, 2) for seed, spec in _random_shapes() for n in (1, 2)]
    nonzero = 0
    for spec, n, seed, m in cases:
        profile = DelayProfile.of((1,) * spec.n_nodes)
        code = random_table_code(spec, n, profile, seed=seed, message_size=m)
        got = equivalence_check(spec, code)
        assert got.hex() == two_network_equivalence(spec, code).hex(), (spec, n, seed)
        nonzero += got > 0.0
    assert len(cases) == 241 and nonzero > 20  # rounding leaves many codes off 0


def _repeated_rows_spec(row1, row2):
    """bscfb's shape with ternary outputs: channel 1 emits Y2 by `row1` and
    channel 2 emits Y1 by `row2`, whatever their inputs."""
    s, g = Partition((NodeSet((1,)), NodeSet((2,)))), Partition((NodeSet((2,)), NodeSet((1,))))
    return NetworkSpec(2, (2, 2), (3, 3), 2, s, g,
                       (ChannelTable(("X1",), ("Y2",), np.tile(row1, (2, 1))),
                        ChannelTable(("X1", "X2", "Y2"), ("Y1",), np.tile(row2, (12, 1)))))


def test_equivalence_check_runs_one_enumeration_and_builds_no_network(monkeypatch):
    spec = networks.bscfb_spec(0.11)
    code = random_table_code(spec, 2, _UNIT, seed=0)
    want = two_network_equivalence(spec, code)
    outcomes, specs = [], []
    enumerate_rows, post_init = simulate._outcomes, NetworkSpec.__post_init__
    monkeypatch.setattr(simulate, "_outcomes",
                        lambda *a, **k: outcomes.append(1) or enumerate_rows(*a, **k))
    monkeypatch.setattr(NetworkSpec, "__post_init__",
                        lambda self: specs.append(1) or post_init(self))
    assert equivalence_check(spec, code).hex() == want.hex()
    assert (len(outcomes), len(specs)) == (1, 0)
    monkeypatch.undo()
    # at n = 2 and p_w = 1/4 the stepwise product (((p_w a1) b1) a2) b2 and
    # the composed one (p_w (a1 b1)) (a2 b2) of the outcome Y2, Y1 = 0, 0 in
    # slot 1 and 1, 1 in slot 2 round to the least subnormal on one side
    # and to 0 on the other (for every message tuple); such a row counts
    for (a1, b1, a2, b2), stepwise_zero in (
            ((4.442498986730774e-154, 2.5155069666139474e-169, 0.1875214984536322,
              0.4994614262902606), True),
            ((2.909703720613192e-152, 6.06358842981868e-171, 0.7238961149745979,
              0.07248979232045427), False)):
        spec = _repeated_rows_spec([a1, a2, 1.0 - a1 - a2], [b1, b2, 1.0 - b1 - b2])
        code = random_table_code(spec, 2, _UNIT, seed=0)
        _, prob, merged = simulate._outcomes(spec, code, composed=True)
        lone = (prob == 0.0) & (merged > 0.0) if stepwise_zero else (prob > 0.0) & (merged == 0.0)
        assert lone.any() and np.all(np.maximum(prob, merged)[lone] == 5e-324)
        assert not ((prob == 0.0) & (merged == 0.0)).any()
        got = equivalence_check(spec, code)
        assert got > 0.0 and got.hex() == two_network_equivalence(spec, code).hex()


def test_equivalence_check_takes_a_spec_whose_product_strays_past_the_row_tolerance():
    # each channel row sums to 1 + 9e-10, within ROW_TOL, so the spec is
    # valid; the product's rows sum to about 1 + 1.8e-9, so the all-delayed
    # network built from it is not, and the check builds none to refuse
    spec = _repeated_rows_spec([0.5 + 9e-10, 0.5, 0.0], [0.5 + 9e-10, 0.5, 0.0])
    assert spec.validation.ok and not all_delayed_network(spec).validation.ok
    code = random_table_code(spec, 2, _UNIT, seed=0)
    assert equivalence_check(spec, code) <= 1e-9


def test_memoryless_check_reaches_the_relay_at_five_slots():
    # 6.7e7 dense cells, above JOINT_CAP, but 65,536 outcomes
    spec = networks.causal_relay_spec()
    code = random_table_code(spec, 5, DelayProfile.of((1, 0, 1)), seed=3)
    assert math.prod(simulate._row_sizes(spec, code)) > simulate.JOINT_CAP
    values = check_memoryless_markov(spec, code)
    assert len(values) == 5 * spec.alpha and all(v <= 1e-9 for *_, v in values)


def test_outcome_cap_refuses_before_the_slot_loop(monkeypatch):
    spec = networks.bscfb_spec(0.11)
    code = random_table_code(spec, 2, _UNIT, seed=0)
    slots = []
    run = simulate._slots
    monkeypatch.setattr(simulate, "_slots", lambda *a: slots.append(1) or run(*a))
    monkeypatch.setattr(simulate, "OUTCOME_CAP", 10)
    # 2 * 2 message tuples times (2 * 2)^2 channel columns, 2 + 2 * 2 * 2 symbols each
    with pytest.raises(ResourceCapError,
                       match="^outcome row cell count 640 is above the cap of 10$"):
        check_memoryless_markov(spec, code)
    assert slots == []


def test_packed_key_past_int64_is_refused():
    cells = np.zeros((3, 2), dtype=np.int64)
    sizes = [2 ** 32, 2 ** 31]  # 2^63 values: one more than an int64 key reaches
    with pytest.raises(ValueError):  # the bare error the guard stands in front of
        np.ravel_multi_index(cells.T, sizes)
    with pytest.raises(ResourceCapError, match="^packed key range an integer of 64 bits is "
                                               "above the cap of 9223372036854775807$"):
        simulate._packed(cells, [0, 1], sizes)
    assert simulate._packed(cells, [0, 1], [2 ** 32, 2 ** 31 - 1]).tolist() == [0, 0, 0]
    assert simulate._packed(cells, [], sizes).tolist() == [0, 0, 0]


def test_induced_joint_resource_cap(monkeypatch):
    spec = networks.bscfb_spec(0.11)
    code = random_table_code(spec, 2, _UNIT, seed=0)
    monkeypatch.setattr(simulate, "JOINT_CAP", 10)
    with pytest.raises(ResourceCapError,
                       match="^induced joint cell count 1024 is above the cap of 10$"):
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
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    with pytest.raises(SpecIOError, match="top-level value is not an object"):
        load_code(listed)
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
    with pytest.raises(DomainError):  # symbol outside the input alphabet
        dataclasses.replace(good, encoder_tables=((seven,), good.encoder_tables[1]))
    # every table is checked when the code is built, before any engine call
    good = random_table_code(networks.bundled_spec("causal-relay"), 2,
                             DelayProfile.of((1, 0, 1)), seed=0)
    enc, dec = good.encoder_tables, good.decoder_tables
    edits = {
        "blocklength must be >= 1": dict(n=0),
        "one delay bit, two alphabet sizes": dict(delay_profile=DelayProfile.of((1, 0))),
        "two alphabet sizes": dict(output_sizes=(2, 2)),
        "alphabet sizes >= 1": dict(input_sizes=(2, 0, 1)),
        "2 encoder tables, one per slot": dict(encoder_tables=(enc[0], enc[1][:1], enc[2])),
        r"encoder table of node 3, slot 2 has shape \(4, 1\), expected \(4, 2\)":
            dict(encoder_tables=(enc[0], enc[1], (enc[2][0], enc[2][1][:, :1]))),
        "has symbol -1 outside its alphabet":
            dict(encoder_tables=((enc[0][0] - 1, enc[0][1]), enc[1], enc[2])),
        r"no decoder table for message 2->3": dict(decoder_tables={
            p: t for p, t in dec.items() if p != (2, 3)}),
        r"decoder table of message 1->2 has shape \(3, 4\), expected \(4, 4\)":
            dict(decoder_tables={**dec, (1, 2): dec[(1, 2)][:3]}),
        r"of 2->1 must be in 1..2\*\*53":
            dict(message_sizes=((1, 2, 2), (2 ** 60, 1, 2), (2, 2, 1))),
    }
    for why, edit in edits.items():
        with pytest.raises(DomainError, match=why):
            dataclasses.replace(good, **edit)


def test_a_table_of_non_integers_is_refused_not_truncated():
    # an encoder table of 1.9s on the identity network (|X| = 2) passed the
    # symbol check and was read as 1s
    spec = networks.deterministic_two_node_spec()
    code = random_table_code(spec, 1, _UNIT, seed=0)
    enc, dec = code.encoder_tables, code.decoder_tables
    for value in (1.9, 1.0, True):
        table = np.full(enc[0][0].shape, value)
        with pytest.raises(DomainError, match="^encoder table of node 1, slot 1 must hold "
                                              f"integers, got {table.dtype} entries$"):
            dataclasses.replace(code, encoder_tables=((table,), enc[1]))
        table = np.full(dec[(2, 1)].shape, value)
        with pytest.raises(DomainError, match="^decoder table of message 2->1 must hold "
                                              f"integers, got {table.dtype} entries$"):
            dataclasses.replace(code, decoder_tables={**dec, (2, 1): table})
    # integers of any width, and nested lists of them, are integers
    narrow = dataclasses.replace(code, encoder_tables=(
        (enc[0][0].astype(np.uint8),), (enc[1][0].tolist(),)))
    assert all(np.array_equal(a, b) and a.dtype == np.int64
               for a, b in zip(sum(narrow.encoder_tables, ()), sum(enc, ())))


def test_delay_bits_outside_zero_and_one_are_refused():
    for bits in ((2, 1), (1, 3)):
        with pytest.raises(DomainError, match="delay bits must be 0 or 1"):
            DelayProfile.of(bits)
    with pytest.raises(DomainError, match="^delay bit must be >= 0, got -1$"):
        DelayProfile.of((-1, 1))
    # with node 1's tables sized for b_1 = -1, only the delay bit is wrong
    spec = networks.bscfb_spec(0.11)
    d = code_to_dict(random_table_code(spec, 2, _UNIT, seed=0))
    d["delay_profile"] = [-1, 1]
    d["encoders"][0]["tables"] = [[[0] * 2 ** (k + 1)] * 2 for k in (1, 2)]
    with pytest.raises(DomainError, match="^delay bit must be >= 0, got -1$"):
        code_from_dict(d)


def test_table_shapes_draw_order_and_hand_counts():
    # random_table_code draws its tables in table_shapes order
    spec = networks.bundled_spec("causal-relay")
    profile = DelayProfile.of((1, 0, 1))
    code = random_table_code(spec, 2, profile, seed=5, message_size=3)
    drawn = [(("encoder", i, k), t.shape) for i, tables in enumerate(code.encoder_tables, 1)
             for k, t in enumerate(tables, 1)]
    drawn += [(("decoder",) + p, t.shape) for p, t in code.decoder_tables.items()]
    listed = [((kind, i, j), shape) for kind, i, j, shape in simulate.table_shapes(
        2, code.message_sizes, profile.delays, code.output_sizes)]
    assert listed == drawn
    # the engine form of the scheme: node 1 and node 2 encoders, then both decoders
    for n in range(1, 7):
        for k in range(1, n + 1):
            shapes = simulate.table_shapes(n, ((1, 2 ** k), (2 ** n, 1)), (1, 0), (2, 2))
            assert sum(math.prod(s) for *_, s in shapes) == (
                2 ** k * (2 ** n - 1) + 2 ** n * (2 ** (n + 1) - 2) + 4 ** n + 2 ** k * 2 ** n)


def test_uniform_cap_is_checked_before_any_draw(monkeypatch):
    spec = networks.bscfb_spec(0.11)
    code = random_table_code(spec, 2, _UNIT, seed=0)
    with pytest.raises(ResourceCapError, match=f"^trials x uniforms per trial 6000000000000 "
                                               f"is above the cap of {simulate.UNIFORM_CAP}$"):
        estimate_error(spec, code, trials=10 ** 12, seed=0)

    def no_code(*args):
        raise AssertionError("the polar code was built before the cap was checked")
    monkeypatch.setattr(simulate, "PolarCode", no_code)
    with pytest.raises(ResourceCapError, match=f"^trials x uniforms per trial 144000000000000 "
                                               f"is above the cap of {simulate.UNIFORM_CAP}$"):
        bscfb_scheme(0.11, 64, 0.25, seed=0, trials=10 ** 12)


def test_unreachable_out_of_range_encoder_symbol_rejected():
    # identity network, n=2: node 1 always sends 0 in slot 1, so it never
    # hears 1 before slot 2; that slot-2 entry holds the out-of-range 7, and
    # the code is refused when it is built, before any engine call
    spec = networks.bundled_spec("deterministic")
    code = random_table_code(spec, 2, _UNIT, seed=0)
    first, second = code.encoder_tables[0]
    second = second.copy()
    second[:, 1] = 7
    tables = ((np.zeros_like(first), second), code.encoder_tables[1])
    with pytest.raises(DomainError, match="node 1, slot 2 has symbol 7"):
        dataclasses.replace(code, encoder_tables=tables)


def test_a_checked_code_cannot_be_written():
    # a -1 written into a checked encoder once read the channel's last row:
    # P_1->2 became 1016/2000, with no error
    spec = networks.classical_bsc_spec(0.11)
    code = random_table_code(spec, 2, _UNIT, seed=3)
    for table in (*code.encoder_tables[0], *code.decoder_tables.values()):
        assert table.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            table[...] = -1
        with pytest.raises(ValueError):  # its base is read-only, so the view stays so
            table.setflags(write=True)
    with pytest.raises(TypeError):
        code.decoder_tables[(1, 2)] = np.zeros((1, 4), dtype=np.int64)
    assert str(estimate_error(spec, code, 2000, 1)).startswith("P_1->2: 356/2000")
    # the caller's dict and arrays stay its own
    decoders = dict(code.decoder_tables)
    mine = decoders[(1, 2)].copy()
    decoders[(1, 2)] = mine
    copy = dataclasses.replace(code, decoder_tables=decoders)
    mine[...] = 0
    del decoders[(1, 2)]
    assert np.array_equal(copy.decoder_tables[(1, 2)], code.decoder_tables[(1, 2)])


def test_negative_seed_is_a_domain_error():
    spec = networks.bscfb_spec(0.11)
    code = random_table_code(spec, 1, _UNIT, seed=0)
    calls = (lambda: estimate_error(spec, code, trials=3, seed=-1),
             lambda: run_trial(spec, code, seed=-1),
             lambda: random_table_code(spec, 1, _UNIT, seed=-1),
             lambda: bscfb_scheme(0.11, 8, 0.25, seed=-1, trials=3))
    for call in calls:
        with pytest.raises(DomainError, match="seed must be >= 0"):
            call()


def test_engine_arguments_must_be_integers():
    # a bool reads as 0 or 1 and a float ends in a bare TypeError further
    # down; each is refused up front
    spec = networks.bscfb_spec(0.11)
    code = random_table_code(spec, 1, _UNIT, seed=0)
    calls = [
        ("trials must be an integer, got True", lambda: estimate_error(spec, code, True, 5)),
        ("trials must be an integer, got 2.5", lambda: estimate_error(spec, code, 2.5, 5)),
        ("seed must be an integer, got True", lambda: estimate_error(spec, code, 3, True)),
        ("seed must be an integer, got 2.5", lambda: estimate_error(spec, code, 3, 2.5)),
        ("trial must be an integer, got 1.5", lambda: run_trial(spec, code, seed=0, trial=1.5)),
        ("seed must be an integer, got False", lambda: run_trial(spec, code, seed=False)),
        ("message size must be an integer, got True",
         lambda: random_table_code(spec, 1, _UNIT, seed=0, message_size=True)),
        ("blocklength must be an integer, got 2.0",
         lambda: random_table_code(spec, 2.0, _UNIT, 0)),
        ("seed must be an integer, got True", lambda: random_table_code(spec, 1, _UNIT, True)),
        ("n must be an integer, got 64.0", lambda: bscfb_scheme(0.11, 64.0, 0.25, seed=0)),
        ("trials must be an integer, got 2.5", lambda: bscfb_scheme(0.11, 64, 0.25, 0, 2.5)),
    ]
    # a code built directly is held to the same rule (2.7 read as 2 before)
    calls += [("message size must be an integer, got 2.7",
               lambda: dataclasses.replace(code, message_sizes=((1, 2.7), (2, 1)))),
              ("message size must be an integer, got True",
               lambda: dataclasses.replace(code, message_sizes=((1, True), (2, 1)))),
              ("blocklength must be an integer, got 1.0",
               lambda: dataclasses.replace(code, n=1.0))]
    for why, call in calls:
        with pytest.raises(DomainError, match=why):
            call()
    # numpy integers are integers
    report = estimate_error(spec, code, np.int64(3), np.uint32(5))
    assert report == estimate_error(spec, code, 3, 5)


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


def test_bscfb_region_closed_form():
    r0 = bscfb_capacity_region(0.0)
    assert (r0.forward_cap, r0.reverse_cap) == (1.0, 1.0)
    r5 = bscfb_capacity_region(0.5)
    assert (r5.forward_cap, r5.reverse_cap) == (0.0, 1.0)
    r = bscfb_capacity_region(0.11)
    assert abs(r.forward_cap - (1.0 - binary_entropy(0.11))) < 1e-15
    assert r.reverse_cap == 1.0
    with pytest.raises(DomainError):
        bscfb_capacity_region(-0.2)
    # the scheme refuses a forward rate at the region's forward cap
    with pytest.raises(DomainError, match=f"forward capacity {r.forward_cap:.6f}"):
        bscfb_scheme(0.11, 8, r.forward_cap, seed=0)


def test_bscfb_region_refuses_a_non_real_eps():
    for eps in ("x", None, 0.11j, True):
        with pytest.raises(DomainError, match="^eps must be a real number"):
            bscfb_capacity_region(eps)


def test_scheme_trial_windows_leave_counts_unchanged(monkeypatch):
    # trials run in windows of _TRIAL_CHUNK; each trial has its own stream
    whole = bscfb_scheme(0.11, 64, 0.25, seed=3, trials=30)
    monkeypatch.setattr(simulate, "_TRIAL_CHUNK", 7)
    windowed = bscfb_scheme(0.11, 64, 0.25, seed=3, trials=30)
    assert windowed == whole


def test_scheme_reverse_always_exact_forward_reasonable():
    res = bscfb_scheme(0.11, 64, 0.25, seed=3, trials=50)
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


def test_scheme_refuses_non_real_parameters():
    for eps, rate, what in (("0.11", 0.25, "eps"), (None, 0.25, "eps"), (0.11j, 0.25, "eps"),
                            (True, 0.25, "eps"), (0.11, "0.25", "forward rate"),
                            (0.11, None, "forward rate"), (0.11, 0.25j, "forward rate"),
                            (0.11, True, "forward rate")):
        with pytest.raises(DomainError, match=f"^{what} must be a real number"):
            bscfb_scheme(eps, 64, rate, seed=0, trials=2)
    got = bscfb_scheme(np.float64(0.11), 64, np.float32(0.25), seed=0, trials=2)
    assert got == bscfb_scheme(0.11, 64, 0.25, seed=0, trials=2)


def test_scheme_refuses_a_rate_below_one_bit_per_block(monkeypatch):
    # 0.005 is below the forward capacity 1 - H(0.45) = 0.0072, but one bit in
    # 17 slots would send at 0.0588; the refusal comes before the code is built
    monkeypatch.setattr(simulate, "PolarCode", None)
    with pytest.raises(DomainError, match="carries no message bit in a block of n = 17"):
        bscfb_scheme(0.45, 17, 0.005, seed=0)
    with pytest.raises(DomainError, match="carries no message bit"):
        bscfb_scheme(0.11, 20, 0.0499, seed=0)
    monkeypatch.undo()
    res = bscfb_scheme(0.11, 20, 0.05, seed=0, trials=2)  # rate * n = 1
    assert res.forward_bits == 1 and res.achieved_rates == (0.05, 1.0)


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
    # a count outside 0..trials is refused, not a math domain error
    with pytest.raises(DomainError, match=r"^errors must be in 0\.\.3, got 5$"):
        wilson_half_width(5, 3)
    with pytest.raises(DomainError, match="^errors must be >= 0, got -1$"):
        wilson_half_width(-1, 3)


def test_wilson_half_width_of_an_array_is_each_counts_bit_for_bit():
    # the engine's and the scheme's reports take every pair's half-width from
    # one array call; a single count goes through the same formula
    for trials in (1, 2, 3, 25, 2000, 2 ** 20):
        # a half-width is finite and positive, so == between two is bit equality
        halves = wilson_half_width(np.arange(trials + 1), trials)
        assert halves == [wilson_half_width(e, trials) for e in range(trials + 1)]
        assert min(halves) > 0.0
    big = 2 ** 53
    counts = [0, 1, big // 3, big]
    halves = wilson_half_width(np.array(counts), big)
    assert [h.hex() for h in halves] == [wilson_half_width(e, big).hex() for e in counts]
    assert wilson_half_width(np.zeros(0, dtype=np.int64), 5) == []


def test_wilson_half_width_refuses_every_malformed_count():
    refusals = [
        ("^errors must be in 0..3, got 4$", lambda: wilson_half_width(np.array([0, 4, 2]), 3)),
        ("^errors must be in 0..3, got -1$", lambda: wilson_half_width(np.array([2, -1, 9]), 3)),
        ("^errors must be integers, got float64 entries$",
         lambda: wilson_half_width(np.array([1.0]), 3)),
        ("^errors must be integers, got bool entries$",
         lambda: wilson_half_width(np.array([True]), 3)),
        ("^trials must be >= 1, got 0$", lambda: wilson_half_width(np.array([0]), 0)),
        ("^trials must be an integer, got 2.0$", lambda: wilson_half_width(np.array([0]), 2.0)),
        ("^errors must be an integer, got 1.0$", lambda: wilson_half_width(1.0, 3)),
        ("^errors must be an integer, got True$", lambda: wilson_half_width(True, 3)),
        ("^errors must be an integer, got", lambda: wilson_half_width([1, 2], 3)),
    ]
    for why, call in refusals:
        with pytest.raises(DomainError, match=why):
            call()


# ---------------------------------------------------------------------------
# what a spec and a code derive once, when they are built


def test_an_engine_call_derives_nothing_its_spec_fixed(monkeypatch):
    # the draw tables and the step plan are a built spec's; no engine call
    # forms them again
    spec = networks.bundled_spec("causal-relay")
    code = random_table_code(spec, 2, DelayProfile.of((1, 0, 1)), seed=4)
    unit_code = random_table_code(spec, 1, DelayProfile.of((1, 1, 1)), seed=2)
    calls = []
    cumsum, step_plan = np.cumsum, model.step_plan
    monkeypatch.setattr(np, "cumsum", lambda *a, **k: calls.append("cumsum") or cumsum(*a, **k))
    monkeypatch.setattr(model, "step_plan",
                        lambda *a: calls.append("step_plan") or step_plan(*a))
    estimate_error(spec, code, 40, seed=8)
    run_trial(spec, code, seed=8, trial=3)
    induced_joint(spec, code)
    check_memoryless_markov(spec, code)
    check_positive_delay_markov(spec, unit_code)
    assert calls == []
    dataclasses.replace(spec, channels=spec.channels)  # the spies do count
    assert "step_plan" in calls and "cumsum" in calls


def test_a_codes_pairs_are_its_message_pairs():
    sizes = ((1, 3, 1), (2, 1, 5), (1, 1, 1))
    shapes = list(simulate.table_shapes(1, sizes, (1, 1, 1), (2, 2, 2)))
    code = TableCode(n=1, message_sizes=sizes, delay_profile=DelayProfile.of((1, 1, 1)),
                     input_sizes=(2, 2, 2), output_sizes=(2, 2, 2),
                     encoder_tables=tuple(tuple(np.zeros(shape, dtype=np.int64)
                                                for kind, i, _, shape in shapes
                                                if kind == "encoder" and i == node)
                                          for node in (1, 2, 3)),
                     decoder_tables={(i, j): np.zeros(shape, dtype=np.int64)
                                     for kind, i, j, shape in shapes if kind == "decoder"})
    assert code.pairs == ((1, 2), (2, 1), (2, 3)) and code.message_pairs() == list(code.pairs)
    assert code.pair_sizes.dtype == np.float64 and code.pair_sizes.tolist() == [3, 2, 5]
    with pytest.raises(ValueError):
        code.pair_sizes.setflags(write=True)
    # replace derives them afresh (node 2's messages swap sizes, so every
    # table keeps its shape)
    swapped = dataclasses.replace(code, message_sizes=((1, 3, 1), (5, 1, 2), (1, 1, 1)))
    assert swapped.pairs == code.pairs and swapped.pair_sizes.tolist() == [3, 5, 2]
