"""Network descriptions, delay-profile feasibility, and spec file I/O."""

import dataclasses
import itertools
import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zdmn import model, networks, probability, simulate
from zdmn._grid import GridProblem
from zdmn.bounds import RateTuple, grid_hull
from zdmn.errors import DomainError, ResourceCapError, SpecIOError
from zdmn.gaussian import GaussianRelayConfig, simulate_relay
from zdmn.model import (
    ChannelTable,
    DelayProfile,
    NetworkSpec,
    NodeSet,
    Partition,
    enumerate_feasible_profiles,
    is_feasible,
    load_spec,
    save_spec,
    validate_spec,
)
from zdmn.probability import JointPmf
from zdmn.simulate import random_table_code, save_code


def test_nodeset_basics():
    s = NodeSet((1, 3))
    assert 1 in s and 2 not in s and len(s) == 2
    assert s.bitmask(4) == "1010"
    assert NodeSet((1, 2)).strictly_increasing()
    assert not NodeSet((2, 2)).strictly_increasing()


def test_node_sets_and_partitions_hold_tuples():
    # a list would leave them unhashable, unequal to their tuple twins, and
    # open to appends from outside a frozen spec
    members = [1, 2]
    s = NodeSet(members)
    members.append(3)
    assert s.members == (1, 2) and s == NodeSet((1, 2)) and hash(s) == hash(NodeSet((1, 2)))
    blocks = [NodeSet([2]), NodeSet([1, 3])]
    p = Partition(blocks)
    blocks.pop()
    twin = Partition((NodeSet((2,)), NodeSet((1, 3))))
    assert p.blocks == twin.blocks and p == twin and hash(p) == hash(twin)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.members = (1,)
    with pytest.raises(AttributeError):
        p.blocks.append(NodeSet((4,)))


def test_partition_prefix_unions():
    p = Partition((NodeSet((2,)), NodeSet((1, 3))))
    assert p.alpha == 2
    # the step plan's running unions: (S_h, S^h, G^{h-1}, G_h) per channel
    g = Partition((NodeSet((1, 3)), NodeSet((2,))))
    assert list(model.step_plan(p, g)) == [((2,), (2,), (), (1, 3)),
                                           ((1, 3), (1, 2, 3), (1, 3), (2,))]
    spec = NetworkSpec(3, (2, 2, 2), (2, 2, 2), 2, p, g, (
        ChannelTable(("X2",), ("Y1", "Y3"), np.full((2, 4), 0.25)),
        ChannelTable(("X1", "X2", "X3", "Y1", "Y3"), ("Y2",), np.full((32, 2), 0.5))))
    assert validate_spec(spec).ok
    assert spec.channel_input_vars(2) == ("X1", "X2", "X3", "Y1", "Y3")
    assert spec.channel_output_vars(1) == ("Y1", "Y3")
    # a partition with fewer blocks counts its missing ones as empty
    short = Partition((NodeSet((1, 2, 3)),))
    assert list(model.step_plan(p, short))[1] == ((1, 3), (1, 2, 3), (1, 2, 3), ())
    assert p.block_index_of(3) == 2
    with pytest.raises(DomainError):
        p.block_index_of(4)


def test_delay_profile_accessors():
    p = DelayProfile.of((1, 0))
    assert tuple(p) == (1, 0)
    assert DelayProfile.of((1,) * 3).delays == (1, 1, 1)


def test_channel_table_stochasticity_reporting():
    good = ChannelTable(("X1",), ("Y2",), np.array([[0.3, 0.7], [0.5, 0.5]]))
    assert good.stochasticity_violations() == []
    bad = ChannelTable(("X1",), ("Y2",), np.array([[0.3, 0.6], [1.2, -0.2]]))
    msgs = "\n".join(bad.stochasticity_violations("ch"))
    assert "outside [0, 1]" in msgs and "row 0" in msgs
    # an entry above 1 in a row whose sum is within tolerance of 1 is still
    # outside [0, 1]
    over = ChannelTable(("X1",), ("Y2",), np.array([[1.0 + 5e-10, 0.0], [0.5, 0.5]]))
    assert over.stochasticity_violations("ch") == ["ch: entries outside [0, 1]"]
    for rows in ([[np.nan, 1.0]], [[np.inf, 0.0]], [[-0.0, 1.0]], [[0.1] * 10]):
        table = ChannelTable(("X1",), ("Y2",), np.array(rows))
        with np.errstate(invalid="ignore"):
            t = table.table
            want = bool(np.isfinite(t).all() and (t >= 0).all() and (t <= 1).all()
                        and (np.abs(t.sum(axis=1) - 1) <= model.ROW_TOL).all())
        assert (table.stochasticity_violations() == []) == want, rows


def test_channel_table_reports_non_finite_entries():
    # every comparison with NaN is false, so range and row-sum checks miss it
    for value in (math.nan, math.inf):
        table = np.array([[0.3, 0.7], [value, 0.5]])
        msgs = ChannelTable(("X1",), ("Y2",), table).stochasticity_violations("ch")
        assert "ch: 1 non-finite entries" in msgs


_ROW = "ch: row {} sums to {} (not 1 within 1e-09)"


@pytest.mark.parametrize("rows,want", [
    ([[0.3, 0.7], [0.5, 0.5]], []),
    ([[-0.0, 1.0]], []),                                  # -0.0 is not below 0
    ([[0.5, 0.5 + 5e-10]], []),                           # within ROW_TOL
    ([[0.3, 0.7], [math.nan, 0.5]], ["ch: 1 non-finite entries"]),
    ([[0.3, 0.7], [math.inf, 0.5]], ["ch: 1 non-finite entries",
                                     "ch: entries outside [0, 1]", _ROW.format(1, "inf")]),
    ([[math.inf, -math.inf], [0.5, 0.5]], ["ch: 2 non-finite entries",
                                           "ch: entries outside [0, 1]"]),
    ([[0.3, 0.6], [1.2, -0.2]], ["ch: entries outside [0, 1]",
                                 _ROW.format(0, "0.900000000")]),
    ([[1.0 + 5e-10, 0.0]], ["ch: entries outside [0, 1]"]),  # row within ROW_TOL
    ([[0.5, 0.5 + 2e-9]], [_ROW.format(0, "1.000000002")]),
    ([[0.2, 0.2]] * 10, [_ROW.format(r, "0.400000000") for r in range(8)]
     + ["ch: 2 further non-stochastic rows"]),
])
def test_stochasticity_messages_per_kind_of_violation(rows, want):
    assert ChannelTable(("X1",), ("Y2",), np.array(rows)).stochasticity_violations("ch") == want


@pytest.mark.parametrize("table,got", [
    (np.array([[0.5 + 0j, 0.5]]), "complex128"),  # lost its imaginary part, with a warning
    ([[0.5j, 1.0]], "complex"),                    # a bare TypeError
    ([["0.5", 0.5]], "str"),                       # read as 0.5
    ([[None, 1.0]], "NoneType"),                   # read as NaN
    ([[True, 0.0]], "bool"),                       # read as 1.0
    (np.array([[True, False]]), "bool"),
])
def test_channel_table_refuses_entries_that_are_not_real(table, got):
    with pytest.raises(DomainError, match=rf"^table of channel \('X1',\) -> \('Y2',\) must "
                                          rf"hold real numbers, got {got} entries$"):
        ChannelTable(("X1",), ("Y2",), table)


def test_channel_table_copies_the_callers_array():
    a = np.array([[0.3, 0.7], [0.5, 0.5]])
    c = ChannelTable(("X1",), ("Y2",), a)
    assert c.table is not a and a.flags.writeable and not c.table.flags.writeable
    a[0, 0] = 5.0  # a later write to the caller's array does not reach the channel
    assert c.table[0, 0] == 0.3 and c.stochasticity_violations() == []


def _table_holders():
    """(holder, table name, integer table?, good table, build): `build` hands
    a table to the holder and returns the array the holder keeps."""
    code = random_table_code(networks.deterministic_two_node_spec(), 1,
                             DelayProfile.of((1, 1)), seed=0)
    enc, dec = code.encoder_tables, code.decoder_tables
    relay = GaussianRelayConfig(P=5.0, n=2)
    return [
        ("ChannelTable", "table of channel ('X1',) -> ('Y2',)", False,
         np.array([[0.5, 0.5], [0.25, 0.75]]), lambda t: ChannelTable(("X1",), ("Y2",), t).table),
        ("JointPmf", "joint pmf over ('A', 'B')", False, np.full(4, 0.25),
         lambda t: JointPmf((("A", 2), ("B", 2)), t).probs),
        ("RateTuple", "rate tuple", False, np.array([[0.0, 0.5], [0.25, 0.0]]),
         lambda t: RateTuple(t).rates),
        ("encoder", "encoder table of node 1, slot 1", True, np.array(enc[0][0]),
         lambda t: dataclasses.replace(code, encoder_tables=((t,), enc[1])).encoder_tables[0][0]),
        ("decoder", "decoder table of message 2->1", True, np.array(dec[(2, 1)]),
         lambda t: dataclasses.replace(code, decoder_tables={**dec, (2, 1): t}).decoder_tables[
             (2, 1)]),
        ("simulate_relay", "source sequence", False, np.array([0.5, -0.5]),
         lambda t: simulate_relay(relay, t).x1),
    ]


@pytest.mark.parametrize("holder", _table_holders(), ids=lambda h: h[0])
def test_every_table_holder_refuses_bad_entries_and_keeps_its_own_copy(holder):
    # True read as 1, "0.5" as 0.5 and [[True], [0]] as an int table; 10**400
    # ended in a bare OverflowError; RateTuple froze the caller's array and
    # JointPmf aliased it
    _, what, integer, good, build = holder
    bad = [True, [[True], [0]], "0.5", 1j, None, [[1, 2], [3]], 10 ** 400]
    for entry in bad + [2 ** 70] * integer:
        with pytest.raises(DomainError, match=f"^{re.escape(what)} "):
            build(entry)
    mine = good.copy()
    held = build(mine)
    before = held.copy()
    assert mine.flags.writeable and not held.flags.writeable
    mine.flat[0] += 1  # a later write to the caller's array does not reach the holder
    assert np.array_equal(held, before)


# ---------------------------------------------------------------------------
# feasibility


def test_feasibility_noisy_feedback_pair():
    # node 1 transmits in block 1 and receives in block 2, node 2 the
    # reverse: only node 2 may drop its delay
    spec = networks.bscfb_spec(0.11)
    assert is_feasible(spec, DelayProfile.of((1, 0)))
    assert is_feasible(spec, DelayProfile.of((1, 1)))
    assert not is_feasible(spec, DelayProfile.of((0, 0)))
    assert not is_feasible(spec, DelayProfile.of((0, 1)))
    got = [p.delays for p in enumerate_feasible_profiles(spec)]
    assert got == [(1, 0), (1, 1)]


def test_feasibility_profile_length_checked():
    spec = networks.bscfb_spec(0.11)
    with pytest.raises(DomainError):
        is_feasible(spec, DelayProfile.of((1, 0, 1)))


def test_classical_network_admits_only_all_one(bundled_specs):
    for name in ("classical-bsc", "deterministic"):
        spec = bundled_specs[name]
        got = [p.delays for p in enumerate_feasible_profiles(spec)]
        assert got == [(1, 1)]


def test_relay_chain_feasible_profiles(bundled_specs):
    # the relay (node 2) is the only node allowed to drop its delay
    spec = bundled_specs["causal-relay"]
    got = [p.delays for p in enumerate_feasible_profiles(spec)]
    assert got == [(1, 0, 1), (1, 1, 1)]


def test_feasible_enumeration_cap(one_letter_spec):
    # one-letter alphabets keep the spec tiny while 2^N grows
    n = model.NODE_CAP
    spec = one_letter_spec(n)
    assert validate_spec(spec).ok
    assert [p.delays for p in enumerate_feasible_profiles(spec)] == [(1,) * n]
    with pytest.raises(ResourceCapError, match=f"^delay-profile enumeration node count {n + 1} "
                                               f"is above the cap of {n}$"):
        enumerate_feasible_profiles(one_letter_spec(n + 1))


def test_feasibility_matches_bruteforce_oracle(bundled_specs):
    # independent oracle: profile feasible iff every zero-delay node's
    # transmit block index strictly exceeds its receive block index
    for spec in bundled_specs.values():
        for bits in itertools.product((0, 1), repeat=spec.n_nodes):
            want = all(
                spec.input_partition.block_index_of(i)
                > spec.output_partition.block_index_of(i)
                for i in range(1, spec.n_nodes + 1)
                if bits[i - 1] == 0
            )
            assert is_feasible(spec, DelayProfile.of(bits)) == want


@given(st.integers(2, 5), st.data())
def test_feasibility_oracle_on_random_partitions(n_nodes, data):
    # random single-channel-per-node partitions; compare against the rule
    perm_s = data.draw(st.permutations(range(1, n_nodes + 1)))
    perm_g = data.draw(st.permutations(range(1, n_nodes + 1)))
    s = Partition(tuple(NodeSet((i,)) for i in perm_s))
    g = Partition(tuple(NodeSet((i,)) for i in perm_g))
    bits = data.draw(st.tuples(*[st.integers(0, 1) for _ in range(n_nodes)]))
    spec = NetworkSpec(
        n_nodes,
        (1,) * n_nodes,
        (1,) * n_nodes,
        n_nodes,
        s,
        g,
        tuple(ChannelTable((), (), np.ones((1, 1))) for _ in range(n_nodes)),
    )

    def rule(profile):
        return all(perm_s.index(i) > perm_g.index(i)
                   for i in range(1, n_nodes + 1) if profile[i - 1] == 0)

    assert is_feasible(spec, DelayProfile.of(bits)) == rule(bits)
    # the listing is the lexicographic filter of all 2^N candidates
    want = [c for c in itertools.product((0, 1), repeat=n_nodes) if rule(c)]
    assert [p.delays for p in enumerate_feasible_profiles(spec)] == want


# ---------------------------------------------------------------------------
# validation


def test_require_real_refuses_what_is_not_a_real_number():
    # every real number comes back as a Python float of the same value
    for value in (0.25, 1, np.float32(0.25), np.float64(0.25), np.int64(1)):
        got = model.require_real(value, "eps")
        assert type(got) is float and got == value
    for value in ("0.25", None, 0.25j, True, np.bool_(True), [0.25]):
        with pytest.raises(DomainError, match="^eps must be a real number, got "):
            model.require_real(value, "eps")
    # NaN and the infinities compare false or pass every range check
    for value, shown in ((math.nan, "nan"), (-math.inf, "-inf"), (np.float32("inf"), "inf")):
        with pytest.raises(DomainError, match=f"^eps must be finite, got {shown}$"):
            model.require_real(value, "eps")
    # an int too large for a float would end in a bare OverflowError at float()
    with pytest.raises(DomainError,
                       match="^eps must be finite, got a number beyond the float range$"):
        model.require_real(10 ** 400, "eps")


def test_require_integer_refuses_what_is_not_an_integer_of_at_least_least():
    for value in (3, np.int64(3), np.uint8(3), 10 ** 400):
        got = model.require_integer(value, "n", 3)
        assert type(got) is int and got == value
    # a float (even a whole one) is never truncated, and True would read as 1
    for value in (3.0, 2.5, math.nan, "3", None, True, np.bool_(True), [3]):
        with pytest.raises(DomainError, match="^n must be an integer, got "):
            model.require_integer(value, "n", 0)
    for value in (2, np.int64(-1), -2 ** 63 + 1):
        with pytest.raises(DomainError, match=f"^n must be >= 3, got {int(value)}$"):
            model.require_integer(value, "n", 3)
    # an int of 64 bits or more is shown by its size: str() of one past
    # 4300 digits would raise
    for value, bits in ((-2 ** 63, 64), (-10 ** 5000, 16610)):
        with pytest.raises(DomainError, match=f"^n must be >= 3, got an integer of {bits} bits$"):
            model.require_integer(value, "n", 3)


@pytest.mark.parametrize("make", (networks.bscfb_spec, networks.classical_bsc_spec,
                                  networks.causal_relay_spec,
                                  lambda eps: networks.causal_relay_spec(0.1, eps)))
def test_bundled_specs_refuse_a_non_real_eps(make):
    for value in ("0.25", None, 0.25j, False):
        with pytest.raises(DomainError, match="^eps must be a real number"):
            make(value)
    assert validate_spec(make(np.float32(0.25))).ok


def test_validate_bundled_specs_ok(bundled_specs):
    for name, spec in bundled_specs.items():
        report = validate_spec(spec)
        assert report.ok, (name, report.violations)
        assert report.violations == ()


def test_validate_flags_non_stochastic_rows():
    spec = networks.bscfb_spec(0.11)
    rows = spec.channels[0].table.copy()
    rows[0, 0] = 0.5  # row 0 now sums to 0.61
    broken = NetworkSpec(
        spec.n_nodes,
        spec.input_alphabet_sizes,
        spec.output_alphabet_sizes,
        spec.alpha,
        spec.input_partition,
        spec.output_partition,
        (ChannelTable(("X1",), ("Y2",), rows), spec.channels[1]),
    )
    report = validate_spec(broken)
    assert not report.ok
    assert any("row 0" in v for v in report.violations)


def test_validate_flags_partition_problems():
    spec = networks.bscfb_spec(0.11)
    bad_part = Partition((NodeSet((1,)), NodeSet((1,))))  # overlapping, misses 2
    broken = NetworkSpec(
        2,
        (2, 2),
        (2, 2),
        2,
        bad_part,
        spec.output_partition,
        spec.channels,
    )
    report = validate_spec(broken)
    assert not report.ok
    text = "\n".join(report.violations)
    assert "disjoint" in text and "[2]" in text


def test_validate_flags_alpha_mismatch():
    spec = networks.bscfb_spec(0.11)
    broken = NetworkSpec(
        2,
        (2, 2),
        (2, 2),
        1,  # alpha disagrees with the two partition blocks
        spec.input_partition,
        spec.output_partition,
        spec.channels[:1],
    )
    report = validate_spec(broken)
    assert not report.ok


def test_validate_flags_wrong_table_shape():
    spec = networks.bscfb_spec(0.11)
    squashed = ChannelTable(("X1",), ("Y2",), np.ones((1, 2)) * 0.5)
    broken = NetworkSpec(
        2,
        (2, 2),
        (2, 2),
        2,
        spec.input_partition,
        spec.output_partition,
        (squashed, spec.channels[1]),
    )
    report = validate_spec(broken)
    assert not report.ok
    assert any("shape" in v for v in report.violations)


def test_validate_reports_a_non_integer_field():
    # reported, never the TypeError of range() over a fraction; a boolean
    # is no count, and 2.0 is no alphabet size
    spec = networks.bscfb_spec(0.11)
    cases = {
        "n_nodes must be an integer, got 2.5": dict(n_nodes=2.5),
        "alpha must be an integer, got True": dict(alpha=True),
        "alphabet size must be an integer, got 2.0": dict(input_alphabet_sizes=(2, 2.0)),
        "partition member must be an integer, got 1.0":
            dict(output_partition=Partition((NodeSet((1.0,)), NodeSet((2,))))),
    }
    for want, change in cases.items():
        assert validate_spec(dataclasses.replace(spec, **change)).violations == (want,)


def test_validate_shows_a_huge_node_count_by_its_bits():
    spec = dataclasses.replace(networks.bscfb_spec(0.11), n_nodes=10 ** 5000)
    missing = "nodes [3, 4, 5, 6, 7, 8, 9, 10] and an integer of 16610 bits further are in no block"
    assert validate_spec(spec).violations == (
        "input_alphabets length differs from n_nodes",
        "output_alphabets length differs from n_nodes",
        f"input partition: {missing}", f"output partition: {missing}")


def test_validate_shape_products_are_exact():
    # 2**32 * 2**32 rows wrap to 0 in int64, which would match an empty table;
    # the exact 2**64 is shown by its bit count
    both = NodeSet((1, 2))
    spec = NetworkSpec(2, (2 ** 32, 2 ** 32), (2, 2), 1, Partition((both,)),
                       Partition((both,)),
                       (ChannelTable(("X1", "X2"), ("Y1", "Y2"), np.zeros((0, 4))),))
    want = "!= expected (an integer of 65 bits, 4)"
    report = validate_spec(spec)
    assert not report.ok and want in report.violations[0]
    loaded = validate_spec(model.spec_from_dict(json.loads(json.dumps(model.spec_to_dict(spec)))))
    assert not loaded.ok and want in loaded.violations[0]


# ---------------------------------------------------------------------------
# a spec checks itself once, when it is built


def _count_validations(monkeypatch) -> list:
    """The specs model.validate_spec is handed from now on, in call order."""
    calls = []
    validate = model.validate_spec
    monkeypatch.setattr(model, "validate_spec", lambda spec: calls.append(spec) or validate(spec))
    return calls


def _non_stochastic(spec: NetworkSpec) -> NetworkSpec:
    """`spec` with row 0 of its first channel lowered by 0.39."""
    first = spec.channels[0]
    rows = first.table.copy()
    rows[0, 0] -= 0.39
    return dataclasses.replace(spec, channels=(
        ChannelTable(first.input_vars, first.output_vars, rows), *spec.channels[1:]))


def test_a_spec_is_validated_once_when_built(monkeypatch):
    calls = _count_validations(monkeypatch)
    spec = networks.bscfb_spec(0.11)
    assert len(calls) == 1 and calls[0] is spec
    twin = dataclasses.replace(spec, channels=spec.channels)
    assert len(calls) == 2 and calls[1] is twin and twin.validation == spec.validation
    calls.clear()
    profile = DelayProfile.of((1, 0))
    code = random_table_code(spec, 2, profile, seed=1)
    simulate.estimate_error(spec, code, 100, 2)
    simulate.run_trial(spec, code, 2, trial=3)
    simulate.induced_joint(spec, code)
    probability.compose_channels(spec)
    for which in ("capacity", "positive-delay"):
        grid_hull(spec, which, 2)
    assert calls == []  # every engine call reads the stored report


def test_a_spec_holds_tuples_and_read_only_tables():
    both = Partition((NodeSet((1, 2)),))
    channel = ChannelTable(["X1", "X2"], ["Y1", "Y2"], np.eye(4))
    spec = NetworkSpec(2, [2, 2], [2, 2], 1, both, both, [channel])
    assert spec.validation.ok
    assert (spec.input_alphabet_sizes, spec.output_alphabet_sizes) == ((2, 2), (2, 2))
    assert type(spec.input_alphabet_sizes) is type(spec.output_alphabet_sizes) is tuple
    assert type(spec.channels) is tuple and spec.channels[0] is channel
    assert channel.input_vars == ("X1", "X2") and channel.output_vars == ("Y1", "Y2")
    assert type(channel.input_vars) is type(channel.output_vars) is tuple
    table = spec.channels[0].table
    with pytest.raises(ValueError, match="read-only"):
        table[0, 1] = 1.0
    with pytest.raises(ValueError):  # its base is read-only, so the view stays so
        table.setflags(write=True)
    assert spec.validation.ok and np.array_equal(table, np.eye(4))


def test_every_entry_point_refuses_an_invalid_spec_with_one_message():
    spec = networks.bscfb_spec(0.11)
    broken = _non_stochastic(spec)
    want = "invalid network: channel 1: row 0 sums to 0.610000000 (not 1 within 1e-09)"
    assert "invalid network: " + "; ".join(broken.validation.violations) == want
    assert broken.validation == validate_spec(broken)
    unit = DelayProfile.of((1, 1))
    code = random_table_code(spec, 1, unit, seed=0)
    calls = {
        "estimate_error": lambda: simulate.estimate_error(broken, code, 10, 0),
        "run_trial": lambda: simulate.run_trial(broken, code, 0),
        "induced_joint": lambda: simulate.induced_joint(broken, code),
        "random_table_code": lambda: random_table_code(broken, 1, unit, seed=0),
        "compose_channels": lambda: probability.compose_channels(broken),
        "GridProblem": lambda: GridProblem(broken, "capacity", 1),
    }
    for name, call in calls.items():
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == want, name


def test_a_pickled_spec_keeps_its_report_and_read_only_tables(monkeypatch):
    broken = _non_stochastic(networks.causal_relay_spec())
    calls = _count_validations(monkeypatch)
    back = pickle.loads(pickle.dumps(broken))
    assert calls == []  # the report travels with the spec
    assert not back.validation.ok and back.validation == broken.validation
    for ours, theirs in zip(back.channels, broken.channels):
        assert np.array_equal(ours.table, theirs.table)
        with pytest.raises(ValueError):
            ours.table.setflags(write=True)


def test_pickled_tables_stay_read_only_and_equal():
    # JointPmf, RateTuple and TableCode rebuild through __init__, as
    # ChannelTable does: a pickled array would come back writable, and a
    # code's mapping proxy would not pickle at all
    joint = JointPmf((("A", 2), ("B", 3)), np.arange(6) / 15.0)
    back = pickle.loads(pickle.dumps(joint))
    assert back.variables == joint.variables and np.array_equal(back.probs, joint.probs)
    rates = RateTuple.from_pairs(3, {(1, 2): 0.5, (3, 1): 0.25})
    again = pickle.loads(pickle.dumps(rates))
    assert np.array_equal(again.rates, rates.rates)
    code = random_table_code(networks.causal_relay_spec(), 2, DelayProfile.of((1, 0, 1)), seed=4)
    twin = pickle.loads(pickle.dumps(code))
    assert simulate.code_to_dict(twin) == simulate.code_to_dict(code)
    assert (twin.pairs, twin.pair_sizes.tolist()) == (code.pairs, code.pair_sizes.tolist())
    tables = [back.probs, again.rates, twin.pair_sizes, *itertools.chain(*twin.encoder_tables),
              *twin.decoder_tables.values()]
    for table in tables:
        with pytest.raises(ValueError):
            table.flat[0] = 7
        with pytest.raises(ValueError):
            table.setflags(write=True)
    with pytest.raises(TypeError):
        twin.decoder_tables[(1, 2)] = twin.decoder_tables[(2, 1)]


def _assert_derived(spec: NetworkSpec) -> None:
    """`spec`'s steps are its step_plan and its draw tables, read-only, its
    channels' cumulative tables without the last column, transposed."""
    assert spec.steps == tuple(model.step_plan(spec.input_partition, spec.output_partition))
    assert len(spec.draw_tables) == len(spec.channels)
    for cum_t, channel in zip(spec.draw_tables, spec.channels):
        assert np.array_equal(cum_t, np.cumsum(channel.table, axis=1)[:, :-1].T)
        assert cum_t.flags.c_contiguous
        with pytest.raises(ValueError):
            cum_t.setflags(write=True)


def test_a_spec_derives_its_steps_and_draw_tables_once(bundled_specs, monkeypatch):
    for spec in [*bundled_specs.values(), networks.causal_relay_spec(0.2, 0.3)]:
        _assert_derived(spec)
    # replace derives them afresh from the new channels
    spec = networks.bscfb_spec(0.11)
    twin = dataclasses.replace(spec, channels=networks.bscfb_spec(0.2).channels)
    _assert_derived(twin)
    assert not np.array_equal(twin.draw_tables[0], spec.draw_tables[0])
    # a pickled spec keeps its tables equal and read-only, with no validation
    calls = _count_validations(monkeypatch)
    back = pickle.loads(pickle.dumps(spec))
    assert calls == [] and back.steps == spec.steps
    for ours, theirs in zip(back.draw_tables, spec.draw_tables):
        assert np.array_equal(ours, theirs)
        with pytest.raises(ValueError):
            ours.setflags(write=True)
    # an invalid spec, which no engine call runs, derives neither
    broken = _non_stochastic(spec)
    assert broken.steps == broken.draw_tables == ()
    assert pickle.loads(pickle.dumps(broken)).draw_tables == ()


# ---------------------------------------------------------------------------
# JSON I/O


def _specs_equal(a: NetworkSpec, b: NetworkSpec) -> bool:
    if (
        a.n_nodes != b.n_nodes
        or a.alpha != b.alpha
        or a.input_alphabet_sizes != b.input_alphabet_sizes
        or a.output_alphabet_sizes != b.output_alphabet_sizes
        or a.input_partition != b.input_partition
        or a.output_partition != b.output_partition
    ):
        return False
    return all(
        ca.input_vars == cb.input_vars
        and ca.output_vars == cb.output_vars
        and np.array_equal(ca.table, cb.table)
        for ca, cb in zip(a.channels, b.channels)
    )


def test_spec_json_roundtrip(tmp_path, bundled_specs):
    for name, spec in bundled_specs.items():
        path = tmp_path / f"{name}.json"
        save_spec(spec, path)
        assert _specs_equal(load_spec(path), spec), name


def test_load_spec_missing_file(tmp_path):
    with pytest.raises(SpecIOError):
        load_spec(tmp_path / "nope.json")


def test_load_spec_unparseable(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{ not json")
    with pytest.raises(SpecIOError):
        load_spec(p)


def test_save_into_missing_directory_is_an_io_error(tmp_path):
    spec = networks.bscfb_spec(0.11)
    code = random_table_code(spec, 1, DelayProfile.of((1, 1)), seed=0)
    target = tmp_path / "missing" / "out.json"
    for save, value in ((save_spec, spec), (save_code, code)):
        with pytest.raises(SpecIOError, match="cannot write"):
            save(value, target)


def test_load_spec_wrong_structure(tmp_path):
    p = tmp_path / "wrong.json"
    p.write_text(json.dumps({"n_nodes": 2}))
    with pytest.raises(SpecIOError):
        load_spec(p)
    p.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(SpecIOError):
        load_spec(p)


def test_loaded_spec_with_bad_rows_fails_validation(tmp_path):
    # files with non-stochastic tables load fine and fail validation
    spec = networks.bscfb_spec(0.11)
    d = model.spec_to_dict(spec)
    d["channels"][0]["rows"][0][0] = 0.5
    p = tmp_path / "nonstoch.json"
    p.write_text(json.dumps(d))
    loaded = load_spec(p)
    report = validate_spec(loaded)
    assert not report.ok
