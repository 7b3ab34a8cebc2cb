"""Exact pmf machinery: marginals, information, composition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from zdmn import networks
from zdmn.errors import DomainError
from zdmn.model import ChannelTable, step_plan
from zdmn.probability import (
    JointPmf,
    _marginal,
    _row_sum,
    all_delayed_network,
    binary_entropy,
    compose_channels,
    cond_entropy_table,
    conditional_mutual_information,
    input_conditional_vars,
    marginalize,
)

from oracles import factorized_joint, joint_violations


def _joint(names_sizes, flat):
    return JointPmf(tuple(names_sizes), np.asarray(flat, dtype=np.float64))


def _random_joint(seed: int, sizes=(2, 2, 2)) -> JointPmf:
    rng = np.random.Generator(np.random.Philox(seed))
    cells = int(np.prod(sizes))
    probs = rng.dirichlet(np.ones(cells))
    names = tuple((f"V{i}", s) for i, s in enumerate(sizes))
    return JointPmf(names, probs)


# ---------------------------------------------------------------------------
# table basics


def test_joint_validate_catches_problems():
    ok = _joint((("A", 2),), [0.25, 0.75])
    assert joint_violations(ok) == []
    assert joint_violations(_joint((("A", 2),), [-0.1, 1.1])) == ["negative entries"]
    assert joint_violations(_joint((("A", 2),), [0.4, 0.4])) == [
        "entries sum to 0.800000000 (not 1 within 1e-09)"]
    with pytest.raises(DomainError):
        _joint((("A", 2),), [0.5, 0.3, 0.2])  # refused when it is built


def test_joint_validate_reports_non_finite_entries():
    # a NaN cell makes the sum NaN, and NaN compares false against SUM_TOL
    assert "1 non-finite entries" in joint_violations(_joint((("A", 2),), [math.nan, 1.0]))
    assert "2 non-finite entries" in joint_violations(_joint((("A", 2),), [math.inf, -math.inf]))


def test_marginalize_product_structure():
    # independent pair: p(a, b) = p(a) p(b)
    pa = np.array([0.3, 0.7])
    pb = np.array([0.1, 0.2, 0.7])
    p = _joint((("A", 2), ("B", 3)), np.outer(pa, pb).reshape(-1))
    assert np.allclose(marginalize(p, ("A",)).probs, pa)
    assert np.allclose(marginalize(p, ("B",)).probs, pb)
    # keep-order is respected: (B, A) transposes the table
    ba = marginalize(p, ("B", "A"))
    assert ba.names == ("B", "A")
    assert np.allclose(ba.as_array(), np.outer(pb, pa))


def test_marginalize_rejects_bad_lists():
    p = _joint((("A", 2), ("B", 2)), [0.25] * 4)
    with pytest.raises(DomainError):
        marginalize(p, ("A", "A"))
    with pytest.raises(DomainError):
        marginalize(p, ("C",))


def test_table_of_wrong_length_is_a_domain_error():
    # refused when it is built, so no reshaping operation ever sees it
    with pytest.raises(DomainError, match="2 probabilities for the 4 cells"):
        _joint((("A", 2), ("B", 2)), [0.5, 0.5])


def test_joint_refuses_malformed_variables():
    # (-2) * (-2) cells would match the table's length
    with pytest.raises(DomainError, match="^alphabet size of A must be >= 1, got -2$"):
        _joint((("A", -2), ("B", -2)), [0.25] * 4)
    # with a repeated name, marginalize would sum one of its two axes
    with pytest.raises(DomainError, match="repeated variable names"):
        _joint((("A", 2), ("B", 2), ("A", 2)), np.full(8, 0.125))
    # None and 3 are not names, whatever str() makes of them
    for name in (None, 3):
        with pytest.raises(DomainError, match="names must be distinct strings"):
            _joint(((name, 2),), [0.5, 0.5])


def test_joint_refuses_entries_that_are_not_real():
    # a complex numpy table lost its imaginary part after a ComplexWarning, a
    # Python complex ended in a bare TypeError, "0.5" read as 0.5 and True as 1.0
    for probs, got in ((np.array([0.5, 0.5j]), "complex128"), ([0.5j, 1.0], "complex"),
                       (["0.5", "0.5"], "str"), ([True, 0.0], "bool"),
                       (np.array([True, False]), "bool")):
        with pytest.raises(DomainError, match=rf"^joint pmf over \('A',\) must hold real "
                                              rf"numbers, got {got} entries$"):
            JointPmf((("A", 2),), probs)
    assert JointPmf((("A", 2),), [1, np.int8(0)]).probs.tolist() == [1.0, 0.0]


# ---------------------------------------------------------------------------
# information quantities


def test_mutual_information_independent_is_zero():
    p = _joint((("A", 2), ("B", 2)), np.outer([0.3, 0.7], [0.6, 0.4]).reshape(-1))
    assert 0.0 <= conditional_mutual_information(p, ("A",), ("B",)) <= 1e-12


def test_mutual_information_perfect_copy_is_one_bit():
    p = _joint((("A", 2), ("B", 2)), [0.5, 0.0, 0.0, 0.5])
    assert abs(conditional_mutual_information(p, ("A",), ("B",)) - 1.0) < 1e-12


def test_mutual_information_binary_channel_closed_form():
    for eps in (0.05, 0.11, 0.25):
        flat = [0.5 * (1 - eps), 0.5 * eps, 0.5 * eps, 0.5 * (1 - eps)]
        p = _joint((("X", 2), ("Y", 2)), flat)
        want = 1.0 - binary_entropy(eps)
        assert abs(conditional_mutual_information(p, ("X",), ("Y",)) - want) < 1e-12


def test_cmi_empty_group_is_zero():
    p = _random_joint(7)
    assert conditional_mutual_information(p, (), ("V0",), ("V1",)) == 0.0
    assert conditional_mutual_information(p, ("V0",), (), ()) == 0.0


def test_cmi_rejects_overlapping_groups():
    p = _random_joint(7)
    with pytest.raises(DomainError):
        conditional_mutual_information(p, ("V0",), ("V0",), ())


def test_cmi_markov_chain_is_zero():
    # construct A -> B -> C: p(a, b, c) = p(a) q(b|a) r(c|b)
    rng = np.random.Generator(np.random.Philox(12))
    pa = rng.dirichlet((1, 1))
    q = rng.dirichlet((1, 1), size=2)
    r = rng.dirichlet((1, 1), size=2)
    flat = np.einsum("a,ab,bc->abc", pa, q, r).reshape(-1)
    p = _joint((("A", 2), ("B", 2), ("C", 2)), flat)
    assert conditional_mutual_information(p, ("A",), ("C",), ("B",)) <= 1e-12
    # data processing: I(A;C) <= I(A;B)
    assert conditional_mutual_information(p, ("A",), ("C",)) <= conditional_mutual_information(
        p, ("A",), ("B",)
    ) + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_cmi_chain_rule(seed):
    # I(A; B, C | D) = I(A; B | D) + I(A; C | B, D)
    p = _random_joint(seed, sizes=(2, 2, 2, 2))
    a, b, c, d = ("V0",), ("V1",), ("V2",), ("V3",)
    lhs = conditional_mutual_information(p, a, b + c, d)
    rhs = conditional_mutual_information(p, a, b, d) + conditional_mutual_information(
        p, a, c, b + d
    )
    assert abs(lhs - rhs) <= 1e-9
    assert lhs >= 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_cmi_nonnegative_and_clamped(seed):
    p = _random_joint(seed, sizes=(3, 2, 2))
    v = conditional_mutual_information(p, ("V0",), ("V1",), ("V2",))
    assert v >= 0.0


def test_row_sum_is_one_running_sum_whatever_the_shape():
    # both forms (accumulate for short rows, vector adds for long ones) add
    # row after row, so a batch column sums to the same bits alone
    rng = np.random.Generator(np.random.Philox(21))
    for shape in ((1,), (5,), (300,), (7, 3), (9, 127), (9, 128), (4, 3, 200), (2, 1, 1)):
        rows = rng.random(shape) * 10.0 ** rng.integers(-8, 8, shape)
        want = rows[0].copy()
        for row in rows[1:]:
            want = want + row
        got = _row_sum(rows)
        assert np.array_equal(got, want), shape
        if rows.ndim > 1:
            assert np.array_equal(_row_sum(rows[..., :1]), want[..., :1]), shape


def test_cond_entropy_table_closed_forms():
    # H(B|C) of a uniform B independent of C is log2 |B|; a deterministic B
    # has 0 (0 log 0 = 0); the batch axis is last and independent per entry
    pbc = np.stack([np.full((4, 3), 1.0 / 12.0), np.eye(4, 3) / 3.0], axis=-1)
    assert np.allclose(cond_entropy_table(pbc), [2.0, 0.0], rtol=0.0, atol=1e-15)
    h = cond_entropy_table(np.array([[0.25], [0.75]]))
    assert abs(float(h) - binary_entropy(0.25)) < 1e-15


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def _cond_entropy_oracle(pbc):
    """H(B|C) with the per-cell terms built by one np.where."""
    pc = _row_sum(pbc)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(pbc > 0.0, pbc * np.log2(pc / pbc), 0.0)
    return _row_sum(_row_sum(terms))


def test_cond_entropy_table_equals_where_oracle_bit_for_bit():
    # the in-place divide, log2, multiply and zeroing are the oracle's
    # operations in its order; zero cells and all-zero columns included
    rng = np.random.Generator(np.random.Philox(24))
    for shape in ((3, 4), (1, 5), (9, 9), (6, 2, 7), (3, 9, 130), (9, 9, 4096), (2, 3, 1)):
        pbc = rng.random(shape) * 10.0 ** rng.integers(-6, 1, shape)
        pbc[rng.random(shape) < 0.3] = 0.0
        pbc[:, 0] = 0.0
        pbc /= pbc.sum()
        before = pbc.copy()
        got, want = cond_entropy_table(pbc), _cond_entropy_oracle(pbc)
        assert np.shape(got) == np.shape(want) == shape[2:]
        assert np.array_equal(_bits(got), _bits(want)), shape
        assert np.array_equal(_bits(pbc), _bits(before))  # the input is only read


def test_marginal_equals_an_explicit_sum_bit_for_bit():
    # summed axes of length 1 are reshaped away, any other length (0
    # included) is summed; either way the cells match the sum's
    rng = np.random.Generator(np.random.Philox(25))
    names = ("A", "B", "C", "D")
    keeps = (("C", "A"), ("A",), ("A", "C", "D"), ("D", "B", "C", "A"), ("C",))
    for sizes in ((2, 1, 3, 1), (2, 4, 3, 2), (1, 1, 1, 1), (3, 0, 2, 1)):
        arr = rng.random(sizes + (5,))
        for keep in keeps:
            keep_axes = [names.index(n) for n in keep]
            rest = [i for i in range(len(names)) if i not in keep_axes]
            want = arr.transpose(keep_axes + rest + [len(names)]).sum(
                axis=tuple(range(len(keep), len(names))))
            got = _marginal(arr, names, keep)
            assert got.shape == want.shape, (sizes, keep)
            assert np.array_equal(_bits(got), _bits(want)), (sizes, keep)


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - 1.0) < 1e-15
    for eps in (0.05, 0.11, 0.25, 0.4):
        assert abs(binary_entropy(eps) - binary_entropy(1 - eps)) < 1e-15
        want = stats.entropy([eps, 1 - eps], base=2)
        assert abs(binary_entropy(eps) - want) < 1e-12
    with pytest.raises(DomainError):
        binary_entropy(-0.1)
    with pytest.raises(DomainError):
        binary_entropy(1.1)


def test_binary_entropy_refuses_a_non_real_eps():
    for eps in ("0.11", None, 0.11j, True):
        with pytest.raises(DomainError, match="^eps must be a real number"):
            binary_entropy(eps)
    # a numpy real gives the Python float of its value
    got = binary_entropy(np.float32(0.25))
    assert type(got) is float and got == binary_entropy(0.25)


# ---------------------------------------------------------------------------
# channel composition and factorized joints


def _compose_oracle_noisy_feedback(eps):
    """Brute-force composed table for the noisy/noiseless two-node pair."""
    table = np.zeros((4, 4))
    for x1 in range(2):
        for x2 in range(2):
            row = x1 * 2 + x2
            for y2 in range(2):
                p1 = (1 - eps) if y2 == x1 else eps
                y1 = x2 ^ y2
                table[row, y1 * 2 + y2] += p1
    return table


def test_compose_channels_matches_bruteforce():
    eps = 0.11
    spec = networks.bscfb_spec(eps)
    composed = compose_channels(spec)
    assert composed.input_vars == ("X1", "X2")
    assert composed.output_vars == ("Y1", "Y2")
    assert np.allclose(composed.table, _compose_oracle_noisy_feedback(eps), atol=1e-15)


def test_compose_channels_single_channel_is_identity_copy():
    spec = networks.classical_bsc_spec(0.25)
    composed = compose_channels(spec)
    assert np.allclose(composed.table, spec.channels[0].table)


def test_factorized_joint_zero_delay_scheme():
    # node 1 sends a fair bit; node 2 repeats its current reception
    eps = 0.11
    spec = networks.bscfb_spec(eps)
    (in1, out1), (in2, out2) = map(input_conditional_vars,
                                   step_plan(spec.input_partition, spec.output_partition))
    assert (in1, out1) == ((), ("X1",))
    assert (in2, out2) == (("X1", "Y2"), ("X2",))
    c1 = ChannelTable(in1, out1, np.array([[0.5, 0.5]]))
    echo = np.zeros((4, 2))
    for x1 in range(2):
        for y2 in range(2):
            echo[x1 * 2 + y2, y2] = 1.0
    c2 = ChannelTable(in2, out2, echo)
    joint = factorized_joint(spec, (c1, c2))
    assert joint_violations(joint) == []
    # oracle by full enumeration of the generation order
    oracle = np.zeros((2, 2, 2, 2))  # (x1, x2, y1, y2)
    for x1 in range(2):
        for y2 in range(2):
            p = 0.5 * ((1 - eps) if y2 == x1 else eps)
            x2 = y2
            y1 = x2 ^ y2
            oracle[x1, x2, y1, y2] += p
    got = marginalize(joint, ("X1", "X2", "Y1", "Y2"))
    assert np.allclose(got.as_array(), oracle, atol=1e-15)
    # with the echo code the feedback output is the constant 0
    y1 = marginalize(joint, ("Y1",))
    assert np.allclose(y1.probs, [1.0, 0.0])


def test_factorized_joint_rejects_wrong_conditionals():
    spec = networks.bscfb_spec(0.11)
    (in1, out1), (in2, out2) = map(input_conditional_vars,
                                   step_plan(spec.input_partition, spec.output_partition))
    c1 = ChannelTable(in1, out1, np.array([[0.5, 0.5]]))
    with pytest.raises(DomainError):
        factorized_joint(spec, (c1,))  # wrong count
    bad = ChannelTable(("X9",), ("X1",), np.array([[0.5, 0.5]]))
    with pytest.raises(DomainError):
        factorized_joint(spec, (bad, bad))
    non_stoch = ChannelTable(in2, out2, np.full((4, 2), 0.3))
    with pytest.raises(DomainError):
        factorized_joint(spec, (c1, non_stoch))


def _all_delayed_joint(spec, x_vars, px):
    """``factorized_joint`` of the all-delayed network, p(x) over `x_vars`
    as its one input conditional."""
    p_x = ChannelTable((), x_vars, np.asarray(px, dtype=np.float64)[None, :])
    return factorized_joint(all_delayed_network(spec), (p_x,))


def test_all_delayed_joint_matches_manual_product():
    eps = 0.11
    spec = networks.bscfb_spec(eps)
    px = np.array([0.1, 0.2, 0.3, 0.4])
    joint = _all_delayed_joint(spec, ("X1", "X2"), px)
    assert joint_violations(joint) == []
    composed = _compose_oracle_noisy_feedback(eps)
    want = px[:, None] * composed  # (4 inputs, 4 outputs)
    got = marginalize(joint, ("X1", "X2", "Y1", "Y2"))
    assert np.allclose(got.probs, want.reshape(-1), atol=1e-15)


def test_all_delayed_joint_rejects_wrong_variables():
    spec = networks.bscfb_spec(0.11)
    with pytest.raises(DomainError, match="variables"):
        _all_delayed_joint(spec, ("X1",), [0.5, 0.5])


def test_all_delayed_joint_rejects_malformed_px():
    # a NaN, a total of 2, a negative cell and a short table: none may
    # become a NaN joint, a joint summing to 2, negative cells or a bare
    # ValueError
    spec = networks.bscfb_spec(0.11)
    for probs, why in (([math.nan, 0.25, 0.25, 0.25], "non-finite"),
                       ([0.5] * 4, "sums to 2"),
                       ([1.25, -0.25, 0.0, 0.0], "outside"),
                       ([0.5, 0.5], r"table shape \(1, 2\) != \(1, 4\)")):
        with pytest.raises(DomainError, match=why):
            _all_delayed_joint(spec, ("X1", "X2"), probs)

