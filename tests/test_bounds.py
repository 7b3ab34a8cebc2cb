"""Per-cut outer bounds: exact caps, factorization checks, grid search."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from zdmn import _grid, model, networks
from zdmn._grid import BATCH, GRID_CELL_CAP, GridProblem, capacity_term_groups, compositions
from zdmn.bounds import INSIDE, NOT_FOUND, RateTuple, grid_hull, region_membership
from zdmn.errors import DomainError, ResourceCapError
from zdmn.model import ChannelTable, Cut, NetworkSpec, NodeSet, Partition, enumerate_cuts
from zdmn.probability import (
    JointPmf,
    _aligned_factor,
    all_delayed_network,
    binary_entropy,
    cmi_table,
    compose_channels,
    conditional_mutual_information,
    input_conditional_vars,
    marginalize,
)

from oracles import (capacity_cut_cap, check_factorization, dense_grid_terms,
                     factorized_joint, grid_point_report, positive_delay_upper,
                     random_network)


# The paper's positive-delay term (A, B, C) = (X_T, Y_{T^c}, X_{T^c}) of
# every cut T of a two- and a three-node network, keyed by (N, T).
_POSITIVE_DELAY_GROUPS = {
    (2, (1,)): (("X1",), ("Y2",), ("X2",)),
    (2, (2,)): (("X2",), ("Y1",), ("X1",)),
    (3, (1,)): (("X1",), ("Y2", "Y3"), ("X2", "X3")),
    (3, (1, 2)): (("X1", "X2"), ("Y3",), ("X3",)),
    (3, (1, 3)): (("X1", "X3"), ("Y2",), ("X2",)),
    (3, (2,)): (("X2",), ("Y1", "Y3"), ("X1", "X3")),
    (3, (2, 3)): (("X2", "X3"), ("Y1",), ("X1",)),
    (3, (3,)): (("X3",), ("Y1", "Y2"), ("X1", "X2")),
}


# The capacity-mode terms (A, B, C) = (inputs of channel h at nodes in T,
# its outputs outside T, its inputs outside T) of every cut T and term h of
# bscfb, S = ({1}, {2}) and G = ({2}, {1}), and of the causal relay,
# S = ({1, 3}, {2}) and G = ({2}, {1, 3}), keyed by (network, T, h).
_CAPACITY_GROUPS = {
    ("bscfb", (1,), 1): (("X1",), ("Y2",), ()),
    ("bscfb", (1,), 2): (("X1",), (), ("X2", "Y2")),
    ("bscfb", (2,), 1): ((), (), ("X1",)),
    ("bscfb", (2,), 2): (("X2", "Y2"), ("Y1",), ("X1",)),
    ("causal-relay", (1,), 1): (("X1",), ("Y2",), ("X3",)),
    ("causal-relay", (1,), 2): (("X1",), ("Y3",), ("X2", "X3", "Y2")),
    ("causal-relay", (1, 2), 1): (("X1",), (), ("X3",)),
    ("causal-relay", (1, 2), 2): (("X1", "X2", "Y2"), ("Y3",), ("X3",)),
    ("causal-relay", (1, 3), 1): (("X1", "X3"), ("Y2",), ()),
    ("causal-relay", (1, 3), 2): (("X1", "X3"), (), ("X2", "Y2")),
    ("causal-relay", (2,), 1): ((), (), ("X1", "X3")),
    ("causal-relay", (2,), 2): (("X2", "Y2"), ("Y1", "Y3"), ("X1", "X3")),
    ("causal-relay", (2, 3), 1): (("X3",), (), ("X1",)),
    ("causal-relay", (2, 3), 2): (("X2", "X3", "Y2"), ("Y1",), ("X1",)),
    ("causal-relay", (3,), 1): (("X3",), ("Y2",), ("X1",)),
    ("causal-relay", (3,), 2): (("X3",), ("Y1",), ("X1", "X2", "Y2")),
}


def _plan(spec):
    """The spec's steps (S_h, S^h, G^{h-1}, G_h), one per channel."""
    return list(model.step_plan(spec.input_partition, spec.output_partition))


def test_capacity_term_groups_written_out(bundled_specs):
    got = {}
    for name in ("bscfb", "causal-relay"):
        spec = bundled_specs[name]
        for cut in enumerate_cuts(spec.n_nodes):
            for h, step in enumerate(_plan(spec), start=1):
                got[name, cut.nodes.members, h] = capacity_term_groups(step, cut.nodes)
    assert got == _CAPACITY_GROUPS


def _term_groups(spec, mode, nodes, h):
    """(A, B, C) of term h of the cut: the capacity groups, or the paper's
    one positive-delay term written out above."""
    if mode == "capacity":
        return capacity_term_groups(_plan(spec)[h - 1], nodes)
    return _POSITIVE_DELAY_GROUPS[spec.n_nodes, nodes.members]


def _cut(nodes):
    return Cut(NodeSet(tuple(nodes)))


def _scanned(spec, mode):
    """The network the grid scans in a mode."""
    return all_delayed_network(spec) if mode == "positive-delay" else spec


def _product_joint(spec, px=None):
    """p(x) times the channel product: ``factorized_joint`` of the
    all-delayed network, p(x) uniform unless given."""
    cells = math.prod(map(spec.var_size, spec.all_x_vars()))
    px = np.full(cells, 1.0 / cells) if px is None else px
    return factorized_joint(all_delayed_network(spec),
                            (ChannelTable((), spec.all_x_vars(), px[None, :]),))


def _scheme_joint(eps):
    """Uniform forward bit; node 2 transmits a fresh uniform bit xor Y2."""
    spec = networks.bscfb_spec(eps)
    (in1, out1), (in2, out2) = map(input_conditional_vars, _plan(spec))
    c1 = ChannelTable(in1, out1, np.array([[0.5, 0.5]]))
    # X2 = X' xor Y2 with X' uniform makes X2 uniform given any (X1, Y2)
    c2 = ChannelTable(in2, out2, np.full((4, 2), 0.5))
    return spec, factorized_joint(spec, (c1, c2))


def _cmi_oracle(joint: JointPmf, a_vars, b_vars, c_vars):
    """Independent conditional-MI computation by direct log-sum enumeration."""
    order = joint.names
    arr = joint.as_array()
    idx_of = {n: i for i, n in enumerate(order)}

    def marg(names):
        keep = [idx_of[n] for n in names]
        rest = tuple(i for i in range(arr.ndim) if i not in keep)
        return arr.transpose(keep + list(rest)).sum(axis=tuple(
            range(len(keep), arr.ndim)))

    pabc = marg(tuple(a_vars) + tuple(b_vars) + tuple(c_vars))
    na = math.prod(pabc.shape[:len(a_vars)])
    nb = math.prod(pabc.shape[len(a_vars):len(a_vars) + len(b_vars)])
    pabc = pabc.reshape(na, nb, -1)
    total = 0.0
    pac = pabc.sum(axis=1)
    pbc = pabc.sum(axis=0)
    pc = pabc.sum(axis=(0, 1))
    for a in range(pabc.shape[0]):
        for b in range(pabc.shape[1]):
            for c in range(pabc.shape[2]):
                v = pabc[a, b, c]
                if v > 0.0:
                    total += v * math.log2(v * pc[c] / (pac[a, c] * pbc[b, c]))
    return total


# ---------------------------------------------------------------------------
# cut enumeration and rate tuples


def test_enumerate_cuts_counts():
    assert [c.nodes.members for c in enumerate_cuts(2)] == [(1,), (2,)]
    assert len(enumerate_cuts(3)) == 6
    assert len(enumerate_cuts(4)) == 14
    with pytest.raises(DomainError, match="^n_nodes must be >= 2, got 1$"):
        enumerate_cuts(1)
    # above NODE_CAP nodes the count is refused before any cut is built
    n = model.NODE_CAP + 1
    with pytest.raises(ResourceCapError,
                       match=f"^cut enumeration node count {n} is above the cap of {n - 1}$"):
        enumerate_cuts(n)


def test_rate_tuple_validation_and_flow():
    with pytest.raises(DomainError):
        RateTuple(np.array([[0.0, -1.0], [0.0, 0.0]]))
    # NaN compares false with everything, so it must not slip past the sign
    # check into region_membership, which would answer NOT_FOUND
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite"):
            RateTuple(np.array([[0.0, bad], [0.0, 0.0]]))
    with pytest.raises(DomainError):
        RateTuple(np.array([[1.0, 0.0], [0.0, 0.0]]))
    # a numpy rate, as the benchmark hands in, is a real number like any other
    r = RateTuple.from_pairs(3, {(1, 2): 0.5, (1, 3): np.float64(0.25), (2, 1): 1.0})
    assert r.flow_across(_cut((1,))) == 0.75
    assert r.flow_across(_cut((1, 2))) == 0.25
    assert r.flow_across(_cut((2, 3))) == 1.0
    # a pair or cut outside 1..N is refused, not wrapped round to node N
    for pair in ((3, 1), (1, 3)):
        with pytest.raises(DomainError, match="outside 1..2"):
            RateTuple.from_pairs(2, {pair: 0.3})
    for pair in ((0, 1), (-1, 2)):
        with pytest.raises(DomainError, match=f"^node index must be >= 1, got {pair[0]}$"):
            RateTuple.from_pairs(2, {pair: 0.3})
    # nor is a fractional or boolean index, which numpy would fail on or read as 1
    for pair, bad in (((1.5, 2), "1.5"), ((True, 2), "True"), ((2, False), "False")):
        with pytest.raises(DomainError, match=f"^node index must be an integer, got {bad}$"):
            RateTuple.from_pairs(2, {pair: 0.3})
    two = RateTuple.from_pairs(2, {(1, 2): 0.2, (2, 1): 0.7})
    for nodes in ((0,), (3,), (1, 2), ()):
        with pytest.raises(DomainError, match="not a proper nonempty subset of 1..2"):
            two.flow_across(_cut(nodes))


def test_rate_tuple_refuses_entries_that_are_not_real():
    # True read as the rate 1.0 and "0.5" as 0.5; a complex numpy rate lost its
    # imaginary part after a ComplexWarning, a Python one ended in a bare TypeError
    for rates, got in (([[0, True], [False, 0]], "bool"), ([[0, 1j], [0, 0]], "complex"),
                       (np.array([[0, 1j], [0, 0]]), "complex128"),
                       ([[0.0, "0.5"], [0.0, 0.0]], "str")):
        with pytest.raises(DomainError,
                           match=f"^rate tuple must hold real numbers, got {got} entries$"):
            RateTuple(rates)
    assert RateTuple([[0, 1], [np.float32(0.5), 0]]).rates.tolist() == [[0.0, 1.0], [0.5, 0.0]]


def test_rate_tuples_and_cuts_refuse_huge_integers():
    # a cut member past 4300 digits is shown by its bits, a small one as it is
    two = RateTuple.from_pairs(2, {(1, 2): 0.5})
    with pytest.raises(DomainError) as e:
        two.flow_across(Cut(NodeSet((10 ** 5000,))))
    assert str(e.value) == ("cut [an integer of 16610 bits] is not a proper nonempty "
                            "subset of 1..2")
    with pytest.raises(DomainError) as e:
        two.flow_across(_cut((1, 2)))
    assert str(e.value) == "cut [1, 2] is not a proper nonempty subset of 1..2"
    # region_membership compares a tuple across every cut, and enumerate_cuts
    # refuses more than NODE_CAP nodes
    assert RateTuple.from_pairs(model.NODE_CAP, {}).rates.shape == (model.NODE_CAP,) * 2
    for n in (model.NODE_CAP + 1, 10 ** 5000):
        with pytest.raises(ResourceCapError) as e:
            RateTuple.from_pairs(n, {})
        assert str(e.value) == (f"rate tuple node count {model._shown(n)} is above the cap "
                                f"of {model.NODE_CAP}")


# ---------------------------------------------------------------------------
# exact per-cut caps against independent oracles


def test_cmi_table_batch_matches_scalar_path_and_oracle():
    # the batch axis is last; a slice may differ from the scalar path only in
    # the order numpy sums it (contiguous pairwise there, slice by slice here)
    rng = np.random.Generator(np.random.Philox(13))
    for na, nb, nc in ((2, 2, 1), (3, 2, 1), (2, 2, 2), (2, 3, 4), (4, 3, 3), (1, 3, 2)):
        batch = rng.random((na, nb, nc, 12)) ** 3
        batch[rng.random(batch.shape) < 0.3] = 0.0  # zero cells
        batch[..., 0] = 0.0
        batch[0, 0, 0, 0] = 1.0  # a point mass: I = 0
        batch[0, 0, 0] += 1e-3  # no all-zero slice
        batch /= batch.sum(axis=(0, 1, 2))
        got = cmi_table(batch)
        assert got.shape == (12,)
        for j in range(12):
            joint = JointPmf((("A", na), ("B", nb), ("C", nc)), batch[..., j])
            scalar = conditional_mutual_information(joint, ("A",), ("B",), ("C",))
            assert abs(got[j] - scalar) <= 1e-14, (na, nb, nc, j)
            assert abs(got[j] - _cmi_oracle(joint, ("A",), ("B",), ("C",))) < 1e-12
        assert got[0] == 0.0
        assert cmi_table(batch[..., 3]) == conditional_mutual_information(
            JointPmf((("A", na), ("B", nb), ("C", nc)), batch[..., 3]),
            ("A",), ("B",), ("C",))  # no batch axis: the scalar path itself


def test_capacity_cut_caps_uniform_inputs():
    eps = 0.11
    spec = networks.bscfb_spec(eps)
    joint = _product_joint(spec)
    t1 = capacity_cut_cap(spec, joint, _cut((1,)))
    # second channel contributes nothing to the T={1} cut: its receiving
    # side within the complement is empty
    assert t1.per_channel_terms[1] == 0.0
    assert abs(t1.per_channel_terms[0] - (1.0 - binary_entropy(eps))) < 1e-12
    assert abs(t1.cap - sum(t1.per_channel_terms)) < 1e-9
    oracle = _cmi_oracle(joint, ("X1",), ("Y2",), ())
    assert abs(t1.per_channel_terms[0] - oracle) < 1e-12
    for nodes in ((5,), (1, 2), ()):
        with pytest.raises(DomainError, match="not a proper nonempty subset of 1..2"):
            capacity_cut_cap(spec, joint, _cut(nodes))


def test_capacity_cut_cap_scheme_reaches_one_bit():
    spec, joint = _scheme_joint(0.11)
    t2 = capacity_cut_cap(spec, joint, _cut((2,)))
    assert abs(t2.cap - 1.0) < 1e-12
    oracle = _cmi_oracle(joint, ("X2", "Y2"), ("Y1",), ("X1",))
    assert abs(t2.cap - oracle) < 1e-12


def test_capacity_cut_cap_independent_joint_is_zero():
    spec = networks.bscfb_spec(0.11)
    names = spec.all_x_vars() + spec.all_y_vars()
    joint = JointPmf(tuple((n, 2) for n in names), np.full(16, 1.0 / 16.0))
    for cut in enumerate_cuts(2):
        c = capacity_cut_cap(spec, joint, cut)
        assert all(t <= 1e-12 for t in c.per_channel_terms)


def test_positive_delay_caps_uniform_inputs():
    # the positive-delay cap is the capacity cap of the all-delayed network
    eps = 0.11
    spec = networks.bscfb_spec(eps)
    net = all_delayed_network(spec)
    joint = _product_joint(spec)
    want = 1.0 - binary_entropy(eps)
    t2 = capacity_cut_cap(net, joint, _cut((2,)))
    assert len(t2.per_channel_terms) == 1
    assert abs(t2.cap - want) < 1e-12
    assert abs(t2.cap - _cmi_oracle(joint, ("X2",), ("Y1",), ("X1",))) < 1e-12
    t1 = capacity_cut_cap(net, joint, _cut((1,)))
    assert abs(t1.cap - want) < 1e-12
    assert abs(t1.cap - _cmi_oracle(joint, ("X1",), ("Y1", "Y2"), ("X2",))) < 1e-12
    for nodes in ((5,), (1, 2), ()):
        with pytest.raises(DomainError, match="not a proper nonempty subset of 1..2"):
            capacity_cut_cap(net, joint, _cut(nodes))


def test_positive_delay_cap_point_mass_inputs():
    spec = networks.bscfb_spec(0.11)
    joint = _product_joint(spec, np.array([1.0, 0.0, 0.0, 0.0]))
    for cut in enumerate_cuts(2):
        assert capacity_cut_cap(all_delayed_network(spec), joint, cut).cap <= 1e-12


def test_classical_spec_caps_agree_across_modes():
    # with a single channel the two bounds are the same functional
    spec = networks.classical_bsc_spec(0.25)
    rng = np.random.Generator(np.random.Philox(5))
    for _ in range(5):
        joint = _product_joint(spec, rng.dirichlet(np.ones(2)))
        for cut in enumerate_cuts(2):
            a = capacity_cut_cap(spec, joint, cut)
            b = capacity_cut_cap(all_delayed_network(spec), joint, cut)
            assert abs(a.cap - b.cap) < 1e-12


# ---------------------------------------------------------------------------
# factorization checks


def test_factorization_product_joint_passes_both_modes():
    spec = networks.bscfb_spec(0.11)
    joint = _product_joint(spec)
    assert check_factorization(spec, joint)
    assert check_factorization(all_delayed_network(spec), joint)


def test_factorization_scheme_joint_fails_positive_delay_only():
    # node 2 echoes its current reception, correlating the two inputs in a
    # way no delayed (input-marginal-first) factorization reproduces
    spec = networks.bscfb_spec(0.11)
    (in1, out1), (in2, out2) = map(input_conditional_vars, _plan(spec))
    c1 = ChannelTable(in1, out1, np.array([[0.5, 0.5]]))
    echo = np.zeros((4, 2))
    for x1 in range(2):
        for y2 in range(2):
            echo[x1 * 2 + y2, y2] = 1.0
    joint = factorized_joint(spec, (c1, ChannelTable(in2, out2, echo)))
    assert check_factorization(spec, joint)
    assert not check_factorization(all_delayed_network(spec), joint)
    # whereas a code ignoring the reception stays admissible in both modes
    spec2, masked = _scheme_joint(0.11)
    assert check_factorization(all_delayed_network(spec2), masked)


def test_factorization_positive_delay_rejects_rare_echo():
    # node 2 echoes its current reception only on the x1 = 1 rows, of
    # probability p; for p <= 1e-8 every joint cell is within 1e-9 of
    # p(x) times the channel product, but p(y|x) on those rows is not it
    spec = networks.bscfb_spec(0.11)
    (in1, out1), (in2, out2) = map(input_conditional_vars, _plan(spec))
    rows = np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 0.0], [0.0, 1.0]])  # over (X1, Y2)
    for p in (1e-3, 1e-8, 1e-9):
        c1 = ChannelTable(in1, out1, np.array([[1.0 - p, p]]))
        joint = factorized_joint(spec, (c1, ChannelTable(in2, out2, rows)))
        assert check_factorization(spec, joint)
        assert not check_factorization(all_delayed_network(spec), joint), p


def test_factorization_rejects_perturbed_joint():
    spec = networks.bscfb_spec(0.11)
    joint = _product_joint(spec)
    probs = joint.probs.copy()
    nz = np.flatnonzero(probs > 1e-3)
    probs[nz[0]] -= 1e-3
    probs[nz[1]] += 1e-3
    bent = JointPmf(joint.variables, probs)
    assert not check_factorization(spec, bent)
    with pytest.raises(DomainError, match="joint must cover exactly"):
        check_factorization(spec, marginalize(joint, spec.all_x_vars()))


# ---------------------------------------------------------------------------
# grid search


def _qary_feedback_spec(q):
    """bscfb's two-channel layout over q letters: Y2 = X1, Y1 = X2 - Y2 mod q."""
    x1, x2, y2 = np.unravel_index(np.arange(q ** 3), (q, q, q))
    rows = np.zeros((q ** 3, q))
    rows[np.arange(q ** 3), (x2 - y2) % q] = 1.0
    return NetworkSpec(
        2, (q, q), (q, q), 2,
        Partition((NodeSet((1,)), NodeSet((2,)))),
        Partition((NodeSet((2,)), NodeSet((1,)))),
        (ChannelTable(("X1",), ("Y2",), np.eye(q)),
         ChannelTable(("X1", "X2", "Y2"), ("Y1",), rows)))


# the seeded 3-node ternary network's alphabets and partitions,
# S = ({1}, {2}, {3}) and G = ({2}, {3}, {1}), for oracles.random_network
_TERNARY = ((3, 3, 3), (3, 3, 3), Partition((NodeSet((1,)), NodeSet((2,)), NodeSet((3,)))),
            Partition((NodeSet((2,)), NodeSet((3,)), NodeSet((1,)))))


def test_all_delayed_network_is_the_positive_delay_network(bundled_specs):
    # same nodes and alphabets, one block and one channel, the channel
    # product; its capacity terms are the paper's positive-delay terms
    for spec in ([spec for _, spec in sorted(bundled_specs.items())]
                 + [random_network(*_TERNARY, 7)]):
        net = all_delayed_network(spec)
        assert model.validate_spec(net).ok
        assert (net.n_nodes, net.input_alphabet_sizes, net.output_alphabet_sizes, net.alpha) \
            == (spec.n_nodes, spec.input_alphabet_sizes, spec.output_alphabet_sizes, 1)
        composed = compose_channels(spec)
        (channel,) = net.channels
        assert (channel.input_vars, channel.output_vars) \
            == (composed.input_vars, composed.output_vars)
        assert np.array_equal(channel.table, composed.table)
        for cut in enumerate_cuts(spec.n_nodes):
            assert capacity_term_groups(_plan(net)[0], cut.nodes) \
                == _POSITIVE_DELAY_GROUPS[spec.n_nodes, cut.nodes.members]


def _compositions_by_bars(k, m):
    """Compositions of k into m parts from stars and bars, one row at a time."""
    out = []
    for bars in itertools.combinations(range(k + m - 1), m - 1):
        edges = (-1,) + bars + (k + m - 1,)
        out.append([b - a - 1 for a, b in zip(edges, edges[1:])])
    return np.array(out, dtype=np.int64).reshape(-1, m)


def test_compositions_match_stars_and_bars():
    cases = list(itertools.product(range(1, 7), range(1, 7)))
    for k, m in cases + [(4, 27), (12, 2), (8, 2), (20, 1)]:
        got = compositions(k, m)
        assert got.dtype == np.int64
        assert np.array_equal(got, _compositions_by_bars(k, m)), (k, m)
        assert got.shape == (math.comb(k + m - 1, m - 1), m)
        assert np.all(got.sum(axis=1) == k)


def test_grid_resolution_must_be_an_integer():
    spec = networks.bscfb_spec(0.11)
    for k in (2.5, 2.0, "2", True):
        with pytest.raises(DomainError, match="must be an integer"):
            GridProblem(spec, "capacity", k)
        with pytest.raises(DomainError, match="must be an integer"):
            grid_hull(spec, "positive-delay", k)
    assert GridProblem(spec, "capacity", np.int64(2)).k == 2


def test_grid_resolution_is_capped(one_letter_spec):
    # a one-letter spec's grid is one point at any k, so k has its own cap,
    # checked after the point count's
    spec = one_letter_spec(2)
    for mode in ("capacity", "positive-delay"):
        with pytest.raises(ResourceCapError) as e:
            grid_hull(spec, mode, 10 ** 30)
        assert str(e.value) == ("grid resolution k an integer of 100 bits is above the cap "
                                "of 10000000")
        assert GridProblem(spec, mode, _grid.POINT_CAP).n_points == 1
    # a grid of two or more points past the cap is refused by its point count
    with pytest.raises(ResourceCapError, match="^grid point count 10000002 is above"):
        GridProblem(networks.classical_bsc_spec(0.1), "capacity", _grid.POINT_CAP + 1)


def test_grid_keeps_the_callers_spec_in_both_modes(bundled_specs):
    # both modes place tables in the spec's full layout; positive-delay mode
    # scans the one step of S = G = ({1..N}), whose free factor is p(x)
    for spec in bundled_specs.values():
        for mode in ("capacity", "positive-delay"):
            assert GridProblem(spec, mode, 2).spec is spec
        problem = GridProblem(spec, "positive-delay", 2)
        assert problem.n_slots == 1 and problem.factors == [((), spec.all_x_vars())]


def test_grid_mode_must_be_a_string():
    # only the two exact spellings name a mode
    spec = networks.bscfb_spec(0.11)
    rates = RateTuple.from_pairs(2, {(1, 2): 0.1})
    for mode in (5, None, b"capacity", ("capacity",), "positive_delay", "Capacity"):
        with pytest.raises(DomainError, match="mode must be capacity or positive-delay"):
            grid_hull(spec, mode, 2)
        with pytest.raises(DomainError, match="mode must be capacity or positive-delay"):
            region_membership(spec, rates, mode, 8)


def test_grid_batch_rows_equal_single_points(bundled_specs):
    # a point's terms do not depend on the batch it is scanned in, to the
    # last bit; the ternary capacity grid (6^91 points at k=2) is far beyond
    # the cap
    cases = [(spec, mode, 2) for _, spec in sorted(bundled_specs.items())
             for mode in ("capacity", "positive-delay")]
    cases += [(random_network(*_TERNARY, seed), "positive-delay", 2) for seed in (1, 2, 3)]
    cases += [(networks.causal_relay_spec(), "capacity", 4),
              (random_network(*_TERNARY, 1), "positive-delay", 3)]
    for spec, mode, k in cases:
        problem = GridProblem(spec, mode, k)
        batch = problem.eval_batch(0, problem.n_points)
        assert batch.shape == (problem.n_points, problem.n_cuts, problem.n_slots)
        singles = np.concatenate([problem.eval_batch(i, 1) for i in range(problem.n_points)])
        assert np.array_equal(batch.view(np.uint64), singles.view(np.uint64)), (mode, k)


# float.hex of grid_hull's best points and per-cut (cap, terms): any change
# to the scan's arithmetic or to its order shows here
_GRID_GOLDEN = {
    ("bscfb", "capacity", 8): ((26244, 40), (
        ("0x1.000b03f9dea46p-1", ("0x1.000b03f9dea46p-1", "0x0.0p+0")),
        ("0x1.0000000000000p+0", ("0x0.0p+0", "0x1.0000000000000p+0")),
    )),
    ("bscfb", "positive-delay", 8): ((30, 4), (
        ("0x1.000b03f9dea46p-1", ("0x1.000b03f9dea46p-1",)),
        ("0x1.000b03f9dea46p-1", ("0x1.000b03f9dea46p-1",)),
    )),
    ("causal-relay", "capacity", 12): ((171435, 221153, 171366, 84, 0, 0), (
        ("0x1.0fdfcf3f21c1ap-1", ("0x1.0fdfcf3f21c18p-1", "0x1.0000000000000p-52")),
        ("0x1.6d5d60c706af2p-1", ("0x0.0p+0", "0x1.6d5d60c706af2p-1")),
        ("0x1.0fdfcf3f21c18p-1", ("0x1.0fdfcf3f21c18p-1", "0x0.0p+0")),
        ("0x1.6d5d60c706af0p-1", ("0x0.0p+0", "0x1.6d5d60c706af0p-1")),
        ("0x0.0p+0", ("0x0.0p+0", "0x0.0p+0")),
        ("0x0.0p+0", ("0x0.0p+0", "0x0.0p+0")),
    )),
    ("ternary-1", "positive-delay", 4): ((10999, 4155, 8455, 5891, 14863, 17525), (
        ("0x1.23e021b506c30p-1", ("0x1.23e021b506c30p-1",)),
        ("0x1.a42eafede6088p-3", ("0x1.a42eafede6088p-3",)),
        ("0x1.7662f27f4b684p-2", ("0x1.7662f27f4b684p-2",)),
        ("0x1.4077a3851d4e8p-2", ("0x1.4077a3851d4e8p-2",)),
        ("0x1.67bbd1fb4b658p-3", ("0x1.67bbd1fb4b658p-3",)),
        ("0x1.0e25b1b865ad0p-2", ("0x1.0e25b1b865ad0p-2",)),
    )),
}


def test_grid_hull_golden_bits():
    specs = {"bscfb": networks.bscfb_spec(0.11), "causal-relay": networks.causal_relay_spec(),
             "ternary-1": random_network(*_TERNARY, 1)}
    for (name, mode, k), (want_best, want_rows) in _GRID_GOLDEN.items():
        hull, _, best = grid_hull(specs[name], mode, k)
        rows = tuple((c.cap.hex(), tuple(t.hex() for t in c.per_channel_terms)) for c in hull)
        assert (best, rows) == (want_best, want_rows), (name, mode, k)


def test_grid_windows_equal_whole_grid_rows():
    # slot 1's prefixes (its row's composition index) span 625 points of the
    # relay at k=4 and 256 of bscfb at k=3; windows start and end inside a
    # prefix, straddle one or two prefix boundaries, or cover the grid
    for spec, k, span in ((networks.causal_relay_spec(), 4, 625),
                          (networks.bscfb_spec(0.11), 3, 256)):
        problem = GridProblem(spec, "capacity", k)
        whole = problem.eval_batch(0, problem.n_points)
        n = problem.n_points
        for start, count in ((7, 30), (span - 10, 20), (span - 1, span + 2), (0, n),
                             (n - span - 3, span + 3), (n - 1, 1)):
            window = problem.eval_batch(start, count)
            assert np.array_equal(window.view(np.uint64),
                                  whole[start:start + count].view(np.uint64)), (k, start, count)


def test_grid_slot_terms_run_once_per_prefix(monkeypatch):
    # slot 1's log-sums run once, while its column tables are built: one
    # kernel call per shape (|A|, |B|, m) of slot-1 terms, over every column
    # of those terms and every count vector a column can hold (|v| <= k, or
    # |v| = k where the term has one column).  A later slot's term whose
    # tables hold fewer cells than its slot has prefixes is tabulated too:
    # its kernel runs at set-up once per column and fill block, over that
    # column's own entries at every digit tuple of its touched rows, in the
    # scan's blocks over those rows.  A block calls the kernel only for the
    # dense terms, each once per distinct digit tuple of its slot's rows in
    # the block: on the relay at k=12 the cut-{1} and cut-{2} slot-2 terms
    # read 3 of the 5 rows and are tabulated, and cut {1,2} reads all 5
    # (13^5 cells, every point) and runs dense, on every point of a block;
    # bscfb's one slot-2 term at k=8 reads 3 of 5 rows, so a bscfb block
    # calls no kernel and places no factor; a positive-delay block, all
    # slot 1, runs none; on three-slot grids a slot-2 dense term runs over
    # the block's digit tuples of factors 1 and 2's rows alone
    shapes, placed = [], []
    kernel, place = _grid.cond_entropy_table, _grid._aligned_factor
    monkeypatch.setattr(_grid, "cond_entropy_table",
                        lambda pbc: shapes.append(pbc.shape) or kernel(pbc))
    monkeypatch.setattr(_grid, "_aligned_factor",
                        lambda *args: placed.append(args[1:3]) or place(*args))

    def build(spec, mode, k):
        shapes.clear()
        problem = GridProblem(spec, mode, k)
        terms = [w.shape for slot in problem._terms for _, _, w, _ in slot]
        tables = {}  # (|A|, |B|, count vectors) -> columns
        for na, nb, nc in (w.shape for _, _, w, _ in problem._terms[0]):
            vectors = math.comb(k + na, na) if nc > 1 else math.comb(k + na - 1, na - 1)
            tables[na, nb, vectors] = tables.get((na, nb, vectors), 0) + nc
        later, dense, fills = {}, [], []  # cut -> (columns, cells per column) of tabled terms
        for s, (sets, tabled, slot_dense) in enumerate(problem._later, 1):
            nb_of = {ci: w.shape[1] for ci, _, w, _ in problem._terms[s]}
            for ci, which, entropy, _ in tabled:
                later[problem.cuts[ci].nodes.members] = entropy.shape
                fills += [(nb_of[ci], 1, math.prod(hi - lo for lo, hi in block))
                          for i in which for block in _grid._scan_blocks(sets[i][1])]
            dense += [problem.cuts[ci].nodes.members for ci, *_ in slot_dense]
        assert tables and shapes == ([(nb, 1, na, nc) for na, nb, nc in terms]  # h(a,c)
                                     + [(nb, 1, nc, n) for (_, nb, n), nc in tables.items()]
                                     + fills)
        return problem, tables, later, dense

    def dense_calls(problem, start, count):
        """Kernel shapes of a window's dense terms, block by block: each
        over the block's digit tuples of its slot's rows."""
        want = []
        for ranges in problem._window_blocks(start, count):
            for s, (_, _, slot_dense) in enumerate(problem._later, 1):
                rows = problem.radix[:int(problem.row_offset[s]) + problem.factor_n_rows[s]]
                points = math.prod(hi - lo for lo, hi in ranges[:int((rows > 1).sum())])
                want += [(w.shape[1], w.shape[2], points) for _, _, w, _ in slot_dense]
        return want

    problem, tables, later, dense = build(networks.causal_relay_spec(), "capacity", 12)
    assert tables == {(2, 2, 13): 2}
    assert later == {(1,): (4, 13 ** 3), (2,): (2, 13 ** 3)} and dense == [(1, 2)]
    assert [n for *_, n in shapes[-6:]] == [13 ** 3] * 6  # one fill block per column
    blocks = list(problem.blocks())
    assert blocks[0] == (0, 4394) and blocks[6] == (6 * 4394, 2197)
    # the last window straddles the slot-1 prefix boundary at 28,561
    assert len(list(problem._window_blocks(28561 - BATCH // 2, BATCH))) > 2
    for start, count in (blocks[0], blocks[6], (28561 - BATCH // 2, BATCH)):
        shapes.clear()
        problem.eval_batch(start, count)
        assert shapes == dense_calls(problem, start, count)
    problem, tables, later, dense = build(networks.bscfb_spec(0.11), "capacity", 8)
    assert (tables, later, dense) == ({(2, 2, 9): 1}, {(2,): (2, 9 ** 3)}, [])
    shapes.clear()
    placed.clear()
    problem.eval_batch(0, problem.block_points)
    assert shapes == [] and placed == []
    problem, tables, later, dense = build(random_network(*_TERNARY, 7), "positive-delay", 4)
    assert (tables, later, dense) == ({(3, 9, 35): 27, (9, 3, 715): 9}, {}, [])
    shapes.clear()
    problem.eval_batch(0, BATCH)
    assert shapes == []
    per_prefix = 0
    for spec, k in _random_grid_shapes(100):
        try:
            problem = GridProblem(spec, "capacity", k)
        except ResourceCapError:
            continue
        if problem.n_slots < 3 or problem.n_points < 64:
            continue
        for start, count in list(problem.blocks())[:2] + [(problem.n_points // 3, 40)]:
            shapes.clear()
            problem.eval_batch(start, count)
            want = dense_calls(problem, start, count)
            assert shapes == want
            per_prefix += any(n < count for *_, n in want)
    assert per_prefix == 14  # windows whose slot-2 dense term ran on fewer points than theirs


def _random_grid_shapes(count):
    """(spec, k) of `count` seeded networks: N in {2, 3} nodes, alpha in
    {1, 2, 3} channels, alphabets of 1 to 3 letters, partition blocks that
    may be empty, and a grid resolution k in {1, 2, 3}."""
    rng = np.random.Generator(np.random.Philox(46))
    for seed in range(count):
        nn, alpha = int(rng.integers(2, 4)), int(rng.integers(1, 4))
        x_sizes, y_sizes = (tuple(rng.integers(1, 4, nn).tolist()) for _ in range(2))
        s, g = (Partition(tuple(NodeSet(tuple((np.flatnonzero(block == h) + 1).tolist()))
                                for h in range(alpha)))
                for block in rng.integers(0, alpha, (2, nn)))
        yield random_network(x_sizes, y_sizes, s, g, seed), int(rng.integers(1, 4))


def _prefix_windows(problem):
    """(start, count) windows of a grid: the whole grid when it fits two
    scan batches, else the first and last batch and four points around
    every slot-1 prefix boundary and the first slot-2 one, so each window
    but the end ones straddles a boundary of every slot's prefixes."""
    n = problem.n_points
    if n <= 2 * BATCH:
        return [(0, n)]
    spans = [n // math.prod(problem.radix[:int(problem.row_offset[s]) + rows].tolist())
             for s, rows in enumerate(problem.factor_n_rows[:2])]
    edges = [p * spans[0] for p in range(1, int(problem.radix[0]))] + spans[1:]
    return [(0, BATCH), (n - BATCH, BATCH)] + [(e - 2, 4) for e in edges if 2 <= e < n - 1]


def test_grid_column_tables_equal_the_dense_slot_one_terms(bundled_specs):
    # slot 1's terms read off the column tables are the dense evaluation's
    # floats, at every slot-1 prefix: the bundled specs in both modes at five
    # resolutions, the ternary network, and 100 random shapes in both modes,
    # among them one-letter alphabets and terms whose C takes one value
    cases = [(spec, mode, k) for _, spec in sorted(bundled_specs.items())
             for mode in ("capacity", "positive-delay") for k in (1, 2, 3, 5, 8)]
    cases += [(random_network(*_TERNARY, seed), "positive-delay", 3) for seed in (1, 2, 3)]
    cases += [(spec, mode, k) for spec, k in _random_grid_shapes(100)
              for mode in ("capacity", "positive-delay")]
    compared, refused, one_letter, single_column = 0, 0, 0, 0
    for spec, mode, k in cases:
        try:
            problem = GridProblem(spec, mode, k)
        except ResourceCapError:
            refused += 1  # a capacity grid past the point cap
            continue
        for start, count in _prefix_windows(problem):
            got = problem.eval_batch(start, count)[:, :, 0]
            want = dense_grid_terms(problem, start, count)[:, :, 0]
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (mode, k, start)
        compared += 1
        one_letter += 1 in spec.input_alphabet_sizes + spec.output_alphabet_sizes
        single_column += any(w.shape[2] == 1 for _, _, w, _ in problem._terms[0])
    assert (compared, refused, one_letter, single_column) == (235, 8, 194, 94)


def test_grid_terms_equal_the_dense_evaluation(bundled_specs):
    # every slot's terms, read off tables or evaluated per prefix, are the
    # dense evaluation's floats: every scan batch of the benchmark's
    # capacity grids, and windows straddling the prefix boundaries of the
    # bundled specs at five resolutions and of 100 random shapes; the
    # ternary network's capacity grid is past the point cap at k = 1
    benchmark = [(networks.bscfb_spec(eps), 8) for eps in (0.05, 0.11, 0.25)]
    benchmark.append((networks.causal_relay_spec(), 12))
    cases = [(spec, k, True) for spec, k in benchmark]
    cases += [(spec, k, False) for _, spec in sorted(bundled_specs.items())
              for k in (1, 2, 3, 5, 8)]
    cases += [(random_network(*_TERNARY, seed), 1, False) for seed in (1, 2, 3)]
    cases += [(spec, k, False) for spec, k in _random_grid_shapes(100)]
    compared, refused, tabled, dense = 0, 0, 0, 0
    for spec, k, every_batch in cases:
        try:
            problem = GridProblem(spec, "capacity", k)
        except ResourceCapError:
            refused += 1
            continue
        windows = ([(start, min(BATCH, problem.n_points - start))
                    for start in range(0, problem.n_points, BATCH)]
                   if every_batch else _prefix_windows(problem))
        for start, count in windows:
            got = problem.eval_batch(start, count)
            want = dense_grid_terms(problem, start, count)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (k, start)
        compared += 1
        tabled += any(tables for _, tables, _ in problem._later)
        dense += any(slot_dense for *_, slot_dense in problem._later)
    assert (compared, refused, tabled, dense) == (116, 11, 29, 42)


def _block_windows(problem):
    """(start, count) windows of a grid that split into more than one
    Cartesian block: four points across each boundary between the scan's
    blocks, two blocks' worth from inside the second block, and windows that
    start and end inside rows."""
    n = problem.n_points
    edges = [start for start, _ in problem.blocks()][1:]
    windows = [(e - 2, 4) for e in edges]
    if edges:
        windows.append((edges[0] + 5, min(2 * problem.block_points, n - edges[0] - 5)))
    windows += [(1, n - 2), (n // 3, n // 3)] if n <= 2 * BATCH else [(n // 3, 100)]
    return [(start, count) for start, count in windows if count > 0]


def test_grid_block_windows_equal_the_dense_evaluation():
    # a window of eval_batch splits into at most 2L - 1 Cartesian blocks over
    # L live rows; every term of every point of windows across the scan's
    # block boundaries and across rows is the dense evaluation's float, bit
    # for bit: the relay at k = 3 and 12, bscfb at k = 3 and 8, and the
    # random capacity grids of two or more live rows
    named = [(networks.causal_relay_spec(), k) for k in (3, 12)]
    named += [(networks.bscfb_spec(0.11), k) for k in (3, 8)]
    compared, split, most = 0, 0, 0
    for index, (spec, k) in enumerate(named + list(_random_grid_shapes(100))):
        try:
            problem = GridProblem(spec, "capacity", k)
        except ResourceCapError:
            continue
        live = len(problem._live_radix)
        if live < 2:
            continue
        for start, count in _block_windows(problem):
            blocks = len(list(problem._window_blocks(start, count)))
            assert blocks <= 2 * live - 1
            split += blocks > 1
            most = max(most, blocks)
            got = problem.eval_batch(start, count)
            want = dense_grid_terms(problem, start, count)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (index, start)
        compared += 1
    assert (compared, split, most) == (36, 1429, 19)


def test_grid_scan_blocks_tile_the_grid(monkeypatch):
    # the scan asks eval_batch for one block at a time: its windows tile the
    # grid in C order, and each is one Cartesian block, its points' digits
    # (decoded apart from the grid) the product of one digit range per live
    # row, leading rows at one digit and the rows after the first range of
    # more than one digit whole, of at most block_points points, the count
    # the cell cap reads, and of fewer than BATCH + tail for that range's
    # row; a window off the grid is refused
    windows = []
    evaluate = GridProblem.eval_batch
    monkeypatch.setattr(GridProblem, "eval_batch", lambda self, start, count, out=None: (
        windows.append((start, count)) or evaluate(self, start, count, out)))
    s, g = Partition((NodeSet((1,)), NodeSet((2,)))), Partition((NodeSet((2,)), NodeSet((1,))))
    cases = [(networks.bscfb_spec(0.11), mode, 8) for mode in ("capacity", "positive-delay")]
    cases += [(networks.causal_relay_spec(), "capacity", k) for k in (3, 12)]
    cases += [(random_network(*_TERNARY, 7), "positive-delay", 4),
              (random_network((2, 1), (2, 128), s, g, 3), "capacity", 3)]
    for spec, mode, k in cases:
        problem = GridProblem(spec, mode, k)
        windows.clear()
        hull, n_points, _ = grid_hull(spec, mode, k)
        starts, counts = zip(*windows)
        assert list(starts) == list(itertools.accumulate(counts[:-1], initial=0))
        assert sum(counts) == n_points and max(counts) == problem.block_points
        radix = problem.radix[problem.radix > 1]
        for start, count in windows:
            digits = [np.unique(d) for d in np.unravel_index(start + np.arange(count), radix)]
            sizes = [d.size for d in digits]
            assert math.prod(sizes) == count
            assert all(d[-1] - d[0] + 1 == d.size for d in digits)
            row = next((i for i, n in enumerate(sizes) if n > 1), len(sizes) - 1)
            assert sizes[row + 1:] == radix[row + 1:].tolist()
            assert count < BATCH + math.prod(sizes[row + 1:])
        assert len(windows) == len(list(problem.blocks()))
        for start, count in ((-1, 1), (problem.n_points - 1, 2), (0, -1)):
            with pytest.raises(DomainError, match="outside"):
                problem.eval_batch(start, count)


def test_grid_indices_past_numpy_dimension_cap():
    # _unravel is numpy's index map, for radices past the 32 or 64 entries
    # numpy takes at once: one-entry rows read digit 0, and the live rows
    # fold back to the points by np.ravel_multi_index
    rng = np.random.Generator(np.random.Philox(12))
    for length in (1, 5, 32, 33, 64, 100, 2000):
        radix = np.ones(length, dtype=np.int64)
        live = np.sort(rng.choice(length, min(length, 4), replace=False))
        radix[live] = rng.integers(2, 5, live.size)
        points = np.arange(math.prod(radix.tolist()))
        digits = _grid._unravel(points, radix)
        assert len(digits) == length
        assert np.array_equal(np.array(digits)[live], np.unravel_index(points, radix[live]))
        assert not np.array(digits)[radix == 1].any()
        assert np.array_equal(np.ravel_multi_index(np.array(digits)[live], radix[live]), points)


def test_grid_scans_more_free_rows_than_numpy_dimensions():
    # node 2's one-letter input is drawn per (X1, Y2) row, 2 * 128 rows of
    # one composition each: 257 digits per point, past numpy's 64 dimensions
    s, g = Partition((NodeSet((1,)), NodeSet((2,)))), Partition((NodeSet((2,)), NodeSet((1,))))
    spec = random_network((2, 1), (2, 128), s, g, 3)
    problem = GridProblem(spec, "capacity", 3)
    assert (len(problem.radix), problem.n_points) == (257, 4)
    hull, _, best = grid_hull(spec, "capacity", 3)
    for c, point in zip(hull, best):
        report = grid_point_report(spec, "capacity", 3, point)
        assert report.coordinates == (point,) + (0,) * 256
        want = capacity_cut_cap(spec, factorized_joint(spec, report.distribution), c.cut)
        assert abs(c.cap - want.cap) <= 1e-12


def test_positive_delay_grid_never_exceeds_blahut_arimoto(bundled_specs):
    # every positive-delay grid cap is a lower value of its cut's maximum,
    # so it lies below Blahut-Arimoto's upper value, within rounding: the
    # bundled specs and 50 random shapes at k = 2 and 3
    specs = [spec for _, spec in sorted(bundled_specs.items())]
    specs += [spec for spec, _ in _random_grid_shapes(50)]
    close = 0
    for spec in specs:
        upper = positive_delay_upper(spec)
        for k in (2, 3):
            hull, _, _ = grid_hull(spec, "positive-delay", k)
            for c in hull:
                assert c.cap <= upper[c.cut.nodes.members] + 1e-12, (spec, k, c)
                close += c.cap > 0.1 and c.cap > upper[c.cut.nodes.members] - 1e-6
    assert close >= 4  # caps of a tenth of a bit or more meet their bound: not vacuous


def test_region_membership_golden_witness():
    # the first hit lies mid-grid, in the seventh scan batch: the witness's
    # index and the float.hex of its caps pin the scan's order and arithmetic
    spec = networks.bscfb_spec(0.11)
    rates = RateTuple.from_pairs(2, {(1, 2): 0.49, (2, 1): 0.9})
    res = region_membership(spec, rates, "capacity", 8)
    assert res.verdict == INSIDE
    assert res.witness.point_index == 27704
    assert res.witness.coordinates == (4, 2, 0, 0, 2)
    assert [c.cap.hex() for c in res.witness.constraints] \
        == ["0x1.000b03f9dea46p-1", "0x1.d5bd596c32fb2p-1"]


def test_grid_cap_checked_before_length_d_tables(monkeypatch):
    spec = _qary_feedback_spec(32)  # D = 32^4 = 2^20 joint cells
    monkeypatch.setattr(_grid, "POINT_CAP", 10)
    # capacity mode's count passes 2^64, so the message gives its bit count
    for mode, count in (("capacity", "an integer of 9271 bits"), ("positive-delay", "524800")):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError,
                               match=f"^grid point count {count} is above the cap of 10$"):
                GridProblem(spec, mode, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, mode  # under one byte per joint cell: no length-D table


def test_grid_validates_its_spec_once(monkeypatch):
    # the one validation is the spec's own, when it is built: the grid reads
    # that verdict, and positive-delay mode no longer validates again while
    # composing the channel
    calls = []
    validate = model.validate_spec
    monkeypatch.setattr(model, "validate_spec", lambda spec: calls.append(spec) or validate(spec))
    for mode in ("capacity", "positive-delay"):
        calls.clear()
        spec = networks.bscfb_spec(0.11)
        GridProblem(spec, mode, 8)
        assert calls == [spec], mode


def test_grid_cell_cap_checked_before_allocation():
    # 2^14 points at k=1, and the p(x) tables of one scan batch alone hold
    # 2^12 * 2^14 cells; the count comes from the alphabet sizes alone
    block = Partition((NodeSet((1, 2)),))
    spec = NetworkSpec(2, (128, 128), (2, 2), 1, block, block, (
        ChannelTable(("X1", "X2"), ("Y1", "Y2"), np.full((2 ** 14, 4), 0.25)),))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match=f"^grid table cell count \\d+ is above "
                                                   f"the cap of {GRID_CELL_CAP}$"):
            GridProblem(spec, "positive-delay", 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_grid_cell_count_covers_a_full_batch(monkeypatch):
    # the tracemalloc peak of the scan's largest block stays within 8 bytes
    # per counted cell: a cap one cell below peak / 8 refuses the grid.  The
    # largest block holds fewer than BATCH + tail points, tail being the
    # points of the rows after its partial row: 4,096 points of the ternary
    # grid's one row, 2 x 13^3 = 4,394 of the relay's.  Each case lowers the
    # cap in a context of its own, so the next one is built under the real cap
    for spec, mode, k, tail in ((random_network(*_TERNARY, 7), "positive-delay", 4, 1),
                                (networks.causal_relay_spec(), "capacity", 12, 13 ** 3)):
        problem = GridProblem(spec, mode, k)
        start, count = max(problem.blocks(), key=lambda block: block[1])
        assert BATCH <= count == problem.block_points < BATCH + tail
        tracemalloc.start()
        try:
            problem.eval_batch(start, count)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        with monkeypatch.context() as patch:
            patch.setattr(_grid, "GRID_CELL_CAP", -(-peak // 8) - 1)
            with pytest.raises(ResourceCapError):
                GridProblem(spec, mode, k)


def test_grid_column_tables_counted_before_they_are_built():
    # classical-bsc at k = 10^7 - 1 has 10^7 points, the point cap, and a
    # scan batch of a few cells per point, but slot 1's one term has a count
    # vector per point: its two column tables, the binomial table and their
    # build come to about 2.2e8 cells, past the cap, and are refused before
    # any table exists
    spec = networks.classical_bsc_spec(0.25)
    k = _grid.POINT_CAP - 1
    for mode in ("capacity", "positive-delay"):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError, match=f"^grid table cell count \\d+ is above "
                                                       f"the cap of {GRID_CELL_CAP}$"):
                GridProblem(spec, mode, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, mode


def test_grid_cell_count_covers_the_set_up(monkeypatch):
    # the tracemalloc peak of building a grid, its composition and column
    # tables included, stays within 8 bytes per counted cell: a cap one cell
    # below peak / 8 refuses the grid.  classical-bsc's one column holds
    # 100,001 count vectors, bscfb's two columns per term 1,891 each; the
    # relay's capacity grids fill later-slot tables of 6 columns of 13^3 and
    # 25^3 digit triples, one column at a time in scan-sized blocks, so the
    # relay at k = 12 peaks near 0.7 MB and every other case above 2 MB
    for spec, mode, k in ((networks.classical_bsc_spec(0.25), "positive-delay", 10 ** 5),
                          (networks.bscfb_spec(0.11), "positive-delay", 60),
                          (random_network(*_TERNARY, 7), "positive-delay", 4),
                          (networks.causal_relay_spec(), "capacity", 12),
                          (networks.causal_relay_spec(), "capacity", 24)):
        tracemalloc.start()
        try:
            problem = GridProblem(spec, mode, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak > (2 ** 19 if k == 12 else 2 ** 21)
        assert any(tables for _, tables, _ in problem._later) == (mode == "capacity")
        with monkeypatch.context() as patch:
            patch.setattr(_grid, "GRID_CELL_CAP", -(-peak // 8) - 1)
            with pytest.raises(ResourceCapError):
                GridProblem(spec, mode, k)


def test_grid_later_tables_counted_before_they_are_built(monkeypatch):
    # the relay's cut-{1} and cut-{2} slot-2 terms tabulate 6 columns of
    # (k + 1)^3 digit triples, an H_c and an L_c table each: from k = 12 to
    # k = 24 they grow by 12 (25^3 - 13^3) = 161,136 cells, 1.3 MB, and,
    # with every block counted at BATCH points (the relay's scan blocks
    # shrink from 4,394 to 4,375 points), the cell count grows by at least
    # that; with the cap one cell below the count at k = 24 the grid is
    # refused before any table exists
    counts = []
    require = _grid.require_within_cap
    monkeypatch.setattr(_grid, "require_within_cap", lambda count, limit, what: (
        what == "grid table cell count" and counts.append(count)) or require(count, limit, what))
    spec = networks.causal_relay_spec()
    with monkeypatch.context() as patch:
        patch.setattr(_grid, "_block_points", lambda radix: BATCH)
        for k in (12, 24):
            GridProblem(spec, "capacity", k)
    GridProblem(spec, "capacity", 24)
    small, large, count = counts
    assert large - small >= 12 * (25 ** 3 - 13 ** 3)
    monkeypatch.setattr(_grid, "GRID_CELL_CAP", count - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match=f"^grid table cell count {count} is above "
                                                   f"the cap of {count - 1}$"):
            GridProblem(spec, "capacity", 24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_grid_hull_noisy_feedback_capacity():
    eps = 0.11
    spec = networks.bscfb_spec(eps)
    hull, n_points, _ = grid_hull(spec, "capacity", 8)
    by_cut = {c.cut.nodes.members: c.cap for c in hull}
    assert abs(by_cut[(1,)] - (1.0 - binary_entropy(eps))) <= 0.01
    assert abs(by_cut[(2,)] - 1.0) <= 0.01
    assert n_points > 0


def test_grid_hull_noisy_feedback_positive_delay():
    eps = 0.11
    spec = networks.bscfb_spec(eps)
    hull, _, _ = grid_hull(spec, "positive-delay", 8)
    cap = 1.0 - binary_entropy(eps)
    for c in hull:
        assert c.cap <= cap + 0.01


def test_grid_hull_classical_channel():
    spec = networks.classical_bsc_spec(0.25)
    want = 1.0 - binary_entropy(0.25)
    for mode in ("capacity", "positive-delay"):
        hull, _, _ = grid_hull(spec, mode, 16)
        by_cut = {c.cut.nodes.members: c.cap for c in hull}
        assert abs(by_cut[(1,)] - want) <= 0.01
        assert by_cut[(2,)] <= 1e-9  # the reverse direction carries nothing


def test_grid_point_report_terms_nonnegative():
    spec = networks.bscfb_spec(0.11)
    for point in (0, 7, 123):
        rep = grid_point_report(spec, "capacity", 4, point)
        for c in rep.constraints:
            assert all(t >= 0.0 for t in c.per_channel_terms)
            assert abs(c.cap - sum(c.per_channel_terms)) < 1e-9
    # a point off the grid is refused where it is decoded, by both callers
    for mode in ("capacity", "positive-delay"):
        n_points = GridProblem(spec, mode, 4).n_points
        for point in (-1, n_points, 10**9):
            with pytest.raises(DomainError, match="outside"):
                grid_point_report(spec, mode, 4, point)


def test_grid_terms_match_oracle_on_rebuilt_joint(bundled_specs):
    # the joint is rebuilt from the point's conditionals outside the grid's
    # own index maps, as the scanned network's ``factorized_joint``, and
    # every term is recomputed by the log-sum oracle
    rng = np.random.Generator(np.random.Philox(5))
    cases = list(itertools.product(sorted(bundled_specs.items()),
                                   ("capacity", "positive-delay")))
    cases.append((("ternary", random_network(*_TERNARY, 7)), "positive-delay"))
    for (name, spec), mode in cases:
        net = _scanned(spec, mode)
        n_terms = net.alpha
        n_points = GridProblem(spec, mode, 4).n_points
        points = {0, n_points - 1} | {int(p) for p in rng.integers(0, n_points, 4)}
        for point in sorted(points):
            report = grid_point_report(spec, mode, 4, point)
            joint = factorized_joint(net, report.distribution)
            for c in report.constraints:
                want = [_cmi_oracle(joint, a, b, cc) if a and b else 0.0
                        for a, b, cc in (_term_groups(spec, mode, c.cut.nodes, h)
                                         for h in range(1, n_terms + 1))]
                assert len(c.per_channel_terms) == n_terms
                assert np.allclose(c.per_channel_terms, want, rtol=0.0, atol=1e-12), \
                    (name, mode, point, c.cut.nodes.members)


def _identity_cases(bundled_specs):
    return [(spec, mode) for _, spec in sorted(bundled_specs.items())
            for mode in ("capacity", "positive-delay")] + [
                (random_network(*_TERNARY, 7), "positive-delay")]


def test_grid_term_channels_are_the_joint_conditionals(bundled_specs):
    # each evaluated term's W(b|a,c) is stochastic and is the conditional of
    # a joint rebuilt outside the grid from random admissible factors; h(a,c)
    # is the entropy of its rows
    rng = np.random.Generator(np.random.Philox(11))
    for spec, mode in _identity_cases(bundled_specs):
        problem = GridProblem(spec, mode, 1)
        net = _scanned(spec, mode)
        conds = []
        for fin, fout in map(input_conditional_vars, _plan(net)):
            rows = math.prod(spec.var_size(n) for n in fin)
            cols = math.prod(spec.var_size(n) for n in fout)
            conds.append(ChannelTable(fin, fout, rng.dirichlet(np.ones(cols), size=rows)))
        joint = factorized_joint(net, conds)
        n_terms = 0
        for s, slot in enumerate(problem._terms):
            for ci, ac, w, h in slot:
                a, b, c = _term_groups(spec, mode, problem.cuts[ci].nodes, s + 1)
                assert ac == a + c
                assert np.allclose(w.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
                pabc = marginalize(joint, a + b + c).probs.reshape(w.shape)
                pac = pabc.sum(axis=1, keepdims=True)
                seen = np.broadcast_to(pac > 0.0, w.shape)
                assert seen.any()
                cond = np.divide(pabc, pac, out=np.zeros_like(pabc), where=seen)
                assert np.allclose(cond[seen], w[seen], rtol=0.0, atol=1e-12)
                logs = np.log2(np.where(w > 0.0, w, 1.0))
                assert np.allclose(h, -(w * logs).sum(axis=1), rtol=0.0, atol=1e-12)
                n_terms += 1
        assert n_terms > 0


def test_grid_terms_match_oracle_at_every_vertex(bundled_specs):
    # at k=1 every free row is a point mass, so most p(a,c) rows are 0, and
    # the deterministic network takes 0 log 0 in every term
    for spec, mode in _identity_cases(bundled_specs):
        problem = GridProblem(spec, mode, 1)
        terms = problem.eval_batch(0, problem.n_points)
        for point in range(problem.n_points):
            joint = factorized_joint(_scanned(spec, mode),
                                     grid_point_report(spec, mode, 1, point).distribution)
            for ci, s in itertools.product(range(problem.n_cuts), range(problem.n_slots)):
                a, b, c = _term_groups(spec, mode, problem.cuts[ci].nodes, s + 1)
                want = _cmi_oracle(joint, a, b, c) if a and b else 0.0
                assert abs(terms[point, ci, s] - want) < 1e-12, (mode, point, ci, s)


def test_grid_positive_delay_batch_holds_no_full_layout():
    # 4,096 points of p(x) over 27 input cells; the (X, Y) layout of the same
    # batch alone would be 729 cells per point, 23.9 MB
    problem = GridProblem(random_network(*_TERNARY, 7), "positive-delay", 4)
    tracemalloc.start()
    try:
        problem.eval_batch(0, BATCH)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 25 * 10 ** 6


def _cell_product(spec, cell, factors):
    """Product over (in_vars, out_vars, table) factors of the table entry at
    one full-layout cell, read by mixed-radix row and column indices."""
    value = dict(zip(spec.all_x_vars() + spec.all_y_vars(), cell))

    def fold(names):
        idx = 0
        for n in names:
            idx = idx * spec.var_size(n) + value[n]
        return idx

    return math.prod(float(t[fold(fin), fold(fout)]) for fin, fout, t in factors)


def test_placement_matches_per_cell_oracle(bundled_specs):
    # compose_channels and factorized_joint, of the spec and of its
    # all-delayed network, against one loop over every cell of the layout,
    # with random stochastic conditionals
    rng = np.random.Generator(np.random.Philox(9))
    specs = [spec for _, spec in sorted(bundled_specs.items())] + [random_network(*_TERNARY, 7)]
    for spec in specs:
        names = spec.all_x_vars() + spec.all_y_vars()
        sizes = [spec.var_size(n) for n in names]
        xs, ys = sizes[:spec.n_nodes], sizes[spec.n_nodes:]
        channels = [(ch.input_vars, ch.output_vars, ch.table) for ch in spec.channels]
        conds = []
        for fin, fout in map(input_conditional_vars, _plan(spec)):
            rows = math.prod(spec.var_size(n) for n in fin)
            table = rng.dirichlet(np.ones(math.prod(spec.var_size(n) for n in fout)), size=rows)
            conds.append(ChannelTable(fin, fout, table))
        px = rng.dirichlet(np.ones(math.prod(xs)))
        composed = compose_channels(spec).table.reshape(xs + ys)
        joint = factorized_joint(spec, conds).as_array()
        product = _product_joint(spec, px).as_array()
        for cell in itertools.product(*map(range, sizes)):
            q = _cell_product(spec, cell, channels)
            assert composed[cell] == pytest.approx(q, rel=1e-12, abs=0.0)
            c = _cell_product(spec, cell, [(t.input_vars, t.output_vars, t.table)
                                           for t in conds])
            assert joint[cell] == pytest.approx(c * q, rel=1e-12, abs=0.0)
            x = np.ravel_multi_index(cell[:spec.n_nodes], xs)
            assert product[cell] == pytest.approx(px[x] * q, rel=1e-12, abs=0.0)


def test_batched_placement_equals_stacked_calls(bundled_specs):
    rng = np.random.Generator(np.random.Philox(10))
    for spec in ([spec for _, spec in sorted(bundled_specs.items())]
                 + [random_network(*_TERNARY, 7)]):
        factors = [(ch.input_vars, ch.output_vars) for ch in spec.channels]
        factors += map(input_conditional_vars, _plan(spec))
        for fin, fout in factors:
            rows = math.prod(spec.var_size(n) for n in fin)
            cols = math.prod(spec.var_size(n) for n in fout)
            tables = rng.random((rows, cols, 2, 3))
            batched = _aligned_factor(spec, fin, fout, tables)
            for i, j in itertools.product(range(2), range(3)):
                single = _aligned_factor(spec, fin, fout, tables[:, :, i, j])
                assert np.array_equal(batched[..., i, j], single)


def _with_channel_1_rows(rows):
    d = model.spec_to_dict(networks.bscfb_spec(0.11))
    d["channels"][0]["rows"] = rows
    return model.spec_from_dict(d)


def test_grid_rejects_invalid_spec():
    # 1.8 bits into a binary Y2, or NaN read as zero information, at the parent
    nan = float("nan")
    for spec in (_with_channel_1_rows([[0.9, 0.9], [0.9, 0.9]]),
                 _with_channel_1_rows([[nan, nan], [0.11, 0.89]])):
        with pytest.raises(DomainError, match="invalid network"):
            grid_hull(spec, "capacity", 4)
        with pytest.raises(DomainError, match="invalid network"):
            grid_hull(spec, "positive-delay", 4)
        with pytest.raises(DomainError, match="invalid network"):
            region_membership(spec, RateTuple.from_pairs(2, {(1, 2): 0.1}),
                              "capacity", 4)
        with pytest.raises(DomainError, match="invalid network"):
            grid_point_report(spec, "capacity", 4, 0)


def test_grid_point_distribution_is_stochastic():
    # the point's conditionals are ChannelTables of the scanned network in
    # both modes: in positive-delay mode its one factor, p(x)
    spec = networks.bscfb_spec(0.11)
    tables = grid_point_report(spec, "capacity", 4, 11).distribution
    assert len(tables) == spec.alpha
    (p_x,) = grid_point_report(spec, "positive-delay", 4, 3).distribution
    assert (p_x.input_vars, p_x.output_vars) == ((), spec.all_x_vars())
    for t in tables + (p_x,):
        assert t.stochasticity_violations() == []


def test_region_membership_scheme_point():
    spec = networks.bscfb_spec(0.11)
    rates = RateTuple.from_pairs(2, {(1, 2): 0.45, (2, 1): 0.95})
    res = region_membership(spec, rates, "capacity", 8)
    assert res.verdict == INSIDE
    assert res.witness is not None
    # every cut constraint of the witness admits the rate tuple
    for c in res.witness.constraints:
        assert rates.flow_across(c.cut) <= c.cap + 1e-9


def test_region_membership_positive_delay_excludes_scheme_point():
    spec = networks.bscfb_spec(0.11)
    rates = RateTuple.from_pairs(2, {(1, 2): 0.45, (2, 1): 0.95})
    res = region_membership(spec, rates, "positive-delay", 8)
    assert res.verdict == NOT_FOUND
    assert res.witness is None


def test_region_membership_zero_rates_inside_everywhere():
    for name in ("bscfb", "classical-bsc", "deterministic"):
        spec = networks.bundled_spec(name)
        rates = RateTuple(np.zeros((2, 2)))
        assert region_membership(spec, rates, "capacity", 1).verdict == INSIDE
        assert region_membership(spec, rates, "positive-delay", 1).verdict == INSIDE


def test_region_membership_monotone_under_refinement():
    spec = networks.bscfb_spec(0.11)
    rates = RateTuple.from_pairs(2, {(1, 2): 0.4, (2, 1): 0.9})
    at4 = region_membership(spec, rates, "capacity", 4)
    at8 = region_membership(spec, rates, "capacity", 8)
    if at4.verdict == INSIDE:
        assert at8.verdict == INSIDE
    # the coarse grid contains uniform rows, so this point is found at k=4
    assert at4.verdict == INSIDE


def test_region_membership_rejects_wrong_size():
    spec = networks.bscfb_spec(0.11)
    with pytest.raises(DomainError):
        region_membership(spec, RateTuple(np.zeros((3, 3))), "capacity", 2)


# ---------------------------------------------------------------------------
# closed forms


def test_gaussian_relay_bounds_closed_form():
    from zdmn.gaussian import separation_report

    for p in (1.0, 1.25, 5.0, 0.3, 17.0):
        b = separation_report(p)
        assert abs(b.positive_delay_cap - 0.5 * math.log2(3 + 2 * p / 5)) < 1e-15
        assert abs(b.achievable_rate - 0.5 * math.log2(1 + 2 * p)) < 1e-15
        assert b.separated == (p > 1.25)
    b5 = separation_report(5.0)
    assert abs(b5.positive_delay_cap - 1.160964) < 1e-6
    assert abs(b5.achievable_rate - 1.729716) < 1e-6
    b125 = separation_report(1.25)
    assert abs(b125.positive_delay_cap - b125.achievable_rate) < 1e-15
    assert not b125.separated
    b1 = separation_report(1.0)
    assert b1.positive_delay_cap > b1.achievable_rate and not b1.separated
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            separation_report(bad)
