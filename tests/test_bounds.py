"""Per-cut outer bounds: exact caps, factorization checks, grid search."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from zdmn import _grid, model, networks
from zdmn._grid import (BATCH, GRID_CELL_CAP, GridProblem, capacity_term_groups,
                        compositions, positive_delay_term_groups)
from zdmn.bounds import (
    Cut,
    INSIDE,
    NOT_FOUND,
    RateTuple,
    bscfb_capacity_region,
    capacity_cut_cap,
    check_factorization,
    enumerate_cuts,
    gaussian_relay_bounds,
    grid_conditionals,
    grid_hull,
    grid_point_report,
    positive_delay_cut_cap,
    region_membership,
)
from zdmn.errors import DomainError, ResourceCapError
from zdmn.model import ChannelTable, NetworkSpec, NodeSet, Partition
from zdmn.probability import (
    JointPmf,
    _aligned_factor,
    binary_entropy,
    cmi_table,
    compose_channels,
    conditional_mutual_information,
    factorized_joint,
    input_conditional_vars,
    product_input_joint,
)


def _uniform_px(spec):
    names = spec.all_x_vars()
    sizes = tuple(spec.var_size(n) for n in names)
    cells = int(np.prod(sizes))
    return JointPmf(tuple(zip(names, sizes)), np.full(cells, 1.0 / cells))


def _scheme_joint(eps):
    """Uniform forward bit; node 2 transmits a fresh uniform bit xor Y2."""
    spec = networks.bscfb_spec(eps)
    in1, out1 = input_conditional_vars(spec, 1)
    in2, out2 = input_conditional_vars(spec, 2)
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
    na = int(np.prod([joint.size_of(n) for n in a_vars])) if a_vars else 1
    nb = int(np.prod([joint.size_of(n) for n in b_vars])) if b_vars else 1
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
    with pytest.raises(DomainError):
        enumerate_cuts(1)


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
    r = RateTuple.from_pairs(3, {(1, 2): 0.5, (1, 3): 0.25, (2, 1): 1.0})
    assert r.flow_across(Cut.of((1,))) == 0.75
    assert r.flow_across(Cut.of((1, 2))) == 0.25
    assert r.flow_across(Cut.of((2, 3))) == 1.0


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
    joint = product_input_joint(spec, _uniform_px(spec))
    t1 = capacity_cut_cap(spec, joint, Cut.of((1,)))
    # second channel contributes nothing to the T={1} cut: its receiving
    # side within the complement is empty
    assert t1.per_channel_terms[1] == 0.0
    assert abs(t1.per_channel_terms[0] - (1.0 - binary_entropy(eps))) < 1e-12
    assert abs(t1.cap - sum(t1.per_channel_terms)) < 1e-9
    oracle = _cmi_oracle(joint, ("X1",), ("Y2",), ())
    assert abs(t1.per_channel_terms[0] - oracle) < 1e-12


def test_capacity_cut_cap_scheme_reaches_one_bit():
    spec, joint = _scheme_joint(0.11)
    t2 = capacity_cut_cap(spec, joint, Cut.of((2,)))
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


def test_positive_delay_cut_caps_uniform_inputs():
    eps = 0.11
    spec = networks.bscfb_spec(eps)
    joint = product_input_joint(spec, _uniform_px(spec))
    want = 1.0 - binary_entropy(eps)
    t2 = positive_delay_cut_cap(spec, joint, Cut.of((2,)))
    assert len(t2.per_channel_terms) == 1
    assert abs(t2.cap - want) < 1e-12
    assert abs(t2.cap - _cmi_oracle(joint, ("X2",), ("Y1",), ("X1",))) < 1e-12
    t1 = positive_delay_cut_cap(spec, joint, Cut.of((1,)))
    assert abs(t1.cap - want) < 1e-12
    assert abs(t1.cap - _cmi_oracle(joint, ("X1",), ("Y1", "Y2"), ("X2",))) < 1e-12


def test_positive_delay_cut_cap_point_mass_inputs():
    spec = networks.bscfb_spec(0.11)
    px = JointPmf((("X1", 2), ("X2", 2)), np.array([1.0, 0.0, 0.0, 0.0]))
    joint = product_input_joint(spec, px)
    for cut in enumerate_cuts(2):
        assert positive_delay_cut_cap(spec, joint, cut).cap <= 1e-12


def test_classical_spec_caps_agree_across_modes():
    # with a single channel the two bounds are the same functional
    spec = networks.classical_bsc_spec(0.25)
    rng = np.random.Generator(np.random.Philox(5))
    for _ in range(5):
        px = JointPmf(
            (("X1", 2), ("X2", 1)), rng.dirichlet(np.ones(2))
        )
        joint = product_input_joint(spec, px)
        for cut in enumerate_cuts(2):
            a = capacity_cut_cap(spec, joint, cut)
            b = positive_delay_cut_cap(spec, joint, cut)
            assert abs(a.cap - b.cap) < 1e-12


# ---------------------------------------------------------------------------
# factorization checks


def test_factorization_product_joint_passes_both_modes():
    spec = networks.bscfb_spec(0.11)
    joint = product_input_joint(spec, _uniform_px(spec))
    assert check_factorization(spec, joint, "capacity")
    assert check_factorization(spec, joint, "positive-delay")


def test_factorization_scheme_joint_fails_positive_delay_only():
    # node 2 echoes its current reception, correlating the two inputs in a
    # way no delayed (input-marginal-first) factorization reproduces
    spec = networks.bscfb_spec(0.11)
    in1, out1 = input_conditional_vars(spec, 1)
    in2, out2 = input_conditional_vars(spec, 2)
    c1 = ChannelTable(in1, out1, np.array([[0.5, 0.5]]))
    echo = np.zeros((4, 2))
    for x1 in range(2):
        for y2 in range(2):
            echo[x1 * 2 + y2, y2] = 1.0
    joint = factorized_joint(spec, (c1, ChannelTable(in2, out2, echo)))
    assert check_factorization(spec, joint, "capacity")
    assert not check_factorization(spec, joint, "positive_delay")
    # whereas a code ignoring the reception stays admissible in both modes
    spec2, masked = _scheme_joint(0.11)
    assert check_factorization(spec2, masked, "positive-delay")


def test_factorization_rejects_perturbed_joint():
    spec = networks.bscfb_spec(0.11)
    joint = product_input_joint(spec, _uniform_px(spec))
    probs = joint.probs.copy()
    nz = np.flatnonzero(probs > 1e-3)
    probs[nz[0]] -= 1e-3
    probs[nz[1]] += 1e-3
    bent = JointPmf(joint.variables, probs)
    assert not check_factorization(spec, bent, "capacity")
    with pytest.raises(DomainError):
        check_factorization(spec, joint, "nonsense")


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


def _ternary_spec(seed):
    """Seeded 3-node ternary network, S = ({1}, {2}, {3}), G = ({2}, {3}, {1}),
    every channel row a Dirichlet(1, 1, 1) draw."""
    rng = np.random.Generator(np.random.Philox(seed))
    s = Partition((NodeSet((1,)), NodeSet((2,)), NodeSet((3,))))
    g = Partition((NodeSet((2,)), NodeSet((3,)), NodeSet((1,))))
    shell = NetworkSpec(3, (3, 3, 3), (3, 3, 3), 3, s, g, ())
    channels = []
    for h in range(1, 4):
        in_vars, out_vars = shell.channel_input_vars(h), shell.channel_output_vars(h)
        rows = rng.dirichlet(np.ones(3 ** len(out_vars)), size=3 ** len(in_vars))
        channels.append(ChannelTable(in_vars, out_vars, rows))
    return dataclasses.replace(shell, channels=tuple(channels))


def _compositions_by_bars(k, m):
    """Compositions of k into m parts from stars and bars, one row at a time."""
    out = []
    for bars in itertools.combinations(range(k + m - 1), m - 1):
        edges = (-1,) + bars + (k + m - 1,)
        out.append([b - a - 1 for a, b in zip(edges, edges[1:])])
    return np.array(out, dtype=np.int64).reshape(-1, m)


def test_compositions_match_stars_and_bars():
    for k, m in list(itertools.product(range(1, 7), range(1, 7))) + [(20, 1)]:
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


def test_grid_rejects_nonpositive_max_distributions():
    spec = networks.bscfb_spec(0.11)
    for cap in (0, -1):
        with pytest.raises(DomainError, match="max_distributions must be >= 1"):
            grid_hull(spec, "capacity", 2, max_distributions=cap)


def test_grid_batch_rows_equal_single_points(bundled_specs):
    # a point's terms do not depend on the batch it is scanned in; the
    # ternary capacity grid (6^91 points at k=2) is far beyond the cap
    cases = [(spec, mode) for _, spec in sorted(bundled_specs.items())
             for mode in ("capacity", "positive-delay")]
    cases += [(_ternary_spec(seed), "positive-delay") for seed in (1, 2, 3)]
    for spec, mode in cases:
        problem = GridProblem(spec, mode, 2)
        batch = problem.eval_batch(0, problem.n_points)
        assert batch.shape == (problem.n_points, problem.n_cuts, problem.n_slots)
        for i in range(problem.n_points):
            assert np.allclose(batch[i], problem.eval_batch(i, 1)[0], rtol=0.0, atol=1e-15)


def test_grid_cap_checked_before_length_d_tables():
    spec = _qary_feedback_spec(32)  # D = 32^4 = 2^20 joint cells
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError):
            GridProblem(spec, "capacity", 2, max_distributions=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20  # under one byte per joint cell: no length-D table


def test_grid_cell_cap_checked_before_allocation():
    # 1,024 points only, but one scan batch of D = 2^20 joints holds 2^30
    # cells; the count comes from the alphabet sizes alone
    spec = _qary_feedback_spec(32)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match=f"above the cap {GRID_CELL_CAP}"):
            GridProblem(spec, "positive-delay", 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_grid_cell_count_covers_a_full_batch(monkeypatch):
    # the tracemalloc peak of one full scan batch stays within 8 bytes per
    # counted cell: a cap one cell below peak / 8 refuses the grid
    for spec, mode, k in ((_ternary_spec(7), "positive-delay", 4),
                          (networks.causal_relay_spec(), "capacity", 12)):
        problem = GridProblem(spec, mode, k)
        assert problem.n_points >= BATCH
        tracemalloc.start()
        try:
            problem.eval_batch(0, BATCH)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(_grid, "GRID_CELL_CAP", -(-peak // 8) - 1)
        with pytest.raises(ResourceCapError):
            GridProblem(spec, mode, k)


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
        for call, point in itertools.product((grid_point_report, grid_conditionals),
                                             (-1, n_points, 10**9)):
            with pytest.raises(DomainError, match="outside"):
                call(spec, mode, 4, point)


def test_grid_terms_match_oracle_on_rebuilt_joint(bundled_specs):
    # the joint is rebuilt from the point's conditionals outside the grid's
    # own index maps, and every term is recomputed by the log-sum oracle
    rng = np.random.Generator(np.random.Philox(5))
    cases = list(itertools.product(sorted(bundled_specs.items()),
                                   ("capacity", "positive-delay")))
    cases.append((("ternary", _ternary_spec(7)), "positive-delay"))
    for (name, spec), mode in cases:
        n_points = GridProblem(spec, mode, 4).n_points
        points = {0, n_points - 1} | {int(p) for p in rng.integers(0, n_points, 4)}
        for point in sorted(points):
            report = grid_point_report(spec, mode, 4, point)
            dist = grid_conditionals(spec, mode, 4, point)
            if mode == "capacity":
                joint = factorized_joint(spec, dist)
                groups = [[capacity_term_groups(spec, c.cut.nodes, h)
                           for h in range(1, spec.alpha + 1)]
                          for c in report.constraints]
            else:
                joint = product_input_joint(spec, dist)
                groups = [[positive_delay_term_groups(spec, c.cut.nodes)]
                          for c in report.constraints]
            for c, cut_groups in zip(report.constraints, groups):
                want = [_cmi_oracle(joint, a, b, cc) if a and b else 0.0
                        for a, b, cc in cut_groups]
                assert np.allclose(c.per_channel_terms, want, rtol=0.0, atol=1e-12), \
                    (name, mode, point, c.cut.nodes.members)


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
    # compose_channels, factorized_joint and product_input_joint against one
    # loop over every cell of the layout, with random stochastic conditionals
    rng = np.random.Generator(np.random.Philox(9))
    specs = [spec for _, spec in sorted(bundled_specs.items())] + [_ternary_spec(7)]
    for spec in specs:
        names = spec.all_x_vars() + spec.all_y_vars()
        sizes = [spec.var_size(n) for n in names]
        xs, ys = sizes[:spec.n_nodes], sizes[spec.n_nodes:]
        channels = [(ch.input_vars, ch.output_vars, ch.table) for ch in spec.channels]
        conds = []
        for h in range(1, spec.alpha + 1):
            fin, fout = input_conditional_vars(spec, h)
            rows = math.prod(spec.var_size(n) for n in fin)
            table = rng.dirichlet(np.ones(math.prod(spec.var_size(n) for n in fout)), size=rows)
            conds.append(ChannelTable(fin, fout, table))
        px = rng.dirichlet(np.ones(math.prod(xs)))
        composed = compose_channels(spec).table.reshape(xs + ys)
        joint = factorized_joint(spec, conds).as_array()
        product = product_input_joint(spec, JointPmf(
            tuple(zip(names[:spec.n_nodes], xs)), px)).as_array()
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
    for spec in [spec for _, spec in sorted(bundled_specs.items())] + [_ternary_spec(7)]:
        factors = [(ch.input_vars, ch.output_vars) for ch in spec.channels]
        factors += [input_conditional_vars(spec, h) for h in range(1, spec.alpha + 1)]
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


def test_grid_conditionals_are_stochastic():
    spec = networks.bscfb_spec(0.11)
    tables = grid_conditionals(spec, "capacity", 4, 11)
    assert len(tables) == spec.alpha
    for t in tables:
        assert t.stochasticity_violations() == []
    pj = grid_conditionals(spec, "positive-delay", 4, 3)
    assert pj.validate() == []


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


def test_gaussian_relay_bounds_closed_form():
    for p in (1.0, 1.25, 5.0, 0.3, 17.0):
        b = gaussian_relay_bounds(p)
        assert abs(b.positive_delay_cap - 0.5 * math.log2(3 + 2 * p / 5)) < 1e-15
        assert abs(b.achievable_rate - 0.5 * math.log2(1 + 2 * p)) < 1e-15
        assert b.separated == (p > 1.25)
    b5 = gaussian_relay_bounds(5.0)
    assert abs(b5.positive_delay_cap - 1.160964) < 1e-6
    assert abs(b5.achievable_rate - 1.729716) < 1e-6
    b125 = gaussian_relay_bounds(1.25)
    assert abs(b125.positive_delay_cap - b125.achievable_rate) < 1e-15
    assert not b125.separated
    b1 = gaussian_relay_bounds(1.0)
    assert b1.positive_delay_cap > b1.achievable_rate and not b1.separated
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            gaussian_relay_bounds(bad)
