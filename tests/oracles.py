"""Independent references the unit tests compare the system against.

No command, workload or acceptance check runs these, so they live beside
the tests rather than in the package.  Each works on the network it is
handed, the spec or, for the positive-delay bound, its all-delayed network:
``grid_point_report`` gives a grid point's terms and input conditionals,
``factorized_joint`` rebuilds the point's joint from them,
``capacity_cut_cap`` recomputes its cut caps from that joint and
``check_factorization`` pins its admissibility.  ``bscfb_engine_code``
writes the masked-feedback scheme as a table code, so ``bscfb_scheme`` can
be pinned against the slot engine.  ``dense_step_cmis`` and
``dense_equivalence`` are the Markov and equivalence checks on the dense
induced joint, by variable names, the reference for the checks' outcome rows;
``two_network_equivalence`` is the equivalence check on the outcome rows of
the spec and of its all-delayed network, two enumerations, the bit-for-bit
reference for the check's one enumeration.
``random_network`` draws the seeded networks the tests run them on.
"""

from __future__ import annotations

import math

import numpy as np

from zdmn._grid import GridProblem, capacity_term_groups
from zdmn.bounds import CutConstraint, RateRegionReport, _point_report, _require_proper_cut
from zdmn.errors import DomainError
from zdmn.model import (ChannelTable, Cut, DelayProfile, NetworkSpec, require_valid, step_plan,
                        x_var, y_var)
from zdmn.probability import (JointPmf, _aligned_factor, _channel_product, _full_layout,
                              _group_size, _marginal, all_delayed_network,
                              conditional_mutual_information, input_conditional_vars)
from zdmn.simulate import (TableCode, _numbered, _outcomes, _packed, _require_cells_within_cap,
                           _row_sizes, induced_joint, table_shapes)

SUM_TOL = 1e-9
FACT_TOL = 1e-9


def joint_violations(joint: JointPmf) -> list[str]:
    """What makes `joint` no pmf: non-finite or negative entries, or a sum
    off 1 by more than SUM_TOL; empty for a pmf."""
    out = []
    n_bad = int(np.count_nonzero(~np.isfinite(joint.probs)))
    if n_bad:
        out.append(f"{n_bad} non-finite entries")
    if np.any(joint.probs < 0.0):
        out.append("negative entries")
    if not n_bad and abs(float(joint.probs.sum()) - 1.0) > SUM_TOL:
        out.append(f"entries sum to {joint.probs.sum():.9f} (not 1 within {SUM_TOL:g})")
    return out


def factorized_joint(spec: NetworkSpec, input_conditionals) -> JointPmf:
    """Joint from the product of the input conditionals and the channels."""
    require_valid(spec)
    conds = tuple(input_conditionals)
    if len(conds) != spec.alpha:
        raise DomainError(f"expected {spec.alpha} input conditionals, got {len(conds)}")
    names, sizes = _full_layout(spec)
    arr = _channel_product(spec)
    plan = step_plan(spec.input_partition, spec.output_partition)
    for h, (c, step) in enumerate(zip(conds, plan), start=1):
        want_in, want_out = input_conditional_vars(step)
        if tuple(c.input_vars) != want_in or tuple(c.output_vars) != want_out:
            raise DomainError(
                f"input conditional {h}: variables ({c.input_vars} -> {c.output_vars})"
                f" != expected ({want_in} -> {want_out})"
            )
        rows = _group_size(spec.var_size, want_in)
        cols = _group_size(spec.var_size, want_out)
        if c.table.shape != (rows, cols):
            raise DomainError(f"input conditional {h}: table shape {c.table.shape} != ({rows}, {cols})")
        bad = c.stochasticity_violations(f"input conditional {h}")
        if bad:
            raise DomainError("; ".join(bad))
        arr = arr * _aligned_factor(spec, c.input_vars, c.output_vars, c.table)
    return JointPmf(tuple(zip(names, sizes)), arr.reshape(-1))


def _require_joint_over_all(spec: NetworkSpec, joint: JointPmf) -> None:
    want = set(spec.all_x_vars() + spec.all_y_vars())
    if set(joint.names) != want:
        raise DomainError(f"joint must cover exactly {sorted(want)}")
    bad = joint_violations(joint)
    if bad:
        raise DomainError("malformed joint: " + "; ".join(bad))


def capacity_cut_cap(spec: NetworkSpec, joint: JointPmf, cut: Cut) -> CutConstraint:
    """Per-channel terms of the capacity-region bound for one cut."""
    _require_joint_over_all(spec, joint)
    _require_proper_cut(cut, spec.n_nodes)
    terms = [conditional_mutual_information(joint, *capacity_term_groups(step, cut.nodes))
             for step in step_plan(spec.input_partition, spec.output_partition)]
    return CutConstraint(cut, tuple(terms), float(sum(terms)))


def check_factorization(spec: NetworkSpec, joint: JointPmf) -> bool:
    """Does the joint satisfy the admissibility factorization of the network?

    The joint must reproduce every channel as its conditional of Y_{G_h} given
    (X_{S^h}, Y_{G^{h-1}}) on positive-probability rows, within FACT_TOL.
    The positive-delay check is that of ``all_delayed_network(spec)``: its
    one channel, the composed channel, implies each channel's conditional,
    since q_1 ... q_{h-1} factor out of the sum over X outside S^h.
    """
    _require_joint_over_all(spec, joint)
    arr = joint.as_array()
    for ch in spec.channels:
        if not ch.output_vars:
            continue
        table = _marginal(arr, joint.names, ch.input_vars + ch.output_vars)
        table = table.reshape(ch.table.shape)
        mass = table.sum(axis=1)
        seen = mass > 0.0
        if np.any(np.abs(table[seen] / mass[seen, None] - ch.table[seen]) > FACT_TOL):
            return False
    return True


def grid_point_report(spec: NetworkSpec, which: str, k: int, point: int) -> RateRegionReport:
    """The report of one grid point, as ``region_membership`` gives its witness."""
    return _point_report(GridProblem(spec, which, k), point)


def bscfb_engine_code(n: int, forward_code) -> TableCode:
    """The masked-feedback scheme as an engine code: message sizes (2^k
    forward, 2^n reverse), delay profile (1, 0), binary alphabets.  Its
    tables are capped at ``CODE_CELL_CAP`` cells."""
    k = forward_code.k
    if n < 1:
        raise DomainError("blocklength must be >= 1")
    sizes = ((1, 2 ** k), (2 ** n, 1))
    _require_cells_within_cap(table_shapes(n, sizes, (1, 0), (2, 2)))
    words = np.arange(2 ** n, dtype=np.int64)
    word_bits = np.transpose(np.unravel_index(words, (2,) * n))  # slot 1 first
    msg_bits = np.transpose(np.unravel_index(np.arange(2 ** k), (2,) * k))
    codewords = np.asarray(forward_code.encode_batch(msg_bits.astype(np.uint8)),
                           dtype=np.int64)
    if codewords.shape != (2 ** k, n):
        raise DomainError(f"forward code has blocklength {codewords.shape[-1]}, "
                          f"not {n}")
    # node 1 sends codeword bit k whatever it has received
    enc1 = tuple(np.broadcast_to(codewords[:, kk, None], (2 ** k, 2 ** kk))
                 for kk in range(n))
    # zero delay: the last prefix digit, y_idx & 1, is the current-slot symbol
    enc2 = tuple(((words[:, None] >> kk) & 1) ^ (np.arange(2 ** (kk + 1)) & 1)
                 for kk in range(n))
    decoded = np.ravel_multi_index(
        np.asarray(forward_code.decode_batch(word_bits.astype(np.uint8)), dtype=np.int64).T,
        (2,) * k)
    reversed_words = np.ravel_multi_index(word_bits.T[::-1], (2,) * n)  # slot 1 least significant
    return TableCode(
        n=n,
        message_sizes=sizes,
        delay_profile=DelayProfile.of((1, 0)),
        input_sizes=(2, 2),
        output_sizes=(2, 2),
        encoder_tables=(enc1, enc2),
        decoder_tables={(1, 2): np.broadcast_to(decoded, (2 ** n, 2 ** n)),
                        (2, 1): np.broadcast_to(reversed_words, (2 ** k, 2 ** n))})


def dense_step_cmis(spec: NetworkSpec, code: TableCode, which: str) -> list:
    """(k, h, value) per slot k and channel h of ``check_memoryless_markov``
    (`which` "memoryless") or ``check_positive_delay_markov`` (any other
    `which`), by ``conditional_mutual_information`` on the dense induced
    joint; the past is every variable before slot k."""
    joint = induced_joint(spec, code)
    out = []
    for k in range(1, code.n + 1):
        past = list(joint.names[:len(code.pairs) + 2 * spec.n_nodes * (k - 1)])
        for h, (s_h, s_upto, g_before, _) in enumerate(
                step_plan(spec.input_partition, spec.output_partition), start=1):
            if which == "memoryless":
                groups = ((), spec.channel_output_vars(h), spec.channel_input_vars(h))
            else:
                groups = (tuple(map(x_var, s_h)), tuple(map(y_var, g_before)),
                          tuple(x_var(i) for i in s_upto if i not in s_h))
            a, b, c = ([f"{v}.{k}" for v in names] for names in groups)
            out.append((k, h, conditional_mutual_information(joint, past + a, b, c)))
    return out


def dense_equivalence(spec: NetworkSpec, code: TableCode) -> float:
    """L1 distance between the dense induced joints of `spec` and of its
    all-delayed network, cell by cell."""
    stepwise = induced_joint(spec, code)
    merged = induced_joint(all_delayed_network(spec), code)
    return float(np.abs(stepwise.probs - merged.probs).sum())


def two_network_equivalence(spec: NetworkSpec, code: TableCode) -> float:
    """L1 distance between the outcome rows of `spec` and of its all-delayed
    network, each enumerated on its own: per distinct packed (W, X^n, Y^n)
    key, in key order, |p - m| of the rows of either network with that key."""
    (cells, prob), (merged, merged_prob) = (_outcomes(network, code) for network
                                            in (spec, all_delayed_network(spec)))
    sizes = _row_sizes(spec, code)
    rank, count = _numbered(np.concatenate([_packed(rows, range(len(sizes)), sizes)
                                            for rows in (cells, merged)]))
    return float(np.abs(np.bincount(rank, np.concatenate([prob, -merged_prob]), count)).sum())


def random_network(x_sizes, y_sizes, s, g, seed: int) -> NetworkSpec:
    """The network of these alphabets and partitions S and G, every channel
    row a Dirichlet(1, ..., 1) draw from ``Philox(seed)``, channel by channel."""
    rng = np.random.Generator(np.random.Philox(seed))
    channels = []
    for _, xs, ys, outs in step_plan(s, g):
        rows = math.prod([x_sizes[i - 1] for i in xs] + [y_sizes[i - 1] for i in ys])
        cols = math.prod(y_sizes[i - 1] for i in outs)
        channels.append(ChannelTable((*map(x_var, xs), *map(y_var, ys)), tuple(map(y_var, outs)),
                                     rng.dirichlet(np.ones(cols), size=rows)))
    return NetworkSpec(len(x_sizes), x_sizes, y_sizes, s.alpha, s, g, tuple(channels))
