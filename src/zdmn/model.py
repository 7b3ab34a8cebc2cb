"""Network specifications, partitions, cuts, delay profiles, and their validation.

A network is described by N nodes, alpha ordered channels, an input partition
S and an output partition G of {1..N}.  Channel h emits the outputs of block
G_h given the inputs of the prefix S^h = S_1 u ... u S_h and the outputs of
the prefix G^{h-1}.  Node indices are 1-based in every external format.

A ``NetworkSpec`` checks itself once, when it is built: ``validate_spec``
collects its violations into the spec's ``validation``, and every entry
point refuses an invalid spec through ``require_valid``, which reads that
stored report.  A spec holds only tuples, ints and read-only arrays, so the
report cannot go stale.

The module also keeps the four guards: every number a caller hands in goes
through ``require_integer`` or ``require_real``, every table a caller or a
file hands in through ``require_table``, which gives its holder a read-only
copy of its own, and every count checked against a resource cap through
``require_within_cap``.  It keeps too the one
counter-based stream every simulator draws from (``trial_uniforms``), and
the JSON reader and writer of the package's files.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceCapError, SpecIOError

ROW_TOL = 1e-9
# most nodes of one enumeration (2^16 delay profiles, or 2^16 - 2 cuts) and
# of a rate tuple, which region_membership compares across every cut
NODE_CAP = 16
DRAW_CELLS = 2 ** 20  # uniforms per batch of the simulators outside the engine; bounds memory
PHILOX_BLOCKS = 2 ** 256  # counter blocks of one Philox stream; past them the counter wraps


def x_var(i: int) -> str:
    return f"X{i}"


def y_var(i: int) -> str:
    return f"Y{i}"


@dataclass(frozen=True)
class NodeSet:
    """Ordered set of node indices, strictly increasing."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        # a list would leave the set unhashable and changeable inside a frozen spec
        object.__setattr__(self, "members", tuple(self.members))

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def bitmask(self, n_nodes: int) -> str:
        """String of length N; position i-1 is '1' iff node i is a member."""
        return "".join("1" if i in self.members else "0" for i in range(1, n_nodes + 1))

    def strictly_increasing(self) -> bool:
        return all(a < b for a, b in zip(self.members, self.members[1:]))


@dataclass(frozen=True)
class Partition:
    """Ordered list of blocks; a valid alpha-partition covers {1..N} disjointly."""

    blocks: tuple[NodeSet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(self.blocks))

    @property
    def alpha(self) -> int:
        return len(self.blocks)

    def block_index_of(self, i: int) -> int:
        """1-based index of the block containing node i."""
        for h, b in enumerate(self.blocks, start=1):
            if i in b:
                return h
        raise DomainError(f"node {i} is in no block of the partition")


@dataclass(frozen=True)
class Cut:
    """Proper nonempty subset T of the node set."""

    nodes: NodeSet


def enumerate_cuts(n_nodes: int) -> list[Cut]:
    """All 2^N - 2 proper nonempty subsets, lexicographic over member tuples;
    above ``NODE_CAP`` nodes a ResourceCapError, before any is built."""
    n_nodes = require_integer(n_nodes, "n_nodes", 2)
    require_within_cap(n_nodes, NODE_CAP, "cut enumeration node count")
    subsets = []
    for r in range(1, n_nodes):
        subsets += [tuple(c) for c in itertools.combinations(range(1, n_nodes + 1), r)]
    return [Cut(NodeSet(t)) for t in sorted(subsets)]


def _parse_blocks(blocks, what: str) -> Partition:
    return Partition(tuple(NodeSet(tuple(json_int(i, what) for i in b)) for b in blocks))


@dataclass(frozen=True)
class ChannelTable:
    """Row-stochastic conditional pmf of the output block given the input block.

    Rows are indexed by the joint input assignment and columns by the joint
    output assignment, mixed-radix in the listed variable order with the first
    variable most significant.  An empty output list degenerates to a single
    certain column; an empty input list to a single row.
    """

    input_vars: tuple[str, ...]
    output_vars: tuple[str, ...]
    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "input_vars", tuple(self.input_vars))
        object.__setattr__(self, "output_vars", tuple(self.output_vars))
        # + 0.0 turns -0.0 into 0.0, which a spec file would otherwise print
        t = require_table(self.table, "real",
                          f"table of channel {self.input_vars} -> {self.output_vars}")
        object.__setattr__(self, "table", read_only(np.atleast_2d(t) + 0.0))

    def __reduce__(self):
        # a pickled array comes back writable: rebuild through __init__
        return ChannelTable, (self.input_vars, self.output_vars, self.table)

    def stochasticity_violations(self, label: str = "channel") -> list[str]:
        # whole-table reductions: a valid table costs O(rows) scratch, not O(cells)
        t = self.table
        out = []
        with np.errstate(invalid="ignore"):  # inf + -inf in a row sums to NaN
            sums = t.sum(axis=1)
        if not np.isfinite(sums).all():  # a non-finite entry spoils its row sum
            n_bad = int(np.count_nonzero(~np.isfinite(t)))
            if n_bad:
                out.append(f"{label}: {n_bad} non-finite entries")
        if t.size and (np.fmin.reduce(t, axis=None) < 0.0
                       or np.fmax.reduce(t, axis=None) > 1.0):
            out.append(f"{label}: entries outside [0, 1]")
        dev = sums - 1.0
        bad = np.flatnonzero(np.abs(dev, out=dev) > ROW_TOL)
        for r in bad[:8]:
            out.append(f"{label}: row {r} sums to {sums[r]:.9f} (not 1 within {ROW_TOL:g})")
        if len(bad) > 8:
            out.append(f"{label}: {len(bad) - 8} further non-stochastic rows")
        return out


_TABLE_KINDS = {"integer": (np.int64, numbers.Integral, "integers", "int64"),
                "real": (np.float64, numbers.Real, "real numbers", "float")}


def require_table(table, kind: str, what: str, error=DomainError) -> np.ndarray:
    """`table` as a fresh read-only array its holder alone owns: int64 for `kind`
    "integer", float64 for "real".  An entry that is not an integer (for "real",
    an integer or a float), such as a boolean, a string, a complex, None or a
    nested list, or an integer beyond the int64 or float range, is an `error`
    naming the table `what`: a DomainError in memory, a SpecIOError from a file."""
    dtype, number, plural, limit = _TABLE_KINDS[kind]
    arr = table if isinstance(table, np.ndarray) else np.asarray(table, dtype=object)
    types = set(map(type, arr.ravel())) if arr.dtype == object else {arr.dtype.type}
    bad = sorted(t.__name__ for t in types if not issubclass(t, number) or t is bool)
    if bad:
        raise error(f"{what} must hold {plural}, got {', '.join(bad)} entries")
    try:
        fresh = arr.astype(dtype)
        if arr.dtype.kind == "u" and fresh.size and fresh.min() < 0:  # a uint64 wrapped
            raise OverflowError
    except OverflowError:
        raise error(f"{what} holds an integer beyond the {limit} range") from None
    return read_only(fresh)


def read_only(fresh: np.ndarray) -> np.ndarray:
    """A view of `fresh`, an array no one else holds, both read-only: the
    view's ``setflags(write=True)`` is a ValueError, since its base is
    read-only."""
    fresh.setflags(write=False)
    return fresh.view()


@dataclass(frozen=True)
class NetworkSpec:
    """A generalized discrete memoryless network (X_I, Y_I, alpha, S, G, q).

    Built, ``dataclasses.replace`` included, it runs ``validate_spec`` once
    and keeps the report as ``validation``.  An invalid spec still builds;
    ``require_valid`` refuses it where it is used.

    A valid spec also derives, once, what the slot loop reads on every call:
    ``steps``, its ``step_plan`` as a tuple, and ``draw_tables``, per channel
    its cumulative table without the last column, transposed to (cols - 1,
    rows) and read-only (``simulate._draw_column``).  An invalid spec, which
    no engine call runs, holds both as empty tuples.
    """

    n_nodes: int
    input_alphabet_sizes: tuple[int, ...]
    output_alphabet_sizes: tuple[int, ...]
    alpha: int
    input_partition: Partition
    output_partition: Partition
    channels: tuple[ChannelTable, ...]
    validation: ValidationReport = field(init=False, compare=False, repr=False)
    steps: tuple = field(init=False, compare=False, repr=False)
    draw_tables: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("input_alphabet_sizes", "output_alphabet_sizes", "channels"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        report = validate_spec(self)
        object.__setattr__(self, "validation", report)
        # only a valid spec's plan sorts integer nodes and its tables are finite
        object.__setattr__(self, "steps", tuple(
            step_plan(self.input_partition, self.output_partition)) if report.ok else ())
        object.__setattr__(self, "draw_tables", tuple(
            read_only(np.cumsum(ch.table, axis=1)[:, :-1].T.copy())
            for ch in self.channels) if report.ok else ())

    def __setstate__(self, state: dict) -> None:
        # a pickled array comes back writable; the report and the plan travel as they are
        self.__dict__.update(state, draw_tables=tuple(map(read_only, state["draw_tables"])))

    def var_size(self, name: str) -> int:
        i = int(name[1:])
        if name[0] == "X":
            return self.input_alphabet_sizes[i - 1]
        if name[0] == "Y":
            return self.output_alphabet_sizes[i - 1]
        raise DomainError(f"unknown variable {name!r}")

    def channel_input_vars(self, h: int) -> tuple[str, ...]:
        """(X_i : i in S^h) then (Y_i : i in G^{h-1}), each ascending."""
        _, xs, ys, _ = _step(self, h)
        return _input_names(xs, ys)

    def channel_output_vars(self, h: int) -> tuple[str, ...]:
        return tuple(map(y_var, _step(self, h)[3]))

    def all_x_vars(self) -> tuple[str, ...]:
        return tuple(x_var(i) for i in range(1, self.n_nodes + 1))

    def all_y_vars(self) -> tuple[str, ...]:
        return tuple(y_var(i) for i in range(1, self.n_nodes + 1))


def step_plan(input_partition: Partition, output_partition: Partition):
    """Per channel h = 1, 2, ... the node lists of its step, in channel order:
    (S_h, S^h, G^{h-1}, G_h), the prefixes ascending.

    In slot k the encoders of S_h fire, then channel h reads X_{S^h} and
    Y_{G^{h-1}} and emits Y_{G_h}.  The two partitions S and G alone fix
    every step, by one running union over their blocks; where one has fewer
    blocks, its missing blocks are empty.  A valid ``NetworkSpec`` derives
    the lists once, when it is built, and keeps them as its ``steps``, which
    the slot loop and both Markov checks read.  Variable names
    (``channel_input_vars``, which also serve a spec still without its
    channels), ``validate_spec``, the spec reader and the grid (which may scan
    the all-delayed network's one step without building that network) derive
    them here on every call.
    """
    xs: set[int] = set()
    ys: set[int] = set()
    for s_h, g_h in itertools.zip_longest(input_partition.blocks, output_partition.blocks,
                                          fillvalue=NodeSet(())):
        xs.update(s_h.members)
        yield s_h.members, tuple(sorted(xs)), tuple(sorted(ys)), g_h.members
        ys.update(g_h.members)


def _step(spec: NetworkSpec, h: int) -> tuple:
    plan = step_plan(spec.input_partition, spec.output_partition)
    return next(itertools.islice(plan, h - 1, None))


def _input_names(xs, ys) -> tuple[str, ...]:
    return (*map(x_var, xs), *map(y_var, ys))


@dataclass(frozen=True)
class DelayProfile:
    """Per-node delay bits b_i in {0, 1}."""

    delays: tuple[int, ...]

    def __post_init__(self):
        bits = tuple(require_integer(b, "delay bit", 0) for b in self.delays)
        for b in bits:
            if b > 1:
                raise DomainError(f"delay bits must be 0 or 1, got {_shown(b)}")
        object.__setattr__(self, "delays", bits)

    @classmethod
    def of(cls, items) -> "DelayProfile":
        return cls(tuple(items))

    def __iter__(self):
        return iter(self.delays)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def _partition_violations(name: str, part: Partition, n_nodes: int) -> list[str]:
    out = []
    seen: set[int] = set()
    for idx, b in enumerate(part.blocks, start=1):
        if not b.strictly_increasing():
            out.append(f"{name} block {idx}: indices not strictly increasing")
        for i in b:
            if not (1 <= i <= n_nodes):
                out.append(f"{name} block {idx}: node {_shown(i)} outside 1..{_shown(n_nodes)}")
        if seen & set(b.members):
            out.append(f"{name}: blocks not disjoint")
        seen |= set(b.members)
    # O(members), not O(n_nodes): a file may claim any node count
    n_missing = n_nodes - sum(1 for i in seen if 1 <= i <= n_nodes)
    if n_missing > 0:
        missing = list(itertools.islice((i for i in range(1, n_nodes + 1) if i not in seen), 8))
        further = f" and {_shown(n_missing - 8)} further" if n_missing > 8 else ""
        out.append(f"{name}: nodes {missing}{further} are in no block")
    return out


def validate_spec(spec: NetworkSpec) -> ValidationReport:
    """Collect every violated invariant; ok iff there are none.

    The one collector of the package, whose one caller is
    ``NetworkSpec.__post_init__``: a spec's report is its ``validation``.
    The per-channel checks run over ``step_plan``: a table's shape is the
    product of its nodes' radices, looked up by node index, and the
    variable names are formed only to compare them with the channel's.
    """
    v: list[str] = []
    # every count and node index is an integer before any is compared or ranged over
    members = [i for part in (spec.input_partition, spec.output_partition)
               for b in part.blocks for i in b]
    for what, values in (("n_nodes", (spec.n_nodes,)), ("alpha", (spec.alpha,)),
                         ("alphabet size",
                          spec.input_alphabet_sizes + spec.output_alphabet_sizes),
                         ("partition member", members)):
        bad = [x for x in values if not _is_integer(x)]
        if bad:
            v.append(f"{what} must be an integer, got {bad[0]!r}")
    if v:
        return ValidationReport(False, tuple(v))
    n = spec.n_nodes
    if n < 1:
        v.append("n_nodes must be at least 1")
    if len(spec.input_alphabet_sizes) != n:
        v.append("input_alphabets length differs from n_nodes")
    if len(spec.output_alphabet_sizes) != n:
        v.append("output_alphabets length differs from n_nodes")
    if any(s < 1 for s in spec.input_alphabet_sizes + spec.output_alphabet_sizes):
        v.append("alphabet sizes must be at least 1")
    if spec.alpha != spec.input_partition.alpha or spec.alpha != spec.output_partition.alpha:
        v.append("alpha differs from the number of partition blocks")
    if len(spec.channels) != spec.alpha:
        v.append("number of channels differs from alpha")
    v += _partition_violations("input partition", spec.input_partition, n)
    v += _partition_violations("output partition", spec.output_partition, n)
    if v:
        # Structural problems make the per-channel dimension checks unreliable.
        return ValidationReport(False, tuple(v))

    x_sizes, y_sizes = spec.input_alphabet_sizes, spec.output_alphabet_sizes
    plan = step_plan(spec.input_partition, spec.output_partition)
    for h, (ch, (_, xs, ys, outs)) in enumerate(zip(spec.channels, plan), start=1):
        want_in = _input_names(xs, ys)
        want_out = tuple(map(y_var, outs))
        if ch.input_vars != want_in:
            v.append(f"channel {h}: input variables {ch.input_vars} != expected {want_in}")
        if ch.output_vars != want_out:
            v.append(f"channel {h}: output variables {ch.output_vars} != expected {want_out}")
        # exact: no int64 wrap
        rows = math.prod([x_sizes[i - 1] for i in xs]) * math.prod([y_sizes[i - 1] for i in ys])
        cols = math.prod([y_sizes[i - 1] for i in outs])
        if ch.table.shape != (rows, cols):
            v.append(f"channel {h}: table shape {ch.table.shape} != expected "
                     f"({_shown(rows)}, {_shown(cols)})")
        else:
            v += ch.stochasticity_violations(f"channel {h}")
    return ValidationReport(not v, tuple(v))


def require_valid(spec: NetworkSpec) -> None:
    """Raise DomainError naming every violated invariant, if there is one:
    the one refusal of an invalid network.  It reads the report the spec
    stored when it was built, so a call costs O(1)."""
    report = spec.validation
    if not report.ok:
        raise DomainError("invalid network: " + "; ".join(report.violations))


def _is_integer(value) -> bool:
    # the exact-type test first: the ABC check is many times slower
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def require_integer(value, what: str, least: int) -> int:
    """`value` as an int if it is an integer of at least `least`; a float (even
    64.0), a boolean (True would read as 1), anything else or a smaller
    integer is a DomainError.  With ``require_real`` the one check of a
    number a caller hands in."""
    if not _is_integer(value):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if value < least:
        raise DomainError(f"{what} must be >= {least}, got {_shown(value)}")
    return value


def require_within_cap(count, limit: int, what: str) -> None:
    """Refuse a `count` above the module constant `limit`, before anything
    of that size is allocated: the one ResourceCapError of the package.
    `what` names the count; an int of any size compares exactly."""
    if count > limit:
        raise ResourceCapError(f"{what} {_shown(count)} is above the cap of {limit}")


def _shown(value):
    """`value` as a message prints it: an int of 64 bits or more as its bit
    count, since str() of an int past 4300 digits raises, and a float to six
    significant digits."""
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, int) and value.bit_length() >= 64:
        return f"an integer of {value.bit_length()} bits"
    return value


def require_real(value, what: str) -> float:
    """`value` as a finite Python float if it is a real number (numpy floats
    and integers included); a boolean, a string, None, a complex, NaN, an
    infinity, a number beyond the float range or anything else is a
    DomainError."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise DomainError(f"{what} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise DomainError(f"{what} must be finite, got a number beyond the "
                          "float range") from None
    if not math.isfinite(x):
        raise DomainError(f"{what} must be finite, got {x!r}")
    return x


def trial_uniforms(seed: int, purpose: tuple, lo: int, hi: int,
                   width: int) -> np.ndarray:
    """Uniforms on [0, 1) of trials [lo, hi), shape (hi - lo, width).

    Every simulator draws here: one Philox stream per (seed, purpose), in
    which trial t owns the counter window [t*c, (t+1)*c), c = ceil(width / 4)
    blocks of four doubles, and its row is the first ``width`` of them.  A
    trial's row is therefore the same in every call that contains it.  The
    counter wraps after ``PHILOX_BLOCKS`` blocks, so a window reaching past
    them would replay an earlier trial's; asking for one is a DomainError.
    Purposes: () the slot engine, (1,) ``bscfb_scheme``; in ``gaussian``
    (2,) relay blocks, (3,) codebook trials, (4,) the fixed codebook, (5,)
    its messages.
    """
    c = -(-width // 4)
    if hi * c > PHILOX_BLOCKS:
        raise DomainError(f"trials [{_shown(lo)}, {_shown(hi)}) of {c} counter blocks each "
                          f"run past the 2**256 blocks of a random stream")
    bits = np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=purpose))
    bits.advance(lo * c)
    return np.random.Generator(bits).random((hi - lo, 4 * c))[:, :width]


def _may_skip_delay(spec: NetworkSpec, i: int) -> bool:
    """True iff node i may be zero-delay: its transmit block comes strictly
    after its receive block.  The one feasibility rule of the package."""
    return spec.input_partition.block_index_of(i) > spec.output_partition.block_index_of(i)


def is_feasible(spec: NetworkSpec, profile: DelayProfile) -> bool:
    """True iff every zero-delay node transmits strictly after it receives."""
    if len(profile.delays) != spec.n_nodes:
        raise DomainError("profile length differs from n_nodes")
    return all(_may_skip_delay(spec, i)
               for i, b in enumerate(profile.delays, start=1) if b == 0)


def enumerate_feasible_profiles(spec: NetworkSpec) -> list[DelayProfile]:
    """All feasible profiles out of the 2^N candidates, lexicographic order.

    Feasibility is a per-node rule, so they are the product over nodes of
    (0, 1) where ``_may_skip_delay`` holds and (1,) elsewhere.
    """
    if spec.n_nodes < 1:
        raise DomainError(f"n_nodes must be at least 1, got {_shown(spec.n_nodes)}")
    require_within_cap(spec.n_nodes, NODE_CAP, "delay-profile enumeration node count")
    choices = ((0, 1) if _may_skip_delay(spec, i) else (1,) for i in range(1, spec.n_nodes + 1))
    return [DelayProfile(bits) for bits in itertools.product(*choices)]


# ---------------------------------------------------------------------------
# Spec file format (JSON).  Row index = mixed-radix over (X_{S^h} ascending,
# then Y_{G^{h-1}} ascending), most significant first; column index =
# mixed-radix over Y_{G_h} ascending.  This ordering is normative.

def spec_to_dict(spec: NetworkSpec) -> dict:
    return {
        "n_nodes": spec.n_nodes,
        "input_alphabets": list(spec.input_alphabet_sizes),
        "output_alphabets": list(spec.output_alphabet_sizes),
        "alpha": spec.alpha,
        "input_partition": [list(b.members) for b in spec.input_partition.blocks],
        "output_partition": [list(b.members) for b in spec.output_partition.blocks],
        "channels": [{"rows": ch.table.tolist()} for ch in spec.channels],
    }


def json_int(value, what: str) -> int:
    """`value` as an int if it is an integer; a float, a boolean or anything
    else is a SpecIOError, never truncated."""
    if _is_integer(value):
        return int(value)
    raise SpecIOError(f"{what} must be an integer, got {value!r}")


def spec_from_dict(d: dict) -> NetworkSpec:
    try:
        n = json_int(d["n_nodes"], "n_nodes")
        in_sizes = tuple(json_int(s, "input alphabet size") for s in d["input_alphabets"])
        out_sizes = tuple(json_int(s, "output alphabet size") for s in d["output_alphabets"])
        alpha = json_int(d["alpha"], "alpha")
        s_part = _parse_blocks(d["input_partition"], "input partition node")
        g_part = _parse_blocks(d["output_partition"], "output partition node")
        raw_channels = d["channels"]
    except (KeyError, TypeError, ValueError) as e:
        raise SpecIOError(f"malformed spec structure: {e}") from e

    # a channel beyond alpha or the output partition's blocks has no
    # variables; validate_spec reports either mismatch
    steps = itertools.islice(step_plan(s_part, g_part), max(0, min(alpha, g_part.alpha)))
    channels = []
    for h, ch in enumerate(raw_channels, start=1):
        try:
            rows = require_table(ch["rows"], "real", f"rows of channel {h}", SpecIOError)
        except (KeyError, TypeError) as e:
            raise SpecIOError(f"malformed channel {h}: {e}") from e
        _, xs, ys, outs = next(steps, ((), (), (), ()))
        channels.append(ChannelTable(_input_names(xs, ys), tuple(map(y_var, outs)), rows))
    return NetworkSpec(n, in_sizes, out_sizes, alpha, s_part, g_part, tuple(channels))


def read_json(path, what: str) -> dict:
    """The top-level object of the JSON file `path`, a `what` file.

    The one reader of every file the package loads: a file that cannot be
    opened or decoded, is not JSON or holds anything but an object at the
    top level is a SpecIOError.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            d = json.load(f)
    except (OSError, ValueError, RecursionError) as e:  # not UTF-8 or JSON; nested too deep
        raise SpecIOError(f"cannot read {what} file {path}: {e}") from e
    if not isinstance(d, dict):
        raise SpecIOError(f"{what} file {path}: top-level value is not an object")
    return d


def write_text(path, text: str, what: str) -> None:
    """Write `text` to the `what` file `path`; the one writer of the package,
    whose every failure is a SpecIOError."""
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:
        raise SpecIOError(f"cannot write {what} file {path}: {e}") from e


def load_spec(path) -> NetworkSpec:
    return spec_from_dict(read_json(path, "spec"))


def save_spec(spec: NetworkSpec, path) -> None:
    write_text(path, json.dumps(spec_to_dict(spec), indent=1) + "\n", "spec")
