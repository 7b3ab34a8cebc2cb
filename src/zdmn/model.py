"""Network specifications, partitions, delay profiles, and their validation.

A network is described by N nodes, alpha ordered channels, an input partition
S and an output partition G of {1..N}.  Channel h emits the outputs of block
G_h given the inputs of the prefix S^h = S_1 u ... u S_h and the outputs of
the prefix G^{h-1}.  Node indices are 1-based in every external format.
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
PROFILE_CAP = 2 ** 16  # candidates enumerate_feasible_profiles may scan


def x_var(i: int) -> str:
    return f"X{i}"


def y_var(i: int) -> str:
    return f"Y{i}"


@dataclass(frozen=True)
class NodeSet:
    """Ordered set of node indices, strictly increasing."""

    members: tuple[int, ...]

    @classmethod
    def of(cls, items) -> "NodeSet":
        return cls(tuple(items))

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def union(self, other: "NodeSet") -> "NodeSet":
        return NodeSet(tuple(sorted(set(self.members) | set(other.members))))

    def complement(self, n_nodes: int) -> "NodeSet":
        return NodeSet(tuple(i for i in range(1, n_nodes + 1) if i not in self.members))

    def bitmask(self, n_nodes: int) -> str:
        """String of length N; position i-1 is '1' iff node i is a member."""
        return "".join("1" if i in self.members else "0" for i in range(1, n_nodes + 1))

    def strictly_increasing(self) -> bool:
        return all(a < b for a, b in zip(self.members, self.members[1:]))


@dataclass(frozen=True)
class Partition:
    """Ordered list of blocks; a valid alpha-partition covers {1..N} disjointly."""

    blocks: tuple[NodeSet, ...]

    @property
    def alpha(self) -> int:
        return len(self.blocks)

    def prefix(self, h: int) -> NodeSet:
        """Union of the first h blocks (h = 0 gives the empty set)."""
        out: set[int] = set()
        for b in self.blocks[:h]:
            out |= set(b.members)
        return NodeSet(tuple(sorted(out)))

    def block_index_of(self, i: int) -> int:
        """1-based index of the block containing node i."""
        for h, b in enumerate(self.blocks, start=1):
            if i in b:
                return h
        raise DomainError(f"node {i} is in no block of the partition")


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
        # a read-only copy, so the caller's array stays its own; + 0.0 also
        # turns -0.0 into 0.0, which a spec file would otherwise print
        t = np.atleast_2d(np.asarray(self.table, dtype=np.float64)) + 0.0
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    def stochasticity_violations(self, label: str = "channel") -> list[str]:
        # whole-table reductions: a valid table costs O(rows) scratch, not O(cells)
        t = self.table
        # a valid table passes on its range and row sums alone; entries in
        # [0, 1] (NaN fails both comparisons) are finite, so no sum warns
        if t.size and 0.0 <= t.min() and t.max() <= 1.0:
            dev = t.sum(axis=1) - 1.0
            if np.abs(dev, out=dev).max() <= ROW_TOL:
                return []
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


@dataclass(frozen=True)
class NetworkSpec:
    """A generalized discrete memoryless network (X_I, Y_I, alpha, S, G, q)."""

    n_nodes: int
    input_alphabet_sizes: tuple[int, ...]
    output_alphabet_sizes: tuple[int, ...]
    alpha: int
    input_partition: Partition
    output_partition: Partition
    channels: tuple[ChannelTable, ...]

    def input_size(self, i: int) -> int:
        return self.input_alphabet_sizes[i - 1]

    def output_size(self, i: int) -> int:
        return self.output_alphabet_sizes[i - 1]

    def var_size(self, name: str) -> int:
        i = int(name[1:])
        if name[0] == "X":
            return self.input_size(i)
        if name[0] == "Y":
            return self.output_size(i)
        raise DomainError(f"unknown variable {name!r}")

    def channel_input_vars(self, h: int) -> tuple[str, ...]:
        """(X_i : i in S^h) then (Y_i : i in G^{h-1}), each ascending."""
        xs = tuple(x_var(i) for i in self.input_partition.prefix(h))
        ys = tuple(y_var(i) for i in self.output_partition.prefix(h - 1))
        return xs + ys

    def channel_output_vars(self, h: int) -> tuple[str, ...]:
        return tuple(y_var(i) for i in self.output_partition.blocks[h - 1])

    def all_x_vars(self) -> tuple[str, ...]:
        return tuple(x_var(i) for i in range(1, self.n_nodes + 1))

    def all_y_vars(self) -> tuple[str, ...]:
        return tuple(y_var(i) for i in range(1, self.n_nodes + 1))


@dataclass(frozen=True)
class DelayProfile:
    """Per-node delay bits b_i in {0, 1}."""

    delays: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.delays):
            raise DomainError(f"delay bits must be 0 or 1, got {self.delays}")

    @classmethod
    def of(cls, items) -> "DelayProfile":
        return cls(tuple(int(b) for b in items))

    @classmethod
    def all_one(cls, n_nodes: int) -> "DelayProfile":
        return cls((1,) * n_nodes)

    def delay_of(self, node: int) -> int:
        """Delay bit of a 1-based node index."""
        if not 1 <= node <= len(self.delays):
            raise DomainError(f"node {node} outside 1..{len(self.delays)}")
        return self.delays[node - 1]

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
                out.append(f"{name} block {idx}: node {i} outside 1..{n_nodes}")
        if seen & set(b.members):
            out.append(f"{name}: blocks not disjoint")
        seen |= set(b.members)
    # O(members), not O(n_nodes): a file may claim any node count
    n_missing = n_nodes - sum(1 for i in seen if 1 <= i <= n_nodes)
    if n_missing > 0:
        missing = list(itertools.islice((i for i in range(1, n_nodes + 1) if i not in seen), 8))
        further = f" and {n_missing - 8} further" if n_missing > 8 else ""
        out.append(f"{name}: nodes {missing}{further} are in no block")
    return out


def validate_spec(spec: NetworkSpec) -> ValidationReport:
    """Collect every violated invariant; ok iff there are none."""
    v: list[str] = []
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

    for h in range(1, spec.alpha + 1):
        ch = spec.channels[h - 1]
        want_in = spec.channel_input_vars(h)
        want_out = spec.channel_output_vars(h)
        if tuple(ch.input_vars) != want_in:
            v.append(f"channel {h}: input variables {ch.input_vars} != expected {want_in}")
        if tuple(ch.output_vars) != want_out:
            v.append(f"channel {h}: output variables {ch.output_vars} != expected {want_out}")
        rows = math.prod(spec.var_size(x) for x in want_in)  # exact: no int64 wrap
        cols = math.prod(spec.var_size(x) for x in want_out)
        if ch.table.shape != (rows, cols):
            v.append(f"channel {h}: table shape {ch.table.shape} != expected ({rows}, {cols})")
        else:
            v += ch.stochasticity_violations(f"channel {h}")
    return ValidationReport(not v, tuple(v))


def require_valid(spec: NetworkSpec) -> None:
    """Raise DomainError naming every violated invariant, if there is one."""
    report = validate_spec(spec)
    if not report.ok:
        raise DomainError("invalid network: " + "; ".join(report.violations))


def require_seed(seed: int) -> None:
    """Seeds key numpy SeedSequence streams, which take non-negative integers."""
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")


def locate_node(spec: NetworkSpec, i: int) -> tuple[int, int]:
    """(h_i, m_i): the blocks with i in S_{h_i} and i in G_{m_i}."""
    if not (1 <= i <= spec.n_nodes):
        raise DomainError(f"node index {i} outside 1..{spec.n_nodes}")
    return (
        spec.input_partition.block_index_of(i),
        spec.output_partition.block_index_of(i),
    )


def is_feasible(spec: NetworkSpec, profile: DelayProfile) -> bool:
    """True iff every zero-delay node transmits strictly after it receives."""
    if len(profile.delays) != spec.n_nodes:
        raise DomainError("profile length differs from n_nodes")
    for i, b in enumerate(profile.delays, start=1):
        if b == 0:
            h, m = locate_node(spec, i)
            if h <= m:
                return False
    return True


def enumerate_feasible_profiles(spec: NetworkSpec) -> list[DelayProfile]:
    """All feasible profiles out of the 2^N candidates, lexicographic order."""
    if spec.n_nodes < 1:
        raise DomainError(f"n_nodes must be at least 1, got {spec.n_nodes}")
    if spec.n_nodes >= PROFILE_CAP.bit_length():  # 2^N > PROFILE_CAP, 2^N never formed
        raise ResourceCapError(
            f"{spec.n_nodes} nodes give 2^{spec.n_nodes} delay profiles, "
            f"above the cap of {PROFILE_CAP}")
    out = []
    for bits in itertools.product((0, 1), repeat=spec.n_nodes):
        p = DelayProfile(bits)
        if is_feasible(spec, p):
            out.append(p)
    return out


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
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise SpecIOError(f"{what} must be an integer, got {value!r}")


def json_int_table(value, what: str) -> np.ndarray:
    """A nested list of integers as an int64 array; see ``json_int``."""
    arr = np.asarray(value, dtype=object)
    if set(map(type, arr.flat)) - {int}:
        for v in arr.flat:
            json_int(v, what)
    try:
        return arr.astype(np.int64)
    except OverflowError as e:
        raise SpecIOError(f"{what}: entry out of the int64 range") from e


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

    spec = NetworkSpec(n, in_sizes, out_sizes, alpha, s_part, g_part, ())
    channels = []
    for h, ch in enumerate(raw_channels, start=1):
        try:
            rows = np.asarray(ch["rows"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as e:
            raise SpecIOError(f"malformed channel {h}: {e}") from e
        # a channel beyond alpha or the output partition's blocks has no
        # variables; validate_spec reports either mismatch
        named = h <= min(alpha, g_part.alpha)
        in_vars = spec.channel_input_vars(h) if named else ()
        out_vars = spec.channel_output_vars(h) if named else ()
        channels.append(ChannelTable(in_vars, out_vars, rows))
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
