"""Execution engine for codes on a discrete memoryless network.

One slot loop runs the exact per-slot generation order (channels fire in
index order inside each slot; a zero-delay node sees its current-slot
received symbol because its receive channel fired earlier in the same slot)
over a batch of rows at once.  Seeded Monte Carlo feeds it one trial per
row and draws each channel column from the trial's uniforms; the exact
induced joint feeds it one (message, column-per-step) outcome per row, at
tiny scale.  The module also estimates error probabilities and implements
the masked-feedback scheme for the binary symmetric channel with correlated
feedback.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceCapError, SpecIOError
from .model import (DelayProfile, NetworkSpec, is_feasible, json_int, json_int_table,
                    read_json, require_seed, require_valid, write_text, x_var, y_var)
from .polar import PolarCode, require_blocklength_within_cap
from .probability import (JointPmf, all_delayed_network, binary_entropy,
                          conditional_mutual_information, input_conditional_vars)

JOINT_CAP = 2 ** 24
CODE_CELL_CAP = 2 ** 24  # encoder plus decoder table cells of a table code built here
MESSAGE_SIZE_CAP = 2 ** 53  # floor(u * m) of a 53-bit uniform u is exact up to here
_TRIAL_CHUNK = 4096  # trials per batch of the slot loop and of bscfb_scheme; bounds memory
DRAW_CELLS = 2 ** 20  # uniforms per batch of the simulators outside the engine; bounds memory
UNIFORM_CAP = 2 ** 32  # uniforms one estimate_error or bscfb_scheme call may draw; bounds time
_WILSON_Z = 1.959963984540054  # two-sided 95% normal quantile


def trial_uniforms(seed: int, purpose: tuple, lo: int, hi: int,
                   width: int) -> np.ndarray:
    """Uniforms on [0, 1) of trials [lo, hi), shape (hi - lo, width).

    Every simulator draws here: one Philox stream per (seed, purpose), in
    which trial t owns the counter window [t*c, (t+1)*c), c = ceil(width / 4)
    blocks of four doubles, and its row is the first ``width`` of them.  A
    trial's row is therefore the same in every call that contains it.
    Purposes: () the slot engine, (1,) ``bscfb_scheme``; in ``gaussian``
    (2,) relay blocks, (3,) codebook trials, (4,) the fixed codebook, (5,)
    its messages.
    """
    c = -(-width // 4)
    bits = np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=purpose))
    bits.advance(lo * c)
    return np.random.Generator(bits).random((hi - lo, 4 * c))[:, :width]


# ---------------------------------------------------------------------------
# codes


@dataclass(frozen=True)
class TableCode:
    """A deterministic block code for a network, held as tables.

    Per node i and slot k an encoder table maps (message index, prefix
    index) to the slot-k input symbol; per message pair (i, j) a decoder
    table maps (message index at j, received-word index) to the estimate of
    the message from i.  The messages node i originates form its ``w_row``,
    destinations in ascending order.  An index is the tuple's position in
    numpy's C order (``np.ravel_multi_index``), the first symbol most
    significant: a ``w_row`` in ascending destination order, a received
    word in ascending slot order.  The engine passes exactly k - b_i
    received symbols, so a code cannot peek past its delay profile.

    ``decode`` takes one trial's ``w_row`` and received word.  A code is
    checked once, here: every table has the shape ``table_shapes`` gives it
    and every encoder entry is an input symbol (exact enumeration also runs
    prefixes that never occur).
    """

    n: int
    message_sizes: tuple
    delay_profile: DelayProfile
    input_sizes: tuple      # |X_i| per node, ascending
    output_sizes: tuple     # |Y_i| per node, ascending
    encoder_tables: tuple   # [node-1][slot-1] -> 2-D int array
    decoder_tables: dict    # (i, j) -> 2-D int array

    def __post_init__(self):
        sizes = tuple(tuple(int(v) for v in row) for row in self.message_sizes)
        for i, row in enumerate(sizes):
            if len(row) != len(sizes):
                raise DomainError("message_sizes must be square")
            for j, v in enumerate(row):
                if not 1 <= v <= MESSAGE_SIZE_CAP or (i == j and v != 1):
                    raise DomainError(f"message size {v} of {i + 1}->{j + 1} must be "
                                      f"in 1..2**53 (1 on the diagonal)")
        object.__setattr__(self, "message_sizes", sizes)
        if self.n < 1:
            raise DomainError("blocklength must be >= 1")
        per_node = (self.delay_profile.delays, self.input_sizes, self.output_sizes,
                    self.encoder_tables)
        alphabets = (*self.input_sizes, *self.output_sizes)
        if ({len(v) for v in per_node} != {len(sizes)} or min(alphabets, default=1) < 1
                or any(t is None or len(t) != self.n for t in self.encoder_tables)):
            raise DomainError(f"code needs per node one delay bit, two alphabet sizes "
                              f">= 1 and {self.n} encoder tables, one per slot")
        for kind, i, j, want in table_shapes(self.n, sizes, self.delay_profile.delays,
                                             self.output_sizes):
            if kind == "encoder":
                table, what = self.encoder_tables[i - 1][j - 1], f"node {i}, slot {j}"
            elif (i, j) in self.decoder_tables:
                table, what = self.decoder_tables[(i, j)], f"message {i}->{j}"
            else:
                raise DomainError(f"code has no decoder table for message {i}->{j}")
            if np.shape(table) != want:
                raise DomainError(f"{kind} table of {what} has shape "
                                  f"{np.shape(table)}, expected {want}")
            if kind == "encoder":
                lo, hi = table.min(), table.max()
                if lo < 0 or hi >= self.input_sizes[i - 1]:
                    raise DomainError(f"encoder at {what} has symbol "
                                      f"{lo if lo < 0 else hi} outside its alphabet")

    def message_pairs(self):
        n_nodes = len(self.message_sizes)
        return [(i, j) for i in range(1, n_nodes + 1)
                for j in range(1, n_nodes + 1)
                if self.message_sizes[i - 1][j - 1] > 1]

    def w_row_of(self, i: int, messages: dict) -> tuple:
        n_nodes = len(self.message_sizes)
        return tuple(messages.get((i, j), 0)
                     for j in range(1, n_nodes + 1) if j != i)

    def _w_radices(self, i: int) -> tuple:
        n_nodes = len(self.message_sizes)
        return tuple(self.message_sizes[i - 1][j - 1]
                     for j in range(1, n_nodes + 1) if j != i)

    def decode(self, i: int, j: int, w_row: tuple, y_seq: tuple) -> int:
        w_idx = np.ravel_multi_index(w_row, self._w_radices(j))
        y_idx = np.ravel_multi_index(y_seq, (self.output_sizes[j - 1],) * len(y_seq))
        return int(self.decoder_tables[(i, j)][w_idx, y_idx])


def table_shapes(n: int, message_sizes: tuple, delays: tuple, output_sizes: tuple):
    """(kind, i, j, shape) per table of a code, formed one at a time: first
    ("encoder", node i, slot j) node by node, shape (w-space of i, |Y_i|^(j - b_i)),
    then ("decoder", i, j) per message pair, shape (w-space of j, |Y_j|^n)."""
    nn = len(message_sizes)
    w_spaces = [math.prod(row[:i] + row[i + 1:]) for i, row in enumerate(message_sizes)]
    for i in range(nn):
        for k in range(1, n + 1):
            yield "encoder", i + 1, k, (w_spaces[i], output_sizes[i] ** (k - delays[i]))
    for i in range(nn):
        for j in range(nn):
            if message_sizes[i][j] > 1:
                yield "decoder", i + 1, j + 1, (w_spaces[j], output_sizes[j] ** n)


def _require_cells_within_cap(shapes, what: str) -> None:
    """Sum the cells of ``shapes`` and stop as soon as they pass ``CODE_CELL_CAP``."""
    cells = 0
    for *_, shape in shapes:
        cells += math.prod(shape)
        if cells > CODE_CELL_CAP:
            raise ResourceCapError(f"{what} needs more than the cap of "
                                   f"{CODE_CELL_CAP} table cells")


def random_table_code(spec: NetworkSpec, n: int, profile: DelayProfile,
                      seed: int, message_size: int = 2) -> TableCode:
    """Uniformly random encoder/decoder tables for every ordered node pair."""
    require_valid(spec)  # the tables' shapes read its node count and alphabets
    if not is_feasible(spec, profile):
        raise DomainError(f"delay profile {profile.delays} infeasible for this network")
    if n < 1:
        raise DomainError("blocklength must be >= 1")
    if message_size < 1:
        raise DomainError("message size must be >= 1")
    require_seed(seed)
    nn = spec.n_nodes
    sizes = tuple(tuple(1 if i == j else message_size for j in range(nn))
                  for i in range(nn))
    outs = tuple(spec.output_alphabet_sizes)
    _require_cells_within_cap(table_shapes(n, sizes, profile.delays, outs),
                              f"a random table code of blocklength {n}")
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed)))
    enc = [[] for _ in range(nn)]
    dec = {}
    for kind, i, j, shape in table_shapes(n, sizes, profile.delays, outs):
        if kind == "encoder":
            enc[i - 1].append(rng.integers(0, spec.input_alphabet_sizes[i - 1],
                                           size=shape, dtype=np.int64))
        else:
            dec[(i, j)] = rng.integers(0, message_size, size=shape, dtype=np.int64)
    return TableCode(n=n, message_sizes=sizes, delay_profile=profile,
                     input_sizes=tuple(spec.input_alphabet_sizes), output_sizes=outs,
                     encoder_tables=tuple(map(tuple, enc)), decoder_tables=dec)


def code_to_dict(code: TableCode) -> dict:
    return {
        "n": code.n,
        "message_sizes": [list(r) for r in code.message_sizes],
        "delay_profile": list(code.delay_profile.delays),
        "input_sizes": list(code.input_sizes),
        "output_sizes": list(code.output_sizes),
        "encoders": [{"node": i + 1,
                      "tables": [t.tolist() for t in code.encoder_tables[i]]}
                     for i in range(len(code.encoder_tables))],
        "decoders": [{"source": i, "sink": j, "table": t.tolist()}
                     for (i, j), t in sorted(code.decoder_tables.items())],
    }


def code_from_dict(data: dict) -> TableCode:
    try:
        n_nodes = len(data["input_sizes"])
        enc = [None] * n_nodes
        for entry in data["encoders"]:
            node = json_int(entry["node"], "encoder node")
            if not 1 <= node <= n_nodes:
                raise SpecIOError(f"encoder node {node} outside 1..{n_nodes}")
            if enc[node - 1] is not None:
                raise SpecIOError(f"encoder node {node} given twice")
            enc[node - 1] = tuple(json_int_table(t, f"encoder {node} table entry")
                                  for t in entry["tables"])
        dec = {}
        for e in data["decoders"]:
            pair = (json_int(e["source"], "decoder source"), json_int(e["sink"], "decoder sink"))
            if not all(1 <= i <= n_nodes for i in pair):
                raise SpecIOError(f"decoder pair {pair} outside 1..{n_nodes}")
            if pair in dec:
                raise SpecIOError(f"decoder pair {pair} given twice")
            dec[pair] = json_int_table(e["table"], f"decoder {pair} table entry")
        return TableCode(
            n=json_int(data["n"], "n"),
            message_sizes=tuple(tuple(json_int(v, "message size") for v in row)
                                for row in data["message_sizes"]),
            delay_profile=DelayProfile(tuple(json_int(b, "delay bit")
                                             for b in data["delay_profile"])),
            input_sizes=tuple(json_int(v, "input size") for v in data["input_sizes"]),
            output_sizes=tuple(json_int(v, "output size") for v in data["output_sizes"]),
            encoder_tables=tuple(enc), decoder_tables=dec)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise SpecIOError(f"malformed code description: {exc}") from exc


def load_code(path) -> TableCode:
    return code_from_dict(read_json(path, "code"))


def save_code(code: TableCode, path) -> None:
    write_text(path, json.dumps(code_to_dict(code)) + "\n", "code")


# ---------------------------------------------------------------------------
# trial execution


@dataclass(frozen=True)
class SimTrace:
    """One realized block: messages, all inputs/outputs, decoded estimates."""

    seed: int
    trial: int
    messages: dict
    x: np.ndarray  # (n, N) input symbols
    y: np.ndarray  # (n, N) output symbols
    estimates: dict

    def to_csv(self) -> str:
        lines = ["slot,node,X,Y"]
        n, nn = self.x.shape
        for k in range(n):
            for i in range(nn):
                lines.append(f"{k + 1},{i + 1},{self.x[k, i]},{self.y[k, i]}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class PairStats:
    trials: int
    errors: int
    estimate: float
    half_width: float


@dataclass(frozen=True)
class ErrorReport:
    """Per-pair Monte Carlo error estimates with Wilson 95% half-widths."""

    pairs: dict

    def __str__(self):
        lines = []
        for (i, j), s in sorted(self.pairs.items()):
            lines.append(f"P_{i}->{j}: {s.errors}/{s.trials} = "
                         f"{s.estimate:.6f} (+/- {s.half_width:.6f})")
        return "\n".join(lines)


def wilson_half_width(errors: int, trials: int) -> float:
    """Half-width of the 95% Wilson score interval for errors/trials."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    z = _WILSON_Z
    p = errors / trials
    return (z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
            / (1.0 + z * z / trials))


def _pair_stats(errors: int, trials: int) -> PairStats:
    return PairStats(trials=trials, errors=errors, estimate=errors / trials,
                     half_width=wilson_half_width(errors, trials))


def _check_code(spec: NetworkSpec, code: TableCode) -> None:
    """The code's nodes and alphabets are the network's and its profile is
    feasible there; its tables were checked when it was built."""
    require_valid(spec)
    if (code.input_sizes != tuple(spec.input_alphabet_sizes)
            or code.output_sizes != tuple(spec.output_alphabet_sizes)):
        raise DomainError(
            f"code alphabet sizes {code.input_sizes} / {code.output_sizes} differ "
            f"from the network's {tuple(spec.input_alphabet_sizes)} / "
            f"{tuple(spec.output_alphabet_sizes)}")
    if not is_feasible(spec, code.delay_profile):
        raise DomainError(
            f"delay profile {code.delay_profile.delays} infeasible for this network")


def _require_uniforms_within_cap(trials: int, width: int) -> None:
    """``trials`` rows of ``width`` uniforms fit ``UNIFORM_CAP``; checked before any draw."""
    if trials * width > UNIFORM_CAP:
        raise ResourceCapError(f"{trials} trials of {width} uniforms each are above "
                               f"the cap of {UNIFORM_CAP} uniforms")


def _message_indices(code: TableCode, w: np.ndarray) -> dict:
    """node -> index of the messages it originates (its ``w_row_of``) per
    row of messages ``w`` (rows, P) in ``message_pairs`` order; a node that
    originates none has index 0."""
    columns = dict(zip(code.message_pairs(), w.T))
    return {i: np.ravel_multi_index(code.w_row_of(i, columns), code._w_radices(i))
            for i in range(1, len(code.message_sizes) + 1)}


def _slots(spec: NetworkSpec, code: TableCode, w_idx: dict, trials: int, column):
    """Run the slot order over ``trials`` rows at once.

    Symbol tuples become table indices in numpy's C order, the first symbol
    most significant (``np.ravel_multi_index``), and back
    (``np.unravel_index``).  In slot k, channel h after channel h - 1: every
    node i of S_h encodes from its message index ``w_idx[i]`` and the index
    of its first k - b_i received symbols, the channel's input symbols give
    its row, ``column(step, h, row)`` (step = k * alpha + h, both
    zero-based) gives the column the channel emits per row, and that column
    splits into its output nodes' symbols.  Each node's received word is
    folded once per slot, after the slot's last channel; a zero-delay node
    also folds in its current-slot symbol, which an earlier channel of the
    slot emitted.

    Inputs and outputs are held step-major, (n, N, trials), so every symbol
    of one slot and node is a contiguous row.  Returns them as (trials, n, N)
    views, and the index of each node's whole received word, (N, trials).
    """
    nn, n = spec.n_nodes, code.n
    x = np.zeros((n, nn, trials), dtype=np.int64)
    y = np.zeros((n, nn, trials), dtype=np.int64)
    words = np.zeros((nn, trials), dtype=np.int64)  # received words before slot k
    sizes = code.output_sizes
    delays = code.delay_profile.delays
    steps = []
    for h in range(1, spec.alpha + 1):
        in_vars, out_vars = spec.channel_input_vars(h), spec.channel_output_vars(h)
        steps.append((
            spec.input_partition.blocks[h - 1].members,
            [(x if v[0] == "X" else y, int(v[1:]) - 1) for v in in_vars],
            [spec.var_size(v) for v in in_vars],
            [int(v[1:]) - 1 for v in out_vars],
            [spec.var_size(v) for v in out_vars]))
    for k in range(n):
        xk, yk = x[k], y[k]
        for h, (members, ins, in_sizes, outs, out_sizes) in enumerate(steps):
            for i in members:
                word = words[i - 1]
                if delays[i - 1] == 0:
                    word = np.ravel_multi_index((word, yk[i - 1]),
                                                (sizes[i - 1] ** k, sizes[i - 1]))
                xk[i - 1] = code.encoder_tables[i - 1][k][w_idx[i], word]
            # a channel without inputs has the one row 0 (a scalar here); one
            # without outputs has one column, which splits into no symbols
            row = np.ravel_multi_index([arr[k, node] for arr, node in ins], in_sizes)
            col = column(k * spec.alpha + h, h, row)
            if outs:
                yk[outs] = np.unravel_index(col, out_sizes)
        for i in range(nn):
            words[i] = np.ravel_multi_index((words[i], yk[i]), (sizes[i] ** k, sizes[i]))
    return x.transpose(2, 0, 1), y.transpose(2, 0, 1), words


def _draw_column(cum_t: np.ndarray, row, u: np.ndarray) -> np.ndarray:
    """The column a channel emits per trial: the count of the entries of the
    trial's cumulative row, all but the last, that are <= its uniform u.

    ``cum_t`` is the channel's cumulative table without its last column,
    transposed to (cols - 1, rows); ``row`` is each trial's channel row (a
    scalar for a channel without inputs, which broadcasts) and ``u`` each
    trial's uniform.  A cumulative row of nonnegative entries never
    decreases, so the count is ``searchsorted(side="right")`` capped at
    cols - 1, and a 1-column channel always emits column 0.
    """
    col = np.zeros(u.shape, dtype=np.int64)
    for cum in cum_t:
        col += cum[row] <= u
    return col


def _run_batch(spec: NetworkSpec, code: TableCode, seed: int, lo: int, hi: int):
    """Run trials [lo, hi) together through one slot loop.

    Trial t's row of ``trial_uniforms(seed, ())``, P + n*alpha wide: its
    first P uniforms u give the messages floor(u * m) in ``message_pairs``
    order, the rest its channel uniforms in slot-then-channel order.  A
    trial's outcome is therefore the same in every batch that contains it.

    Returns trial-major arrays ``(w, x, y, est)``: messages and estimates
    (trials, P) in ``message_pairs`` order, inputs and outputs (trials, n, N).
    """
    pairs = code.message_pairs()
    P = len(pairs)
    u = trial_uniforms(seed, (), lo, hi, P + code.n * spec.alpha)
    m = np.array([code.message_sizes[i - 1][j - 1] for i, j in pairs], dtype=float)
    w = np.floor(u[:, :P] * m).astype(np.int64)
    w_idx = _message_indices(code, w)
    u_steps = np.ascontiguousarray(u[:, P:].T)  # (n * alpha, trials): one row per step
    cum_ts = [np.ascontiguousarray(np.cumsum(channel.table, axis=1)[:, :-1].T)
              for channel in spec.channels]

    def column(step, h, row):
        # a column is the count of the cumulative entries, all but the last,
        # that are <= the step's uniform (``_draw_column``)
        return _draw_column(cum_ts[h], row, u_steps[step])

    x, y, words = _slots(spec, code, w_idx, hi - lo, column)
    est = np.empty_like(w)
    for q, (i, j) in enumerate(pairs):
        est[:, q] = code.decoder_tables[(i, j)][w_idx[j], words[j - 1]]
    return w, x, y, est


def run_trial(spec: NetworkSpec, code: TableCode, seed: int, trial: int = 0) -> SimTrace:
    """Execute one block, trial ``trial`` of ``estimate_error``'s batch."""
    if trial < 0:
        raise DomainError("trial must be >= 0")
    require_seed(seed)
    _check_code(spec, code)
    w, x, y, est = _run_batch(spec, code, seed, trial, trial + 1)
    pairs = code.message_pairs()
    return SimTrace(seed=seed, trial=trial,
                    messages={p: int(w[0, q]) for q, p in enumerate(pairs)},
                    x=x[0], y=y[0],
                    estimates={p: int(est[0, q]) for q, p in enumerate(pairs)})


def estimate_error(spec: NetworkSpec, code: TableCode, trials: int,
                   seed: int) -> ErrorReport:
    """Monte Carlo error estimate per message pair; deterministic given seed."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    require_seed(seed)
    _check_code(spec, code)
    pairs = code.message_pairs()
    _require_uniforms_within_cap(trials, len(pairs) + code.n * spec.alpha)
    errors = np.zeros(len(pairs), dtype=np.int64)
    for lo in range(0, trials, _TRIAL_CHUNK):
        w, _x, _y, est = _run_batch(spec, code, seed, lo,
                                    min(lo + _TRIAL_CHUNK, trials))
        errors += (est != w).sum(axis=0)
    return ErrorReport(pairs={p: _pair_stats(int(errors[q]), trials)
                              for q, p in enumerate(pairs)})


# ---------------------------------------------------------------------------
# exact induced joints and the Markov / equivalence checks


def _joint_variables(spec: NetworkSpec, code: TableCode):
    variables = [(f"W{i}.{j}", code.message_sizes[i - 1][j - 1])
                 for (i, j) in code.message_pairs()]
    for k in range(1, code.n + 1):
        for i in range(1, spec.n_nodes + 1):
            variables.append((f"{x_var(i)}.{k}", spec.input_alphabet_sizes[i - 1]))
        for i in range(1, spec.n_nodes + 1):
            variables.append((f"{y_var(i)}.{k}", spec.output_alphabet_sizes[i - 1]))
    return variables


def induced_joint(spec: NetworkSpec, code: TableCode) -> JointPmf:
    """Exact joint of (W, X^n, Y^n), enumerated through the slot loop.

    An outcome is the messages and the column each channel emits in each
    step, numbered in C order (messages in ``message_pairs`` order, then
    steps in slot-then-channel order) and run ``_TRIAL_CHUNK`` at a time.
    Its probability is p_w times the chosen channel entries, multiplied in
    step order.  Distinct outcomes give distinct (W, Y^n), so each one writes
    its own cell and there are at most as many outcomes as cells.
    """
    _check_code(spec, code)
    variables = _joint_variables(spec, code)
    sizes = [s for _, s in variables]
    total = math.prod(sizes)
    if total > JOINT_CAP:
        raise ResourceCapError(
            f"induced joint needs {total} cells, above the cap of {JOINT_CAP}")
    pairs = code.message_pairs()
    P = len(pairs)
    radices = ([code.message_sizes[i - 1][j - 1] for (i, j) in pairs]
               + [channel.table.shape[1] for channel in spec.channels] * code.n)
    p_w = 1.0
    for (i, j) in pairs:
        p_w /= code.message_sizes[i - 1][j - 1]
    flat = np.zeros(total)
    outcomes = math.prod(radices)
    for lo in range(0, outcomes, _TRIAL_CHUNK):
        rows = min(_TRIAL_CHUNK, outcomes - lo)
        digits = np.transpose(np.unravel_index(np.arange(lo, lo + rows), radices))
        prob = np.full(rows, p_w)

        def column(step, h, row):
            col = digits[:, P + step]
            np.multiply(prob, spec.channels[h].table[row, col], out=prob)
            return col

        w = digits[:, :P]
        x, y, _ = _slots(spec, code, _message_indices(code, w), rows, column)
        # per slot X_1..X_N then Y_1..Y_N, the order of _joint_variables
        cells = np.concatenate([w, np.concatenate([x, y], axis=2).reshape(rows, -1)], axis=1)
        flat[np.ravel_multi_index(cells.T, sizes)] = prob
    return JointPmf(variables=tuple(variables), probs=flat)


def _step_cmis(spec: NetworkSpec, code: TableCode, groups) -> list:
    """(k, h, I(past, A; B | C)) per slot k and channel h on the induced joint.

    `groups(h)` gives (A, B, C) as names of slot-variables (``X1``, ``Y2``),
    read here in slot k; the past is every variable before slot k, the
    leading names of ``_joint_variables``.
    """
    joint = induced_joint(spec, code)
    n_messages = len(code.message_pairs())
    out = []
    for k in range(1, code.n + 1):
        past = list(joint.names[:n_messages + 2 * spec.n_nodes * (k - 1)])
        for h in range(1, spec.alpha + 1):
            a, b, c = ([f"{v}.{k}" for v in names] for names in groups(h))
            out.append((k, h, conditional_mutual_information(joint, past + a, b, c)))
    return out


def check_memoryless_markov(spec: NetworkSpec, code: TableCode) -> list:
    """I(past; current channel output | current channel input) per (k, h).

    Every value must vanish: the output of channel h in slot k depends on
    the history only through the symbols the channel actually reads.
    """
    return _step_cmis(spec, code, lambda h: ((), spec.channel_output_vars(h),
                                              spec.channel_input_vars(h)))


def check_positive_delay_markov(spec: NetworkSpec, code: TableCode) -> list:
    """I(past, X_{S_h,k}; Y_{G^{h-1},k} | X_{S^{h-1},k}) per (k, h).

    Holds only for unit-delay codes, where no input of slot k can react to
    any output of slot k; the engine refuses other profiles.
    """
    if any(b != 1 for b in code.delay_profile.delays):
        raise DomainError("positive-delay factorization check requires the "
                          "all-one delay profile")

    def groups(h):
        rows, x_h = input_conditional_vars(spec, h)  # rows: X_{S^{h-1}}, Y_{G^{h-1}}
        ys = tuple(v for v in rows if v.startswith("Y"))
        return x_h, ys, tuple(v for v in rows if v not in ys)
    return _step_cmis(spec, code, groups)


def equivalence_check(spec: NetworkSpec, code: TableCode) -> float:
    """L1 distance between the stepwise joint and the single composed-channel
    joint; zero (to rounding) for every unit-delay code."""
    if any(b != 1 for b in code.delay_profile.delays):
        raise DomainError("channel composition requires the all-one delay profile")
    stepwise = induced_joint(spec, code)
    merged = induced_joint(all_delayed_network(spec), code)
    return float(np.abs(stepwise.probs - merged.probs).sum())


# ---------------------------------------------------------------------------
# the masked-feedback scheme on the BSC with correlated feedback


@dataclass(frozen=True)
class BscFbSchemeResult:
    """Outcome of the zero-delay masked-feedback scheme."""

    report: ErrorReport
    achieved_rates: tuple  # (forward bits/slot, reverse bits/slot)
    forward_bits: int
    n: int

    def __str__(self):
        return (f"{self.report}\n"
                f"achieved rates: forward {self.achieved_rates[0]:.6f}, "
                f"reverse {self.achieved_rates[1]:.6f}")


def bscfb_scheme(eps: float, n: int, forward_rate: float, seed: int,
                 trials: int = 200) -> BscFbSchemeResult:
    """Run the zero-delay scheme: node 1 sends coded forward bits of the
    CRC-aided list-decoded polar code; node 2 masks a fresh uniform bit with
    its current received symbol, so node 1 recovers the reverse stream
    exactly.
    """
    if not 0.0 < eps < 0.5:
        raise DomainError(f"eps must be in (0, 0.5), got {eps}")
    cap = 1.0 - binary_entropy(eps)
    if forward_rate >= cap:
        raise DomainError(f"forward rate {forward_rate} is not below the "
                          f"forward capacity {cap:.6f}")
    if not forward_rate > 0.0:  # NaN fails this check too
        raise DomainError(f"forward rate must be positive, got {forward_rate}")
    if n < 1 or trials < 1:
        raise DomainError("n and trials must be >= 1")
    require_seed(seed)
    require_blocklength_within_cap(n)  # before forward_rate * n, which overflows a float
    k = max(1, int(math.floor(forward_rate * n + 1e-9)))
    _require_uniforms_within_cap(trials, k + 2 * n)
    forward_code = PolarCode(n, k, eps)
    fwd_errors = rev_errors = 0
    step = max(1, min(_TRIAL_CHUNK, DRAW_CELLS // (k + 2 * n)))
    for lo in range(0, trials, step):
        # trial t's row: k message bits, n mask bits, n forward flips
        u = trial_uniforms(seed, (1,), lo, min(trials, lo + step), k + 2 * n)
        msgs = (u[:, :k] < 0.5).astype(np.uint8)
        xprime = (u[:, k:k + n] < 0.5).astype(np.uint8)
        flips = (u[:, k + n:] < eps).astype(np.uint8)
        del u  # released before the decoder allocates its buffers
        x1 = np.atleast_2d(forward_code.encode_batch(msgs))
        y2 = x1 ^ flips                       # forward channel output at node 2
        x2 = xprime ^ y2                      # node 2 masks with its received bit
        y1 = x2 ^ y2                          # feedback channel output at node 1
        rev_errors += int(np.count_nonzero(np.any(y1 != xprime, axis=1)))
        decoded = np.atleast_2d(forward_code.decode_batch(y2))
        fwd_errors += int(np.count_nonzero(np.any(decoded != msgs, axis=1)))
    report = ErrorReport(pairs={(1, 2): _pair_stats(fwd_errors, trials),
                                (2, 1): _pair_stats(rev_errors, trials)})
    return BscFbSchemeResult(report=report, achieved_rates=(k / n, 1.0),
                             forward_bits=k, n=n)


def bscfb_engine_code(n: int, forward_code) -> TableCode:
    """The masked-feedback scheme as an engine code: message sizes (2^k
    forward, 2^n reverse), delay profile (1, 0), binary alphabets.  Its
    tables are capped at ``CODE_CELL_CAP`` cells."""
    k = forward_code.k
    if n < 1:
        raise DomainError("blocklength must be >= 1")
    sizes = ((1, 2 ** k), (2 ** n, 1))
    _require_cells_within_cap(table_shapes(n, sizes, (1, 0), (2, 2)),
                              f"the engine form of the scheme at blocklength {n}")
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
