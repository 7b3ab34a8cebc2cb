"""Execution engine for codes on a discrete memoryless network.

One slot loop runs the exact per-slot generation order (channels fire in
index order inside each slot; a zero-delay node sees its current-slot
received symbol because its receive channel fired earlier in the same slot)
over a batch of rows at once.  Seeded Monte Carlo feeds it one trial per
row and draws each channel column from the trial's uniforms
(``model.trial_uniforms``); the exact enumeration feeds it one (message,
column-per-step) outcome per row and keeps each of positive probability as
a row of symbols, which the Markov and equivalence checks read and the
dense induced joint scatters.  The module also
estimates error probabilities and holds the feedback example: the
masked-feedback scheme for the binary symmetric channel with correlated
feedback, and that pair's closed-form capacity region, which the scheme
reads its forward cap from.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import DomainError, SpecIOError
from .model import (DRAW_CELLS, DelayProfile, NetworkSpec, _shown, is_feasible, json_int,
                    read_json, require_integer, require_real, require_table, require_valid,
                    require_within_cap, trial_uniforms, write_text, x_var, y_var)
from .polar import MAX_N, PolarCode
from .probability import JointPmf, _channel_product, binary_entropy, cmi_table

JOINT_CAP = 2 ** 24
OUTCOME_CAP = 2 ** 24  # cells of a code's outcome rows, (W, X^n, Y^n) symbols each
KEY_CAP = 2 ** 63 - 1  # range of a packed int64 key, as np.ravel_multi_index allows
CODE_CELL_CAP = 2 ** 24  # encoder plus decoder table cells of a table code built here
MESSAGE_SIZE_CAP = 2 ** 53  # floor(u * m) of a 53-bit uniform u is exact up to here
_TRIAL_CHUNK = 4096  # trials per batch of the slot loop and of bscfb_scheme; bounds memory
UNIFORM_CAP = 2 ** 32  # uniforms one estimate_error or bscfb_scheme call may draw; bounds time
_WILSON_Z = 1.959963984540054  # two-sided 95% normal quantile


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
    checked once, here: every table holds integers (a float or boolean
    entry is refused, never truncated), has the shape ``table_shapes`` gives
    it, and every encoder entry is an input symbol (exact enumeration also
    runs prefixes that never occur).  The code keeps every table as a
    read-only int64 copy of its own (``model.require_table``) and its
    decoders as a read-only mapping, so that check cannot go stale.  It also
    derives, once, ``pairs``, the ``message_pairs`` order as a tuple, and
    ``pair_sizes``, each pair's message size as a read-only float array in
    that order.
    """

    n: int
    message_sizes: tuple
    delay_profile: DelayProfile
    input_sizes: tuple      # |X_i| per node, ascending
    output_sizes: tuple     # |Y_i| per node, ascending
    encoder_tables: tuple   # [node-1][slot-1] -> 2-D int64 array
    decoder_tables: MappingProxyType  # (i, j) -> 2-D int64 array
    pairs: tuple = field(init=False, compare=False, repr=False)
    pair_sizes: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        sizes = tuple(tuple(require_integer(v, "message size", 1) for v in row)
                      for row in self.message_sizes)
        for i, row in enumerate(sizes):
            if len(row) != len(sizes):
                raise DomainError("message_sizes must be square")
            for j, v in enumerate(row):
                if v > MESSAGE_SIZE_CAP or (i == j and v != 1):
                    raise DomainError(f"message size {_shown(v)} of {i + 1}->{j + 1} must be "
                                      f"in 1..2**53 (1 on the diagonal)")
        object.__setattr__(self, "message_sizes", sizes)
        require_integer(self.n, "blocklength", 1)
        per_node = (self.delay_profile.delays, self.input_sizes, self.output_sizes,
                    self.encoder_tables)
        alphabets = (*self.input_sizes, *self.output_sizes)
        if ({len(v) for v in per_node} != {len(sizes)} or min(alphabets, default=1) < 1
                or any(t is None or len(t) != self.n for t in self.encoder_tables)):
            raise DomainError(f"code needs per node one delay bit, two alphabet sizes "
                              f">= 1 and {_shown(self.n)} encoder tables, one per slot")
        object.__setattr__(self, "encoder_tables", tuple(
            tuple(require_table(t, "integer", f"encoder table of node {i}, slot {k}")
                  for k, t in enumerate(node, 1))
            for i, node in enumerate(self.encoder_tables, 1)))
        object.__setattr__(self, "decoder_tables", MappingProxyType(
            {pair: require_table(t, "integer", "decoder table of message {}->{}".format(*pair))
             for pair, t in self.decoder_tables.items()}))
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
        pairs = tuple((i, j) for i, row in enumerate(sizes, 1)
                      for j, v in enumerate(row, 1) if v > 1)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "pair_sizes", require_table(
            [sizes[i - 1][j - 1] for i, j in pairs], "real", "message sizes"))

    def __reduce__(self):
        # a pickled array comes back writable and a mapping proxy does not
        # pickle: rebuild through __init__ from a plain dict
        return TableCode, (self.n, self.message_sizes, self.delay_profile, self.input_sizes,
                           self.output_sizes, self.encoder_tables, dict(self.decoder_tables))

    def message_pairs(self):
        return list(self.pairs)

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


def _require_cells_within_cap(shapes) -> None:
    """Sum the cells of ``shapes`` and stop as soon as they pass ``CODE_CELL_CAP``,
    before a later shape's cells (|Y|^n for a decoder) are formed."""
    cells = 0
    for *_, shape in shapes:
        cells += math.prod(shape)
        require_within_cap(cells, CODE_CELL_CAP, "running sum of code table cells")


def random_table_code(spec: NetworkSpec, n: int, profile: DelayProfile,
                      seed: int, message_size: int = 2) -> TableCode:
    """Uniformly random encoder/decoder tables for every ordered node pair."""
    require_valid(spec)  # the tables' shapes read its node count and alphabets
    if not is_feasible(spec, profile):
        raise DomainError(f"delay profile {profile.delays} infeasible for this network")
    require_integer(n, "blocklength", 1)
    require_integer(message_size, "message size", 1)
    require_integer(seed, "seed", 0)
    nn = spec.n_nodes
    sizes = tuple(tuple(1 if i == j else message_size for j in range(nn))
                  for i in range(nn))
    outs = spec.output_alphabet_sizes
    _require_cells_within_cap(table_shapes(n, sizes, profile.delays, outs))
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
                     input_sizes=spec.input_alphabet_sizes, output_sizes=outs,
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
            enc[node - 1] = tuple(
                require_table(t, "integer", f"encoder table of node {node}, slot {k}",
                              SpecIOError) for k, t in enumerate(entry["tables"], 1))
        dec = {}
        for e in data["decoders"]:
            pair = (json_int(e["source"], "decoder source"), json_int(e["sink"], "decoder sink"))
            if not all(1 <= i <= n_nodes for i in pair):
                raise SpecIOError(f"decoder pair {pair} outside 1..{n_nodes}")
            if pair in dec:
                raise SpecIOError(f"decoder pair {pair} given twice")
            what = "decoder table of message {}->{}".format(*pair)
            dec[pair] = require_table(e["table"], "integer", what, SpecIOError)
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


def wilson_half_width(errors, trials: int):
    """Half-width of the 95% Wilson score interval for errors/trials.

    `errors` is one count, for a float, or an integer array of counts, for
    the list of their half-widths: the engine's and the scheme's reports
    check every pair's count and compute its interval in one call, by the
    one formula a single count goes through too.
    """
    trials = require_integer(trials, "trials", 1)
    require_real(trials, "trials")  # the interval divides by trials as a float
    one = not isinstance(errors, np.ndarray)
    if one:
        counts = [require_integer(errors, "errors", 0)]
    elif errors.dtype.kind not in "iu":
        raise DomainError(f"errors must be integers, got {errors.dtype} entries")
    else:
        counts = errors.tolist()
    for e in counts:
        if not 0 <= e <= trials:
            raise DomainError(f"errors must be in 0..{trials}, got {_shown(e)}")
    z = _WILSON_Z
    spread, shrink = z * z / (4.0 * trials * trials), 1.0 + z * z / trials
    halves = []
    for e in counts:
        p = e / trials
        halves.append(z * math.sqrt(p * (1.0 - p) / trials + spread) / shrink)
    return halves[0] if one else halves


def _error_report(pairs, errors: np.ndarray, trials: int) -> ErrorReport:
    """The report of `errors`, one int64 count per pair of `pairs`, each out
    of `trials`."""
    return ErrorReport(pairs={
        p: PairStats(trials=trials, errors=e, estimate=e / trials, half_width=half)
        for p, e, half in zip(pairs, errors.tolist(), wilson_half_width(errors, trials))})


def _check_code(spec: NetworkSpec, code: TableCode) -> None:
    """The network is valid, by the report it stored when it was built, the
    code's nodes and alphabets are the network's and its profile is
    feasible there; the code's tables were checked when it was built."""
    require_valid(spec)
    if (code.input_sizes != spec.input_alphabet_sizes
            or code.output_sizes != spec.output_alphabet_sizes):
        raise DomainError(
            f"code alphabet sizes {code.input_sizes} / {code.output_sizes} differ "
            f"from the network's {spec.input_alphabet_sizes} / "
            f"{spec.output_alphabet_sizes}")
    if not is_feasible(spec, code.delay_profile):
        raise DomainError(
            f"delay profile {code.delay_profile.delays} infeasible for this network")


def _message_indices(code: TableCode, w_cols) -> dict:
    """node -> index of the messages it originates (its ``w_row_of``) per
    row, from the message columns ``w_cols``, one (rows,) array per pair in
    ``message_pairs`` order; a node that originates none has index 0.

    ``message_pairs`` lists a node's messages together, destinations
    ascending, so the index folds that run of columns (a message of size 1
    is the digit 0 of radix 1 and folds away); a run of one column is the
    index itself."""
    runs = {}
    for (i, j), col in zip(code.pairs, w_cols):
        runs.setdefault(i, []).append((col, code.message_sizes[i - 1][j - 1]))
    out = dict.fromkeys(range(1, len(code.message_sizes) + 1), 0)
    for i, run in runs.items():
        cols, radices = zip(*run)
        out[i] = cols[0] if len(run) == 1 else np.ravel_multi_index(cols, radices)
    return out


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
    folded once per slot: a zero-delay node's when it encodes, since an
    earlier channel of the slot emitted its current-slot symbol, every other
    node's after the slot's last channel.

    The steps come from the spec's stored plan (``spec.steps``, its
    ``model.step_plan``), turned once per call into node indices and
    radices: per channel its member nodes, each with its per-slot encoder
    tables and message index, and its (node, radix) inputs and outputs.  A
    one-symbol tuple folds to the symbol itself, so a channel with one input
    reads that symbol as its row and one with one output stores its column
    as the symbol; a column of several outputs splits by ``np.unravel_index``
    into one symbol row per output node.  A digit of radix 1 is always 0 and
    is left out of every fold and split.

    Inputs and outputs are held step-major, (n, N, trials), so every symbol
    of one slot and node is a contiguous row.  Returns them as (trials, n, N)
    views, and the index of each node's whole received word, per node a
    (trials,) array or, for a one-letter output alphabet, 0.
    """
    nn, n = spec.n_nodes, code.n
    x = np.zeros((n, nn, trials), dtype=np.int64)
    y = np.zeros((n, nn, trials), dtype=np.int64)
    words = [0] * nn  # index of each node's received word before slot k
    x_sizes, sizes = code.input_sizes, code.output_sizes
    # a one-letter alphabet's symbol is always 0, a digit of radix 1 that
    # folds away: such an input is never encoded and no row reads it, such
    # an output is never stored and its word stays 0
    encodes = [s > 1 for s in x_sizes]
    fold_early = [b == 0 and encodes[i] and sizes[i] > 1
                  for i, b in enumerate(code.delay_profile.delays)]
    steps = []
    for members, xs, ys, outs in spec.steps:
        xs = [i for i in xs if encodes[i - 1]]
        ys = [i for i in ys if sizes[i - 1] > 1]
        outs = [i for i in outs if sizes[i - 1] > 1]
        steps.append((
            [(i - 1, code.encoder_tables[i - 1], fold_early[i - 1], w_idx[i])
             for i in members if encodes[i - 1]],
            [(x, i - 1) for i in xs] + [(y, i - 1) for i in ys],
            [x_sizes[i - 1] for i in xs] + [sizes[i - 1] for i in ys],
            [i - 1 for i in outs],
            [sizes[i - 1] for i in outs]))
    fold_late = [i for i in range(nn) if sizes[i] > 1 and not fold_early[i]]
    for k in range(n):
        xk, yk = x[k], y[k]
        for h, (members, ins, in_sizes, outs, out_sizes) in enumerate(steps):
            for i, tables, fold, w in members:
                if fold:
                    words[i] = np.ravel_multi_index((words[i], yk[i]),
                                                    (sizes[i] ** k, sizes[i]))
                xk[i] = tables[k][w, words[i]]
            # a channel without inputs (one-letter ones aside) has the one row
            # 0, a scalar here; one without outputs has one column, which
            # splits into no symbols
            if len(ins) == 1:
                arr, node = ins[0]
                row = arr[k, node]
            else:
                row = np.ravel_multi_index([arr[k, node] for arr, node in ins], in_sizes)
            col = column(k * spec.alpha + h, h, row)
            if len(outs) == 1:
                yk[outs[0]] = col
            elif outs:
                for i, symbols in zip(outs, np.unravel_index(col, out_sizes)):
                    yk[i] = symbols
        for i in fold_late:
            words[i] = np.ravel_multi_index((words[i], yk[i]), (sizes[i] ** k, sizes[i]))
    return x.transpose(2, 0, 1), y.transpose(2, 0, 1), words


def _draw_column(cum_t: np.ndarray, row, u: np.ndarray) -> np.ndarray:
    """The column a channel emits per trial: the count of the entries of the
    trial's cumulative row, all but the last, that are <= its uniform u.

    ``cum_t`` is the channel's cumulative table without its last column,
    transposed to (cols - 1, rows): its entry of the spec's ``draw_tables``,
    derived once when the spec was built.  ``row`` is each trial's channel
    row (a scalar for a channel without inputs, which broadcasts) and ``u``
    each trial's uniform.  A cumulative row of nonnegative entries never
    decreases, so the count is ``searchsorted(side="right")`` capped at
    cols - 1, and a 1-column channel always emits column 0.
    """
    if not len(cum_t):
        return np.zeros(u.shape, dtype=np.int64)
    col = (cum_t[0][row] <= u).astype(np.int64)
    for cum in cum_t[1:]:
        col += cum[row] <= u
    return col


def _run_batch(spec: NetworkSpec, code: TableCode, seed: int, lo: int, hi: int):
    """Run trials [lo, hi) together through one slot loop.

    Trial t's row of ``trial_uniforms(seed, ())``, P + n*alpha wide: its
    first P uniforms u give the messages floor(u * m) in the code's ``pairs``
    order, m its ``pair_sizes``, the rest its channel uniforms in
    slot-then-channel order.  A trial's outcome is therefore the same in
    every batch that contains it.  Each channel draws from its entry of the
    spec's ``draw_tables``; nothing here is derived from the spec or the
    code alone.

    Returns trial-major arrays ``(w, x, y, est)``: messages and estimates
    (trials, P) in ``pairs`` order, inputs and outputs (trials, n, N).
    """
    P = len(code.pairs)
    u = trial_uniforms(seed, (), lo, hi, P + code.n * spec.alpha)
    # message-major, one contiguous row per pair; u * m >= 0, so the cast's
    # truncation is the floor
    w = (np.ascontiguousarray(u[:, :P].T) * code.pair_sizes[:, None]).astype(np.int64)
    w_idx = _message_indices(code, w)
    u_steps = np.ascontiguousarray(u[:, P:].T)  # (n * alpha, trials): one row per step
    cum_ts = spec.draw_tables

    def column(step, h, row):
        # a column is the count of the cumulative entries, all but the last,
        # that are <= the step's uniform (``_draw_column``)
        return _draw_column(cum_ts[h], row, u_steps[step])

    x, y, words = _slots(spec, code, w_idx, hi - lo, column)
    est = np.empty_like(w)
    for q, (i, j) in enumerate(code.pairs):
        est[q] = code.decoder_tables[(i, j)][w_idx[j], words[j - 1]]
    return w.T, x, y, est.T


def run_trial(spec: NetworkSpec, code: TableCode, seed: int, trial: int = 0) -> SimTrace:
    """Execute one block, trial ``trial`` of ``estimate_error``'s batch."""
    require_integer(trial, "trial", 0)
    require_integer(seed, "seed", 0)
    _check_code(spec, code)
    w, x, y, est = _run_batch(spec, code, seed, trial, trial + 1)
    return SimTrace(seed=seed, trial=trial,
                    messages=dict(zip(code.pairs, w[0].tolist())),
                    x=x[0], y=y[0],
                    estimates=dict(zip(code.pairs, est[0].tolist())))


def estimate_error(spec: NetworkSpec, code: TableCode, trials: int,
                   seed: int) -> ErrorReport:
    """Monte Carlo error estimate per message pair; deterministic given seed."""
    require_integer(trials, "trials", 1)
    require_integer(seed, "seed", 0)
    _check_code(spec, code)
    require_within_cap(trials * (len(code.pairs) + code.n * spec.alpha), UNIFORM_CAP,
                       "trials x uniforms per trial")
    errors = np.zeros(len(code.pairs), dtype=np.int64)
    for lo in range(0, trials, _TRIAL_CHUNK):
        w, _x, _y, est = _run_batch(spec, code, seed, lo,
                                    min(lo + _TRIAL_CHUNK, trials))
        errors += (est != w).sum(axis=0)
    return _error_report(code.pairs, errors, trials)


# ---------------------------------------------------------------------------
# exact induced joints and the Markov / equivalence checks


def _row_sizes(spec: NetworkSpec, code: TableCode) -> list:
    """Alphabet size per column of an outcome row: per message pair in
    ``pairs`` order, then per slot X_1..X_N and Y_1..Y_N."""
    return ([code.message_sizes[i - 1][j - 1] for (i, j) in code.pairs]
            + [*spec.input_alphabet_sizes, *spec.output_alphabet_sizes] * code.n)


def _outcomes(spec: NetworkSpec, code: TableCode, composed: bool = False):
    """Every outcome of positive probability, as an int64 row of its (W, X^n,
    Y^n) symbols in ``_row_sizes`` order, and its probability.

    An outcome is the messages and the column each channel emits in each
    step, numbered in C order (messages in ``message_pairs`` order, then
    steps in slot-then-channel order) and run ``_TRIAL_CHUNK`` at a time.
    Its probability is p_w times the chosen channel entries, multiplied in
    step order.  Distinct outcomes give distinct (W, Y^n): no two rows agree.

    With ``composed``, each row also gets its probability on the all-delayed
    network, whose one channel is q^(1) ... q^(alpha) and fires once per
    slot: p_w times, slot by slot, the entry of ``_channel_product`` at the
    slot's X and Y symbols, multiplied in slot order.  A row is then kept
    when either probability is positive, and both come back.
    """
    _check_code(spec, code)
    P = len(code.pairs)
    radices = _row_sizes(spec, code)[:P] + [ch.table.shape[1] for ch in spec.channels] * code.n
    outcomes = math.prod(radices)
    require_within_cap(outcomes * (P + 2 * spec.n_nodes * code.n), OUTCOME_CAP,
                       "outcome row cell count")
    p_w = 1.0
    for (i, j) in code.pairs:
        p_w /= code.message_sizes[i - 1][j - 1]
    if composed:  # rows X_1..X_N, columns Y_1..Y_N, the all-delayed network's channel
        x_sizes, y_sizes = spec.input_alphabet_sizes, spec.output_alphabet_sizes
        product = _channel_product(spec).reshape(math.prod(x_sizes), -1)
    rows, probs = [], []
    for lo in range(0, outcomes, _TRIAL_CHUNK):
        count = min(_TRIAL_CHUNK, outcomes - lo)
        digits = np.transpose(np.unravel_index(np.arange(lo, lo + count), radices))
        prob = np.full(count, p_w)

        def column(step, h, row):
            col = digits[:, P + step]
            np.multiply(prob, spec.channels[h].table[row, col], out=prob)
            return col

        w = digits[:, :P]
        x, y, _ = _slots(spec, code, _message_indices(code, w.T), count, column)
        # per slot X_1..X_N then Y_1..Y_N, the order of _row_sizes
        cells = np.concatenate([w, np.concatenate([x, y], axis=2).reshape(count, -1)], axis=1)
        chunk = [prob]
        if composed:
            merged = np.full(count, p_w)
            for k in range(code.n):
                np.multiply(merged, product[np.ravel_multi_index(x[:, k].T, x_sizes),
                                            np.ravel_multi_index(y[:, k].T, y_sizes)], out=merged)
            chunk.append(merged)
        keep = np.logical_or.reduce([p > 0.0 for p in chunk])
        rows.append(cells[keep])
        probs.append([p[keep] for p in chunk])
    return np.concatenate(rows), *map(np.concatenate, zip(*probs))


def _numbered(key: np.ndarray):
    """Each key's rank among the distinct keys, and their count.  One sort
    finds them: numpy's hash-based ``np.unique`` is many times slower here."""
    seen = np.sort(key)
    seen = seen[np.concatenate(([True], seen[1:] != seen[:-1]))]
    return np.searchsorted(seen, key), len(seen)


def _packed(cells: np.ndarray, cols, sizes) -> np.ndarray:
    """Each row's symbols in columns `cols` as one C-order index; 0 for none."""
    radices = [sizes[c] for c in cols]
    require_within_cap(math.prod(radices), KEY_CAP, "packed key range")
    return (np.ravel_multi_index([cells[:, c] for c in cols], radices) if radices
            else np.zeros(len(cells), dtype=np.int64))


def induced_joint(spec: NetworkSpec, code: TableCode) -> JointPmf:
    """Exact joint of (W, X^n, Y^n): each ``_outcomes`` row writes its own cell."""
    _check_code(spec, code)
    sizes = _row_sizes(spec, code)
    total = math.prod(sizes)
    require_within_cap(total, JOINT_CAP, "induced joint cell count")
    cells, prob = _outcomes(spec, code)
    flat = np.zeros(total)
    flat[np.ravel_multi_index(cells.T, sizes)] = prob
    names = [f"W{i}.{j}" for (i, j) in code.pairs] + [
        f"{var(i)}.{k}" for k in range(1, code.n + 1) for var in (x_var, y_var)
        for i in range(1, spec.n_nodes + 1)]
    return JointPmf(variables=tuple(zip(names, sizes)), probs=flat)


def _rows_cmi(cells: np.ndarray, prob: np.ndarray, sizes, numbered: dict, a, b, c) -> float:
    """I(A; B | C) of rows `cells` of probabilities `prob`, each group a tuple of columns;
    A's axis numbers only the tuples that occur (``numbered[a]``), B's and C's span all.
    ``cmi_table`` reads the (|A|, |B|, |C|) table the rows sum into, no joint built."""
    if not b:  # I(A; B | C) of no B is 0, as conditional_mutual_information returns it
        return 0.0
    rank, na = numbered[a]
    nb, nc = (math.prod(sizes[col] for col in g) for g in (b, c))
    require_within_cap(na * nb * nc, JOINT_CAP, "step joint cell count")
    flat = np.bincount(rank * (nb * nc) + _packed(cells, b + c, sizes), prob, na * nb * nc)
    return float(cmi_table(flat.reshape(na, nb, nc)))


def _step_cmis(spec: NetworkSpec, code: TableCode, groups) -> list:
    """(k, h, I(past, A; B | C)) per slot k and channel h on the code's outcome rows.

    `groups(step)` gives (A, B, C) of one ``spec.steps`` step as (X nodes,
    Y nodes) pairs, read here in slot k; the past is every column before slot k.
    A slot numbers each distinct (past, A) tuple once, and only for steps with
    a B: the memoryless check's A is the past alone, one numbering per slot.
    """
    cells, prob = _outcomes(spec, code)
    sizes, nn = _row_sizes(spec, code), spec.n_nodes
    out = []
    for k in range(code.n):
        base = len(code.pairs) + 2 * nn * k
        cols = [[tuple([base + i - 1 for i in xs] + [base + nn + i - 1 for i in ys])
                 for xs, ys in groups(step)] for step in spec.steps]
        slot = [(tuple(range(base)) + a, b, c) for a, b, c in cols]
        numbered = {a: _numbered(_packed(cells, a, sizes)) for a in {a for a, b, _ in slot if b}}
        out += [(k + 1, h, _rows_cmi(cells, prob, sizes, numbered, *abc))
                for h, abc in enumerate(slot, 1)]
    return out


def check_memoryless_markov(spec: NetworkSpec, code: TableCode) -> list:
    """I(past; current channel output | current channel input) per (k, h).

    Every value must vanish: the output of channel h in slot k depends on
    the history only through the symbols the channel actually reads.
    """
    return _step_cmis(spec, code, lambda step: (((), ()), ((), step[3]), step[1:3]))


def check_positive_delay_markov(spec: NetworkSpec, code: TableCode) -> list:
    """I(past, X_{S_h,k}; Y_{G^{h-1},k} | X_{S^{h-1},k}) per (k, h).

    Holds only for unit-delay codes, where no input of slot k can react to
    any output of slot k; the engine refuses other profiles.
    """
    if any(b != 1 for b in code.delay_profile.delays):
        raise DomainError("positive-delay factorization check requires the "
                          "all-one delay profile")
    # X_{S_h}, Y_{G^{h-1}}, X_{S^{h-1}} of the step (S_h, S^h, G^{h-1}, G_h)
    return _step_cmis(spec, code, lambda step: (
        (step[0], ()), ((), step[2]), (tuple(i for i in step[1] if i not in step[0]), ())))


def equivalence_check(spec: NetworkSpec, code: TableCode) -> float:
    """L1 distance between the stepwise and the composed-channel joint; zero
    (to rounding) for every unit-delay code.

    One enumeration gives both: each outcome row carries its probability on
    `spec` and on the all-delayed network (``_outcomes`` with ``composed``),
    a row of the one being a row of the other, since a unit-delay code's
    (W, Y^n) fixes its X^n on both.  The distance sums |p - m| over the rows
    positive on either, in the order of their packed (W, X^n, Y^n) keys.
    """
    if any(b != 1 for b in code.delay_profile.delays):
        raise DomainError("channel composition requires the all-one delay profile")
    cells, prob, merged = _outcomes(spec, code, composed=True)
    key = _packed(cells, range(cells.shape[1]), _row_sizes(spec, code))
    return float(np.abs((prob - merged)[np.argsort(key)]).sum())


# ---------------------------------------------------------------------------
# the masked-feedback scheme on the BSC with correlated feedback


@dataclass(frozen=True)
class BscFbRegion:
    forward_cap: float  # on R_{1,2}
    reverse_cap: float  # on R_{2,1}


def bscfb_capacity_region(eps: float) -> BscFbRegion:
    """Capacity region of the feedback example: R_{1,2} <= 1-H(eps), R_{2,1} <= 1."""
    return BscFbRegion(1.0 - binary_entropy(eps), 1.0)


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
    eps = require_real(eps, "eps")
    if not 0.0 < eps < 0.5:
        raise DomainError(f"eps must be in (0, 0.5), got {eps}")
    cap = bscfb_capacity_region(eps).forward_cap
    forward_rate = require_real(forward_rate, "forward rate")
    if forward_rate >= cap:
        raise DomainError(f"forward rate {forward_rate} is not below the "
                          f"forward capacity {cap:.6f}")
    if forward_rate <= 0.0:
        raise DomainError(f"forward rate must be positive, got {forward_rate}")
    require_integer(n, "n", 1)
    require_integer(trials, "trials", 1)
    require_integer(seed, "seed", 0)
    require_within_cap(n, MAX_N, "blocklength")  # before forward_rate * n overflows a float
    k = int(math.floor(forward_rate * n + 1e-9))
    if k < 1:  # one message bit would send at 1/n, above the rate checked against cap
        raise DomainError(f"forward rate {forward_rate} carries no message bit "
                          f"in a block of n = {n}: floor(rate * n) = 0")
    require_within_cap(trials * (k + 2 * n), UNIFORM_CAP, "trials x uniforms per trial")
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
    report = _error_report(((1, 2), (2, 1)), np.array([fwd_errors, rev_errors]), trials)
    return BscFbSchemeResult(report=report, achieved_rates=(k / n, 1.0),
                             forward_bits=k, n=n)
