"""Additive-noise relay chain whose mid node forwards without delay.

Three nodes on a line: a source (node 1) transmits toward a terminal
(node 3) with the help of a relay (node 2).  In every slot the relay hears

    y2 = x1 + 3*z2

and the terminal hears

    y3 = 2*x1 + x2 - y2 + z3,

where z2 and z3 are independent standard-normal draws, fresh each slot.
The source runs at power ``P`` per slot, the relay at ``P + 10``.

Because the relay operates with zero delay, it can retransmit its current
reception (``x2 = y2``) whenever its running power budget allows.
Substituting cancels the relay-noise term, leaving the terminal with the
clean doubled signal ``y3 = 2*x1 + z3``.  A delayed relay cannot perform
this cancellation, and its best rate falls strictly below the zero-delay
scheme's once ``P > 5/4`` (see :func:`zdmn.bounds.gaussian_relay_bounds`).

This module provides the per-slot simulator with the hard relay power
gate, the empirical gate-open frequency, a desk-scale random-codebook
experiment over the neutralized channel, and a report comparing the
demonstrated operating rate against the delayed-relay cap.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from . import bounds, simulate
from .errors import DomainError, ResourceCapError
from .model import require_seed

__all__ = [
    "RELAY_POWER_MARGIN",
    "GaussianRelayConfig",
    "RelayTrace",
    "CodebookResult",
    "SeparationReport",
    "simulate_relay",
    "neutralization_rate",
    "codebook_experiment",
    "separation_report",
]

# The relay's per-slot power budget exceeds the source's by this amount.
RELAY_POWER_MARGIN = 10.0

# Cells of one (trials, n) or (codewords, n) float64 array of the codebook
# experiment, checked before any draw.
CELL_CAP = 1 << 25

_SOURCES = ("gaussian", "deterministic")
_METHODS = ("auto", "exhaustive", "analytic", "redraw")


def _normals(seed: int, purpose: Tuple[int, ...], lo: int, hi: int, width: int) -> np.ndarray:
    """Standard normals of trials [lo, hi), shape (hi - lo, width).

    Box-Muller on each trial's row of ``trial_uniforms``, rounded up to an
    even width: uniforms (u, v) from the row's two halves give
    ``sqrt(-2 ln(1 - u))`` times ``cos(2 pi v)`` and ``sin(2 pi v)``.  One
    uniform per normal keeps every trial's window fixed.  ``1 - u`` is exact
    for the 53-bit uniforms, so ``log`` needs no ``log1p``.
    """
    half = -(-width // 2)
    u = simulate.trial_uniforms(seed, purpose, lo, hi, 2 * half)
    radius, angle = u[:, :half], u[:, half:]  # views; the normals overwrite u
    np.sqrt(-2.0 * np.log(1.0 - radius), out=radius)
    angle *= 2.0 * np.pi
    cos = np.cos(angle)
    np.sin(angle, out=angle)
    angle *= radius
    radius *= cos
    return u[:, :width]


@dataclass(frozen=True)
class GaussianRelayConfig:
    """Parameters of one relay-chain experiment.

    ``P`` is the source power per slot; the relay budget is fixed at
    ``P + 10`` per slot.  ``delta`` is the power back-off applied to
    stochastic sources (they transmit at ``P - delta``), so the relay's
    running budget check passes with probability approaching one as the
    blocklength grows.
    """

    P: float
    n: int
    seed: int = 0
    delta: float = 0.5

    def __post_init__(self) -> None:
        if not (isinstance(self.n, (int, np.integer)) and not isinstance(self.n, bool)):
            raise DomainError(f"blocklength must be an integer, got {self.n!r}")
        if self.n < 1:
            raise DomainError(f"blocklength must be >= 1, got {self.n}")
        if not math.isfinite(self.P) or self.P <= 0.0:
            raise DomainError(f"source power must be positive, got {self.P}")
        if not math.isfinite(self.delta) or not 0.0 <= self.delta < self.P:
            raise DomainError(
                f"power back-off must satisfy 0 <= delta < P, got delta={self.delta}, P={self.P}"
            )
        require_seed(self.seed)

    @property
    def relay_power(self) -> float:
        """Relay power budget per slot."""
        return self.P + RELAY_POWER_MARGIN

    @property
    def relay_budget(self) -> float:
        """Total relay power budget over the block, n * (P + 10)."""
        return self.n * self.relay_power


@dataclass(frozen=True)
class RelayTrace:
    """One simulated block: per-slot signals plus the gate decisions.

    Identities holding on every slot by construction:

    * ``y2 == x1 + 3 * z2``
    * ``y3 == 2 * x1 + x2 - y2 + z3``
    * ``x2[k] == y2[k]`` when ``gate[k]`` (running reception power within
      budget) and ``0.0`` otherwise, so ``sum(x2**2) <= budget`` always.
    """

    x1: np.ndarray
    z2: np.ndarray
    y2: np.ndarray
    x2: np.ndarray
    z3: np.ndarray
    y3: np.ndarray
    gate: np.ndarray
    budget: float

    @property
    def n(self) -> int:
        return self.x1.shape[0]

    @property
    def relay_power(self) -> float:
        """Total transmitted relay power, sum of x2**2."""
        return float(np.sum(self.x2 * self.x2))

    @property
    def all_open(self) -> bool:
        """True when the relay gate stayed open on every slot."""
        return bool(self.gate.all())

    def to_csv(self) -> str:
        """Render the trace as ``slot,x1,z2,y2,x2,z3,y3`` rows."""
        out = io.StringIO()
        out.write("slot,x1,z2,y2,x2,z3,y3\n")
        for k in range(self.n):
            row = (self.x1[k], self.z2[k], self.y2[k],
                   self.x2[k], self.z3[k], self.y3[k])
            out.write(f"{k + 1}," + ",".join(repr(float(v)) for v in row) + "\n")
        return out.getvalue()


def _relay_core(
    x1: np.ndarray, z2: np.ndarray, z3: np.ndarray, budget: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pure relay-chain step: returns (y2, x2, y3, gate).

    Works on 1-D slot vectors or 2-D (block, slot) batches; the gate
    compares the running per-block reception power (cumulative sum of
    y2**2 including the current slot) against the fixed total budget.
    """
    y2 = x1 + 3.0 * z2
    gate = np.cumsum(y2 * y2, axis=-1) <= budget
    x2 = np.where(gate, y2, 0.0)
    y3 = 2.0 * x1 + x2 - y2 + z3
    return y2, x2, y3, gate


def simulate_relay(
    config: GaussianRelayConfig,
    source_sequence: Union[Sequence[float], np.ndarray],
    *,
    block: int = 0,
    budget: Optional[float] = None,
) -> RelayTrace:
    """Run one block of the relay chain on a given source sequence.

    Block b's window holds 3n normals: ``z2``, ``z3``, then the unit draw
    of a Gaussian source (read by ``neutralization_rate``), so traces are
    reproducible per (seed, block) and independent across blocks.
    ``budget`` overrides the total relay power budget ``n * (P + 10)``
    (pass ``0.0`` to force the gate shut for testing).
    """
    x1 = np.asarray(source_sequence, dtype=np.float64)
    if x1.shape != (config.n,):
        raise DomainError(
            f"source sequence must have shape ({config.n},), got {x1.shape}"
        )
    if block < 0:
        raise DomainError(f"block must be >= 0, got {block}")
    n = config.n
    z = _normals(config.seed, (2,), block, block + 1, 3 * n)[0]
    z2, z3 = z[:n], z[n:2 * n]
    cap = config.relay_budget if budget is None else float(budget)
    y2, x2, y3, gate = _relay_core(x1, z2, z3, cap)
    return RelayTrace(x1=x1, z2=z2, y2=y2, x2=x2, z3=z3, y3=y3, gate=gate, budget=cap)


def neutralization_rate(
    config: GaussianRelayConfig, blocks: int = 200, source: str = "gaussian"
) -> float:
    """Fraction of simulated blocks whose relay gate stays open throughout.

    ``source="gaussian"`` draws the source i.i.d. normal at per-slot power
    ``P - delta``; ``source="deterministic"`` transmits the constant
    ``sqrt(P)`` every slot.  Block b reads the window of
    ``simulate_relay(block=b)``, so both see the same ``z2``.  The relay's
    mean reception power is at most ``P + 9`` per slot against a budget of
    ``P + 10``, so the open fraction tends to one as ``n`` grows.
    """
    if blocks < 1:
        raise DomainError(f"block count must be >= 1, got {blocks}")
    if source not in _SOURCES:
        raise DomainError(f"source must be one of {_SOURCES}, got {source!r}")
    n = config.n
    step = max(1, simulate.DRAW_CELLS // (3 * n))
    open_blocks = 0
    for lo in range(0, blocks, step):
        z = _normals(config.seed, (2,), lo, min(blocks, lo + step), 3 * n)
        if source == "gaussian":
            x1 = math.sqrt(config.P - config.delta) * z[:, 2 * n:]
        else:
            x1 = math.sqrt(config.P)
        gate = _relay_core(x1, z[:, :n], z[:, n:2 * n], config.relay_budget)[3]
        open_blocks += int(np.count_nonzero(gate.all(axis=1)))
    return open_blocks / blocks


@dataclass(frozen=True)
class CodebookResult:
    """Outcome of one random-codebook experiment.

    ``errors`` is the raw error count for the Bernoulli methods
    (``exhaustive``, ``redraw``) and ``None`` for ``analytic``, whose
    ``error_rate`` averages exact conditional error probabilities instead
    of 0/1 outcomes.
    """

    method: str
    n: int
    codebook_size: int
    trials: int
    rate_requested: float
    rate_effective: float
    error_rate: float
    errors: Optional[int]

    def __str__(self) -> str:
        counted = "-" if self.errors is None else str(self.errors)
        return (
            f"codebook: M={self.codebook_size} n={self.n} "
            f"rate={self.rate_effective:.6f} (requested {self.rate_requested:.6f}) "
            f"method={self.method} trials={self.trials} "
            f"errors={counted} error_rate={self.error_rate:.6f}"
        )


def _nn_decode(codebook: np.ndarray, received: np.ndarray) -> np.ndarray:
    """Nearest-codeword indices by min ||y - 2c||^2, lowest index on ties.

    Scores ||c||^2 - y.c, exactly a quarter of ||y - 2c||^2 - ||y||^2, in
    blocks of at most ``simulate.DRAW_CELLS`` scores.
    """
    m = codebook.shape[0]
    norms = np.einsum("ij,ij->i", codebook, codebook)
    cols = min(m, simulate.DRAW_CELLS)
    rows = max(1, simulate.DRAW_CELLS // cols)
    out = np.zeros(received.shape[0], dtype=np.int64)
    for lo in range(0, received.shape[0], rows):
        block = received[lo:lo + rows]
        best = np.full(block.shape[0], np.inf)
        for c0 in range(0, m, cols):
            scores = block @ codebook[c0:c0 + cols].T
            np.subtract(norms[c0:c0 + cols], scores, out=scores)
            idx = scores.argmin(axis=1)
            low = scores[np.arange(idx.size), idx]
            del scores  # freed before the next block is scored
            won = low < best  # strict: an earlier block keeps a tie
            best[won] = low[won]
            out[lo:lo + rows][won] = c0 + idx[won]
    return out


def codebook_experiment(
    config: GaussianRelayConfig,
    rate: float,
    trials: int = 100,
    cap: int = 1 << 20,
    method: str = "auto",
) -> CodebookResult:
    """Estimate the block error rate of a random codebook over the chain.

    ``2**ceil(rate * n)`` codewords are drawn i.i.d. normal at per-slot
    power ``P - delta``; each trial transmits one through the gated relay
    and decodes by nearest neighbor on ``y3`` (minimum Euclidean distance
    to the noiseless point ``2c``, lowest index on ties).

    Methods:

    * ``exhaustive`` — one fixed codebook for the whole experiment;
      requires ``codebook_size <= cap`` and ``codebook_size * n <=
      CELL_CAP`` (raises otherwise).
    * ``redraw`` — a fresh codebook every trial (the codebook-ensemble
      average); same cap.
    * ``analytic`` — averages, per trial, the exact conditional error
      probability given the realized trace: a competing codeword lands
      within the transmitted one's distance with probability
      ``p = F(d0 / s | df=n, nc=||y3||^2 / s)`` where ``F`` is the
      noncentral chi-square CDF, ``s = 4 * (P - delta)``, and
      ``d0 = ||y3 - 2c||^2``; the trial's error probability is
      ``1 - (1 - p)**(M - 1)``.  Equals the ``redraw`` ensemble average
      in expectation, needs no codebook in memory, and has far lower
      variance than 0/1 outcomes.
    * ``auto`` — ``exhaustive`` when the codebook fits the cap and
      ``CELL_CAP``, ``analytic`` otherwise.

    ``trials * n`` above ``CELL_CAP`` raises before anything is drawn.
    Trials run in batches; trial t's window holds 3n normals, its codeword's
    unit draw (analytic, redraw), ``z2`` and ``z3``, so every method sees the
    same noise in trial t.
    """
    if not math.isfinite(rate) or rate < 0.0:
        raise DomainError(f"rate must be a finite nonnegative number, got {rate}")
    if trials < 1:
        raise DomainError(f"trial count must be >= 1, got {trials}")
    if cap < 1:
        raise DomainError(f"codebook cap must be >= 1, got {cap}")
    if method not in _METHODS:
        raise DomainError(f"method must be one of {_METHODS}, got {method!r}")
    n = config.n
    k = max(0, math.ceil(rate * n - 1e-12))
    if k > 512:
        raise ResourceCapError(f"codebook too large: 2**{k} codewords")
    m = 1 << k
    if trials * n > CELL_CAP:
        raise ResourceCapError(f"{trials} trials of blocklength {n} need "
                               f"{trials * n} cells > cap {CELL_CAP}")
    if method == "auto":
        method = "exhaustive" if m <= cap and m * n <= CELL_CAP else "analytic"
    if method in ("exhaustive", "redraw") and m > cap:
        raise ResourceCapError(f"codebook too large: {m} codewords > cap {cap}")
    if method in ("exhaustive", "redraw") and m * n > CELL_CAP:
        raise ResourceCapError(f"codebook of {m} codewords of length {n} needs "
                               f"{m * n} cells > cap {CELL_CAP}")

    scale = math.sqrt(config.P - config.delta)
    seed = config.seed
    if method == "analytic":
        # imported here: scipy.special roughly doubles the memory and start-up
        # time of `import zdmn`, and only this branch needs it
        from scipy.special import chndtr

        s = 4.0 * (config.P - config.delta)
    elif method == "exhaustive":
        codebook = _normals(seed, (4,), 0, m, n)
        codebook *= scale
        u = simulate.trial_uniforms(seed, (5,), 0, trials, 1)[:, 0]
        messages = np.floor(u * m).astype(np.int64)
    # per trial, the exact error probability (analytic) or a 0/1 error
    outcome = np.empty(trials)
    step = max(1, simulate.DRAW_CELLS // (m * n if method == "redraw" else 3 * n))
    for lo in range(0, trials, step):
        hi = min(trials, lo + step)
        z = _normals(seed, (3,), lo, hi, 3 * n)  # trial t: codeword unit draw, z2, z3
        sent = codebook[messages[lo:hi]] if method == "exhaustive" else scale * z[:, :n]
        y3 = _relay_core(sent, z[:, n:2 * n], z[:, 2 * n:], config.relay_budget)[2]
        if method == "analytic":
            resid = y3 - 2.0 * sent
            d0 = np.einsum("ij,ij->i", resid, resid) / s
            nc = np.einsum("ij,ij->i", y3, y3) / s
            p_closer = np.clip(chndtr(d0, n, nc), 0.0, 1.0)
            with np.errstate(divide="ignore"):
                outcome[lo:hi] = 0.0 if m == 1 else np.where(
                    p_closer >= 1.0, 1.0, -np.expm1(float(m - 1) * np.log1p(-p_closer)))
        elif method == "exhaustive":
            outcome[lo:hi] = _nn_decode(codebook, y3) != messages[lo:hi]
        else:  # redraw: a fresh codebook per trial, message fixed to index 0
            diff = np.empty((hi - lo, m, n))  # the codebook, then y3 - 2c in its place
            diff[:, 0] = sent
            diff[:, 1:] = scale * _normals(seed, (6,), lo, hi, (m - 1) * n).reshape(
                hi - lo, m - 1, n)
            diff *= -2.0
            diff += y3[:, None, :]
            outcome[lo:hi] = np.einsum("tmn,tmn->tm", diff, diff).argmin(axis=1) != 0
    return CodebookResult(
        method=method,
        n=n,
        codebook_size=m,
        trials=trials,
        rate_requested=rate,
        rate_effective=k / n,
        error_rate=float(np.mean(outcome)),
        errors=None if method == "analytic" else int(outcome.sum()),
    )


@dataclass(frozen=True)
class SeparationReport:
    """Closed-form rate comparison plus the experiment's operating point.

    ``separated`` states that the zero-delay scheme's rate
    ``0.5*log2(1 + 2P)`` exceeds the delayed-relay cap
    ``0.5*log2(3 + 2P/5)`` (true exactly when ``P > 5/4``);
    ``exceeds_cap`` states that the codebook experiment's operating rate
    lies above that cap.
    """

    P: float
    positive_delay_cap: float
    achievable_rate: float
    separated: bool
    operating_rate: float
    exceeds_cap: bool

    def __str__(self) -> str:
        lines = [
            f"source power P:       {self.P:.6f}",
            f"positive-delay cap:   {self.positive_delay_cap:.6f} bits/slot",
            f"zero-delay rate:      {self.achievable_rate:.6f} bits/slot",
            f"separated:            {'yes' if self.separated else 'no'}",
            f"operating rate:       {self.operating_rate:.6f} bits/slot",
            f"exceeds cap:          {'yes' if self.exceeds_cap else 'no'}",
        ]
        return "\n".join(lines)


def separation_report(P: float, operating_rate: float = 1.2) -> SeparationReport:
    """Compare the closed-form bounds at power ``P`` with an operating rate.

    The default operating rate is the one the codebook experiment
    demonstrates at ``P = 5`` (1.2 bits/slot, above the delayed-relay cap
    of about 1.161 there).
    """
    if not math.isfinite(operating_rate) or operating_rate <= 0.0:
        raise DomainError(f"operating rate must be positive, got {operating_rate}")
    b = bounds.gaussian_relay_bounds(P)
    return SeparationReport(
        P=float(P),
        positive_delay_cap=b.positive_delay_cap,
        achievable_rate=b.achievable_rate,
        separated=b.separated,
        operating_rate=float(operating_rate),
        exceeds_cap=operating_rate > b.positive_delay_cap,
    )
