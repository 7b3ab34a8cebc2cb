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
this cancellation.  :func:`separation_report` prints two relaxed closed
forms.  Its cap ``0.5*log2(3 + 2P/5)`` is cut {1, 2} at input correlation
rho = 1, bounded by AM-GM: valid, but above the cut-set bound, the max over
rho of the smaller of cut {1}, 0.5*log2(1 + 37(1 - rho^2)P/9), and cut
{1, 2}, 0.5*log2(1 + (2P + 10 + 2*rho*sqrt(P(P + 10)))/10).  Its zero-delay
rate ``0.5*log2(1 + 2P)`` lies below the neutralized channel's
``0.5*log2(1 + 4P)``.  So ``separated`` (true once ``P > 5/4``) compares
only the printed forms: the rate passes the max-min bound from P = 0.7876.

This module provides the per-slot simulator with the hard relay power
gate, the empirical gate-open frequency, a desk-scale random-codebook
experiment over the neutralized channel, whose analytic method sums its own
noncentral chi-square CDF, and a report comparing the demonstrated
operating rate against the delayed-relay cap.  It draws from
``model.trial_uniforms``, needs no third-party package but numpy, and imports no
module of the package but ``model`` and ``errors``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from . import model
from .errors import DomainError

# The relay's per-slot power budget exceeds the source's by this amount.
RELAY_POWER_MARGIN = 10.0

# Cells of one (trials, n) or (codewords, n) float64 array of the codebook
# experiment, slots of all blocks of the gate-frequency experiment, and
# normals of one block's or trial's window of 3n, checked before any draw.
CELL_CAP = 1 << 25
# Codewords one materialized codebook may hold; at most model.DRAW_CELLS, so
# _nn_decode scores the whole codebook against a received word at once.
CODEBOOK_CAP = 1 << 20
# Poisson-window terms of one noncentral chi-square CDF value; at most
# model.DRAW_CELLS, so one value's terms fit a batch of _ncx2_cdf.
CDF_WINDOW_CAP = 1 << 20
# Bits k = ceil(rate * n) of a codebook's 2^k codewords; 2^k is formed only
# up to 2**512.
CODEBOOK_BITS_CAP = 512

_METHODS = ("auto", "exhaustive", "analytic")


def _normals(seed: int, purpose: Tuple[int, ...], lo: int, hi: int, width: int) -> np.ndarray:
    """Standard normals of trials [lo, hi), shape (hi - lo, width).

    Box-Muller on each trial's row of ``trial_uniforms``, rounded up to an
    even width: uniforms (u, v) from the row's two halves give
    ``sqrt(-2 ln(1 - u))`` times ``cos(2 pi v)`` and ``sin(2 pi v)``.  One
    uniform per normal keeps every trial's window fixed.  ``1 - u`` is exact
    for the 53-bit uniforms, so ``log`` needs no ``log1p``.  Every step
    writes into ``u``; only the cosines of at most ``model.DRAW_CELLS``
    angles at a time sit beside it.
    """
    half = -(-width // 2)
    u = model.trial_uniforms(seed, purpose, lo, hi, 2 * half)
    radius, angle = u[:, :half], u[:, half:]  # views; the normals overwrite u
    np.subtract(1.0, radius, out=radius)
    np.log(radius, out=radius)
    np.multiply(radius, -2.0, out=radius)
    np.sqrt(radius, out=radius)
    angle *= 2.0 * np.pi
    step = max(1, model.DRAW_CELLS // half)
    for row in range(0, hi - lo, step):
        r, a = radius[row:row + step], angle[row:row + step]
        cos = np.cos(a)
        np.sin(a, out=a)
        a *= r
        r *= cos
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
        model.require_integer(self.n, "blocklength", 1)
        # stored as Python floats, so a numpy power keeps every sum in float64
        object.__setattr__(self, "P", model.require_real(self.P, "source power"))
        object.__setattr__(self, "delta", model.require_real(self.delta, "power back-off"))
        if self.P <= 0.0:
            raise DomainError(f"source power must be positive, got {self.P}")
        if not 0.0 <= self.delta < self.P:
            raise DomainError(
                f"power back-off must satisfy 0 <= delta < P, got delta={self.delta}, P={self.P}"
            )
        model.require_integer(self.seed, "seed", 0)
        # Box-Muller normals square to under -2 ln(2**-53) < 74, so a slot adds
        # under 74 (2 sqrt(P) + 4)^2 to any of a block's sums of squares, and
        # the analytic method divides those sums by 4 (P - delta).
        amp = 2.0 * math.sqrt(self.P) + 4.0
        per_slot = 74.0 * amp * amp * max(1.0, 0.25 / (self.P - self.delta))
        if not self.n <= sys.float_info.max / per_slot:
            raise DomainError(f"power P={self.P} (back-off {self.delta}) over "
                              f"{model._shown(self.n)} slots overflows the experiments' "
                              f"sums of squares")

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
    """One simulated block: per-slot signals and gate decisions, plus the
    relay's power budget over the block.

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
    def all_open(self) -> bool:
        """True when the relay gate stayed open on every slot."""
        return bool(self.gate.all())


def _relay_core(
    config: GaussianRelayConfig, x1: np.ndarray, z2: np.ndarray, z3: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pure relay-chain step: returns (y2, x2, y3, gate).

    Works on 1-D slot vectors or 2-D (block, slot) batches; the gate
    compares the running per-block reception power (cumulative sum of
    y2**2 including the current slot) against ``config.relay_budget``.
    """
    y2 = x1 + 3.0 * z2
    gate = np.cumsum(y2 * y2, axis=-1) <= config.relay_budget
    x2 = np.where(gate, y2, 0.0)
    y3 = 2.0 * x1 + x2 - y2 + z3
    return y2, x2, y3, gate


def simulate_relay(
    config: GaussianRelayConfig,
    source_sequence: Union[Sequence[float], np.ndarray],
) -> RelayTrace:
    """Run one block of the relay chain on a given source sequence.

    The noise is block 0's window of ``neutralization_rate``, 3n normals:
    ``z2``, ``z3``, then the unit draw of its Gaussian source, which this
    block leaves unread.  A trace is therefore reproducible per seed.
    """
    model.require_within_cap(3 * config.n, CELL_CAP, "3 x blocklength")
    x1 = model.require_table(source_sequence, "real", "source sequence")
    if x1.shape != (config.n,):
        raise DomainError(
            f"source sequence must have shape ({config.n},), got {x1.shape}"
        )
    n = config.n
    z = _normals(config.seed, (2,), 0, 1, 3 * n)[0]
    z2, z3 = z[:n], z[n:2 * n]
    y2, x2, y3, gate = _relay_core(config, x1, z2, z3)
    return RelayTrace(x1=x1, z2=z2, y2=y2, x2=x2, z3=z3, y3=y3, gate=gate,
                      budget=config.relay_budget)


def neutralization_rate(config: GaussianRelayConfig, blocks: int = 200) -> float:
    """Fraction of simulated blocks whose relay gate stays open throughout.

    The source is i.i.d. normal at per-slot power ``P - delta``.  Block b
    reads row b of one stream of 3n-normal windows: ``z2``, ``z3``, then
    the source's unit draw; ``simulate_relay`` hears row 0's noise.  The
    relay's mean reception power is ``P - delta + 9`` per slot against a
    budget of ``P + 10``, so the open fraction tends to one as ``n`` grows.
    """
    model.require_integer(blocks, "block count", 1)
    n = config.n
    model.require_within_cap(3 * n, CELL_CAP, "3 x blocklength")
    model.require_within_cap(blocks * n, CELL_CAP, "blocks x blocklength")
    step = max(1, model.DRAW_CELLS // (3 * n))
    open_blocks = 0
    for lo in range(0, blocks, step):
        z = _normals(config.seed, (2,), lo, min(blocks, lo + step), 3 * n)
        x1 = math.sqrt(config.P - config.delta) * z[:, 2 * n:]
        gate = _relay_core(config, x1, z[:, :n], z[:, n:2 * n])[3]
        open_blocks += int(np.count_nonzero(gate.all(axis=1)))
    return open_blocks / blocks


@dataclass(frozen=True)
class CodebookResult:
    """Outcome of one random-codebook experiment.

    ``errors`` is the raw error count of the Bernoulli method
    ``exhaustive`` and ``None`` for ``analytic``, whose
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

    Scores ||c||^2 - y.c, exactly a quarter of ||y - 2c||^2 - ||y||^2, for
    as many received words at a time as fit ``model.DRAW_CELLS`` scores: at
    least one, as the codebook holds at most ``CODEBOOK_CAP`` words.
    """
    norms = np.einsum("ij,ij->i", codebook, codebook)
    rows = max(1, model.DRAW_CELLS // codebook.shape[0])
    out = np.empty(received.shape[0], dtype=np.int64)
    for lo in range(0, received.shape[0], rows):
        scores = received[lo:lo + rows] @ codebook.T
        np.subtract(norms, scores, out=scores)
        out[lo:lo + rows] = scores.argmin(axis=1)
        del scores  # freed before the next block is scored
    return out


_LOG_2PI = math.log(2.0 * math.pi)
# Stirling's error lgamma(a + 1) - (a + 1/2) log a + a - log(2 pi) / 2 at
# a = 1/2, 1, ..., 15; above 15 its asymptotic series is exact to an ulp
_STIRLING_HALVES = np.array([math.lgamma(a + 1.0) - (a + 0.5) * math.log(a) + a - 0.5 * _LOG_2PI
                             for a in np.arange(1, 31) / 2.0])


def _log_gamma_term(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """log(z**a e**-z / Gamma(a + 1)) for a in {0, 1/2, 1, 3/2, ...} and z > 0.

    Loader's form -log(2 pi a) / 2 - stirling(a) - (a log(a / z) + z - a),
    with log(a / z) from log1p when a is near z, is exact to about
    1e-16 (|a - z| + 1).  ``a log z - z - lgamma(a + 1)`` loses 1e-10 to
    cancellation at a = 5e5.
    """
    zero = a == 0.0  # Pois(0; z) = e**-z
    b, y = np.where(zero, 1.0, a), np.where(zero, 1.0, z)
    inv2 = 1.0 / (b * b)
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - inv2 / 1188) * inv2) * inv2) * inv2) / b
    stirling = np.where(b > 15.0, series,
                        _STIRLING_HALVES[np.minimum(2.0 * b, 30.0).astype(np.int64) - 1])
    d = b - y
    near = np.abs(d) < y
    log_ratio = np.log(b) - np.log(y)
    log_ratio[near] = np.log1p(d[near] / y[near])
    return np.where(zero, -z, -0.5 * (_LOG_2PI + np.log(b)) - stirling - (b * log_ratio - d))


def _from_peak(peak: np.ndarray, scale: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Columns s[:, r] with largest entry peak[r] and s[k + 1, r] = s[k, r]
    * scale[r] / steps[k], for increasing steps.

    A column rises while its ratio is at least one and falls after, so
    multiplying outward from its peak, by the ratios below one on one side
    and their inverses below one on the other, may underflow but never
    overflows.  A zero scale gives a column that falls from its first entry.
    """
    s = np.ones((steps.size + 1, scale.size))
    k = np.searchsorted(steps, np.min(scale), side="right")  # no column falls before step k
    np.cumprod(np.minimum(np.multiply.outer(1.0 / steps[k:], scale), 1.0), axis=0, out=s[k + 1:])
    k = np.searchsorted(steps, np.max(scale))  # every column has peaked by step k
    with np.errstate(divide="ignore"):
        rise = np.minimum(np.multiply.outer(steps[:k], 1.0 / scale), 1.0)
    s[:k] *= np.cumprod(rise[::-1], axis=0)[::-1]
    s *= peak
    return s


def _lower_gamma(a: float, z: np.ndarray, term: np.ndarray) -> np.ndarray:
    """Regularized lower gamma P(a, z) over an array z, given the terms
    z**a e**-z / Gamma(a + 1).

    Below z = a + 1 it is the term times 1 + z/(a + 1) + z**2/((a + 1)(a + 2))
    + ...; above, 1 - Q with Q = a term / (z + 1 - a - 1 (1 - a) / (z + 3 - a
    - ...)), the continued fraction run by the modified Lentz method (Press
    et al., Numerical Recipes 6.2), whose denominators stay positive there.
    """
    p = np.empty(z.size)
    low = z < a + 1.0
    zs = z[low]
    add, total, k = np.ones(zs.size), np.ones(zs.size), 0
    while np.any(add > total * 2.0 ** -53):
        k += 1
        add *= zs / (a + k)
        total += add
    p[low] = term[low] * total
    b = z[~low] + 1.0 - a
    c, d = np.full(b.size, np.inf), 1.0 / b
    frac, i = d.copy(), 0
    while np.any(np.abs(d * c - 1.0) > 1e-15):
        i += 1
        b += 2.0
        d = 1.0 / (b - i * (i - a) * d)
        c = b - i * (i - a) / c
        frac *= d * c
    p[~low] = 1.0 - a * term[~low] * frac
    return p


def _ncx2_cdf(x: np.ndarray, n: int, nc: np.ndarray) -> np.ndarray:
    """Noncentral chi-square CDF with n degrees of freedom, over arrays x and nc.

    F = sum_j Pois(j; lam) P(h + j, z), with lam = nc/2, h = n/2, z = x/2 and
    P the regularized lower gamma.  Term j + 1 is at most term j times
    lam/(j + 1) min(1, z/(h + j + 1)), a factor below one from
    c = min(lam, root of j (j + h) = lam z) on, so the terms peak at or below
    c.  A value's window of j runs from c - 12 sqrt(lam) - 40, twelve
    standard deviations of the weights and more, to c + 12 sqrt(lam) + 40,
    where those factors have multiplied past e**-72.

    Values sorted by c share windows in batches of at most
    ``model.DRAW_CELLS`` terms.  A batch's window starts at its lowest start
    and ends where the factors at its largest lam and z multiply past e**-40,
    so every later term is below e**-40 of its value's largest.  The terms
    are built by recurrence outward from the largest:

    * the weights Pois(j; lam) from ``_log_gamma_term`` at the j nearest lam;
    * z**a e**-z / Gamma(a + 1) from ``_log_gamma_term`` at the a nearest z;
    * P at the window's top a from ``_lower_gamma``, and down the window by
      P(a) = P(a + 1) + z**a e**-z / Gamma(a + 1), which only adds, so a
      tiny F keeps its relative precision.

    A value whose window holds more than ``CDF_WINDOW_CAP`` terms raises
    ``ResourceCapError`` before any term array is built.
    """
    out = np.zeros(x.shape)
    live = np.flatnonzero(x > 0.0)  # F(0) = 0
    z, lam = x[live] / 2.0, nc[live] / 2.0
    h = n / 2.0
    peak = np.minimum(lam, np.sqrt(h * h / 4.0 + lam * z) - h / 2.0)
    start = np.maximum(0.0, np.floor(peak - 12.0 * np.sqrt(lam)) - 40.0)
    stop = np.ceil(peak + 12.0 * np.sqrt(lam)) + 40.0
    model.require_within_cap(int(np.max(stop - start, initial=0.0)) + 1, CDF_WINDOW_CAP,
                             "noncentral chi-square CDF term count")
    order = np.argsort(peak, kind="stable")
    while order.size:
        cells = ((np.maximum.accumulate(stop[order]) - np.minimum.accumulate(start[order]) + 1.0)
                 * np.arange(1, order.size + 1))
        rows, order = np.split(order, [max(1, np.searchsorted(cells, model.DRAW_CELLS,
                                                               side="right"))])
        zb, lb = z[rows], lam[rows]
        lam_hi, z_hi = np.max(lb), np.max(zb)
        peak_hi = math.ceil(min(lam_hi, math.sqrt(h * h / 4.0 + lam_hi * z_hi) - h / 2.0))
        after = peak_hi + np.arange(math.ceil(12.0 * math.sqrt(lam_hi)) + 41.0)
        with np.errstate(divide="ignore"):  # lam_hi = 0: the window ends at j = 0
            fall = np.cumsum(np.log((after + 1.0) / lam_hi)
                             + np.maximum(0.0, np.log((h + after + 1.0) / z_hi)))
        last = min(np.max(stop[rows]), after[min(np.searchsorted(fall, 40.0), after.size - 1)])
        j = np.arange(np.min(start[rows]), last + 1.0)
        a = h + j
        w_at = np.clip(np.floor(lb) - j[0], 0, j.size - 1).astype(np.int64)
        weights = _from_peak(np.exp(_log_gamma_term(j[w_at], lb)), lb, j[1:])
        g_at = np.clip(np.floor(zb - a[0]), 0, j.size - 1).astype(np.int64)
        gam = _from_peak(np.exp(_log_gamma_term(a[g_at], zb)), zb, a[1:])
        gam[-1] = _lower_gamma(a[-1], zb, gam[-1])
        out[live[rows]] = np.einsum("ij,ij->j", weights, np.cumsum(gam[::-1], axis=0)[::-1])
    return np.minimum(out, 1.0, out=out)  # the sums may round past 1 by a few ulps


def codebook_experiment(
    config: GaussianRelayConfig,
    rate: float,
    trials: int = 100,
    method: str = "auto",
) -> CodebookResult:
    """Estimate the block error rate of a random codebook over the chain.

    ``2**ceil(rate * n)`` codewords are drawn i.i.d. normal at per-slot
    power ``P - delta``; each trial transmits one through the gated relay
    and decodes by nearest neighbor on ``y3`` (minimum Euclidean distance
    to the noiseless point ``2c``, lowest index on ties).

    Methods:

    * ``exhaustive`` — one fixed codebook for the whole experiment;
      requires ``codebook_size <= CODEBOOK_CAP`` and ``codebook_size * n <=
      CELL_CAP`` (raises otherwise).
    * ``analytic`` — averages, per trial, the exact conditional error
      probability given the realized trace: a competing codeword lands
      within the transmitted one's distance with probability
      ``p = F(d0 / s | df=n, nc=||y3||^2 / s)`` where ``F`` is the
      noncentral chi-square CDF, ``s = 4 * (P - delta)``, and
      ``d0 = ||y3 - 2c||^2``; the trial's error probability is
      ``1 - (1 - p)**(M - 1)``.  Equals in expectation the error rate of
      a codebook drawn afresh every trial (the codebook-ensemble average),
      needs no codebook in memory, and has far lower variance than 0/1
      outcomes.  ``F`` sums a window of Poisson terms that grows as the
      root of nc; one above ``CDF_WINDOW_CAP`` terms raises (at P - delta =
      1e-12, where nc is near 1e12).
    * ``auto`` — ``exhaustive`` when the codebook fits ``CODEBOOK_CAP``
      and ``CELL_CAP``, ``analytic`` otherwise.

    ``trials * n`` or the 3n-wide trial window above ``CELL_CAP`` raises
    before anything is drawn.
    Trials run in batches; trial t's window holds 3n normals, its codeword's
    unit draw (analytic), ``z2`` and ``z3``, so every method sees the same
    noise in trial t.
    """
    rate = model.require_real(rate, "rate")
    if rate < 0.0:
        raise DomainError(f"rate must be nonnegative, got {rate}")
    model.require_integer(trials, "trial count", 1)
    if method not in _METHODS:
        raise DomainError(f"method must be one of {_METHODS}, got {method!r}")
    n = config.n
    model.require_within_cap(trials * n, CELL_CAP, "trials x blocklength")
    model.require_within_cap(3 * n, CELL_CAP, "3 x blocklength")
    bits = rate * n - 1e-12  # n <= CELL_CAP here, but rate * n may be inf
    model.require_within_cap(bits, CODEBOOK_BITS_CAP, "log2 of the codeword count")
    k = max(0, math.ceil(bits))
    m = 1 << k
    if method == "auto":
        method = "exhaustive" if m <= CODEBOOK_CAP and m * n <= CELL_CAP else "analytic"
    if method == "exhaustive":
        model.require_within_cap(m, CODEBOOK_CAP, "codeword count")
        model.require_within_cap(m * n, CELL_CAP, "codewords x blocklength")

    scale = math.sqrt(config.P - config.delta)
    seed = config.seed
    if method == "analytic":
        s = 4.0 * (config.P - config.delta)
    elif method == "exhaustive":
        codebook = _normals(seed, (4,), 0, m, n)
        codebook *= scale
        u = model.trial_uniforms(seed, (5,), 0, trials, 1)[:, 0]
        messages = np.floor(u * m).astype(np.int64)
    # per trial, the exact error probability (analytic) or a 0/1 error
    outcome = np.empty(trials)
    step = max(1, model.DRAW_CELLS // (3 * n))
    for lo in range(0, trials, step):
        hi = min(trials, lo + step)
        z = _normals(seed, (3,), lo, hi, 3 * n)  # trial t: codeword unit draw, z2, z3
        sent = codebook[messages[lo:hi]] if method == "exhaustive" else scale * z[:, :n]
        y3 = _relay_core(config, sent, z[:, n:2 * n], z[:, 2 * n:])[2]
        if method == "analytic":
            resid = y3 - 2.0 * sent
            d0 = np.einsum("ij,ij->i", resid, resid) / s
            nc = np.einsum("ij,ij->i", y3, y3) / s
            p_closer = _ncx2_cdf(d0, n, nc)
            with np.errstate(divide="ignore"):
                outcome[lo:hi] = 0.0 if m == 1 else np.where(
                    p_closer >= 1.0, 1.0, -np.expm1(float(m - 1) * np.log1p(-p_closer)))
        else:
            outcome[lo:hi] = _nn_decode(codebook, y3) != messages[lo:hi]
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

    ``separated`` states that the zero-delay rate ``0.5*log2(1 + 2P)``
    exceeds the positive-delay cap ``0.5*log2(3 + 2P/5)`` (true exactly
    when ``P > 5/4``); both are relaxations (see the module docstring), so
    it compares the printed forms only.
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
    operating_rate = model.require_real(operating_rate, "operating rate")
    if operating_rate <= 0.0:
        raise DomainError(f"operating rate must be positive, got {operating_rate}")
    P = model.require_real(P, "power")
    if P <= 0.0:
        raise DomainError(f"power must be positive, got {P}")
    if not math.isfinite(2.0 * P):
        raise DomainError(f"power {P} overflows 2P")
    cap = 0.5 * math.log2(3.0 + 2.0 * P / 5.0)
    ach = 0.5 * math.log2(1.0 + 2.0 * P)
    return SeparationReport(
        P=P,
        positive_delay_cap=cap,
        achievable_rate=ach,
        separated=ach > cap,
        operating_rate=operating_rate,
        exceeds_cap=operating_rate > cap,
    )
