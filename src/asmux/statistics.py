"""Photon-number statistics of the multiplexed heralded source.

Three independent probabilistic stages act on each pump pulse: pair
generation in every unit (Poisson or thermal), photon-number-resolved
heralding through a detector of efficiency ``v_d``, and binomial photon
loss along the multiplexer arm of the unit that wins priority.  Priority
goes to the accepted unit with the smallest index, i.e. the one with the
smallest loss.  The evaluators compose these stages exactly, in closed
form per unit, with no pair-number series.  Only the optimizers'
per-unit search grid reads pair-number pmf rows, cut where the source
tail of the upper search bound falls below 1e-12, and never beyond 400
pairs (:func:`required_lmax`).  One count law (:func:`_count_pmf`)
gives those rows, the Poisson tails of that cutoff and the evaluators'
kept-photon counts, and one chain sum (:func:`_chain`) runs every sum
over the units.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from .exceptions import ParameterError, TruncationError
from .multiplexer import MultiplexerSpec, SourceFamily, _COUNT_LIMIT, _integer, transmission_vector

__all__ = [
    "PumpProfile",
    "DetectionStrategy",
    "OutputDistribution",
    "output_distribution",
    "single_photon_prob",
]


# the per-unit search grid's series cutoff (:func:`required_lmax`): the
# smallest count whose source tail falls below _TAIL_EPSILON, at most _L_HARD_CAP
_TAIL_EPSILON = 1e-12
_L_HARD_CAP = 400


def _check_means(lam: np.ndarray) -> None:
    """Refuse means that are not finite and >= 0; a NaN fails, as min and max propagate it."""
    if not (lam.min(initial=0.0) >= 0.0 and np.isfinite(lam.max(initial=0.0))):
        raise ParameterError("input mean photon numbers must be finite and >= 0")


@dataclass(frozen=True)
class PumpProfile:
    """Per-unit input mean photon numbers (one value per multiplexed unit)."""

    lambdas: tuple[float, ...]

    def __post_init__(self) -> None:
        try:
            lams = tuple(map(float, self.lambdas))
        except (TypeError, ValueError):
            raise ParameterError(f"lambdas must be a sequence of reals, got {self.lambdas!r}")
        if not lams:
            raise ParameterError("pump profile must contain at least one value")
        _check_means(np.asarray(lams))
        object.__setattr__(self, "lambdas", lams)

    @classmethod
    def uniform(cls, lam: float, n_units: int) -> "PumpProfile":
        """Constant profile sharing one mean photon number across units."""
        return cls((float(lam),) * _integer(n_units, "n_units"))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.lambdas, dtype=float)

    def __len__(self) -> int:
        return len(self.lambdas)


# Largest accepted count.  Its set and coefficient tables grow with it
# (1.5 MB at this bound), while the evaluators' series stop where the
# detected-count mass falls below double precision.
MAX_ACCEPTED_COUNT = 10_000


@dataclass(frozen=True)
class DetectionStrategy:
    """Set of detected idler counts for which the signal is admitted.

    ``accepted`` is the explicit count set; ``None`` means every count
    >= 1 is accepted (threshold behaviour, where the detector's number
    resolution is ignored).
    """

    accepted: frozenset[int] | None

    def __post_init__(self) -> None:
        if self.accepted is None:
            return
        members = frozenset(_integer(j, "each accepted count") for j in self.accepted)
        if not members:
            raise ParameterError("accepted count set must be nonempty")
        if min(members) < 1:
            raise ParameterError("accepted counts must be >= 1")
        if max(members) > MAX_ACCEPTED_COUNT:
            raise ParameterError(f"accepted counts must be <= {MAX_ACCEPTED_COUNT}")
        object.__setattr__(self, "accepted", members)

    # -- constructors -------------------------------------------------
    @classmethod
    def single_photon(cls) -> "DetectionStrategy":
        """Accept exactly one detected photon (SPD)."""
        return cls(frozenset({1}))

    @classmethod
    def accept_up_to(cls, j: int) -> "DetectionStrategy":
        """Accept every detected count from 1 up to ``j``."""
        message = f"maximum accepted count must be in [1, {MAX_ACCEPTED_COUNT}], got {j}"
        j = _integer(j, "maximum accepted count", 1, MAX_ACCEPTED_COUNT + 1, message)
        return cls(frozenset(range(1, j + 1)))

    @classmethod
    def explicit(cls, counts: Iterable[int]) -> "DetectionStrategy":
        """Accept exactly the given counts (gaps allowed)."""
        return cls(tuple(counts))  # each one checked before any duplicate is merged

    @classmethod
    def threshold(cls) -> "DetectionStrategy":
        """Accept any detected count >= 1 (ThD)."""
        return cls(None)

    @classmethod
    def parse(cls, text: str) -> "DetectionStrategy":
        """Inverse of :attr:`key`: 'spd', 'thd', 'upto:J' or 'set:a,b,...'."""
        t = str(text).strip().lower()
        if t == "spd":
            return cls.single_photon()
        if t in ("thd", "threshold"):
            return cls.threshold()
        kind, _, body = t.partition(":")
        try:
            counts = [int(p) for p in body.split(",") if p]
        except ValueError:
            counts = []
        if kind == "upto" and len(counts) == 1:
            return cls.accept_up_to(counts[0])
        if kind == "set" and counts:
            return cls.explicit(counts)
        raise ParameterError(f"cannot parse detection strategy {text!r}")

    # -- views --------------------------------------------------------
    @property
    def is_threshold(self) -> bool:
        return self.accepted is None

    @property
    def key(self) -> str:
        """Stable machine-readable identifier."""
        if self.is_threshold:
            return "thd"
        members = sorted(self.accepted)
        if members == [1]:
            return "spd"
        if members == list(range(1, len(members) + 1)):
            return f"upto:{members[-1]}"
        return "set:" + ",".join(str(m) for m in members)

    def accept_mask(self, counts: np.ndarray) -> np.ndarray:
        """Boolean mask of detected counts that trigger admission."""
        counts = np.asarray(counts)
        if self.is_threshold:
            return counts >= 1
        # one comparison per member: accepted sets are small; the sampler
        # calls this once per run, on at most max(accepted) + 2 counts
        mask = np.zeros(counts.shape, dtype=bool)
        for j in self.accepted:
            mask |= counts == j
        return mask


@dataclass(eq=False)
class OutputDistribution:
    """Probabilities of 0, 1, ..., ``len(probs) - 1`` photons at the multiplexer output.

    ``truncation_mass`` is the probability of more output photons, so
    ``probs.sum() + truncation_mass`` is one up to rounding.
    """

    probs: np.ndarray
    truncation_mass: float


_log_factorial_table = np.zeros(1)


def _log_factorials(n: int) -> np.ndarray:
    """Read-only ``log(k!)`` for k = 0..n, from a table grown on demand.

    The table grows to at most twice the largest count asked for, so its
    size follows the counts in use.
    """
    global _log_factorial_table
    table = _log_factorial_table
    if table.size <= n:
        more = [math.lgamma(k + 1.0) for k in range(table.size, max(n + 1, 2 * table.size))]
        table = np.concatenate((table, more))
        table.flags.writeable = False
        _log_factorial_table = table
    return table[: n + 1]


def _binom_pmf(k, n, p) -> np.ndarray:
    """Binomial pmf ``C(n, k) p^k (1-p)^(n-k)``, broadcast over integer k, n >= 0 and p in [0, 1].

    Evaluated in log space on the log-factorial table, as
    ``exp(lf[n] - lf[k] - lf[n - k] + k log p + (n - k) log(1 - p))``.  It
    is exactly zero for k < 0 or k > n, and exact at p = 0, p = 1 and
    n = 0: a log(0) is never weighted by a zero count, so 0^0 = 1.  Only
    the result and one scratch array of the broadcast shape are live at
    once, besides boolean masks; a cell outside 0 <= k <= n reads clipped
    indices and is zeroed at the end.
    """
    k = np.asarray(k, dtype=np.int64)
    n = np.asarray(n, dtype=np.int64)
    p = np.asarray(p, dtype=float)
    inside = (k >= 0) & (k <= n)
    lf = _log_factorials(int(n.max(initial=0)))
    shape = np.broadcast_shapes(k.shape, n.shape, p.shape)
    rest = np.empty(shape, dtype=np.int64)
    np.subtract(n, k, out=rest)
    out = np.empty(shape)
    lf.take(rest, mode="clip", out=out)
    scratch = rest.view(np.float64)  # rest is not read again
    with np.errstate(divide="ignore", invalid="ignore"):
        np.subtract(lf.take(n, mode="clip"), lf.take(k, mode="clip"), out=scratch)
        np.subtract(scratch, out, out=out)
        out += np.where(k > 0, k * np.log(p), 0.0)
        np.subtract(n, k, out=scratch, dtype=np.float64)  # exact below 2^53
        quiet = scratch <= 0.0
        scratch *= np.log1p(-p)
        scratch[quiet] = 0.0
        out += scratch
    np.exp(out, out=out)
    out[~inside] = 0.0
    return out


def required_lmax(family: SourceFamily | str, lam: float) -> int:
    """Series cutoff of the per-unit search grid at mean ``lam``.

    The smallest count whose source tail mass at ``lam`` falls below
    1e-12, and never beyond 400 pairs.  The thermal tail beyond l is
    (lam / (1 + lam))^(l+1), so its cutoff is a closed form.  The Poisson
    tails up to the cap sum one fixed pmf row (:func:`_count_pmf`), counts
    0..1200, from its far end, never as ``1 - cdf``; a mean at or above
    the cap (a tail of about one half there) raises before any sum.  A
    mean that is not finite or is negative raises :class:`ParameterError`,
    and one that cannot be cut within the cap raises :class:`TruncationError`.
    """
    family = SourceFamily.coerce(family)
    lam = float(lam)
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ParameterError(f"mean photon number must be finite and >= 0, got {lam!r}")
    if lam == 0.0:
        return 0
    eps, cap = _TAIL_EPSILON, _L_HARD_CAP
    if family is SourceFamily.THERMAL:
        ratio = lam / (1.0 + lam)  # a ratio that rounds to one has no cutoff
        needed = math.ceil(math.log(eps) / math.log(ratio)) - 1 if ratio < 1.0 else math.inf
        if needed > cap:
            raise TruncationError(
                f"thermal tail at mean {lam} needs a cutoff of {needed:.0f}, "
                f"beyond the hard cap {cap}"
            )
        return needed
    if lam < cap:
        # a mean below the cap puts less than e^-518 of its peak pmf at count 3 * cap
        pmf = _count_pmf(family, np.array(lam), 3 * cap)
        tails = np.cumsum(pmf[:0:-1])[::-1]  # P(X > l) for l = 0, 1, ...
        within = np.flatnonzero(tails[: cap + 1] <= eps)
        if within.size:
            return int(within[0])
    raise TruncationError(
        f"Poisson tail at mean {lam} stays above {eps} up to the hard cap {cap}"
    )


def _count_pmf(family: SourceFamily, means: np.ndarray, end: int) -> np.ndarray:
    """The count law: P(X = k), k = 0..end, at each mean in ``means``; adds a trailing axis.

    X is Poisson, or geometric for a thermal source; thinning keeps the
    family, so pair and kept-photon counts both read it.  A zero mean
    puts all its mass on k = 0.
    """
    shape = means.shape
    flat = means.reshape(-1)
    ls = np.arange(end + 1, dtype=float)
    pos = flat > 0.0
    lp = flat if np.count_nonzero(pos) == flat.size else flat[pos]
    # built in place in one array: each temporary of this size would be a
    # fresh allocation whose pages are faulted in again on every call
    if family is SourceFamily.POISSON:
        rows = np.multiply.outer(np.log(lp), ls)
        rows -= lp[:, None]
        rows -= _log_factorials(end)
    else:  # k log(lam) - (k + 1) log(1 + lam)
        log1p = np.log1p(lp)
        rows = np.multiply.outer(np.log(lp) - log1p, ls)
        rows -= log1p[:, None]
    np.exp(rows, out=rows)
    if lp.size < flat.size:
        out = np.zeros((flat.size, end + 1))
        out[pos] = rows
        out[~pos, 0] = 1.0
        rows = out
    return rows.reshape(shape + (end + 1,))


def source_pmf(family: SourceFamily | str, lams: np.ndarray, l_max: int) -> np.ndarray:
    """Pair-number pmf rows for each mean in ``lams``; adds a trailing axis of size l_max+1."""
    return _count_pmf(SourceFamily.coerce(family), np.asarray(lams, dtype=float), l_max)


@lru_cache(maxsize=256)
def _acceptance_weights_cached(
    strategy: DetectionStrategy, v_d: float, l_max: int
) -> np.ndarray:
    ls = np.arange(l_max + 1)
    if strategy.is_threshold:
        w = 1.0 - (1.0 - v_d) ** ls
    else:
        # a count above l_max has weight 0 at every l, so the table stops there
        members = np.array(sorted(j for j in strategy.accepted if j <= l_max))
        w = _binom_pmf(members[:, None], ls[None, :], v_d).sum(axis=0)
    w.flags.writeable = False
    return w


def acceptance_weights(
    strategy: DetectionStrategy, v_d: float, l_max: int
) -> np.ndarray:
    """Probability that a unit with ``l`` generated pairs triggers admission.

    Element ``l`` marginalizes the detector response over the accepted
    count set.  The returned array is cached and read-only.
    """
    l_max = _integer(l_max, "l_max", 0, math.inf, f"l_max must be >= 0, got {l_max}")
    return _acceptance_weights_cached(strategy, float(v_d), l_max)


def transmit_one_weights(v: np.ndarray, l_max: int) -> np.ndarray:
    """Probability that exactly one of ``l`` photons survives each arm.

    Returns an (n_arms, l_max+1) matrix; the exponent is clipped so the
    lossless arm (v = 1) stays finite at l = 0.
    """
    v = np.asarray(v, dtype=float)
    ls = np.arange(l_max + 1, dtype=float)
    expo = np.clip(ls - 1.0, 0.0, None)
    return ls[None, :] * v[:, None] * (1.0 - v[:, None]) ** expo[None, :]


# Shorter coefficient lists are summed by Horner; for Poisson terms on the
# coefficients c_i / i!, and 1/171! is below the float range.
_HORNER_COUNTS = 150
# e^-x is a normal float below this x
_EXP_NORMAL = 700.0
# A term whose remaining series is within this fraction of the running sum
# is below half an ulp of it, and so is every term after it.
_NEGLIGIBLE = 2.0**-56


class _Series(NamedTuple):
    """``Σ_i c_i w_i(x)`` for coefficients ``0 <= c_i <= 1``; see :func:`_series_sums`.

    ``shape`` 0 weighs count i by the Poisson term e^-x x^i / i!; a shape
    k >= 1 by (i + 1) ... (i + k - 1) x^i, the negative binomial term of
    shape k without its factor (1 - x)^k / (k - 1)!.
    """

    coef: tuple[float, ...]  # c_i, trailing zeros dropped
    shape: int
    horner: tuple[float, ...] | None  # c_i w_i(x) / x^i, for short lists


def _series(c: np.ndarray, shape: int = 0) -> _Series:
    coef = tuple(np.trim_zeros(c, "b").tolist()) or (0.0,)
    horner = None
    if len(coef) <= _HORNER_COUNTS:
        if shape == 0:
            horner = tuple(c_i / math.factorial(i) for i, c_i in enumerate(coef))
        else:
            weights = np.ones(len(coef))
            for j in range(1, shape):
                weights *= np.arange(j, j + len(coef))
            horner = tuple((weights * coef).tolist())
    return _Series(coef, shape, horner)


def _horner(coefs: tuple[float, ...], x: np.ndarray):
    """Σ_i coefs[i] x^i: a new array of the shape of ``x``, or a constant float."""
    if len(coefs) == 1:
        return coefs[0]
    out = coefs[-1] * x
    for c in coefs[-2:0:-1]:
        if c:
            out += c
        out *= x
    if coefs[0]:
        out += coefs[0]
    return out


def _weighted_sum(coef, count: int, term: np.ndarray, ratio) -> np.ndarray:
    """``Σ_n coef(n) w_n`` over n < ``count``, as a new array.

    The weights are positive: w_0 = ``term``, and w_n = w_{n-1} ratio(n)
    with ratio(n) nonincreasing in n.  Each ``coef(n)`` lies in [0, 1]
    and broadcasts against the weights.  The sum stops once, in every
    cell, the weights left are bounded by a geometric series within
    ``_NEGLIGIBLE`` of the sum so far (or have underflowed): each of them
    would then leave the sum unchanged, so the result does not depend on
    the cells beside it, and the work follows the mass of the weights,
    not ``count``.
    """
    term = np.array(term, dtype=float)
    out = coef(0) * term
    for n in range(1, count):
        term *= ratio(n)
        c = coef(n)
        if np.ndim(c) or c:
            out += c * term
        if n % 8 == 0:
            rho = ratio(n + 1)
            if np.all((term == 0.0) | (term * rho <= _NEGLIGIBLE * (1.0 - rho) * out)):
                break
    return out


def _series_sums(series: tuple[_Series, ...], x: np.ndarray) -> list:
    """Each of ``series``, of one family, at every ``x`` in [0, 1) (shape k) or >= 0 (Poisson).

    Returns one new array of the shape of ``x`` per series, or for a
    one-term thermal series a constant float.  The Poisson series share
    one far-cell mask and one e^-x: a series and its shifted series are
    read at the same argument.

    Short series go by Horner; every term is positive, so its relative
    rounding error stays within a few ulps per term.  Longer ones sum
    their terms forward, each the last times x / i (Poisson) or
    x (i + k - 1) / i, and stop with the mass of the terms
    (:func:`_weighted_sum`).  A Poisson cell whose e^-x leaves the normal
    float range takes each term from its logarithm, to a relative error
    of about x ulps.
    """
    if series[0].shape:
        return [
            _horner(s.horner, x)
            if s.horner is not None
            else _weighted_sum(
                s.coef.__getitem__,
                len(s.coef),
                np.full(np.shape(x), float(math.factorial(s.shape - 1))),
                lambda i, k=s.shape: x * ((i + k - 1) / i),
            )
            for s in series
        ]
    far = x >= _EXP_NORMAL
    if far.any():
        outs = []
        for s, near in zip(series, _series_sums(series, x[~far])):
            out = np.empty(x.shape)
            out[~far] = near
            out[far] = _poisson_series_far(s, x[far])
            outs.append(out)
        return outs
    decay = np.exp(-x)
    return [
        _horner(s.horner, x) * decay
        if s.horner is not None
        else _weighted_sum(s.coef.__getitem__, len(s.coef), decay, lambda i: x / i)
        for s in series
    ]


def _poisson_series_far(s: _Series, x: np.ndarray) -> np.ndarray:
    """The Poisson series at means whose e^-x is not a normal float, term by term from logarithms."""
    out = s.coef[0] * np.exp(-x)
    log_x = np.log(x)
    for i, c in enumerate(s.coef[1:], 1):
        log_term = i * log_x - (math.lgamma(i + 1.0) + x)
        if c:
            out += np.exp(log_term + math.log(c))
        if i % 8 == 0:
            rho = x / (i + 1)
            if np.all((rho < 1.0) & (np.exp(log_term) * rho <= _NEGLIGIBLE * (1.0 - rho) * out)):
                break
    return out


@lru_cache(maxsize=64)
def _count_polynomials(
    family: SourceFamily, strategy: DetectionStrategy, v_d: float
) -> tuple[_Series, ...]:
    """The four series :func:`one_photon_terms` reads for a count set A.

    With a_i = [i in A], e_i = v_d a_{i+1} + (1 - v_d) a_i is the chance
    that i pairs with a detected idler and a lost signal, plus the one
    pair whose signal is kept, leave a detected count in A.  Returned:
    the series of e_i, e_{i+1}, a_i and a_{i+1}; Poisson, or for a
    thermal source of shapes 2, 3, 1 and 2.
    """
    members = list(strategy.accepted)
    admit = np.zeros(max(members) + 2)
    admit[members] = 1.0
    pair = (1.0 - v_d) * admit
    pair[:-1] += v_d * admit[1:]
    coefs = (pair, pair[1:], admit, admit[1:])
    if family is SourceFamily.POISSON:
        return tuple(map(_series, coefs))
    return tuple(map(_series, coefs, (2, 3, 1, 2)))


def one_photon_terms(
    family: SourceFamily | str,
    strategy: DetectionStrategy,
    v_d: float,
    lam,
    v,
    slope: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Admission probability and one-photon probability of a unit, in closed form.

    For a unit at mean ``lam >= 0`` whose arm transmits ``v``, with J the
    detected idler count and K the number of signal photons that survive
    the arm, returns P(J ∈ A) and t = P(J ∈ A, K = 1), broadcast over
    ``lam`` and ``v``.  A is the whole accepted count set; threshold
    detection accepts every count >= 1.  Each result has a leading axis
    holding the values and, with ``slope``, their derivatives in ``lam``.
    Every cell is evaluated on its own, so a value does not depend on the
    cells beside it.

    Each pair falls in one of four classes: idler detected or not, signal
    kept or not.  The class counts are independent Poissons for a Poisson
    source and negative-multinomial for a thermal one, so each value is a
    prefactor times a series over the accepted counts, summed until its
    terms fall below double precision.  There is no pair-number series
    and no cutoff on it.
    """
    family = SourceFamily.coerce(family)
    lam, v = np.asarray(lam, dtype=float), np.asarray(v, dtype=float)
    lv = lam * v
    shape = (1 + slope,) + lv.shape
    admit, t = np.empty(shape), np.empty(shape)
    m = lam * v_d  # mean detected idlers
    k = v_d * (1.0 - v)  # chance of a pair with its idler detected and its signal lost
    mu = lam * k
    if family is SourceFamily.POISSON:
        kept = np.exp(-lv)  # no other pair keeps its signal
        if strategy.is_threshold:
            # P(K = 1) - P(J = 0, K = 1) in positive terms
            h = v_d - (1.0 - v_d) * np.expm1(-mu)
            admit[0] = -np.expm1(-m)
            t[0] = lv * kept * h
            if slope:
                admit[1] = v_d * np.exp(-m)
                t[1] = v * kept * ((1.0 - lv) * h + (1.0 - v_d) * mu * np.exp(-mu))
            return admit, t
        pair, pair_up, accept, accept_up = _count_polynomials(family, strategy, float(v_d))
        accepts = _series_sums((accept, accept_up)[: 1 + slope], m)
        pairs = _series_sums((pair, pair_up)[: 1 + slope], mu)
        admit[0] = accepts[0]
        t[0] = lv * kept * pairs[0]
        if slope:
            admit[1] = v_d * (accepts[1] - admit[0])
            t[1] = v * kept * ((1.0 - lv - mu) * pairs[0] + mu * pairs[1])
        return admit, t
    # thermal: c = 1 + lam (v + k), one plus the mean number of pairs
    # that have their idler detected or their signal kept, and r = mu / c < 1
    g = 1.0 / (1.0 + lv + mu)
    r = mu * g
    g_m = 1.0 / (1.0 + m)
    rho = m * g_m  # detected-idler ratio
    if strategy.is_threshold:
        # P(K = 1) - P(J = 0, K = 1) in positive terms, with (1 - r) c = 1 + lam v
        u = r * (2.0 - r)
        d = 1.0 / (1.0 + lv)
        h = v_d + (1.0 - v_d) * u
        admit[0] = rho
        t[0] = lv * h * d * d
        if slope:
            admit[1] = v_d * g_m * g_m
            du = 2.0 * (1.0 - r) * k * g * g
            t[1] = v * d * d * ((1.0 - lv) * d * h + lam * (1.0 - v_d) * du)
        return admit, t
    pair, pair_up, accept, accept_up = _count_polynomials(family, strategy, float(v_d))
    accepts = _series_sums((accept, accept_up)[: 1 + slope], rho)
    pairs = _series_sums((pair, pair_up)[: 1 + slope], r)
    admit[0] = g_m * accepts[0]
    t[0] = lv * g * g * pairs[0]
    if slope:
        admit[1] = v_d * g_m * g_m * (g_m * accepts[1] - accepts[0])
        # d/dlam of lam v q(r) / c^2, with dr/dlam = k / c^2
        t[1] = v * g * g * ((2.0 * g - 1.0) * pairs[0] + mu * g * g * pairs[1])
    return admit, t


def _validate_pump(spec: MultiplexerSpec, pump: PumpProfile) -> np.ndarray:
    if len(pump) != spec.n_units:
        raise ParameterError(
            f"pump profile has {len(pump)} entries but the spec has {spec.n_units} units"
        )
    return pump.as_array()


# cells of each table _admitted_counts builds: units × counts, and counts ×
# accepted width (32 MiB of float64 each)
_COUNT_CELLS = 1 << 22


def _admitted_counts(
    family: SourceFamily,
    strategy: DetectionStrategy,
    v_d: float,
    lam: np.ndarray,
    v: np.ndarray,
    admit: np.ndarray,
    i_max: int,
) -> np.ndarray:
    """P(J ∈ A, K = i) of each unit for i = 0..end, a (units, end + 1) table.

    Given K = i kept signals, S ~ Bin(i, v_d) of them have their idler
    detected, and independently N₂ pairs have a detected idler and a lost
    signal: Poisson at mean mu = lam v_d (1 - v), or for a thermal source
    negative binomial of shape i + 1 and ratio r = mu / (1 + lam v + mu).
    So P(J ∈ A, K = i) = P(K = i) Σ_n P(N₂ = n | K = i) P(S + n ∈ A);
    threshold detection takes P(J = 0 | K = i) = (1 - v_d)^i P(N₂ = 0 | K = i)
    in positive terms.

    ``end`` grows until, for every unit, what the table leaves out is
    within 2^-54 of its mass beyond ``i_max``, or while ``end`` is not
    beyond ``i_max``, of its admission probability ``admit``.  It leaves
    out at most P(K > end) P(Bin(end + 1, v_d) <= max A), and at most
    ``admit``.  Each table holds at most ``_COUNT_CELLS`` (2^22) cells:
    units × counts, and counts × accepted width.  A pump whose kept
    photons need more raises :class:`~asmux.exceptions.TruncationError`
    before any table is built.
    """
    kappa = lam * v  # mean kept signals
    mu = lam * v_d * (1.0 - v)
    r = (mu / (1.0 + kappa + mu))[:, None]
    with np.errstate(divide="ignore"):  # r rounds to 1 on a blocked arm past lam v_d ~ 1e16
        log_none = np.log1p(-r)  # thermal log P(N₂ = 0 | K = 0), -inf there
    if not strategy.is_threshold:
        top = max(strategy.accepted)
        members = np.fromiter(strategy.accepted, dtype=np.int64)
    k_max = float(kappa.max())
    if family is SourceFamily.POISSON:
        span = k_max + 8.0 * math.sqrt(k_max) + 24.0
    else:  # about 2^-54 of the geometric tail
        span = 38.0 / math.log1p(1.0 / k_max) + 8.0 if k_max > 0.0 else 8.0
    end = min(i_max, 16) + int(min(span, _COUNT_CELLS))
    while True:
        width = 0 if strategy.is_threshold else min(end + 1, top)
        if (end + 2) * max(kappa.size, width + 1) > _COUNT_CELLS:
            raise TruncationError(
                f"mean kept-photon number {k_max:.6g} needs count tables past {_COUNT_CELLS} cells"
            )
        i = np.arange(end + 1)
        p_kept = _count_pmf(family, kappa, end + 1)
        if strategy.is_threshold:
            with np.errstate(divide="ignore", invalid="ignore"):  # v_d = 1 detects them all
                missed = np.where(i > 0, i * np.log1p(-v_d), 0.0)
            if family is SourceFamily.POISSON:
                none_lost = -mu[:, None]
            else:
                none_lost = (i + 1.0) * log_none
            table = -np.expm1(missed + none_lost)
        else:
            detected = _binom_pmf(np.arange(width + 1), np.arange(end + 2)[:, None], v_d)
            accepted = np.zeros(top + width + 1)
            accepted[members] = 1.0

            def in_set(n):  # P(S + n ∈ A | K = i) for every i
                return detected[:-1] @ accepted[n : n + width + 1]

            if family is SourceFamily.POISSON:
                mu_col = mu[:, None]
                table = _weighted_sum(in_set, top + 1, np.exp(-mu_col), lambda n: mu_col / n)
            else:
                table = _weighted_sum(
                    in_set, top + 1, np.exp((i + 1.0) * log_none), lambda n: r * ((n + i) / n)
                )
        table *= p_kept[:, :-1]

        # P(K > end), from P(K = end + 1): a geometric tail, or for a
        # Poisson one a ratio bound past the mean
        if family is SourceFamily.POISSON:
            ahead = end + 2.0 - kappa
            left = np.divide(
                p_kept[:, -1] * (end + 2.0), ahead, out=np.ones(kappa.shape), where=ahead > 0.0
            )
        else:
            left = p_kept[:, -1] * (1.0 + kappa)
        if not strategy.is_threshold and top <= end:
            left *= detected[-1].sum()
        left = np.minimum(left, admit)
        scale = table[:, i_max + 1 :].sum(axis=1) if end > i_max else admit
        if np.all(left <= 2.0**-54 * scale):
            return table
        end *= 2


def _chain(quiet: np.ndarray, terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running chain sums Σ_{n<k} Π_{m<n} quiet_m terms_n and products Π_{m<k} quiet_m.

    Column k = 0..units of each runs over the last (unit) axis in order
    (``cumprod``, ``cumsum``), so units appended with ``quiet`` 1 and zero
    ``terms``, as zero-mean padding is, change no bit.
    """
    prefix = np.ones(quiet.shape[:-1] + (quiet.shape[-1] + 1,))
    np.cumprod(quiet, axis=-1, out=prefix[..., 1:])
    run = prefix[..., :-1] * terms
    head = np.zeros(run.shape[:-1] + (run.shape[-1] + 1,))
    np.cumsum(run, axis=-1, out=head[..., 1:])
    return head, prefix


def output_distribution(
    spec: MultiplexerSpec,
    pump: PumpProfile,
    strategy: DetectionStrategy,
    i_max: int = 10,
) -> OutputDistribution:
    """Exact output photon-number distribution of the multiplexed source.

    Unit ``n`` is admitted when its detected idler count J_n is accepted;
    it then delivers the K_n signal photons that survive its arm, unless
    a lower-index unit was admitted.  So P(i photons) is
    Σ_n Π_{m<n} (1 - P(J_m ∈ A)) P(J_n ∈ A, K_n = i), and the
    no-admission event adds to zero photons only.  Every unit term is a
    closed form (:func:`one_photon_terms` for admission and one photon,
    :func:`_admitted_counts` for every count), with no pair-number series.
    Every count sums over the units in order (:func:`_chain`), so
    ``probs[1]`` is the value :func:`p1_profile_batch` gives, bit for bit.

    Probabilities for 0..i_max output photons are returned with the
    probability of more than ``i_max``, summed from positive terms until
    they fall below double precision.  The work and memory follow the
    probability mass, not ``i_max``.
    """
    message = f"i_max must be in [1, {_COUNT_LIMIT}), got {i_max}"
    i_max = _integer(i_max, "i_max", 1, _COUNT_LIMIT, message)
    lam = _validate_pump(spec, pump)
    v = transmission_vector(spec)
    admit, t = one_photon_terms(spec.source, strategy, spec.v_d, lam, v)
    counts = _admitted_counts(spec.source, strategy, spec.v_d, lam, v, admit[0], i_max)
    counts[:, 1] = t[0]  # the same closed form p1_profile_batch reads
    columns = np.column_stack([counts[:, : i_max + 1], counts[:, i_max + 1 :].sum(axis=1)])
    head, prefix = _chain(1.0 - admit[0], columns.T)
    probs = np.zeros(i_max + 1)
    probs[: head.shape[0] - 1] = head[:-1, -1]
    probs[0] += prefix[-1]
    truncation_mass = float(head[-1, -1])

    total = float(probs.sum()) + truncation_mass
    if abs(total - 1.0) > 1e-8:
        raise TruncationError(
            f"distribution accounting is off by {total - 1.0:.3e}; "
            "a pump mean this bright leaves the float range"
        )
    return OutputDistribution(probs=probs, truncation_mass=truncation_mass)


def single_photon_prob(
    spec: MultiplexerSpec, pump: PumpProfile, strategy: DetectionStrategy
) -> float:
    """P(exactly one output photon), in closed form: :func:`p1_profile_batch` of this profile."""
    return float(p1_profile_batch(spec, strategy, _validate_pump(spec, pump)[None, :])[0])


def _chain_p1(family: SourceFamily, strategy: DetectionStrategy, v_d: float, lam, v) -> np.ndarray:
    """P1 of each profile in ``lam`` (units on the last axis) whose arms transmit ``v``."""
    admit, t = one_photon_terms(family, strategy, v_d, lam, v)
    return _chain(1.0 - admit[0], t[0])[0][..., -1]


def p1_profile_batch(
    spec: MultiplexerSpec,
    strategy: DetectionStrategy,
    lam_matrix: np.ndarray,
) -> np.ndarray:
    """Single-photon probability for a batch of pump profiles.

    ``lam_matrix`` holds one profile per row (last axis = unit index).
    It evaluates only the one-photon component, in closed form
    (:func:`_chain_p1`), so each row's value does not depend on the rows
    beside it; the stability interval tests both doubling ladders, or a
    bisecting edge's next three levels, in one call.
    """
    lam = np.asarray(lam_matrix, dtype=float)
    if lam.shape[-1] != spec.n_units:
        raise ParameterError(
            f"profiles have {lam.shape[-1]} entries but the spec has {spec.n_units} units"
        )
    _check_means(lam)
    return _chain_p1(spec.source, strategy, spec.v_d, lam, transmission_vector(spec))
