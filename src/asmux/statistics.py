"""Photon-number statistics of the multiplexed heralded source.

Three independent probabilistic stages act on each pump pulse: pair
generation in every unit (Poisson or thermal), photon-number-resolved
heralding through a detector of efficiency ``v_d``, and binomial photon
loss along the multiplexer arm of the unit that wins priority.  Priority
goes to the accepted unit with the smallest index, i.e. the one with the
smallest loss.  The output distribution composes these stages exactly,
up to an explicit truncation of the pair-number series whose discarded
mass is tracked analytically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from .exceptions import ParameterError, TruncationError
from .multiplexer import MultiplexerSpec, SourceFamily, transmission_vector

__all__ = [
    "TruncationPolicy",
    "DEFAULT_TRUNCATION",
    "PumpProfile",
    "DetectionStrategy",
    "OutputDistribution",
    "output_distribution",
    "single_photon_prob",
]


@dataclass(frozen=True)
class TruncationPolicy:
    """Finite cutoff rule for the (formally infinite) pair-number sums.

    The series over generated pairs is cut at the smallest count whose
    source tail mass falls below ``tail_epsilon``, and never beyond
    ``l_hard_cap``.
    """

    tail_epsilon: float = 1e-12
    l_hard_cap: int = 400

    def __post_init__(self) -> None:
        if not 0.0 < self.tail_epsilon < 1e-6:
            raise ParameterError(
                f"tail_epsilon must lie in (0, 1e-6), got {self.tail_epsilon!r}"
            )
        if int(self.l_hard_cap) < 50:
            raise ParameterError(f"l_hard_cap must be >= 50, got {self.l_hard_cap!r}")
        object.__setattr__(self, "l_hard_cap", int(self.l_hard_cap))


DEFAULT_TRUNCATION = TruncationPolicy()


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
        if not all(map(math.isfinite, lams)) or min(lams) < 0.0:
            raise ParameterError("input mean photon numbers must be finite and >= 0")
        object.__setattr__(self, "lambdas", lams)

    @classmethod
    def uniform(cls, lam: float, n_units: int) -> "PumpProfile":
        """Constant profile sharing one mean photon number across units."""
        return cls((float(lam),) * int(n_units))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.lambdas, dtype=float)

    def __len__(self) -> int:
        return len(self.lambdas)


# Largest accepted count.  No count above the series cutoff is ever
# detected, so a larger one changes nothing, yet its set grows with it
# (1.5 MB at this bound).
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
        members = frozenset(int(j) for j in self.accepted)
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
        j = int(j)
        if not 1 <= j <= MAX_ACCEPTED_COUNT:
            raise ParameterError(
                f"maximum accepted count must be in [1, {MAX_ACCEPTED_COUNT}], got {j}"
            )
        return cls(frozenset(range(1, j + 1)))

    @classmethod
    def explicit(cls, counts: Iterable[int]) -> "DetectionStrategy":
        """Accept exactly the given counts (gaps allowed)."""
        return cls(frozenset(int(c) for c in counts))

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

    ``truncation_mass`` is everything not covered by ``probs``: the
    probability of more output photons plus the pair-number series tail
    dropped by the truncation policy.  Each ``probs[i]`` is a lower bound
    on the exact probability.
    """

    probs: np.ndarray
    truncation_mass: float


_log_factorial_table = np.zeros(1)


def _log_factorials(n: int) -> np.ndarray:
    """Read-only ``log(k!)`` for k = 0..n, from a table grown on demand.

    The table grows to at most twice the largest count asked for, so its
    size follows the series cutoffs in use.
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

    Evaluated in log space on the log-factorial table.  It is exactly zero
    for k < 0 or k > n, and exact at p = 0, p = 1 and n = 0: a log(0) is
    never weighted by a zero count, so 0^0 = 1.
    """
    k = np.asarray(k, dtype=np.int64)
    n = np.asarray(n, dtype=np.int64)
    p = np.asarray(p, dtype=float)
    inside = (k >= 0) & (k <= n)
    k = np.where(inside, k, 0)
    n = np.where(inside, n, 0)
    rest = n - k
    lf = _log_factorials(int(n.max(initial=0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        hits = np.where(k > 0, k * np.log(p), 0.0)
        misses = np.where(rest > 0, rest * np.log1p(-p), 0.0)
    return np.where(inside, np.exp(lf[n] - lf[k] - lf[rest] + hits + misses), 0.0)


def _poisson_series_end(lam: float, l: int) -> int:
    """Last count worth summing in the Poisson tail beyond ``l`` at mean ``lam`` > 0.

    Past the returned count the pmf falls by at least half per step
    and starts below e^-45 of pmf(l + 1), so the dropped remainder is
    under 6e-20 of the tail.
    """
    log_lam = math.log(lam)
    head = math.lgamma(l + 2.0)
    span = 16
    while True:
        end = l + span
        if end + 2 > 2.0 * lam and (end - l) * log_lam - (math.lgamma(end + 2.0) - head) < -45.0:
            return end
        span *= 2


def _poisson_tails(lams, l_lo: int, l_hi: int) -> np.ndarray:
    """P(X > l) for l = l_lo..l_hi at each Poisson mean in ``lams``; adds a trailing axis.

    Each tail is summed from the far end of the series down, smallest
    terms first, so none is formed as ``1 - cdf``.  A zero mean among
    others has zero tails, from ``log(0)``; callers with zero means
    silence its divide warning.
    """
    lams = np.asarray(lams, dtype=float)
    lam_max = float(lams.max()) if lams.size else 0.0
    if lam_max == 0.0:
        return np.zeros(lams.shape + (l_hi - l_lo + 1,))
    end = _poisson_series_end(lam_max, l_hi)
    # the terms for k = end down to l_lo + 1, so their running sums are the tails
    terms = np.log(lams)[..., None] * np.arange(end, l_lo, -1.0)
    terms -= lams[..., None]
    terms -= _log_factorials(end)[end:l_lo:-1]
    np.exp(terms, out=terms)
    np.cumsum(terms, axis=-1, out=terms)
    return terms[..., ::-1][..., : l_hi - l_lo + 1]


def _poisson_cap_error(lam: float, trunc: TruncationPolicy) -> TruncationError:
    return TruncationError(
        f"Poisson tail at mean {float(lam)} stays above {trunc.tail_epsilon} "
        f"up to the hard cap {trunc.l_hard_cap}"
    )


def _poisson_cutoffs(
    lams: np.ndarray, trunc: TruncationPolicy, lo: int = 0, hi: int = 64
) -> np.ndarray:
    """Cutoffs of Poisson means in (0, cap), searched for all of them at once.

    The windows of cutoffs double in length, so the work follows the
    cutoffs found and not the cap.  Tails never grow with the cutoff, so
    a mean is done once the last tail of a window is within the bound;
    the means still open search the next window.
    """
    if lo > trunc.l_hard_cap:
        raise _poisson_cap_error(lams.flat[0], trunc)
    hi = min(hi, trunc.l_hard_cap)
    tails = _poisson_tails(lams, lo, hi)
    cutoffs = lo + (tails <= trunc.tail_epsilon).argmax(axis=-1)
    still_open = tails[..., -1] > trunc.tail_epsilon
    if np.count_nonzero(still_open):
        cutoffs = np.array(cutoffs)
        cutoffs[still_open] = _poisson_cutoffs(lams[still_open], trunc, hi + 1, 2 * hi)
    return cutoffs


def required_lmax(
    family: SourceFamily | str, lam_max: float, trunc: TruncationPolicy = DEFAULT_TRUNCATION
) -> int:
    """Smallest series cutoff whose source tail mass is below the policy bound."""
    family = SourceFamily.coerce(family)
    lam_max = float(lam_max)
    if not math.isfinite(lam_max) or lam_max < 0.0:
        raise ParameterError(f"mean photon number must be finite and >= 0, got {lam_max!r}")
    if lam_max == 0.0:
        return 0
    if family is SourceFamily.POISSON:
        # a cap at or below the mean leaves a tail of about one half
        if lam_max >= trunc.l_hard_cap:
            raise _poisson_cap_error(lam_max, trunc)
        return int(_poisson_cutoffs(np.asarray(lam_max), trunc))
    # the thermal tail beyond l is (lam / (1 + lam))^(l+1)
    ratio = lam_max / (1.0 + lam_max)
    if ratio < 1.0:
        needed = max(math.ceil(math.log(trunc.tail_epsilon) / math.log(ratio)) - 1, 0)
    else:  # the ratio rounds to one, and no cutoff bounds the tail
        needed = math.inf
    if needed > trunc.l_hard_cap:
        raise TruncationError(
            f"thermal tail at mean {lam_max} needs a cutoff of {needed}, "
            f"beyond the hard cap {trunc.l_hard_cap}"
        )
    return needed


def series_cutoffs(
    family: SourceFamily | str, lams, trunc: TruncationPolicy = DEFAULT_TRUNCATION
) -> np.ndarray:
    """:func:`required_lmax` of every mean in ``lams``, as an integer array of its shape.

    Poisson means share one window search; thermal cutoffs are closed
    form, computed as one array expression.  A mean that is not finite,
    is negative or cannot be cut below the hard cap raises the error
    :func:`required_lmax` raises for it.
    """
    family = SourceFamily.coerce(family)
    lams = np.asarray(lams, dtype=float)
    cutoffs = np.zeros(lams.shape, dtype=np.int64)
    bad = ~np.isfinite(lams) | (lams < 0.0)
    if family is SourceFamily.POISSON:
        bad |= lams >= trunc.l_hard_cap
    if bad.any():
        required_lmax(family, lams[bad].flat[0], trunc)  # raises
    pos = lams > 0.0
    if family is SourceFamily.POISSON:
        cutoffs[pos] = _poisson_cutoffs(lams[pos], trunc)
    else:  # as required_lmax, with no cutoff where the ratio rounds to one
        ratio = lams[pos] / (1.0 + lams[pos])
        with np.errstate(divide="ignore"):
            needed = np.where(
                ratio < 1.0, np.ceil(math.log(trunc.tail_epsilon) / np.log(ratio)) - 1.0, np.inf
            )
        over = needed > trunc.l_hard_cap
        if over.any():
            required_lmax(family, lams[pos][over][0], trunc)  # raises
        cutoffs[pos] = np.maximum(needed, 0.0)
    return cutoffs


def source_pmf(family: SourceFamily | str, lams: np.ndarray, l_max: int) -> np.ndarray:
    """Pair-number pmf rows for each mean in ``lams``; adds a trailing axis of size l_max+1."""
    family = SourceFamily.coerce(family)
    lams = np.asarray(lams, dtype=float)
    shape = lams.shape
    flat = lams.reshape(-1)
    ls = np.arange(l_max + 1, dtype=float)
    pos = flat > 0.0
    lp = flat[pos]
    # built in place in one array: each temporary of this size would be a
    # fresh allocation whose pages are faulted in again on every call
    if family is SourceFamily.POISSON:
        rows = np.multiply.outer(np.log(lp), ls)
        rows -= lp[:, None]
        rows -= _log_factorials(l_max)
    else:  # l log(lam) - (l + 1) log(1 + lam)
        log1p = np.log1p(lp)
        rows = np.multiply.outer(np.log(lp) - log1p, ls)
        rows -= log1p[:, None]
    np.exp(rows, out=rows)
    if lp.size < flat.size:
        out = np.zeros((flat.size, l_max + 1))
        out[pos] = rows
        out[~pos, 0] = 1.0
        rows = out
    return rows.reshape(shape + (l_max + 1,))


def source_tail(family: SourceFamily | str, lams: np.ndarray, l_max: int) -> np.ndarray:
    """Exact source mass beyond the cutoff, per mean in ``lams``."""
    family = SourceFamily.coerce(family)
    lams = np.asarray(lams, dtype=float)
    if family is SourceFamily.POISSON:
        with np.errstate(divide="ignore"):  # a zero mean has log -inf and no tail
            return _poisson_tails(lams, l_max, l_max)[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (lams / (1.0 + lams)) ** (l_max + 1)
    return np.where(lams > 0.0, out, 0.0)


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
    return _acceptance_weights_cached(strategy, float(v_d), int(l_max))


def transmit_one_weights(v: np.ndarray, l_max: int) -> np.ndarray:
    """Probability that exactly one of ``l`` photons survives each arm.

    Returns an (n_arms, l_max+1) matrix; the exponent is clipped so the
    lossless arm (v = 1) stays finite at l = 0.
    """
    v = np.asarray(v, dtype=float)
    ls = np.arange(l_max + 1, dtype=float)
    expo = np.clip(ls - 1.0, 0.0, None)
    return ls[None, :] * v[:, None] * (1.0 - v[:, None]) ** expo[None, :]


# Counts below this bound sum their Poisson terms x^i / i! by Horner on the
# coefficients 1/i!; 1/171! is below the float range.
_HORNER_COUNTS = 150
# e^-x is a normal float below this x
_EXP_NORMAL = 700.0


class _Series(NamedTuple):
    """``e^-x Σ_i c_i x^i / i!`` for coefficients ``c_i >= 0``; see :func:`_poisson_series`."""

    coef: tuple[float, ...]  # c_i, trailing zeros dropped
    horner: tuple[float, ...] | None  # c_i / i!, when every i < _HORNER_COUNTS


def _series(c: np.ndarray) -> _Series:
    coef = tuple(np.trim_zeros(c, "b").tolist()) or (0.0,)
    horner = None
    if len(coef) <= _HORNER_COUNTS:
        horner = tuple(c_i / math.factorial(i) for i, c_i in enumerate(coef))
    return _Series(coef, horner)


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


def _poisson_series(s: _Series, x: np.ndarray, decay: np.ndarray | None) -> np.ndarray:
    """``e^-x Σ_i c_i x^i / i!`` at every ``x >= 0``, as a new array.

    ``decay`` is e^-x, or None where that leaves the normal float range
    somewhere.  Every term is positive, so Horner's relative rounding
    error stays within a few ulps per term.  Past the Horner range each
    Poisson term is the last one times x / i, from e^-x, so none leaves
    the float range.  Without ``decay`` each term is taken from its
    logarithm, to a relative error of about x ulps.
    """
    if decay is None:
        out = s.coef[0] * np.exp(-x)
        with np.errstate(divide="ignore"):  # x = 0 leaves the constant term
            log_x = np.log(x)
        for i, c in enumerate(s.coef[1:], 1):
            if c:
                out += np.exp(i * log_x + (math.log(c) - math.lgamma(i + 1.0) - x))
        return out
    if s.horner is not None:
        return _horner(s.horner, x) * decay
    term = decay.copy()
    out = s.coef[0] * term
    for i, c in enumerate(s.coef[1:], 1):
        term *= x
        term /= i
        if c:
            out += c * term
    return out


@lru_cache(maxsize=64)
def _count_polynomials(
    family: SourceFamily, strategy: DetectionStrategy, v_d: float, l_max: int
) -> tuple:
    """The four polynomials :func:`one_photon_terms` reads for a count set A.

    With a_i = [i in A], e_i = v_d a_{i+1} + (1 - v_d) a_i is the chance
    that i pairs with a detected idler and a lost signal, plus the one
    pair whose signal is kept, leave a detected count in A.  Returned:
    the Poisson series of e_i, e_{i+1}, a_i and a_{i+1}, or the thermal
    Horner coefficients (i + 1) e_i, (i + 1)(i + 2) e_{i+1}, a_i and
    (i + 1) a_{i+1}.
    """
    # a count above l_max is never detected in the cut series, see acceptance_weights
    members = [j for j in strategy.accepted if j <= l_max]
    admit = np.zeros(max(members, default=0) + 2)
    admit[members] = 1.0
    pair = (1.0 - v_d) * admit
    pair[:-1] += v_d * admit[1:]
    if family is SourceFamily.POISSON:
        return tuple(map(_series, (pair, pair[1:], admit, admit[1:])))
    i = np.arange(1.0, admit.size + 1)
    polys = (i * pair, i[:-1] * i[1:] * pair[1:], admit, i[:-1] * admit[1:])
    return tuple(tuple(np.trim_zeros(p, "b").tolist()) or (0.0,) for p in polys)


def one_photon_terms(
    family: SourceFamily | str,
    strategy: DetectionStrategy,
    v_d: float,
    lam,
    v,
    l_max: int,
    slope: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Admission probability and one-photon probability of a unit, in closed form.

    For a unit at mean ``lam >= 0`` whose arm transmits ``v``, with J the
    detected idler count and K the number of signal photons that survive
    the arm, returns P(J ∈ A) and t = P(J ∈ A, K = 1), broadcast over
    ``lam`` and ``v``.  A is the accepted count set cut at ``l_max``, as
    :func:`acceptance_weights` cuts it; threshold detection accepts every
    count >= 1.  Each result has a leading axis holding the values and,
    with ``slope``, their derivatives in ``lam``.

    Each pair falls in one of four classes: idler detected or not, signal
    kept or not.  The class counts are independent Poissons for a Poisson
    source and negative-multinomial for a thermal one, so each value is a
    prefactor times a polynomial over the accepted counts.  There is no
    series cutoff: the values differ from the cut-series sums by at most
    the dropped tail.
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
        pair, pair_up, accept, accept_up = _count_polynomials(
            family, strategy, float(v_d), int(l_max)
        )
        normal = lam.max(initial=0.0) < _EXP_NORMAL
        decay_m = np.exp(-m) if normal else None
        decay_mu = np.exp(-mu) if normal else None
        admit[0] = _poisson_series(accept, m, decay_m)
        s = _poisson_series(pair, mu, decay_mu)
        t[0] = lv * kept * s
        if slope:
            admit[1] = v_d * (_poisson_series(accept_up, m, decay_m) - admit[0])
            s_up = _poisson_series(pair_up, mu, decay_mu)
            t[1] = v * kept * ((1.0 - lv - mu) * s + mu * s_up)
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
    pair, pair_up, accept, accept_up = _count_polynomials(
        family, strategy, float(v_d), int(l_max)
    )
    p_accept = _horner(accept, rho)
    q = _horner(pair, r)
    admit[0] = g_m * p_accept
    t[0] = lv * g * g * q
    if slope:
        admit[1] = v_d * g_m * g_m * (g_m * _horner(accept_up, rho) - p_accept)
        # d/dlam of lam v q(r) / c^2, with dr/dlam = k / c^2
        t[1] = v * g * g * ((2.0 * g - 1.0) * q + mu * g * g * _horner(pair_up, r))
    return admit, t


def _validate_pump(spec: MultiplexerSpec, pump: PumpProfile) -> np.ndarray:
    if len(pump) != spec.n_units:
        raise ParameterError(
            f"pump profile has {len(pump)} entries but the spec has {spec.n_units} units"
        )
    return pump.as_array()


def output_distribution(
    spec: MultiplexerSpec,
    pump: PumpProfile,
    strategy: DetectionStrategy,
    i_max: int = 10,
    trunc: TruncationPolicy = DEFAULT_TRUNCATION,
) -> OutputDistribution:
    """Exact output photon-number distribution of the multiplexed source.

    Composes, per unit, the admission probability with the joint
    probability of the generated pair number and the surviving photon
    count on that unit's arm, weighting unit ``n`` by the probability
    that no lower-index unit was admitted.  The no-admission event
    contributes to zero output photons only.

    Probabilities for 0..i_max output photons are returned together with
    the analytically tracked remainder (more than ``i_max`` photons plus
    the series tail), so the total always completes to one.
    """
    i_max = int(i_max)
    if i_max < 1:
        raise ParameterError(f"i_max must be >= 1, got {i_max}")
    lam = _validate_pump(spec, pump)

    l_max = required_lmax(spec.source, float(lam.max()), trunc)
    w = acceptance_weights(strategy, spec.v_d, l_max)
    pmf = source_pmf(spec.source, lam, l_max)  # (N, L+1)
    tails = source_tail(spec.source, lam, l_max)  # (N,)
    v = transmission_vector(spec)

    # no-admission probability inside the cut series; 1 - pmf @ w would
    # also count the dropped tail, which truncation_mass already holds
    no_fire = pmf @ (1.0 - w)
    prefix = np.concatenate(([1.0], np.cumprod(no_fire)[:-1]))

    # no output count exceeds the series cutoff, so the counts above it
    # are zeros and the cube stops there
    top = min(i_max, l_max)
    ls = np.arange(l_max + 1)
    counts = np.arange(top + 1)
    trans = _binom_pmf(
        counts[:, None, None], ls[None, None, :], v[None, :, None]
    )  # (top+1, N, L+1)
    contrib = np.einsum("inl,nl,l->in", trans, pmf, w)

    probs = np.zeros(i_max + 1)
    probs[: top + 1] = contrib @ prefix
    probs[0] += float(np.prod(no_fire))

    exceed = 0.0  # more than i_max photons; none when i_max >= l_max
    if i_max < l_max:
        # more than i_max of l photons survive exactly when the (i_max+1)-th
        # survivor is photon m for some m <= l: P = sum_m v * pmf(i_max; m-1, v),
        # a sum of positive terms (no 1 - cdf) that needs no (k, N, L+1) cube
        overflow = np.zeros((len(v), l_max + 1))  # (N, L+1)
        overflow[:, 1:] = v[:, None] * np.cumsum(trans[i_max, :, :-1], axis=-1)
        exceed = prefix @ np.einsum("nl,nl,l->n", overflow, pmf, w)
    truncation_mass = float(exceed + prefix @ tails)

    total = float(probs.sum()) + truncation_mass
    if abs(total - 1.0) > 1e-8:
        raise TruncationError(
            f"distribution accounting is off by {total - 1.0:.3e}; "
            "tighten the truncation policy"
        )
    return OutputDistribution(probs=probs, truncation_mass=truncation_mass)


def single_photon_prob(
    spec: MultiplexerSpec,
    pump: PumpProfile,
    strategy: DetectionStrategy,
    trunc: TruncationPolicy = DEFAULT_TRUNCATION,
) -> float:
    """Probability of exactly one photon at the output."""
    return float(output_distribution(spec, pump, strategy, trunc=trunc).probs[1])


# an interval's walk meets a few cutoffs; the tables are (N, L+1) each
@lru_cache(maxsize=16)
def _one_photon_weights(
    spec: MultiplexerSpec, strategy: DetectionStrategy, l_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per arm and pair number, the chance of admission with exactly one photon out,
    and the chance of no admission; cached and read-only."""
    w = acceptance_weights(strategy, spec.v_d, l_max)
    lf = transmit_one_weights(transmission_vector(spec), l_max) * w[None, :]  # (N, L+1)
    quiet = 1.0 - w
    lf.flags.writeable = quiet.flags.writeable = False
    return lf, quiet


def p1_profile_batch(
    spec: MultiplexerSpec,
    strategy: DetectionStrategy,
    lam_matrix: np.ndarray,
    trunc: TruncationPolicy = DEFAULT_TRUNCATION,
) -> np.ndarray:
    """Single-photon probability for a batch of pump profiles.

    ``lam_matrix`` holds one profile per row (last axis = unit index).
    It evaluates only the one-photon component.  Each row's pair-number
    series is cut at that row's own cutoff (one cutoff search for the
    batch), so a row's value does not depend on the rows beside it, up
    to rounding; the stability interval batches its walk with it.
    """
    lam = np.asarray(lam_matrix, dtype=float)
    if lam.shape[-1] != spec.n_units:
        raise ParameterError(
            f"profiles have {lam.shape[-1]} entries but the spec has {spec.n_units} units"
        )
    if lam.size == 0:
        return np.zeros(lam.shape[:-1])
    row_max = lam.max(axis=-1)
    # a NaN fails both tests, as it propagates through min and max
    if not (lam.min() >= 0.0 and np.isfinite(row_max).all()):
        raise ParameterError("input mean photon numbers must be finite and >= 0")

    cutoffs = series_cutoffs(spec.source, row_max, trunc)
    l_max = int(cutoffs.max())
    lf, quiet = _one_photon_weights(spec, strategy, l_max)

    pmf = source_pmf(spec.source, lam, l_max)  # (..., N, L+1)
    if cutoffs.min() < l_max:
        pmf *= np.arange(l_max + 1) <= cutoffs[..., None, None]
    no_fire = pmf @ quiet  # (..., N), inside the cut series
    t_one = np.einsum("...nl,nl->...n", pmf, lf)
    cum = np.cumprod(no_fire, axis=-1)
    prefix = np.concatenate(
        [np.ones(no_fire.shape[:-1] + (1,)), cum[..., :-1]], axis=-1
    )
    return np.einsum("...n,...n->...", prefix, t_one)
