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
from typing import Iterable

import numpy as np
from scipy.special import gammainc, gammaln
from scipy.stats import binom as _binom

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
            lams = tuple(float(x) for x in self.lambdas)
        except (TypeError, ValueError):
            raise ParameterError(f"lambdas must be a sequence of reals, got {self.lambdas!r}")
        if len(lams) == 0:
            raise ParameterError("pump profile must contain at least one value")
        if any(not math.isfinite(x) or x < 0.0 for x in lams):
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
        if j < 1:
            raise ParameterError(f"maximum accepted count must be >= 1, got {j}")
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

    @property
    def display(self) -> str:
        """Human-oriented label."""
        if self.is_threshold:
            return "ThD"
        members = sorted(self.accepted)
        if members == [1]:
            return "SPD"
        return "S={" + ",".join(str(m) for m in members) + "}"

    def accept_mask(self, counts: np.ndarray) -> np.ndarray:
        """Boolean mask of detected counts that trigger admission."""
        counts = np.asarray(counts)
        if self.is_threshold:
            return counts >= 1
        # one comparison per member: accepted sets are small, and this is
        # an order of magnitude faster than np.isin on sampler-sized arrays
        mask = np.zeros(counts.shape, dtype=bool)
        for j in self.accepted:
            mask |= counts == j
        return mask


@dataclass(eq=False)
class OutputDistribution:
    """Probabilities of 0..i_max photons at the multiplexer output.

    ``truncation_mass`` is everything not covered by ``probs``: the
    probability of more than ``i_max`` output photons plus the pair-number
    series tail dropped by the truncation policy.  Each ``probs[i]`` is a
    lower bound on the exact probability.
    """

    probs: np.ndarray
    i_max: int
    truncation_mass: float


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
    cap = trunc.l_hard_cap
    if family is SourceFamily.POISSON:
        ks = np.arange(cap + 1, dtype=float)
        tails = gammainc(ks + 1.0, lam_max)  # Poisson sf(k) at mean lam_max
        hits = np.flatnonzero(tails <= trunc.tail_epsilon)
        if hits.size == 0:
            raise TruncationError(
                f"Poisson tail at mean {lam_max} stays above {trunc.tail_epsilon} "
                f"up to the hard cap {cap}"
            )
        return int(hits[0])
    ratio = lam_max / (1.0 + lam_max)
    needed = math.ceil(math.log(trunc.tail_epsilon) / math.log(ratio)) - 1
    needed = max(needed, 0)
    if needed > cap:
        raise TruncationError(
            f"thermal tail at mean {lam_max} needs a cutoff of {needed}, "
            f"beyond the hard cap {cap}"
        )
    return needed


def source_pmf(family: SourceFamily | str, lams: np.ndarray, l_max: int) -> np.ndarray:
    """Pair-number pmf rows for each mean in ``lams``; adds a trailing axis of size l_max+1."""
    family = SourceFamily.coerce(family)
    lams = np.asarray(lams, dtype=float)
    shape = lams.shape
    flat = lams.reshape(-1)
    ls = np.arange(l_max + 1, dtype=float)
    out = np.zeros((flat.size, l_max + 1))
    pos = flat > 0.0
    if pos.any():
        lp = flat[pos, None]
        if family is SourceFamily.POISSON:
            out[pos] = np.exp(ls * np.log(lp) - lp - gammaln(ls + 1.0))
        else:
            out[pos] = np.exp(ls * np.log(lp) - (ls + 1.0) * np.log1p(lp))
    out[~pos, 0] = 1.0
    return out.reshape(shape + (l_max + 1,))


def source_tail(family: SourceFamily | str, lams: np.ndarray, l_max: int) -> np.ndarray:
    """Exact source mass beyond the cutoff, per mean in ``lams``."""
    family = SourceFamily.coerce(family)
    lams = np.asarray(lams, dtype=float)
    if family is SourceFamily.POISSON:
        return gammainc(float(l_max) + 1.0, lams)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (lams / (1.0 + lams)) ** (l_max + 1)
    return np.where(lams > 0.0, out, 0.0)


@lru_cache(maxsize=256)
def _acceptance_weights_cached(
    strategy: DetectionStrategy, v_d: float, l_max: int
) -> np.ndarray:
    ls = np.arange(l_max + 1, dtype=float)
    if strategy.is_threshold:
        w = 1.0 - (1.0 - v_d) ** ls
    else:
        members = np.array(sorted(strategy.accepted), dtype=float)
        w = _binom.pmf(members[:, None], ls[None, :], v_d).sum(axis=0)
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

    ls = np.arange(l_max + 1, dtype=float)
    counts = np.arange(i_max + 1, dtype=float)
    trans = _binom.pmf(
        counts[:, None, None], ls[None, None, :], v[None, :, None]
    )  # (i_max+1, N, L+1)
    contrib = np.einsum("inl,nl,l->in", trans, pmf, w)

    probs = contrib @ prefix
    probs[0] += float(np.prod(no_fire))

    overflow = _binom.sf(i_max, ls[None, :], v[:, None])  # (N, L+1)
    exceed = np.einsum("nl,nl,l->n", overflow, pmf, w)
    truncation_mass = float(prefix @ exceed + prefix @ tails)

    total = float(probs.sum()) + truncation_mass
    if abs(total - 1.0) > 1e-8:
        raise TruncationError(
            f"distribution accounting is off by {total - 1.0:.3e}; "
            "tighten the truncation policy"
        )
    return OutputDistribution(probs=probs, i_max=i_max, truncation_mass=truncation_mass)


def single_photon_prob(
    spec: MultiplexerSpec,
    pump: PumpProfile,
    strategy: DetectionStrategy,
    trunc: TruncationPolicy = DEFAULT_TRUNCATION,
) -> float:
    """Probability of exactly one photon at the output."""
    return float(output_distribution(spec, pump, strategy, trunc=trunc).probs[1])


def p1_profile_batch(
    spec: MultiplexerSpec,
    strategy: DetectionStrategy,
    lam_matrix: np.ndarray,
    trunc: TruncationPolicy = DEFAULT_TRUNCATION,
) -> np.ndarray:
    """Single-photon probability for a batch of pump profiles.

    ``lam_matrix`` holds one profile per row (last axis = unit index).
    This is the optimizer's fitness kernel; it evaluates only the one-
    photon component and shares the series cutoff across the batch.
    """
    lam = np.asarray(lam_matrix, dtype=float)
    if lam.shape[-1] != spec.n_units:
        raise ParameterError(
            f"profiles have {lam.shape[-1]} entries but the spec has {spec.n_units} units"
        )
    if lam.size == 0:
        return np.zeros(lam.shape[:-1])
    if np.any(~np.isfinite(lam)) or np.any(lam < 0.0):
        raise ParameterError("input mean photon numbers must be finite and >= 0")

    l_max = required_lmax(spec.source, float(lam.max()), trunc)
    w = acceptance_weights(strategy, spec.v_d, l_max)
    v = transmission_vector(spec)
    lf = transmit_one_weights(v, l_max) * w[None, :]  # (N, L+1)

    pmf = source_pmf(spec.source, lam, l_max)  # (..., N, L+1)
    no_fire = pmf @ (1.0 - w)  # (..., N), inside the cut series
    t_one = np.einsum("...nl,nl->...n", pmf, lf)
    cum = np.cumprod(no_fire, axis=-1)
    prefix = np.concatenate(
        [np.ones(no_fire.shape[:-1] + (1,)), cum[..., :-1]], axis=-1
    )
    return np.einsum("...n,...n->...", prefix, t_one)

