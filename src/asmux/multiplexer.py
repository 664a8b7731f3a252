"""Loss topology of the asymmetric (chained) spatial multiplexer.

The multiplexer routes the heralded signal photon of one of ``n_units``
sources to a single output through a chain of 2-to-1 photon routers.
Arm ``n`` passes through ``n - 1`` router reflections, so its total
transmission decreases geometrically with the arm index.  The router
chain ends at the last arm, which enters through the reflective port
only and therefore skips the through-port factor ``v_t``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .exceptions import ParameterError

# every count (units, sizes, photon counts, sweep cells) stays below this,
# so no float64 array of that length overflows numpy's byte size (// 8 is
# not enough: np.arange's float length rounds up to the next power of two)
_COUNT_LIMIT = np.iinfo(np.intp).max // 16

__all__ = [
    "SourceFamily",
    "MultiplexerSpec",
    "transmission_vector",
]


def _integer(
    value, name: str, low: float = -math.inf, high: float = math.inf, message: str = ""
) -> int:
    """``value`` as an ``int``, if it is an ``int`` or ``np.integer`` in [low, high).

    Anything else raises :class:`ParameterError`: a value that is not an
    integer with "``name`` must be an integer, got ``value``", and an
    integer out of range with the caller's ``message``.  A float or a
    string is refused even when it holds a whole number, so no count,
    size or seed is truncated or parsed into one the caller did not
    pass.  A ``bool`` is an ``int`` and passes as 0 or 1.
    """
    if not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if not low <= value < high:
        raise ParameterError(message)
    return int(value)


class SourceFamily(str, Enum):
    """Statistics family of the photon-pair generation in each unit."""

    POISSON = "poisson"
    THERMAL = "thermal"

    @classmethod
    def coerce(cls, value: "SourceFamily | str") -> "SourceFamily":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).strip().lower())
        except ValueError:
            raise ParameterError(
                f"unknown source family {value!r}; expected 'poisson' or 'thermal'"
            ) from None


@dataclass(frozen=True)
class MultiplexerSpec:
    """Loss parameters and size of the multiplexed source.

    v_r : reflection efficiency of a router (chained path)
    v_t : transmission efficiency of a router (through path)
    v_b : transmission collecting every loss upstream of the multiplexer
    v_d : heralding detector efficiency
    n_units : number of multiplexed units N
    source : pair-generation statistics family
    """

    v_r: float
    v_b: float
    v_d: float
    n_units: int
    v_t: float = 0.985
    source: SourceFamily = SourceFamily.POISSON

    def __post_init__(self) -> None:
        for name in ("v_r", "v_t", "v_b", "v_d"):
            value = float(getattr(self, name))
            if not 0.0 <= value <= 1.0:  # NaN fails too
                raise ParameterError(f"{name} must lie in [0, 1], got {value!r}")
            object.__setattr__(self, name, value)
        message = f"n_units must be an integer in [1, {_COUNT_LIMIT}), got {self.n_units!r}"
        n_units = _integer(self.n_units, "n_units", 1, _COUNT_LIMIT, message)
        object.__setattr__(self, "n_units", n_units)
        object.__setattr__(self, "source", SourceFamily.coerce(self.source))

    def with_units(self, n_units: int) -> "MultiplexerSpec":
        """Copy of this spec with a different unit count."""
        return replace(self, n_units=n_units)


def _arms(spec: MultiplexerSpec, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The arm law's one home: arms 1..n_max as through arms, and as the last arm of each size."""
    # one numpy array power for every arm: a scalar ``**`` may round an arm differently
    powers = spec.v_r ** np.arange(n_max, dtype=float)
    return spec.v_b * spec.v_t * powers, spec.v_b * powers


def transmission_vector(spec: MultiplexerSpec) -> np.ndarray:
    """Arm transmissions for arms 1..N as an array of length N."""
    v, last = _arms(spec, spec.n_units)
    v[-1] = last[-1]
    return v
