"""Sign/log-magnitude scalars for overflow-safe products, powers and sums.

Growth envelopes in this package reach magnitudes like exp(1e4) long before
any float64 does, so every norm and envelope value is carried as a LogScalar:
a sign in {-1, 0, +1} plus the natural log of the magnitude.  Conversion back
to a plain float is only exact while |log_magnitude| <= 700; outside that
window it is flagged instead of silently saturating.  Reports write a
LogScalar as the pair {"sign": s, "log": l}, a format that ``hgl.io`` owns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import total_ordering

__all__ = ["LogScalar", "LogRangeError", "LOG_FLOAT_LIMIT"]

# exp(700) is still a finite float64; exp(710) is not.
LOG_FLOAT_LIMIT = 700.0


class LogRangeError(OverflowError):
    """Raised when a LogScalar cannot be represented as a plain float."""


@total_ordering
@dataclass(frozen=True)
class LogScalar:
    """A real number stored as sign and natural log of its magnitude.

    ``sign`` is -1, 0 or +1; ``log_magnitude`` is ignored (kept at 0.0)
    when the sign is 0.  Values are immutable and totally ordered like the
    reals they represent.
    """

    sign: int
    log_magnitude: float = 0.0

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        if self.sign == 0 and self.log_magnitude != 0.0:
            object.__setattr__(self, "log_magnitude", 0.0)
        if self.sign != 0 and math.isnan(self.log_magnitude):
            raise ValueError("log_magnitude must not be NaN")

    # -- constructors ------------------------------------------------

    @classmethod
    def from_float(cls, x: float) -> "LogScalar":
        if x == 0:
            return cls(0)
        if not math.isfinite(x):
            raise ValueError(f"cannot build LogScalar from {x!r}")
        return cls(1 if x > 0 else -1, math.log(abs(x)))

    @classmethod
    def from_log(cls, log_magnitude: float, sign: int = 1) -> "LogScalar":
        """Value sign * exp(log_magnitude); log_magnitude may be -inf."""
        if sign == 0 or log_magnitude == -math.inf:
            return cls(0)
        return cls(sign, float(log_magnitude))

    @classmethod
    def zero(cls) -> "LogScalar":
        return cls(0)

    @classmethod
    def one(cls) -> "LogScalar":
        return cls(1, 0.0)

    # -- queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    @property
    def overflows(self) -> bool:
        return self.sign != 0 and self.log_magnitude > LOG_FLOAT_LIMIT

    @property
    def underflows(self) -> bool:
        return self.sign != 0 and self.log_magnitude < -LOG_FLOAT_LIMIT

    def to_float(self, clamp: bool = False) -> float:
        """Plain float value; exact for |log_magnitude| <= 700.

        With ``clamp=True`` an out-of-range value degrades to 0.0 or
        +/-inf instead of raising LogRangeError.
        """
        if self.sign == 0:
            return 0.0
        if self.overflows:
            if clamp:
                return math.inf * self.sign
            raise LogRangeError(f"overflow: log magnitude {self.log_magnitude:.3f} > 700")
        if self.underflows:
            if clamp:
                return 0.0
            raise LogRangeError(f"underflow: log magnitude {self.log_magnitude:.3f} < -700")
        return self.sign * math.exp(self.log_magnitude)

    # -- arithmetic --------------------------------------------------

    def __mul__(self, other: "LogScalar") -> "LogScalar":
        if not isinstance(other, LogScalar):
            return NotImplemented
        if self.sign == 0 or other.sign == 0:
            return LogScalar(0)
        return LogScalar(self.sign * other.sign, self.log_magnitude + other.log_magnitude)

    def __truediv__(self, other: "LogScalar") -> "LogScalar":
        if not isinstance(other, LogScalar):
            return NotImplemented
        if other.sign == 0:
            raise ZeroDivisionError("division by LogScalar zero")
        if self.sign == 0:
            return LogScalar(0)
        return LogScalar(self.sign * other.sign, self.log_magnitude - other.log_magnitude)

    def __pow__(self, exponent: float) -> "LogScalar":
        if self.sign < 0:
            raise ValueError("power of a negative LogScalar is not defined")
        if self.sign == 0:
            if exponent <= 0:
                raise ValueError(f"0 ** {exponent} is not defined")
            return LogScalar(0)
        return LogScalar(1, self.log_magnitude * exponent)

    def __neg__(self) -> "LogScalar":
        return LogScalar(-self.sign, self.log_magnitude)

    def __abs__(self) -> "LogScalar":
        return LogScalar(abs(self.sign), self.log_magnitude)

    def __add__(self, other: "LogScalar") -> "LogScalar":
        if not isinstance(other, LogScalar):
            return NotImplemented
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        a, b = self, other
        if a.log_magnitude < b.log_magnitude:
            a, b = b, a
        diff = b.log_magnitude - a.log_magnitude  # <= 0
        if a.sign == b.sign:
            return LogScalar(a.sign, a.log_magnitude + math.log1p(math.exp(diff)))
        if diff == 0.0:
            return LogScalar(0)
        return LogScalar(a.sign, a.log_magnitude + math.log1p(-math.exp(diff)))

    def __sub__(self, other: "LogScalar") -> "LogScalar":
        if not isinstance(other, LogScalar):
            return NotImplemented
        return self + (-other)

    # -- ordering ----------------------------------------------------

    def _key(self):
        # Orders like the represented real: sign first, magnitude second
        # (flipped for negatives).
        return (self.sign, self.sign * self.log_magnitude if self.sign else 0.0)

    def __lt__(self, other: "LogScalar") -> bool:
        return self._key() < other._key()

    def __repr__(self) -> str:
        if self.sign == 0:
            return "LogScalar(0)"
        mark = "" if self.sign > 0 else "-"
        return f"LogScalar({mark}exp({self.log_magnitude:.6g}))"
