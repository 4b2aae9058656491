"""Sign/log-magnitude record of one norm or envelope value.

Growth envelopes in this package reach magnitudes like exp(1e4) long before
any float64 does, so the library computes in the log domain on plain floats
and arrays, and a function that returns one such value returns a LogScalar:
a sign in {-1, 0, +1} plus the natural log of the magnitude.  It is a
record, not a number type, and has no arithmetic.  Conversion back to a
plain float is only exact while |log_magnitude| <= 700; outside that window
it is flagged instead of silently saturating.  Reports write a LogScalar as
the pair {"sign": s, "log": l}, a format that ``hgl.io`` owns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["LogScalar", "LogRangeError", "LOG_FLOAT_LIMIT"]

# exp(700) is still a finite float64; exp(710) is not.
LOG_FLOAT_LIMIT = 700.0


class LogRangeError(OverflowError):
    """Raised when a LogScalar cannot be represented as a plain float."""


@dataclass(frozen=True)
class LogScalar:
    """A real number stored as sign and natural log of its magnitude.

    ``sign`` is -1, 0 or +1; ``log_magnitude`` is ignored (kept at 0.0)
    when the sign is 0.  Values are immutable.
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

    @classmethod
    def from_log(cls, log_magnitude: float, sign: int = 1) -> "LogScalar":
        """Value sign * exp(log_magnitude); log_magnitude may be -inf."""
        if sign == 0 or log_magnitude == -math.inf:
            return cls(0)
        return cls(sign, float(log_magnitude))

    @classmethod
    def zero(cls) -> "LogScalar":
        return cls(0)

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def to_float(self, clamp: bool = False) -> float:
        """Plain float value; exact for |log_magnitude| <= 700.

        With ``clamp=True`` an out-of-range value degrades to 0.0 or
        +/-inf instead of raising LogRangeError.
        """
        if self.sign == 0:
            return 0.0
        if self.log_magnitude > LOG_FLOAT_LIMIT:
            if clamp:
                return math.inf * self.sign
            raise LogRangeError(f"overflow: log magnitude {self.log_magnitude:.3f} > 700")
        if self.log_magnitude < -LOG_FLOAT_LIMIT:
            if clamp:
                return 0.0
            raise LogRangeError(f"underflow: log magnitude {self.log_magnitude:.3f} < -700")
        return self.sign * math.exp(self.log_magnitude)

    def __repr__(self) -> str:
        if self.sign == 0:
            return "LogScalar(0)"
        mark = "" if self.sign > 0 else "-"
        return f"LogScalar({mark}exp({self.log_magnitude:.6g}))"
