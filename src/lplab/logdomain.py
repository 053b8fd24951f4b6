"""Log-domain carrier for nonnegative reals.

Quantities handled by this package routinely span thousands of orders of
magnitude (truncated-moment integrals reach e^{1600}, variance predictions
fall below e^{-300}), so nonnegative values are carried as their natural
logarithm.  Callers do their arithmetic on the logs and wrap the result;
sums go through log-sum-exp.  Exact zero is representable (log magnitude
-inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError

_LOG10 = math.log(10.0)


@dataclass(frozen=True, slots=True)
class LogValue:
    """A nonnegative real number stored as its natural log magnitude.

    ``log`` is the natural logarithm of the represented value; ``-inf``
    encodes exact zero.  ``+inf`` and NaN are rejected at construction so
    that downstream arithmetic never has to re-validate.
    """

    log: float

    def __post_init__(self) -> None:
        if not self.log < math.inf:
            raise DomainError(f"log magnitude must be finite or -inf, got {self.log}")

    @property
    def is_zero(self) -> bool:
        return self.log == -math.inf

    @property
    def log10(self) -> float:
        return self.log / _LOG10

    def to_float(self) -> float:
        """Collapse to a plain float; overflows to +inf past ~e^709."""
        if self.is_zero:
            return 0.0
        if self.log > 709.0:
            return math.inf
        return math.exp(self.log)

    # a > b and a >= b fall back to the reflected b < a and b <= a
    def __lt__(self, other: "LogValue") -> bool:
        return self.log < other.log

    def __le__(self, other: "LogValue") -> bool:
        return self.log <= other.log


ZERO = LogValue(-math.inf)


def log_sum_exp(logs: Iterable[float]) -> float:
    """Stable log of a sum of exponentials.

    Terms are accumulated in ascending order so that many small terms are
    not absorbed one by one into a dominant head; with a fixed input this
    makes the result deterministic as well as accurate.
    """
    terms = sorted(t for t in logs if t != -math.inf)
    if not terms:
        return -math.inf
    hi = terms[-1]
    acc = 0.0
    for t in terms[:-1]:
        acc += math.exp(t - hi)
    return hi + math.log1p(acc)


@dataclass(frozen=True, slots=True)
class BoundBracket:
    """Two-sided bound carrier: lower ≤ true value ≤ upper."""

    lower: LogValue
    upper: LogValue

    def __post_init__(self) -> None:
        if not self.lower <= self.upper:
            raise DomainError("bracket lower bound exceeds upper bound")

    def contains(self, value: LogValue) -> bool:
        return self.lower <= value <= self.upper
