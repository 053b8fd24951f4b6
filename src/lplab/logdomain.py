"""Log-domain arithmetic for nonnegative reals.

Quantities handled by this package routinely span thousands of orders of
magnitude (truncated-moment integrals reach e^{1600}, variance predictions
fall below e^{-300}), so nonnegative values are carried as their natural
logarithm.  Products and powers are then exact float additions; sums go
through log-sum-exp and stay monotone.  Exact zero is representable
(log magnitude -inf) and propagates through every operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

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

    @classmethod
    def from_float(cls, value: float) -> "LogValue":
        if not value >= 0.0:
            raise DomainError(f"cannot represent {value!r} as a nonnegative magnitude")
        if value == 0.0:
            return cls(-math.inf)
        if math.isinf(value):
            raise DomainError("cannot represent +inf as a LogValue")
        return cls(math.log(value))

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

    def __mul__(self, other: "LogValue") -> "LogValue":
        if self.is_zero or other.is_zero:
            return ZERO
        return LogValue(self.log + other.log)

    def __truediv__(self, other: "LogValue") -> "LogValue":
        if other.is_zero:
            raise DomainError("division by exact zero")
        if self.is_zero:
            return ZERO
        return LogValue(self.log - other.log)

    def __pow__(self, exponent: float) -> "LogValue":
        if self.is_zero:
            if exponent > 0:
                return ZERO
            if exponent == 0:
                return ONE
            raise DomainError("zero raised to a negative power")
        return LogValue(self.log * exponent)

    def __add__(self, other: "LogValue") -> "LogValue":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        hi, lo = (self.log, other.log) if self.log >= other.log else (other.log, self.log)
        return LogValue(hi + math.log1p(math.exp(lo - hi)))

    def __lt__(self, other: "LogValue") -> bool:
        return self.log < other.log

    def __le__(self, other: "LogValue") -> bool:
        return self.log <= other.log

    def __gt__(self, other: "LogValue") -> bool:
        return self.log > other.log

    def __ge__(self, other: "LogValue") -> bool:
        return self.log >= other.log

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_zero:
            return "LogValue(0)"
        return f"LogValue(exp({self.log:.6g}))"


ZERO = LogValue(-math.inf)
ONE = LogValue(0.0)


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


def log_diff_exp(log_a: float, log_b: float) -> float:
    """log(e^a - e^b) for a >= b; -inf when the difference vanishes."""
    if log_b > log_a:
        raise DomainError("log_diff_exp requires log_a >= log_b")
    if log_b == log_a:
        return -math.inf
    if log_b == -math.inf:
        return log_a
    return log_a + math.log(-math.expm1(log_b - log_a))


def log_mean_exp(logs: Iterable[float]) -> float:
    """log of the arithmetic mean of exponentials."""
    terms = list(logs)
    if not terms:
        raise DomainError("log_mean_exp of an empty sequence")
    return log_sum_exp(terms) - math.log(len(terms))


@dataclass(frozen=True, slots=True)
class BoundBracket:
    """Two-sided bound carrier: lower ≤ true value ≤ upper.

    ``constants_used`` records which configured constants produced the
    bracket, so a recorded bracket can be re-derived and regression-tested.
    """

    lower: LogValue
    upper: LogValue
    constants_used: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.lower <= self.upper:
            raise DomainError("bracket lower bound exceeds upper bound")

    def contains(self, value: LogValue) -> bool:
        return self.lower <= value <= self.upper

    def contains_strictly(self, value: LogValue) -> bool:
        return self.lower < value < self.upper
