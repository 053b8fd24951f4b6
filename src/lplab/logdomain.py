"""Log-domain carrier for nonnegative reals.

Quantities handled by this package routinely span thousands of orders of
magnitude (truncated-moment integrals reach e^{1600}, variance predictions
fall below e^{-300}), so nonnegative values are carried as their natural
logarithm.  Callers do their arithmetic on the logs and wrap the result;
a sum of two goes through np.logaddexp.  Exact zero is representable (log
magnitude -inf).  A value leaves the log domain only through `log10` and
`to_float`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    def log10(self) -> float:
        return self.log / _LOG10

    def to_float(self) -> float:
        """Collapse to a plain float: 0.0 for zero, +inf past the largest double."""
        try:
            return math.exp(self.log)
        except OverflowError:
            return math.inf
