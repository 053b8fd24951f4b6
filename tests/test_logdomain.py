"""The log-domain scalar LogValue."""

import math

import pytest

from lplab import LogValue
from lplab.errors import DomainError


class TestLogValue:
    def test_zero_is_minus_inf(self):
        assert LogValue(-math.inf).to_float() == 0.0

    def test_rejects_nan_and_plus_inf(self):
        with pytest.raises(DomainError):
            LogValue(math.nan)
        with pytest.raises(DomainError):
            LogValue(math.inf)

    def test_underflow_survives(self):
        # values far below float underflow stay exact in the log
        tiny = LogValue(-1e6)
        assert tiny.log == -1e6
        assert tiny.log10 == pytest.approx(-1e6 / math.log(10.0), rel=1e-15)
        assert tiny.to_float() == 0.0  # only the float projection underflows

    def test_to_float_up_to_the_largest_double(self):
        # log DBL_MAX is about 709.7827: below it the value is finite
        assert LogValue(709.5).to_float() == math.exp(709.5)
        assert LogValue(709.78).to_float() == math.exp(709.78) < math.inf
        assert LogValue(709.79).to_float() == math.inf

