"""Log-domain scalars and their stable sum."""

import math

import pytest
from hypothesis import given, strategies as st

from lplab import LogValue, log_sum_exp
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


class TestLogSumExp:
    def test_two_terms(self):
        got = log_sum_exp([math.log(3.0), math.log(4.0)])
        assert got == pytest.approx(math.log(7.0), rel=1e-15)

    def test_ignores_minus_inf_terms(self):
        got = log_sum_exp([-math.inf, 0.0, -math.inf])
        assert got == 0.0

    def test_all_minus_inf(self):
        assert log_sum_exp([-math.inf, -math.inf]) == -math.inf

    def test_extreme_spread(self):
        # the small term is below any float representation of the ratio
        got = log_sum_exp([0.0, -1e8])
        assert got == 0.0

    def test_huge_magnitudes(self):
        got = log_sum_exp([1e8, 1e8])
        assert got == pytest.approx(1e8 + math.log(2.0), rel=1e-15)

    @given(st.lists(st.floats(min_value=-700, max_value=700), min_size=1, max_size=12))
    def test_matches_direct_sum(self, logs):
        direct = math.log(sum(math.exp(x) for x in logs))
        assert log_sum_exp(logs) == pytest.approx(direct, rel=1e-12)

    @given(st.lists(st.floats(min_value=-700, max_value=700), min_size=2, max_size=12))
    def test_permutation_invariant_up_to_rounding(self, logs):
        assert log_sum_exp(logs) == pytest.approx(
            log_sum_exp(list(reversed(logs))), rel=1e-13
        )

