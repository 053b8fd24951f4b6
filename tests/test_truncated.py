"""Truncated Gaussian moments: the closed form vs mpmath and antiderivatives, and both moment flavors."""

import hashlib
import math
import os
import pathlib
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

import lplab
from lplab import (
    TruncationSpec,
    abs_moment,
    abs_tail_log,
    incomplete_integral,
    trunc_moment_chi,
    trunc_moment_min,
)
from lplab.errors import DomainError


def closed_form(q: int, a: float) -> float:
    """Antiderivative values of ∫₀ᵃ x^q e^{-x²/2} dx for odd q and q=0."""
    if a == math.inf:
        if q == 0:
            return math.sqrt(math.pi / 2.0)
        if q == 1:
            return 1.0
        if q == 3:
            return 2.0
        if q == 5:
            return 8.0
    e = math.exp(-a * a / 2.0)
    if q == 0:
        return math.sqrt(math.pi / 2.0) * math.erf(a / math.sqrt(2.0))
    if q == 1:
        return 1.0 - e
    if q == 3:
        return 2.0 - (a * a + 2.0) * e
    if q == 5:
        return 8.0 - (a**4 + 4.0 * a * a + 8.0) * e
    raise AssertionError(q)


REFEREE_Q = [0.0] + [float(q) for q in np.geomspace(0.1, 6000.0, 40)]
REFEREE_A = [float(a) for a in np.geomspace(1e-3, 60.0, 12)] + [math.inf]


def mp_log_integral(q: float, a: float) -> float:
    """log ∫₀ᵃ x^q e^{-x²/2} dx = log(2^{(q-1)/2} γ((q+1)/2, a²/2)), 40 digits."""
    with mp.workdps(40):
        s = (mp.mpf(q) + 1) / 2
        head = (s - 1) * mp.log(2)
        if a == math.inf:
            return float(head + mp.loggamma(s))
        return float(head + mp.log(mp.gammainc(s, 0, mp.mpf(a) ** 2 / 2)))


class TestTruncationSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            TruncationSpec(-1.0, 1.0)
        with pytest.raises(DomainError):
            TruncationSpec(2.0, 0.0)
        with pytest.raises(DomainError):
            TruncationSpec(math.nan, 1.0)


class TestIncompleteIntegral:
    @pytest.mark.parametrize("q", [0, 1, 3, 5])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, math.inf])
    def test_closed_forms(self, q, a):
        got = incomplete_integral(TruncationSpec(float(q), a))
        assert got.to_float() == pytest.approx(closed_form(q, a), rel=1e-9)

    @pytest.mark.parametrize(
        "q,a,expected",
        [
            (5.0, 2.0, 2.5865886705354923242),
            (4.0, 1.0, 0.1407505368259127151),
            (10.0, 3.0, 447.82386380869654648),
        ],
    )
    def test_frozen_noninteger_grid(self, q, a, expected):
        got = incomplete_integral(TruncationSpec(q, a))
        assert got.to_float() == pytest.approx(expected, rel=1e-10)

    def test_deep_log_domain(self):
        # values near e^1304 overflow floats; compare in the log
        got = incomplete_integral(TruncationSpec(500.0, 25.0))
        assert got.log == pytest.approx(1304.224094120092541515972, rel=1e-12)
        got2 = incomplete_integral(TruncationSpec(200.0, math.inf))
        assert got2.log == pytest.approx(430.4036849334921798422665, rel=1e-12)

    def test_monotone_in_a(self):
        vals = [
            incomplete_integral(TruncationSpec(6.0, a)).log for a in (1.0, 2.0, 3.0, math.inf)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_against_runtime_quadrature(self):
        mp.mp.dps = 30
        for q, a in [(2.5, 1.7), (13.0, 4.0), (37.5, math.inf)]:
            hi = mp.inf if a == math.inf else mp.mpf(a)
            ref = mp.quad(
                lambda x: mp.exp(q * mp.log(x) - x * x / 2), [0, mp.sqrt(q), hi]
            )
            got = incomplete_integral(TruncationSpec(q, a))
            assert got.log == pytest.approx(float(mp.log(ref)), rel=1e-11)

    def test_mpmath_referee(self):
        # 40-digit log(2^{(q-1)/2} γ((q+1)/2, a²/2)) on a q, a grid that
        # straddles both the peak x = a²/2 = s and the branch switch
        # x = max(s, 4); the bound is three times the worst error found on
        # a 15,867-case scan
        failures = []
        for q in REFEREE_Q:
            s = 0.5 * (q + 1.0)
            near = [math.sqrt(2.0 * x * f) for x in (s, 4.0) for f in (0.99, 1.0, 1.01)]
            for a in REFEREE_A + near:
                want = mp_log_integral(q, a)
                got = incomplete_integral(TruncationSpec(q, a)).log
                error = abs(got - want) / max(abs(want), 1.0)
                if not error <= 4e-15:
                    failures.append((q, a, error))
        assert not failures, failures


class TestTruncMoments:
    def test_chi_square_unit(self):
        assert trunc_moment_chi(TruncationSpec(2.0, math.inf)).to_float() == pytest.approx(
            1.0, rel=1e-12
        )

    def test_chi_matches_scaled_integral(self):
        spec = TruncationSpec(3.3, 2.2)
        got = trunc_moment_chi(spec)
        want = math.sqrt(2.0 / math.pi) * incomplete_integral(spec).to_float()
        assert got.to_float() == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize(
        "q,a,expected",
        [
            (2.0, 1.0, 0.5160585509617133004),
            (7.0, 2.0, 11.29598505725307854),
        ],
    )
    def test_min_moment_frozen(self, q, a, expected):
        got = trunc_moment_min(TruncationSpec(q, a))
        assert got.to_float() == pytest.approx(expected, rel=1e-11)

    def test_min_moment_at_infinity_is_full_moment(self):
        for q in (1.0, 4.5, 12.0):
            got = trunc_moment_min(TruncationSpec(q, math.inf))
            assert got.log == pytest.approx(abs_moment(q).log, rel=1e-12)

    def test_min_moment_splits_at_cap(self):
        q, a = 5.0, 1.8
        got = trunc_moment_min(TruncationSpec(q, a))
        want = (
            trunc_moment_chi(TruncationSpec(q, a)).to_float()
            + a**q * math.exp(abs_tail_log(a))
        )
        assert got.to_float() == pytest.approx(want, rel=1e-12)

    def test_min_moment_bits_pinned(self):
        # SHA-256 of the space-joined float.hex of the log over q in
        # {0, 0.5, 1, 7.3, 40, 600} and a in {1e-3, 0.7, 3, 12, inf}
        logs = [
            trunc_moment_min(TruncationSpec(q, a)).log.hex()
            for q in (0.0, 0.5, 1.0, 7.3, 40.0, 600.0)
            for a in (1e-3, 0.7, 3.0, 12.0, math.inf)
        ]
        digest = hashlib.sha256(" ".join(logs).encode()).hexdigest()
        assert digest == "1710243f2dd323f7521fb114f226dcdf7338a308c8ae7f6f7776114f8a4096ec", logs

    def test_min_moment_with_a_vanishing_cap_term(self):
        # at a = 1e200 the cap term a^q P{|g| > a} has log -inf, so the
        # sum is the truncated moment itself, bit for bit
        for q in (0.0, 2.0, 50.0):
            spec = TruncationSpec(q, 1e200)
            assert trunc_moment_min(spec) == trunc_moment_chi(spec), q

    def test_min_moment_nondecreasing_in_a(self):
        for q in (1.0, 6.0, 30.0):
            vals = [
                trunc_moment_min(TruncationSpec(q, a)).log
                for a in (0.5, 1.0, 2.0, 4.0, math.inf)
            ]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_min_moment_increasing_in_q_above_one(self):
        # for a > 1 the capped value min(a,|g|)^q gains mass as q grows
        vals = [
            trunc_moment_min(TruncationSpec(q, 3.0)).log for q in (2.0, 4.0, 8.0, 16.0)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_cli_import_leaves_out_scipy_integrate():
    # the closed form needs only scipy.special; scipy.integrate cost about
    # 0.3 s of every command's start, and scipy.stats or scipy.optimize
    # would cost as much again.  Public subpackages are the packages under
    # scipy whose names do not start with "_" (modules such as
    # scipy.version are not packages).  A fresh interpreter, because other
    # tests may import them into this one.
    code = (
        "import sys, lplab.cli;"
        " print(sorted({m.split('.')[1] for m, module in list(sys.modules.items())"
        " if m.startswith('scipy.') and hasattr(module, '__path__')"
        " and not m.split('.')[1].startswith('_')}))"
    )
    src = str(pathlib.Path(lplab.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['special']"
