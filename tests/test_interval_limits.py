"""Interval slope limits and the legacy bisection method."""

import math

import pytest

from zflim import interval_limits
from zflim.errors import BracketInvalid, InvalidInterval
from zflim.interval_limits import (
    interval_limitation,
    interval_slope_bound,
    legacy_upper_bound,
)
from zflim.lti_core import TransferFunction
from zflim.rational_core import MONOTONE, ODD

# frequency pairs at which the comparison method peaked for the bundled plants
COMPARISON_PAIRS = [(0.8966, 0.8986), (1.0455, 1.0489), (1.5674, 1.5742)]

# first-computed values, frozen as regression anchors
ANCHORS = {
    (0.8966, 0.8986, MONOTONE): 2.076521753805652,
    (0.8966, 0.8986, ODD): 4.381283489582777,
    (1.0455, 1.0489, MONOTONE): 1.7320442414429957,
    (1.0455, 1.0489, ODD): 1.7320539285772616,
    (1.5674, 1.5742, MONOTONE): 0.9999944001502498,
    (1.5674, 1.5742, ODD): 1.0000017465321362,
}


class TestIntervalSlopeBound:
    def test_full_interval_closed_form(self):
        # a=0, b=pi: numerator (1-(-1)^n)/n, zero phase term; max at n=1 is 2/pi
        got = interval_slope_bound(0.0, math.pi, MONOTONE)
        assert got == pytest.approx(2.0 / math.pi, abs=1e-12)

    def test_single_term_is_first_ratio(self):
        a, b = 0.7, 1.1
        n = 1.0
        psi_d = (math.cos(a * n) - math.cos(b * n)) / n
        phi_d = (math.sin(a * n) - math.sin(b * n)) / n
        expected = abs(psi_d) / ((b - a) + phi_d)
        assert interval_slope_bound(a, b, MONOTONE, n_search=1) == pytest.approx(expected)

    def test_regression_anchors(self):
        for (a, b, cls), expected in ANCHORS.items():
            assert interval_slope_bound(a, b, cls) == pytest.approx(expected, rel=1e-12)

    def test_bundle_and_first_term_lower_bound(self):
        for a, b in COMPARISON_PAIRS:
            lim = interval_limitation(a, b)
            mu1 = interval_slope_bound(a, b, MONOTONE, n_search=1)
            mu1_odd = interval_slope_bound(a, b, ODD, n_search=1)
            assert math.isfinite(lim.rho) and lim.rho >= mu1
            assert math.isfinite(lim.rho_odd) and lim.rho_odd >= mu1_odd

    def test_tail_terms_become_negligible(self):
        n_search = 100000
        for a, b in COMPARISON_PAIRS:
            for cls in (MONOTONE, ODD):
                rho = interval_slope_bound(a, b, cls, n_search)
                n = float(n_search)
                psi_d = (math.cos(a * n) - math.cos(b * n)) / n
                phi_d = (math.sin(a * n) - math.sin(b * n)) / n
                den = (b - a) + phi_d if cls == MONOTONE else (b - a) - abs(phi_d)
                if den > 1e-12:
                    assert abs(psi_d) / den < 0.01 * rho

    def test_invalid_interval(self):
        with pytest.raises(InvalidInterval):
            interval_slope_bound(1.0, 0.5, MONOTONE)


class TestLegacyUpperBound:
    def test_positive_real_plant_returns_hi(self):
        passive = TransferFunction([1.0], [1.0])
        res = legacy_upper_bound(passive, MONOTONE, 1e-3, 1.0, 5.0, 1e-2)
        assert res.k_upper == 5.0
        assert res.witness is None

    def test_obstruction_at_lo_rejects_bracket(self):
        negative = TransferFunction([-1.0], [1.0])
        with pytest.raises(BracketInvalid):
            legacy_upper_bound(negative, MONOTONE, 1e-3, 2.0, 8.0, 1e-2)

    @pytest.mark.parametrize("k_hi, tol_k, error", [
        (36.0, 0.0, ValueError),
        (36.0, -1.0, ValueError),
        (36.0, math.nan, ValueError),
        (math.inf, 1e-3, BracketInvalid),
    ])
    def test_unclosable_bracket_rejected_before_any_test(
        self, plants, monkeypatch, k_hi, tol_k, error
    ):
        def evaluated(*args):
            raise AssertionError("a slope was evaluated")

        monkeypatch.setattr(interval_limits, "_find_obstruction", evaluated)
        with pytest.raises(error):
            legacy_upper_bound(plants["ex1"], MONOTONE, 1e-2, 10.0, k_hi, tol_k)

    def test_ex1_monotone_not_tighter_than_cone_bound(self, plants):
        res = legacy_upper_bound(plants["ex1"], MONOTONE, 1e-3, 10.0, 36.0, 1e-3)
        assert res.witness is not None
        assert res.k_upper >= 13.028374 - 1e-6
        a, b = res.witness
        assert 0.0 <= a < b <= math.pi
