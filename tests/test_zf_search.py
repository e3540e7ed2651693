"""Grid-LP multiplier search and the primal slope bisection."""

import math

import numpy as np
import pytest

from zflim import zf_search
from zflim.errors import BracketInvalid
from zflim.lti_core import TransferFunction, frequency_response, shift_by_inverse_gain
from zflim.rational_core import MONOTONE, ODD
from zflim.zf_search import SearchConfig, bisect_lower_bound, find_multiplier


def constant(value):
    return TransferFunction([value], [1.0])


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(n_z=0)


class TestFindMultiplier:
    def test_passive_plant_trivial_multiplier(self):
        m = find_multiplier(constant(1.0), SearchConfig(n_z=4, grid_size=400), MONOTONE)
        assert m is not None
        assert m.taps == {}

    def test_negative_plant_has_none(self):
        for cls in (MONOTONE, ODD):
            assert find_multiplier(constant(-1.0), SearchConfig(n_z=4, grid_size=400), cls) is None

    def test_ex2_below_limit_finds_multiplier(self, plants):
        shifted = shift_by_inverse_gain(plants["ex2"], 3.80)
        m = find_multiplier(shifted, SearchConfig(n_z=5, grid_size=2000), MONOTONE)
        assert m is not None
        assert m.class_tag == MONOTONE
        assert all(v >= 0.0 for v in m.taps.values())
        assert m.l1_norm <= 1.0 - 1e-6 + 1e-12

    def test_returned_multiplier_is_grid_positive(self, plants):
        shifted = shift_by_inverse_gain(plants["ex6"], 12.0)
        config = SearchConfig(n_z=8, grid_size=1200)
        m = find_multiplier(shifted, config, MONOTONE)
        assert m is not None
        w = np.linspace(0.0, math.pi, 10 * config.grid_size)
        vals = (m.response(w) * frequency_response(shifted, w)).real
        assert float(np.min(vals)) >= 0.0

    def test_odd_class_allows_signed_taps(self, plants):
        shifted = shift_by_inverse_gain(plants["ex3"], 1.05)
        m = find_multiplier(shifted, SearchConfig(n_z=2, grid_size=1500), ODD)
        assert m is not None
        assert m.class_tag == ODD
        assert m.l1_norm <= 1.0 - 1e-6 + 1e-12
        # oddness is required here: the monotone class cannot reach this slope
        assert find_multiplier(shifted, SearchConfig(n_z=8, grid_size=1500), MONOTONE) is None


class TestBisectLowerBound:
    def test_ex2_monotone(self, plants):
        k = bisect_lower_bound(
            plants["ex2"], SearchConfig(n_z=5), MONOTONE, k_lo=1.9, k_hi=3.824040, tol_k=5e-3
        )
        assert k == pytest.approx(3.824, abs=0.01)

    def test_ex5_odd(self, plants):
        k = bisect_lower_bound(
            plants["ex5"], SearchConfig(n_z=8), ODD, k_lo=0.19, k_hi=0.374491, tol_k=5e-4
        )
        assert k == pytest.approx(0.3745, abs=0.002)

    def test_passive_plant_rejects_bracket(self):
        with pytest.raises(BracketInvalid):
            bisect_lower_bound(
                constant(1.0), SearchConfig(n_z=3, grid_size=300), MONOTONE,
                k_lo=1.0, k_hi=10.0, tol_k=1e-2,
            )

    @pytest.mark.parametrize("k_hi, tol_k, error", [
        (3.9, 0.0, ValueError),
        (3.9, -1.0, ValueError),
        (3.9, math.nan, ValueError),
        (math.inf, 1e-3, BracketInvalid),
    ])
    def test_unclosable_bracket_rejected_before_any_search(
        self, plants, monkeypatch, k_hi, tol_k, error
    ):
        def evaluated(*args):
            raise AssertionError("a slope was evaluated")

        monkeypatch.setattr(zf_search, "find_multiplier", evaluated)
        with pytest.raises(error):
            bisect_lower_bound(plants["ex2"], SearchConfig(n_z=5), MONOTONE, 1.9, k_hi, tol_k)

    def test_sandwiched_by_dual_bounds(self, plants):
        from zflim.duality_lp import bisect_upper_bound
        from zflim.phase_limits import scan_upper_bound

        cases = [("ex2", MONOTONE, 5), ("ex4", ODD, 2), ("ex3", MONOTONE, 5)]
        for name, cls, n_z in cases:
            tf = plants[name]
            scan_k = scan_upper_bound(tf, cls, beta_max=50).k_upper
            lower = bisect_lower_bound(
                tf, SearchConfig(n_z=n_z), cls,
                k_lo=0.5 * scan_k, k_hi=scan_k, tol_k=0.002 * scan_k,
            )
            upper = bisect_upper_bound(
                tf, beta=40, class_tag=cls,
                k_lo=0.5 * scan_k, k_hi=scan_k * 1.0001, tol_k=0.002 * scan_k,
            )
            assert lower <= scan_k + 1e-6, (name, cls)
            assert lower <= upper + 1e-6, (name, cls)

    def test_monotone_in_tap_count(self, plants):
        results = []
        for n_z in (2, 5, 8):
            k = bisect_lower_bound(
                plants["ex3"], SearchConfig(n_z=n_z), MONOTONE,
                k_lo=0.4, k_hi=0.802745, tol_k=2e-3,
            )
            results.append(k)
        assert results[0] <= results[1] + 2e-3
        assert results[1] <= results[2] + 2e-3
