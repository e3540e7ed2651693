"""Sampling-based continuous-time non-existence checks."""

import math

import numpy as np
import pytest

from zflim.continuous_duality import (
    _CHUNK,
    CtCertificateInput,
    _grid,
    _sampled_extrema,
    ct_check_nonodd,
    ct_check_odd,
)


def make_input(freqs, values, lambdas, **kw):
    return CtCertificateInput(freqs=freqs, values=values, lambdas=lambdas, **kw)


class TestInputValidation:
    def test_requires_increasing_freqs(self):
        with pytest.raises(ValueError):
            make_input([2.0, 1.0], [1.0, 1.0], [0.5, 0.5])

    def test_infinity_only_last(self):
        with pytest.raises(ValueError):
            make_input([math.inf, 2.0], [1.0, 1.0], [0.5, 0.5])

    def test_infinite_value_must_be_real(self):
        with pytest.raises(ValueError):
            make_input([1.0, math.inf], [1.0, 1.0 + 1.0j], [0.5, 0.5])

    def test_needs_positive_weight(self):
        with pytest.raises(ValueError):
            make_input([1.0], [1.0], [0.0])

    @pytest.mark.parametrize("kw", [
        dict(freqs=[math.nan]),
        dict(freqs=[1.0, math.nan], values=[-1.0, -1.0], lambdas=[1.0, 1.0]),
        dict(freqs=[-math.inf]),
        dict(freqs=[math.inf, 2.0], values=[-1.0, -1.0], lambdas=[1.0, 1.0]),
        dict(values=[complex(math.nan, 0.0)]),
        dict(values=[complex(-math.inf, 0.0)]),
        dict(values=[complex(-1.0, math.inf)]),
        dict(lambdas=[math.nan]),
        dict(lambdas=[math.inf]),
        dict(t_horizon=math.inf),
        dict(t_horizon=math.nan),
        dict(t_step=math.nan),
        dict(t_step=math.inf),
        dict(t_horizon=1e300, t_step=1e-300),  # the sample count overflows
        dict(freqs=[5e-324]),  # the default horizon overflows
        dict(freqs=[1.0, 2.0], values=[-1.0, -1.0], lambdas=[1e308, 1e308]),  # the sum overflows
    ], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
    def test_refuses_non_finite_numbers(self, kw):
        with pytest.raises(ValueError, match="finite"):
            make_input(**{**dict(freqs=[1.0], values=[-1.0], lambdas=[1.0]), **kw})

    def test_last_infinite_frequency_accepted(self):
        inp = make_input([1.0, math.inf], [1.0, -2.0], [0.5, 0.5])
        assert inp.freqs[-1] == math.inf

    def test_weights_normalised(self):
        inp = make_input([1.0, 2.0], [1.0, 1.0], [2.0, 2.0])
        assert sum(inp.lambdas) == pytest.approx(1.0)

    def test_default_sampling(self):
        inp = make_input([1.0, 4.0], [1.0, 1.0], [0.5, 0.5])
        assert inp.t_horizon == pytest.approx(200.0 * 2.0 * math.pi)
        assert inp.t_step == pytest.approx((2.0 * math.pi / 4.0) / 200.0)


class TestOddCheck:
    def test_single_real_negative_is_boundary(self):
        # sup of |Re{-e^{-jt}}| equals |lhs|; the pad tips the balance to False
        inp = make_input([1.0], [-1.0], [1.0])
        assert not ct_check_odd(inp)

    def test_infinite_frequency_only(self):
        inp = make_input([1.0, math.inf], [0.0, -1.0], [0.0, 1.0])
        assert ct_check_odd(inp)

    def test_incommensurate_pair_approaches_weight_sum(self):
        # phases aligned at t=0; almost-periodicity drives the sup to the full mass
        inp = make_input([1.0, math.sqrt(2.0)], [1.0, 1.0], [0.5, 0.5])
        lo, hi = _extrema_oracle(inp)
        assert hi > 0.97  # fine-sampled sup close to 1
        assert not ct_check_odd(inp)
        # shifting enough negative mass at infinity turns the condition true
        shifted = make_input(
            [1.0, math.sqrt(2.0), math.inf],
            [1.0, 1.0, -50.0],
            [0.25, 0.25, 0.5],
        )
        assert ct_check_odd(shifted)


class TestNonOddCheck:
    def test_single_real_negative_is_boundary(self):
        inp = make_input([1.0], [-1.0], [1.0])
        assert not ct_check_nonodd(inp)

    def test_zero_lhs_against_negative_dip(self):
        # lhs = 0 but the time sum dips negative, so the condition fails
        inp = make_input([1.0], [1.0j], [1.0])
        assert not ct_check_nonodd(inp)

    def test_far_below_infimum(self):
        inp = make_input([1.0, math.inf], [1.0, -5.0], [0.5, 0.5])
        # oracle at 10x finer sampling agrees
        fine = make_input(
            [1.0, math.inf], [1.0, -5.0], [0.5, 0.5],
            t_horizon=inp.t_horizon, t_step=inp.t_step / 10.0,
        )
        assert ct_check_nonodd(inp)
        assert ct_check_nonodd(fine)


def _extrema_oracle(inp):
    w, a, b, lam = inp.finite_parts()
    t = np.arange(0.0, inp.t_horizon, inp.t_step / 4.0)
    arg = np.outer(t, w)
    s = np.cos(arg) @ (lam * a) + np.sin(arg) @ (lam * b)
    return float(s.min()), float(s.max())


def _random_instance(rng):
    n = int(rng.integers(1, 5))
    freqs = np.sort(rng.uniform(0.5, 8.0, size=n))
    while np.any(np.diff(freqs) < 1e-3):
        freqs = np.sort(rng.uniform(0.5, 8.0, size=n))
    values = rng.normal(size=n) + 1j * rng.normal(size=n)
    lambdas = rng.dirichlet(np.ones(n))
    add_inf = rng.random() < 0.5
    if add_inf:
        freqs = np.concatenate([freqs, [math.inf]])
        values = np.concatenate([values, [rng.normal(scale=3.0)]])
        lambdas = rng.dirichlet(np.ones(n + 1))
    return make_input(
        [float(f) for f in freqs],
        [complex(v) for v in values],
        [float(x) for x in lambdas],
        t_horizon=60.0,
        t_step=0.02,
    )


class TestProperties:
    def test_refinement_never_flips_true_to_false(self):
        rng = np.random.default_rng(31415)
        flips = 0
        for _ in range(100):
            inp = _random_instance(rng)
            finer = make_input(
                list(inp.freqs), list(inp.values), list(inp.lambdas),
                t_horizon=inp.t_horizon, t_step=inp.t_step / 2.0,
            )
            for check in (ct_check_odd, ct_check_nonodd):
                if check(inp) and not check(finer):
                    flips += 1
        assert flips == 0

    def test_conjugation_symmetry(self):
        # conjugating every value mirrors the time sum, t -> -t
        rng = np.random.default_rng(999)
        for _ in range(50):
            inp = _random_instance(rng)
            conj = make_input(
                list(inp.freqs), [v.conjugate() for v in inp.values], list(inp.lambdas),
                t_horizon=inp.t_horizon, t_step=inp.t_step,
            )
            w, a, b, lam = inp.finite_parts()
            t = np.arange(0.0, inp.t_horizon, inp.t_step)
            arg = np.outer(t, w)
            forward = np.cos(arg) @ (lam * a) + np.sin(arg) @ (lam * b)
            wc, ac, bc, lamc = conj.finite_parts()
            argc = np.outer(-t, wc)
            mirrored = np.cos(argc) @ (lamc * ac) + np.sin(argc) @ (lamc * bc)
            assert np.allclose(forward, mirrored, atol=1e-12)

    def test_discrete_embedding_matches_exact_conditions(self):
        rng = np.random.default_rng(777)
        for _ in range(100):
            beta = int(rng.integers(2, 7))
            rs = sorted(set(rng.integers(1, beta, size=rng.integers(1, beta)).tolist()))
            freqs = [r * math.pi / beta for r in rs]
            values = [complex(rng.normal(), rng.normal()) for _ in rs]
            lambdas = list(rng.dirichlet(np.ones(len(rs))))
            period = 2 * beta
            inp = make_input(
                freqs, values, lambdas, t_horizon=float(period - 1), t_step=1.0
            )
            # exact oracle over one integer period
            i = np.arange(period)
            s = np.zeros(period)
            for f, v, l in zip(freqs, values, lambdas):
                s += l * (v * np.exp(-1j * f * i)).real
            lhs = sum(l * v.real for v, l in zip(values, lambdas))
            # no entry at infinite frequency: the time sum includes all terms
            expect_odd = lhs <= -float(np.max(np.abs(s)))
            expect_nonodd = lhs <= float(np.min(s))
            assert ct_check_odd(inp, time_lattice=True) == expect_odd
            assert ct_check_nonodd(inp, time_lattice=True) == expect_nonodd


BLOCK = math.isqrt(_CHUNK)


class TestKernel:
    """The blocked angle-addition sum against direct evaluation at every sample."""

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, _CHUNK, _CHUNK + 1, 150_001])
    @pytest.mark.parametrize("time_lattice", [False, True])
    @pytest.mark.parametrize("with_inf", [False, True])
    @pytest.mark.parametrize("ramp", [False, True])
    def test_matches_direct_evaluation(self, n, time_lattice, with_inf, ramp):
        rng = np.random.default_rng(n)
        step = 1.0 if time_lattice else 1e-3
        horizon, t_max = (n - 0.75) * step, (n - 1) * step  # n samples in either mode
        if ramp:
            # -cos(w t) rises over the grid to its peak at the first time past it,
            # so a sample beyond the n-th would raise the max
            freqs, values, lambdas = [math.pi / (n * step)], [-1.0], [1.0]
        else:
            scale = min(1.0, 300.0 / t_max) if t_max else 1.0  # keeps w*t, and its rounding, small
            freqs = sorted(scale * rng.uniform(0.5, 3.0, size=4))
            values = list(rng.normal(size=4) + 1j * rng.normal(size=4))
            lambdas = list(rng.dirichlet(np.ones(4)))
        if with_inf:
            freqs, values, lambdas = freqs + [math.inf], values + [-2.0], lambdas + [1.0]
        inp = make_input(freqs, values, lambdas, t_horizon=horizon, t_step=step)
        assert _grid(inp, time_lattice)[1] == n
        lo, hi, pad = _sampled_extrema(inp, time_lattice)
        w, a, b, lam = inp.finite_parts()
        if time_lattice:
            t = np.arange(0.0, math.floor(horizon) + 0.5, 1.0)
        else:
            t = np.arange(0.0, horizon + step / 2.0, step)
        s = np.cos(np.outer(t, w)) @ (lam * a) + np.sin(np.outer(t, w)) @ (lam * b)
        tol = 1e-12 * float(np.sum(lam * np.hypot(a, b)))
        assert t.size == n
        assert abs(lo - s.min()) <= tol and abs(hi - s.max()) <= tol
        assert (pad == 0.0) == time_lattice

    def test_sample_count_matches_arange(self):
        rng = np.random.default_rng(2718)
        for _ in range(400):
            step = float(10.0 ** rng.uniform(-4, 0))
            m = int(rng.integers(0, 5000))
            # H/step on, just off and half-way between integers, where the count turns
            for ratio in (m, m + 0.5, m + rng.uniform()):
                horizon = ratio * step
                for h in (horizon, np.nextafter(horizon, 0.0), np.nextafter(horizon, math.inf)):
                    if h <= 0.0:
                        continue
                    inp = make_input([1.0], [1.0], [1.0], t_horizon=float(h), t_step=step)
                    assert _grid(inp, False) == (step, np.arange(0, h + step / 2, step).size)
                    assert _grid(inp, True) == (1.0, np.arange(0.0, math.floor(h) + 0.5, 1.0).size)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="needs a long double wider than double for the reference")
    def test_pad_covers_the_rounding(self):
        # far from t = 0, where w*t reaches 6e5, the kernel's rounding shows
        rng = np.random.default_rng(5)
        inp = make_input(sorted(rng.uniform(0.5, 3.0, size=4)),
                         list(rng.normal(size=4) + 1j * rng.normal(size=4)),
                         list(rng.dirichlet(np.ones(4))), t_horizon=2e5, t_step=1.0)
        lo, hi, pad = _sampled_extrema(inp, False)
        w, a, b, lam = inp.finite_parts()
        arg = np.outer(np.arange(_grid(inp, False)[1], dtype=np.longdouble), w.astype(np.longdouble))
        s = np.cos(arg) @ (lam * a).astype(np.longdouble) + np.sin(arg) @ (lam * b).astype(np.longdouble)
        error = max(abs(lo - s.min()), abs(hi - s.max()))
        rounding = pad - 0.5 * float(np.sum(lam * np.hypot(a, b) * w))
        assert 0.0 < error <= rounding
