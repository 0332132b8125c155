import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synwave import fit, models

DEMO_CHAIN = models.SolitonChainModel(
    beta=310.75,
    components=(
        models.SolitonComponent(71.75, 0.03, 54.16),
        models.SolitonComponent(208.21, 0.04, 122.4),
        models.SolitonComponent(370.57, 0.02, 201.0),
    ),
)


class TestLogistic:
    def setup_method(self):
        self.comp = models.LogisticComponent(100.0, 0.5, 10.0)

    def rate(self, t):
        """The logistic rate, the derivative pulse of the step."""
        return models.soliton_eval(fit.logistic_to_soliton(self.comp), t)

    def test_midpoint(self):
        assert models.logistic_eval(self.comp, 10.0) == pytest.approx(50.0)

    def test_saturation(self):
        far = models.logistic_eval(self.comp, 10.0 + 100.0 / 0.5)
        assert far == pytest.approx(100.0, abs=1e-9)

    def test_three_quarters_point(self):
        t = 10.0 + np.log(3.0) / 0.5
        assert models.logistic_eval(self.comp, t) == pytest.approx(75.0)

    def test_extreme_arguments_stable(self):
        lo = models.logistic_eval(self.comp, 10.0 - 700.0 / 0.5)
        hi = models.logistic_eval(self.comp, 10.0 + 700.0 / 0.5)
        assert lo == 0.0
        assert hi == 100.0

    def test_derivative_peak(self):
        assert self.rate(10.0) == (
            pytest.approx(12.5))

    def test_derivative_tail(self):
        t = 10.0 + 200.0 / 0.5
        assert abs(self.rate(t)) < 1e-12

    def test_derivative_matches_finite_difference(self):
        ts = np.linspace(5.0, 15.0, 21)
        h = 1e-5
        fd = (models.logistic_eval(self.comp, ts + h)
              - models.logistic_eval(self.comp, ts - h)) / (2.0 * h)
        an = self.rate(ts)
        assert np.abs((fd - an) / an).max() < 1e-6

    def test_finite_difference_converges_quadratically(self):
        ts = np.linspace(0.0, 30.0, 61)

        def err(h):
            fd = (models.logistic_eval(self.comp, ts + h)
                  - models.logistic_eval(self.comp, ts - h)) / (2.0 * h)
            return np.abs(fd - self.rate(ts)).max()

        ratio = err(1e-3) / err(1e-4)
        assert 50.0 < ratio < 200.0


class TestSoliton:
    def test_demo_component_peak(self):
        comp = models.SolitonComponent(370.57, 0.02, 201.0)
        assert models.soliton_eval(comp, 201.0) == pytest.approx(370.57)

    def test_half_maximum_location(self):
        comp = models.SolitonComponent(1.0, 1.0, 0.0)
        t_half = np.log(1.0 + np.sqrt(2.0))
        assert models.soliton_eval(comp, t_half) == pytest.approx(0.5)

    @settings(max_examples=40, deadline=None)
    @given(amplitude=st.floats(-50, 50).filter(lambda a: abs(a) > 1e-6),
           k=st.floats(0.01, 2.0), center=st.floats(-100, 100),
           delta=st.floats(0, 50))
    def test_even_symmetry(self, amplitude, k, center, delta):
        comp = models.SolitonComponent(amplitude, k, center)
        left = models.soliton_eval(comp, center - delta)
        right = models.soliton_eval(comp, center + delta)
        assert left == pytest.approx(right, rel=1e-12, abs=1e-300)

    def test_matches_logistic_derivative_under_parameter_map(self):
        x_sat, s, t0 = 100.0, 0.5, 10.0
        soliton = models.SolitonComponent(x_sat * s / 4.0, s / 2.0, t0)
        logistic = models.LogisticComponent(x_sat, s, t0)
        ts = np.linspace(-40.0, 60.0, 501)
        rate = models.soliton_eval(fit.logistic_to_soliton(logistic), ts)
        assert np.abs(models.soliton_eval(soliton, ts) - rate).max() < 1e-12


class TestSechSquared:
    def test_masked_formula_inside_the_cutoff_and_zero_beyond(self):
        cutoff = models._TAIL_CUTOFF
        edge = [cutoff, np.nextafter(cutoff, np.inf)]
        z = np.concatenate([np.linspace(-400.0, 400.0, 8001), edge,
                            np.negative(edge), [0.0, -0.0, 1e-300]])
        a = np.abs(z)
        inside = a <= cutoff
        e = np.exp(-2.0 * a[inside])
        expected = np.zeros_like(z)
        expected[inside] = 4.0 * e / (1.0 + e) ** 2
        got = models._sech_squared(z)
        assert got.tobytes() == expected.tobytes()

    def test_huge_arguments_are_zero_without_a_warning(self):
        z = np.array([1e308, -1e308, np.inf, -np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = models._sech_squared(z)
        assert got.tolist() == [0.0] * 4


class TestChain:
    def test_demo_chain_at_first_peak(self):
        # direct arithmetic on the closed form, written out independently
        expected = 310.75
        for amp, k, center in ((71.75, 0.03, 54.16), (208.21, 0.04, 122.4),
                               (370.57, 0.02, 201.0)):
            expected += amp / np.cosh(k * (54.16 - center)) ** 2
        value = models.chain_eval(DEMO_CHAIN, 54.16)
        assert value == pytest.approx(expected, abs=1e-9)
        assert value == pytest.approx(390.2, abs=0.05)

    def test_empty_components(self):
        empty = models.SolitonChainModel(310.75, ())
        ts = np.linspace(0.0, 100.0, 11)
        assert np.all(models.chain_eval(empty, ts) == 310.75)

    def test_far_tail_returns_to_shift(self):
        t_far = 201.0 + 6.0 / 0.02
        value = models.chain_eval(DEMO_CHAIN, t_far)
        assert abs(value - 310.75) < 0.001 * 370.57

    def test_components_sorted_by_center(self):
        model = models.SolitonChainModel(0.0, (
            models.SolitonComponent(1.0, 0.1, 50.0),
            models.SolitonComponent(2.0, 0.1, 10.0),
        ))
        assert [c.center for c in model.components] == [10.0, 50.0]


class TestCumulativeChain:
    def test_single_component_midpoint(self):
        model = models.SolitonChainModel(
            0.0, (models.SolitonComponent(1.0, 1.0, 0.0),))
        assert models.cumulative_chain_eval(model, 0.0) == pytest.approx(1.0)

    def test_lower_limit_vanishes(self):
        model = models.SolitonChainModel(
            0.0, (models.SolitonComponent(1.0, 1.0, 0.0),))
        assert models.cumulative_chain_eval(model, -400.0) == 0.0

    def test_quadrature_oracle(self):
        comp = models.SolitonComponent(2.5, 0.08, 100.0)
        model = models.SolitonChainModel(7.0, (comp,))
        lo = comp.center - 40.0 / comp.k
        hi = comp.center + 40.0 / comp.k
        grid = np.linspace(lo, hi, 400001)
        rates = models.chain_eval(model, grid) - model.beta
        steps = np.diff(grid)
        quadrature = np.concatenate(
            [[0.0], np.cumsum(0.5 * (rates[1:] + rates[:-1]) * steps)])
        closed = models.cumulative_chain_eval(model, grid)
        assert np.abs(quadrature - (closed - closed[0])).max() < 1e-6

    def test_chain_is_derivative_of_cumulative(self):
        model = models.SolitonChainModel(3.0, (
            models.SolitonComponent(2.0, 0.05, 40.0),
            models.SolitonComponent(-1.0, 0.08, 140.0),
        ))
        ts = np.linspace(0.0, 200.0, 2001)
        h = 1e-6
        fd = (models.cumulative_chain_eval(model, ts + h)
              - models.cumulative_chain_eval(model, ts - h)) / (2.0 * h)
        assert np.abs(fd - (models.chain_eval(model, ts) - model.beta)).max() < 1e-6


class TestKdvSoliton:
    def test_trough_value(self):
        assert models.kdv_soliton(1.0, 0.0, 0.0) == pytest.approx(-0.5)

    def test_trough_travels_at_k_squared(self):
        for t in (0.0, 1.0, 3.3):
            assert models.kdv_soliton(2.0, 4.0 * t, t) == pytest.approx(-2.0)

    def test_tail_decay(self):
        assert models.kdv_soliton(1.0, 40.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_positive_k_required(self):
        with pytest.raises(ValueError):
            models.kdv_soliton(-1.0, 0.0, 0.0)


def kdv_grid(hx, ht, xlim=8.0, tlim=0.5, k=1.0):
    x = np.arange(-xlim, xlim + hx / 2.0, hx)
    t = np.arange(0.0, tlim + ht / 2.0, ht)
    return models.sample_grid(lambda xs, tt: models.kdv_soliton(k, xs, tt), x, t)


class TestResiduals:
    def test_kdv_soliton_solves_equation(self):
        assert models.kdv_residual(kdv_grid(0.02, 0.002)) < 1e-3

    def test_kdv_residual_quadratic_convergence(self):
        coarse = models.kdv_residual(kdv_grid(0.04, 0.004))
        fine = models.kdv_residual(kdv_grid(0.02, 0.002))
        assert 3.0 < coarse / fine < 5.0

    def test_zero_field(self):
        x = np.linspace(-1.0, 1.0, 11)
        t = np.linspace(0.0, 1.0, 11)
        g = models.GridFunction(x, t, np.zeros((11, 11)))
        assert models.kdv_residual(g) == 0.0

    def test_linear_field_residual_from_nonlinearity(self):
        x = np.linspace(-1.0, 1.0, 21)
        t = np.linspace(0.0, 1.0, 11)
        g = models.GridFunction(x, t, np.tile(x, (11, 1)))
        # u_T = 0, u_X = 1, u_XXX = 0 exactly, so residual = 6 |u| inside
        assert models.kdv_residual(g) == pytest.approx(
            6.0 * np.abs(x[2:-2]).max(), abs=1e-12)

    def test_grid_too_small(self):
        x = np.linspace(0.0, 1.0, 4)
        t = np.linspace(0.0, 1.0, 6)
        with pytest.raises(ValueError):
            models.kdv_residual(models.GridFunction(x, t, np.zeros((6, 4))))

    def test_rescaled_equation_accepts_mapped_solution(self):
        hx, ht = 0.02, 0.002
        x = np.arange(-8.0, 8.0 + hx / 2.0, hx)
        t = np.arange(0.0, 0.5 + ht / 2.0, ht)
        g = models.sample_grid(
            lambda xs, tt: 3.0 * models.kdv_soliton(1.0, xs, tt / 4.0), x, t)
        assert models.rescaled_kdv_residual(g, 0.0) < 1e-3

    def test_rescaled_equation_convergence(self):
        def build(hx, ht):
            x = np.arange(-8.0, 8.0 + hx / 2.0, hx)
            t = np.arange(0.0, 0.5 + ht / 2.0, ht)
            return models.sample_grid(
                lambda xs, tt: 3.0 * models.kdv_soliton(1.0, xs, tt / 4.0), x, t)

        coarse = models.rescaled_kdv_residual(build(0.04, 0.004), 0.0)
        fine = models.rescaled_kdv_residual(build(0.02, 0.002), 0.0)
        assert 3.0 < coarse / fine < 5.0

    def test_constant_field_solves_rescaled_equation(self):
        x = np.linspace(-1.0, 1.0, 11)
        t = np.linspace(0.0, 1.0, 11)
        g = models.GridFunction(x, t, np.full((11, 11), 4.2))
        assert models.rescaled_kdv_residual(g, 0.0) == 0.0

    def test_constant_forcing_shows_up_directly(self):
        x = np.linspace(-1.0, 1.0, 11)
        t = np.linspace(0.0, 1.0, 11)
        g = models.GridFunction(x, t, np.zeros((11, 11)))
        assert models.rescaled_kdv_residual(g, 5.0) == pytest.approx(5.0)


class TestGridCsv:
    def test_nonuniform_grid_rejected(self):
        with pytest.raises(ValueError):
            models.GridFunction(np.array([0.0, 1.0, 3.0]),
                                np.array([0.0, 1.0]),
                                np.zeros((2, 3)))
