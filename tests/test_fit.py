import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from synwave import cli, fit, lcwt, models, synth

from conftest import central_difference_jacobian, difference_steps

TRUE_PARAMS = [(71.75, 0.03, 54.16), (208.21, 0.04, 122.4), (370.57, 0.02, 201.0)]


def clean_chain_series(n=241):
    times = np.arange(n, dtype=float)
    return fit.TimeSeries(times, models.chain_eval(synth.corn_like_model(), times))


class TestTimeSeries:
    def test_nonuniform_rejected(self):
        with pytest.raises(ValueError):
            fit.TimeSeries(np.array([0.0, 1.0, 3.0]), np.zeros(3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit.TimeSeries(np.arange(3.0), np.zeros(4))

    def test_dt(self):
        s = fit.TimeSeries(np.array([2.0, 4.0, 6.0]), np.zeros(3))
        assert s.dt == 2.0

    def test_nan_value_rejected(self):
        with pytest.raises(ValueError):
            fit.TimeSeries(np.arange(3.0), np.array([0.0, np.nan, 1.0]))

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError):
            fit.TimeSeries(np.array([0.0, np.nan, 2.0]), np.zeros(3))


class TestOls:
    def test_exact_line(self):
        x = np.arange(20.0)
        r = fit.ols(x, 2.0 * x + 1.0)
        assert r.slope == pytest.approx(2.0, abs=1e-12)
        assert r.intercept == pytest.approx(1.0, abs=1e-12)
        assert r.r_squared == pytest.approx(1.0, abs=1e-12)
        assert np.abs(r.residuals).max() < 1e-10

    def test_two_points_exact_line(self):
        r = fit.ols([1.0, 3.0], [2.0, 8.0])
        assert r.slope == 3.0
        assert r.intercept == -1.0
        assert r.r_squared == 1.0
        assert np.isnan(r.adjusted_r_squared)
        assert np.isnan(r.t_values).all()
        fh = io.StringIO()
        cli.write_json(fh, r.to_dict())
        written = json.loads(fh.getvalue())
        assert written["adj_r2"] is None
        assert written["t_values"] == [None, None]

    def test_seeded_noise_slope_insignificant(self):
        x = np.arange(100.0)
        y = np.random.default_rng(14).standard_normal(100)
        r = fit.ols(x, y)
        # |t| inside the two-sided 95% band for 98 dof
        assert abs(r.t_values[0]) < 1.984

    def test_zero_variance_x_rejected(self):
        with pytest.raises(ValueError):
            fit.ols(np.ones(10), np.arange(10.0))

    def test_demo_quality_regression(self):
        series = synth.corn_like_series(33)
        result = fit.fit_soliton_chain(series, 3)
        predictions = models.chain_eval(result.model, series.times)
        r = fit.ols(predictions, series.values)
        assert r.r_squared >= 0.94
        assert r.n_observations == 241

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_residual_identities(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(50)
        x[0] += 1.0  # guard against zero variance
        y = rng.standard_normal(50)
        r = fit.ols(x, y)
        assert abs(r.residuals.sum()) < 1e-9
        assert abs(float(r.residuals @ x)) < 1e-8


class TestFitSolitonChain:
    def test_noiseless_roundtrip(self):
        result = fit.fit_soliton_chain(clean_chain_series(), 3)
        assert result.converged
        assert abs(result.model.beta - 310.75) / 310.75 < 1e-4
        for comp, (a, k, c) in zip(result.model.components, TRUE_PARAMS):
            assert abs(comp.amplitude - a) / a < 1e-4
            assert abs(comp.k - k) / k < 1e-4
            assert abs(comp.center - c) < 1e-4 * c

    def test_noisy_recovery_within_tolerances(self):
        result = fit.fit_soliton_chain(synth.corn_like_series(33), 3)
        assert result.converged
        for comp, (a, k, c) in zip(result.model.components, TRUE_PARAMS):
            assert abs(comp.amplitude - a) / a < 0.02
            assert abs(comp.k - k) / k < 0.05
            assert abs(comp.center - c) < 0.5

    def test_constant_series_flags_degeneracy(self):
        s = fit.TimeSeries(np.arange(20.0), np.full(20, 5.0))
        init = models.SolitonChainModel(
            5.0, (models.SolitonComponent(1.0, 0.5, 10.0),))
        result = fit.fit_soliton_chain(s, init=init)
        assert abs(result.model.components[0].amplitude) < 1e-6
        assert np.any(np.isinf(result.standard_errors))

    def test_non_finite_values_rejected(self):
        values = np.zeros(30)
        values[4] = np.nan
        with pytest.raises(ValueError):
            fit.fit_soliton_chain(fit.TimeSeries(np.arange(30.0), values), 1)

    def test_refit_from_truth_is_immediate(self):
        result = fit.fit_soliton_chain(clean_chain_series(),
                                       init=synth.corn_like_model())
        assert result.converged
        assert result.iterations <= 2
        assert result.sse < 1e-12

    def test_sse_history_non_increasing(self):
        result = fit.fit_soliton_chain(synth.corn_like_series(3), 3)
        history = np.array(result.sse_history)
        assert np.all(np.diff(history) <= 0.0)

    def test_doubled_noise_never_reduces_sse(self):
        series = clean_chain_series()
        eps = np.random.default_rng(3).standard_normal(len(series))
        low = fit.fit_soliton_chain(
            fit.TimeSeries(series.times, series.values + 3.7 * eps), 3)
        high = fit.fit_soliton_chain(
            fit.TimeSeries(series.times, series.values + 7.4 * eps), 3)
        assert high.sse >= low.sse

    def test_errors_follow_components_when_centers_cross(self):
        # seeded on the wrong sides, the two pulses pass each other during
        # the fit (the one seeded at 98 ends at 30); the result is sorted
        # by center and the standard errors must follow the same order
        times = np.arange(120.0)
        truth = models.SolitonChainModel(5.0, (
            models.SolitonComponent(100.0, 0.3, 30.0),
            models.SolitonComponent(40.0, 0.05, 80.0)))
        noise = np.random.default_rng(0).standard_normal(times.size)
        series = fit.TimeSeries(times, models.chain_eval(truth, times) + noise)
        init = models.SolitonChainModel(5.0, (
            models.SolitonComponent(40.0, 0.3, 66.0),
            models.SolitonComponent(100.0, 0.05, 98.0)))
        result = fit.fit_soliton_chain(series, init=init)
        assert result.converged
        assert result.order == (1, 0)
        for comp, true in zip(result.model.components, truth.components):
            assert comp.center == pytest.approx(true.center, abs=0.5)
            assert comp.amplitude == pytest.approx(true.amplitude, rel=0.05)
        # seeded on the right sides, the pulses keep their places
        uncrossed = fit.fit_soliton_chain(
            series, init=models.SolitonChainModel(5.0, (
                models.SolitonComponent(100.0, 0.3, 32.0),
                models.SolitonComponent(40.0, 0.05, 78.0))))
        assert uncrossed.order == (0, 1)

        def residual_fn(params):
            model = fit._chain_unpack(params)
            return models.chain_eval(model, times) - series.values

        jac = central_difference_jacobian(residual_fn,
                                          fit._chain_pack(result.model))
        expected = fit._standard_errors(jac, result.sse)
        expected[2::3] *= [c.k for c in result.model.components]
        np.testing.assert_allclose(result.standard_errors, expected, rtol=1e-6)

    def test_corn_like_centers_recovered(self):
        for seed in range(40):
            model = fit.fit_soliton_chain(synth.corn_like_series(seed), 3).model
            for comp, (_, _, center) in zip(model.components, synth.CORN_PULSES):
                assert abs(comp.center - center) <= 2.0, seed

    def test_count_fit_is_the_extraction_refit(self):
        series = synth.corn_like_series(33)
        result = fit.fit_soliton_chain(series, 3)
        refit = lcwt.extract_waves(series, max_waves=3).fit
        assert result.model == refit.model
        assert result.sse == refit.sse
        assert result.sse_history == refit.sse_history
        np.testing.assert_array_equal(result.standard_errors,
                                      refit.standard_errors)

    def test_too_few_waves_rejected(self):
        with pytest.raises(ValueError, match="found 0 of 3 waves"):
            fit.fit_soliton_chain(synth.noise_series(7, 500), 3)


def staircase_eval(model, times):
    return model.beta + models.cumulative_chain_eval(model, times)


# each fitted form: its model evaluation, its flat form and the largest
# |value| one pulse (A, k) takes in it
FORMS = {
    "chain": (models.chain_eval, fit._pulse_form,
              lambda a, k: abs(a)),
    "staircase": (staircase_eval, fit._step_form,
                  lambda a, k: 2.0 * abs(a) / k),
}
JACOBIAN_TIMES = np.arange(80.0)
_signs = st.sampled_from([-1.0, 1.0])
_amplitudes = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, size: sign * size, _signs, st.floats(1e-3, 500.0)))
_log_widths = st.one_of(
    st.floats(np.log(0.01), np.log(3.0)),
    # just inside or just outside the clip, further from it than the
    # difference step (5e-5 there)
    st.builds(lambda sign, offset: sign * (fit._LOG_K_CLIP + offset), _signs,
              st.floats(1e-3, 0.5) | st.floats(-0.5, -1e-3)))
# a center keeps 1/8 sample off every sample, so a pulse narrower than
# the difference step, which differences cannot resolve, is 0 on all of
# them; k = 3 puts the far end of the series beyond the tail cutoff
_centers = st.integers(-160, 480).map(lambda i: (i + 0.5) / 4.0)


class TestClosedFormJacobian:
    @pytest.mark.parametrize("form", sorted(FORMS))
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(beta=st.floats(-100.0, 100.0),
           pulses=st.lists(st.tuples(_amplitudes, _log_widths, _centers),
                           min_size=1, max_size=4))
    # crossing centers, a zero amplitude, a pulse half past the tail
    # cutoff and one just inside the upper log k clip
    @example(beta=3.0, pulses=[(-40.0, np.log(3.0), -40.125),
                               (0.0, -1.0, 20.125), (7.0, -1.0, 20.125),
                               (5.0, 49.9, 10.125)])
    # just inside and just outside the lower clip, where a staircase
    # step is 2A/k ~ 1e22 tall
    @example(beta=3.0, pulses=[(2.0, -49.8, 60.125), (-2.0, -50.2, 30.125)])
    def test_matches_central_differences(self, form, beta, pulses):
        evaluate, flat_form, height = FORMS[form]
        # packed against center order, as when centers cross during a fit
        pulses = sorted(pulses, key=lambda p: -p[2])
        params = np.array([beta, *(v for p in pulses for v in p)])

        def residual_fn(p):
            return evaluate(fit._chain_unpack(p), JACOBIAN_TIMES)

        _, partials = flat_form(params, JACOBIAN_TIMES)
        closed = fit._chain_jacobian(params, partials())
        oracle = central_difference_jacobian(residual_fn, params)
        # a difference quotient cannot resolve what lies below the
        # round-off of the model's parts, relative to their largest size
        # and, under the normal range, one subnormal, over the step
        size = abs(beta) + sum(height(c.amplitude, c.k)
                               for c in fit._chain_unpack(params).components)
        limits = np.finfo(float)
        floor = 16.0 * (limits.eps * size + limits.smallest_subnormal) / (
            difference_steps(params))
        tolerance = 1e-6 * np.abs(oracle).max(axis=0) + floor
        assert np.all(np.abs(closed - oracle) <= tolerance)


def chain_eval_oracle(model, times):
    """The chain one ``soliton_eval`` at a time, in the model's order."""
    out = np.full(times.shape, model.beta)
    for comp in model.components:
        out += models.soliton_eval(comp, times)
    return out


def staircase_oracle(model, times):
    """The staircase one step at a time, in the model's order."""
    out = np.zeros(times.shape)
    for comp in model.components:
        out += (comp.amplitude / comp.k) * (
            1.0 + np.tanh(comp.k * (times - comp.center)))
    return model.beta + out


ORACLES = {"chain": chain_eval_oracle, "staircase": staircase_oracle}
FLAT_TIMES = np.arange(120.0)
FLAT_TRUTH = models.SolitonChainModel(5.0, (
    models.SolitonComponent(100.0, 0.3, 30.0),
    models.SolitonComponent(40.0, 0.05, 80.0)))
FLAT_INIT = models.SolitonChainModel(5.0, (
    models.SolitonComponent(60.0, 0.2, 34.0),
    models.SolitonComponent(55.0, 0.07, 74.0)))


def noisy_form_series(form):
    """The form of FLAT_TRUTH plus seeded unit noise."""
    noise = np.random.default_rng(0).standard_normal(FLAT_TIMES.size)
    return fit.TimeSeries(FLAT_TIMES,
                          FORMS[form][0](FLAT_TRUTH, FLAT_TIMES) + noise)


class TestFlatForm:
    @pytest.mark.parametrize("form", sorted(FORMS))
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(beta=st.floats(-100.0, 100.0),
           pulses=st.lists(st.tuples(_amplitudes, _log_widths, _centers),
                           max_size=5))
    # centers unsorted and tied, a zero amplitude, log k past both clips
    @example(beta=3.0, pulses=[(5.0, 60.0, 20.125), (0.0, -1.0, 20.125),
                               (-7.0, -60.0, -3.875), (2.0, -2.0, 20.125)])
    def test_value_is_the_model_value(self, form, beta, pulses):
        evaluate, flat_form, _ = FORMS[form]
        params = np.array([beta, *(v for p in pulses for v in p)])
        value, _ = flat_form(params, JACOBIAN_TIMES)
        model = fit._chain_unpack(params)
        assert np.array_equal(value, evaluate(model, JACOBIAN_TIMES))
        assert np.array_equal(value, ORACLES[form](model, JACOBIAN_TIMES))

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_lm_jacobians_reuse_the_residual_terms(self, form, monkeypatch):
        _, flat_form, _ = FORMS[form]
        calls = {"form": 0, "evaluate": 0, "jacobian": 0}
        real_lm = fit.levenberg_marquardt

        def counted_form(params, times):
            calls["form"] += 1
            return flat_form(params, times)

        def checked_lm(evaluate, p0):
            def counted_evaluate(params):
                calls["evaluate"] += 1
                residual, jacobian = evaluate(params)

                def checked_jacobian():
                    calls["jacobian"] += 1
                    jac = jacobian()
                    _, partials = flat_form(params, FLAT_TIMES)
                    assert np.array_equal(
                        jac, fit._chain_jacobian(params, partials()))
                    return jac

                return residual, checked_jacobian

            return real_lm(counted_evaluate, p0)

        monkeypatch.setattr(fit, "levenberg_marquardt", checked_lm)
        result = fit._fit_chain(noisy_form_series(form), FLAT_INIT,
                                counted_form)
        assert result.converged and result.iterations > 3
        # one per iteration, and one for the standard errors
        assert calls["jacobian"] == result.iterations + 1
        # no Jacobian, the standard errors' included, evaluated the form
        assert calls["form"] == calls["evaluate"]

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_standard_errors_after_a_rejected_last_trial(self, form,
                                                         monkeypatch):
        _, flat_form, _ = FORMS[form]
        series = noisy_form_series(form)
        expected = fit._fit_chain(series, FLAT_INIT, flat_form)
        real_lm, real_errors = fit.levenberg_marquardt, fit._standard_errors
        seen = {}

        def lm_then_rejected_trial(evaluate, p0):
            out = real_lm(evaluate, p0)
            evaluate(out[0] + 0.5)  # a trial LM did not take
            seen["params"] = out[0]
            return out

        def errors(jac, sse):
            seen["jac"] = jac
            return real_errors(jac, sse)

        monkeypatch.setattr(fit, "levenberg_marquardt", lm_then_rejected_trial)
        monkeypatch.setattr(fit, "_standard_errors", errors)
        result = fit._fit_chain(series, FLAT_INIT, flat_form)
        _, partials = flat_form(seen["params"], FLAT_TIMES)
        assert np.array_equal(
            seen["jac"], fit._chain_jacobian(seen["params"], partials()))
        assert (result.standard_errors.tobytes()
                == expected.standard_errors.tobytes())


class TestParameterMaps:
    @settings(max_examples=50, deadline=None)
    @given(amplitude=st.floats(0.01, 500), k=st.floats(0.001, 5.0),
           center=st.floats(-200, 200))
    def test_maps_are_mutually_inverse(self, amplitude, k, center):
        comp = models.SolitonComponent(amplitude, k, center)
        back = fit.logistic_to_soliton(fit.soliton_to_logistic(comp))
        assert back.amplitude == pytest.approx(amplitude, rel=1e-12)
        assert back.k == pytest.approx(k, rel=1e-12)
        assert back.center == pytest.approx(center, rel=1e-12, abs=1e-12)

    def test_map_values(self):
        comp = models.SolitonComponent(10.0, 0.05, 30.0)
        logistic = fit.soliton_to_logistic(comp)
        assert logistic.x_sat == pytest.approx(2.0 * 10.0 / 0.05, rel=1e-10)
        assert logistic.s == pytest.approx(0.1, rel=1e-10)
        assert logistic.t0 == 30.0


def staircase(model, times):
    """Baseline plus the logistic steps of the model's pulses."""
    return model.beta + sum(
        models.logistic_eval(fit.soliton_to_logistic(c), times)
        for c in model.components)


class TestFitLogisticSum:
    def test_single_step_roundtrip(self):
        times = np.arange(101.0)
        truth = models.LogisticComponent(1000.0, 0.2, 50.0)
        cumulative = models.logistic_eval(truth, times) + 5.0
        result = fit.fit_logistic_sum(fit.TimeSeries(times, cumulative), 1)
        comp = fit.soliton_to_logistic(result.model.components[0])
        assert abs(comp.x_sat - 1000.0) / 1000.0 < 1e-4
        assert abs(comp.s - 0.2) / 0.2 < 1e-4
        assert abs(comp.t0 - 50.0) / 50.0 < 1e-4
        assert result.model.beta == pytest.approx(5.0, abs=1e-3)

    def test_two_steps_recovered_in_time_order(self):
        times = np.arange(300.0)
        first = models.LogisticComponent(500.0, 0.15, 80.0)
        second = models.LogisticComponent(900.0, 0.25, 220.0)
        cumulative = (models.logistic_eval(first, times)
                      + models.logistic_eval(second, times) + 10.0)
        result = fit.fit_logistic_sum(fit.TimeSeries(times, cumulative), 2)
        steps = [fit.soliton_to_logistic(c) for c in result.model.components]
        assert steps[0].t0 < steps[1].t0
        for comp, truth in zip(steps, (first, second)):
            assert abs(comp.x_sat - truth.x_sat) / truth.x_sat < 1e-4
            assert abs(comp.s - truth.s) / truth.s < 1e-4
            assert abs(comp.t0 - truth.t0) < 1e-2

    def test_integrated_chain_is_the_logistic_staircase(self):
        series = synth.patent_like_series(3)
        model = fit.fit_logistic_sum(series, 3).model
        times = np.linspace(series.times[0] - 10.0, series.times[-1] + 10.0, 500)
        integrated = model.beta + models.cumulative_chain_eval(model, times)
        np.testing.assert_allclose(integrated, staircase(model, times),
                                   rtol=1e-9)

    def test_patent_like_staircases_fit_exactly(self):
        for seed in [*range(50), 64, 196, 197]:
            series = synth.patent_like_series(seed)
            result = fit.fit_logistic_sum(series, 3)
            assert result.converged, seed
            assert not result.degenerate, seed
            assert result.sse <= 1e-20 * float(np.sum(series.values ** 2)), seed

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 199),
           c=st.floats(-10.0, 4.0).map(lambda e: 10.0 ** e))
    @example(seed=0, c=1e-10)
    def test_value_rescaling_invariance(self, seed, c):
        series = synth.patent_like_series(seed)
        base = fit.fit_logistic_sum(series, 3).model
        scaled = fit.fit_logistic_sum(
            fit.TimeSeries(series.times, c * series.values), 3).model
        for ps, pb in zip(scaled.components, base.components):
            assert ps.amplitude == pytest.approx(c * pb.amplitude, rel=1e-9)
            assert ps.k == pytest.approx(pb.k, rel=1e-9)
            assert ps.center == pytest.approx(pb.center, rel=1e-9)

    def test_step_count_must_be_positive(self):
        with pytest.raises(ValueError, match="at least 1"):
            fit.fit_logistic_sum(synth.patent_like_series(3), 0)

    def test_flat_staircase_is_degenerate(self):
        flat = fit.TimeSeries(np.arange(42.0), np.full(42, 50.0))
        result = fit.fit_logistic_sum(flat, 3)
        assert result.degenerate
