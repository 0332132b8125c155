import numpy as np
import pytest

from synwave import fit, stats


def series(values):
    values = np.asarray(values, dtype=float)
    return fit.TimeSeries(np.arange(values.size, dtype=float), values)


class TestAdf:
    def test_driftless_random_walk_keeps_unit_root(self):
        rng = np.random.default_rng(11)
        walk = np.cumsum(rng.standard_normal(500))
        result = stats.adf_test(series(walk))
        assert result.reject_at not in ("1%", "5%")
        assert result.regression_kind == "constant"

    def test_white_noise_rejects_at_one_percent(self):
        noise = np.random.default_rng(7).standard_normal(500)
        result = stats.adf_test(series(noise), kind="constant")
        assert result.reject_at == "1%"

    def test_affine_invariance_with_constant(self):
        rng = np.random.default_rng(11)
        walk = np.cumsum(rng.standard_normal(500))
        base = stats.adf_test(series(walk), kind="constant")
        scaled = stats.adf_test(series(3.0 * walk + 7.0), kind="constant")
        assert abs(base.statistic - scaled.statistic) < 1e-9

    def test_schwert_lag_rule(self):
        assert stats.schwert_lags(100) == 12
        assert stats.schwert_lags(250) == 15
        assert stats.schwert_lags(500) == 17

    def test_critical_values_strictly_ordered(self):
        for kind in stats.REGRESSION_KINDS:
            for n in (30, 75, 200, 10_000):
                cv = stats._critical_values(stats._ADF_SURFACES[kind], n)
                assert cv["1%"] < cv["5%"] < cv["10%"]

    @pytest.mark.parametrize("kind, n, level, published", [
        ("constant", 100, "5%", -2.8909),
        ("constant+trend", 25, "1%", -4.3750),
        ("none", np.inf, "10%", -1.6168),
        ("engle-granger", 50, "5%", -3.4611),
    ])
    def test_published_critical_values(self, kind, n, level, published):
        # MacKinnon (2010) tables, to the 4 decimals they are printed with
        surfaces = {**stats._ADF_SURFACES,
                    "engle-granger": stats._ENGLE_GRANGER_SURFACE}
        cv = stats._critical_values(surfaces[kind], n)
        assert round(cv[level], 4) == published

    def test_short_samples_use_the_n25_values(self):
        for rows in (*stats._ADF_SURFACES.values(),
                     stats._ENGLE_GRANGER_SURFACE):
            assert (stats._critical_values(rows, 12)
                    == stats._critical_values(rows, 25))

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            stats.adf_test(series(np.full(100, 2.0)))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            stats.adf_test(series(np.arange(12.0)), lags=15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            stats.adf_test(series(np.random.default_rng(0).standard_normal(50)),
                           kind="trend")

    def test_trend_kind_handles_trending_series(self):
        rng = np.random.default_rng(2)
        trending = 0.5 * np.arange(300.0) + rng.standard_normal(300)
        result = stats.adf_test(series(trending), kind="constant+trend")
        assert result.reject_at == "1%"


class TestCalibration:
    def test_size_on_random_walks(self):
        rate = stats.simulate_adf_rejection_rate(
            "random_walk", 300, 250, "5%", seed=100)
        assert 0.02 <= rate <= 0.08

    def test_power_on_ar1(self):
        # lag override: the Schwert default is a search bound, not a
        # power-study order
        rate = stats.simulate_adf_rejection_rate(
            "ar1", 300, 250, "5%", phi=0.5, seed=200, lags=4)
        assert rate > 0.95

    @pytest.mark.parametrize("process, reps", [
        ("random_walk", 0), ("random_walk", -5), ("brownian", -5),
        ("brownian", 10)])
    def test_bad_arguments_rejected_before_any_rep(self, process, reps):
        with pytest.raises(ValueError):
            stats.simulate_adf_rejection_rate(process, reps, 50)


class TestEngleGranger:
    def test_seeded_cointegrated_pair(self):
        rng = np.random.default_rng(26)
        x = np.cumsum(rng.standard_normal(250))
        y = 2.0 * x + rng.standard_normal(250)
        result = stats.engle_granger(series(y), series(x))
        assert result.cointegrated_at == "1%"
        assert not result.degenerate
        assert result.step1.slope == pytest.approx(2.0, abs=0.05)
        assert result.residual_adf.regression_kind == "none"

    def test_independent_walks_not_cointegrated(self):
        w1 = np.cumsum(np.random.default_rng(1004).standard_normal(250))
        w2 = np.cumsum(np.random.default_rng(2004).standard_normal(250))
        result = stats.engle_granger(series(w1), series(w2))
        assert result.cointegrated_at not in ("1%", "5%")

    def test_exact_relation_is_degenerate(self):
        w = np.cumsum(np.random.default_rng(3).standard_normal(200))
        result = stats.engle_granger(series(w), series(w))
        assert result.degenerate
        assert result.cointegrated_at == "1%"
        assert np.abs(result.step1.residuals).max() < 1e-9

    def test_step1_residuals_have_zero_mean(self):
        rng = np.random.default_rng(17)
        x = np.cumsum(rng.standard_normal(120))
        y = 0.5 * x + rng.standard_normal(120)
        result = stats.engle_granger(series(y), series(x))
        assert abs(result.step1.residuals.mean()) < 1e-9

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            stats.engle_granger(series(np.zeros(40)),
                                series(np.arange(41.0)))

    def test_residual_test_is_judged_by_the_engle_granger_surface(self):
        rng = np.random.default_rng(26)
        x = np.cumsum(rng.standard_normal(250))
        y = 2.0 * x + rng.standard_normal(250)
        residual_adf = stats.engle_granger(series(y), series(x)).residual_adf
        n_obs = 250 - residual_adf.lags_used - 1
        assert residual_adf.critical_values == stats._critical_values(
            stats._ENGLE_GRANGER_SURFACE, n_obs)

    def test_json_layout(self):
        rng = np.random.default_rng(26)
        x = np.cumsum(rng.standard_normal(250))
        y = 2.0 * x + rng.standard_normal(250)
        payload = stats.engle_granger(series(y), series(x)).to_dict()
        assert set(payload) == {"B", "C", "residual_adf", "cointegrated_at",
                                "degenerate"}
        assert set(payload["residual_adf"]) == {
            "statistic", "lags", "kind", "critical_values", "reject_at"}
