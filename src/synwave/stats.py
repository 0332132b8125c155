"""Unit-root and cointegration tests for the validation protocol.

``adf_test`` regresses the differenced series on its lagged level,
lagged differences, and optional deterministic terms; the test statistic
is the t-ratio of the lagged-level coefficient. ``engle_granger`` runs
the two-step residual-based cointegration test: OLS of y on x with an
intercept, then a no-deterministic-terms unit-root test on the
residuals against stricter critical values.

Critical values are embedded constants evaluated from the MacKinnon
(2010, QED working paper 1227) response surfaces at sample sizes
{25, 50, 100, 250, 500, inf} and interpolated linearly in 1/n between
grid points (below n = 25 the n = 25 row applies).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fit import TimeSeries, RegressionResult, ols

REGRESSION_KINDS = ("none", "constant", "constant+trend")
_LEVELS = ("1%", "5%", "10%")
_TABLE_N = (25.0, 50.0, 100.0, 250.0, 500.0, np.inf)

# rows follow _TABLE_N; columns follow _LEVELS
_ADF_TABLE = {
    "none": (
        (-2.6610, -1.9551, -1.6089),
        (-2.6119, -1.9475, -1.6124),
        (-2.5885, -1.9440, -1.6144),
        (-2.5747, -1.9421, -1.6158),
        (-2.5702, -1.9416, -1.6163),
        (-2.5657, -1.9410, -1.6168),
    ),
    "constant": (
        (-3.7239, -2.9865, -2.6328),
        (-3.5685, -2.9214, -2.5987),
        (-3.4975, -2.8909, -2.5824),
        (-3.4568, -2.8732, -2.5730),
        (-3.4435, -2.8673, -2.5699),
        (-3.4303, -2.8615, -2.5668),
    ),
    "constant+trend": (
        (-4.3750, -3.6035, -3.2382),
        (-4.1523, -3.5023, -3.1805),
        (-4.0523, -3.4553, -3.1533),
        (-3.9954, -3.4282, -3.1375),
        (-3.9770, -3.4193, -3.1322),
        (-3.9588, -3.4105, -3.1271),
    ),
}

# residual-based cointegration test, two series, intercept in step 1
_ENGLE_GRANGER_TABLE = (
    (-4.3706, -3.5915, -3.2184),
    (-4.1245, -3.4611, -3.1304),
    (-4.0082, -3.3979, -3.0871),
    (-3.9406, -3.3607, -3.0615),
    (-3.9184, -3.3484, -3.0529),
    (-3.8964, -3.3361, -3.0444),
)


@dataclass(frozen=True)
class ADFResult:
    """Unit-root test outcome with the critical values it was judged by."""

    statistic: float
    lags_used: int
    regression_kind: str
    critical_values: dict[str, float]
    reject_at: str | None

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "lags": self.lags_used,
            "kind": self.regression_kind,
            "critical_values": dict(self.critical_values),
            "reject_at": self.reject_at,
        }


@dataclass(frozen=True)
class CointegrationResult:
    """Two-step cointegration outcome; degenerate marks an exact relation."""

    step1: RegressionResult
    residual_adf: ADFResult
    cointegrated_at: str | None
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {
            "B": self.step1.slope,
            "C": self.step1.intercept,
            "residual_adf": self.residual_adf.to_dict(),
            "cointegrated_at": self.cointegrated_at,
            "degenerate": self.degenerate,
        }


def schwert_lags(n: int) -> int:
    """Default lag order floor(12 (n/100)^(1/4))."""
    return int(np.floor(12.0 * (n / 100.0) ** 0.25))


def _interp_critical_values(table, n_obs: int) -> dict[str, float]:
    q = 1.0 / max(n_obs, 25)
    grid_q = [1.0 / g if np.isfinite(g) else 0.0 for g in _TABLE_N]
    out = {}
    for col, level in enumerate(_LEVELS):
        col_vals = [row[col] for row in table]
        # grid_q decreases from 1/25 to 0; np.interp needs ascending x
        out[level] = float(np.interp(q, grid_q[::-1], col_vals[::-1]))
    return out


def _finest_rejection(statistic: float, critical_values: dict) -> str | None:
    for level in _LEVELS:
        if statistic < critical_values[level]:
            return level
    return None


def adf_test(series: TimeSeries, lags: int | str = "auto",
             kind: str = "constant") -> ADFResult:
    """Augmented unit-root regression with the stated deterministic terms.

    ``lags`` defaults to the Schwert rule. The reported statistic is not
    scale or shift dependent when a constant is included.
    """
    if kind not in REGRESSION_KINDS:
        raise ValueError(f"kind must be one of {REGRESSION_KINDS}")
    y = series.values
    n = y.size
    if lags == "auto":
        p = schwert_lags(n)
        p = max(0, min(p, n - 12))
    else:
        p = int(lags)
        if p < 0:
            raise ValueError("lag order must be nonnegative")
    if n < p + 10:
        raise ValueError(f"series of {n} too short for {p} lags")
    if float(np.var(y)) == 0.0:
        raise ValueError("zero-variance series")

    d = np.diff(y)
    # row i covers time t = i + 1 for i in p .. n-2
    response = d[p:]
    columns = [y[p:n - 1]]
    for j in range(1, p + 1):
        columns.append(d[p - j:n - 1 - j])
    if kind in ("constant", "constant+trend"):
        columns.append(np.ones(response.size))
    if kind == "constant+trend":
        columns.append(np.arange(1.0, response.size + 1.0))
    design = np.column_stack(columns)
    nobs, ncols = design.shape
    if nobs <= ncols:
        raise ValueError("not enough observations for the regression")
    beta, *_ = np.linalg.lstsq(design, response, rcond=None)
    residuals = response - design @ beta
    sigma2 = float(residuals @ residuals) / (nobs - ncols)
    xtx_inv = np.linalg.pinv(design.T @ design)
    se = np.sqrt(np.clip(sigma2 * np.diag(xtx_inv), 0.0, None))
    if se[0] == 0.0:
        raise ValueError("degenerate unit-root regression")
    statistic = float(beta[0] / se[0])
    critical_values = _interp_critical_values(_ADF_TABLE[kind], nobs)
    return ADFResult(
        statistic=statistic,
        lags_used=p,
        regression_kind=kind,
        critical_values=critical_values,
        reject_at=_finest_rejection(statistic, critical_values),
    )


def engle_granger(y: TimeSeries, x: TimeSeries) -> CointegrationResult:
    """Two-step residual-based cointegration test of y against x.

    Step 1 regresses y on x with an intercept; step 2 applies the
    unit-root test (no deterministic terms) to the residuals and judges
    it against the stricter residual-based critical values. An exact
    linear relation short-circuits to a degenerate cointegrated result.
    """
    if len(y) != len(x):
        raise ValueError("series lengths differ")
    if len(y) < 30:
        raise ValueError("need at least 30 observations")
    step1 = ols(x.values, y.values)
    residuals = step1.residuals
    scale = max(1.0, float(np.abs(y.values).max()))
    if float(np.abs(residuals).max()) <= 1e-12 * scale:
        degenerate_adf = ADFResult(
            statistic=-np.inf,
            lags_used=0,
            regression_kind="none",
            critical_values=_interp_critical_values(
                _ENGLE_GRANGER_TABLE, len(y)),
            reject_at="1%",
        )
        return CointegrationResult(
            step1=step1,
            residual_adf=degenerate_adf,
            cointegrated_at="1%",
            degenerate=True,
        )
    residual_series = TimeSeries(y.times, residuals)
    base = adf_test(residual_series, lags="auto", kind="none")
    critical_values = _interp_critical_values(
        _ENGLE_GRANGER_TABLE, len(residuals) - base.lags_used - 1)
    residual_adf = ADFResult(
        statistic=base.statistic,
        lags_used=base.lags_used,
        regression_kind="none",
        critical_values=critical_values,
        reject_at=_finest_rejection(base.statistic, critical_values),
    )
    return CointegrationResult(
        step1=step1,
        residual_adf=residual_adf,
        cointegrated_at=residual_adf.reject_at,
        degenerate=False,
    )


def simulate_adf_rejection_rate(process: str, reps: int, n: int,
                                level: str = "5%", kind: str = "constant",
                                phi: float = 0.5, seed: int = 0,
                                lags: int | str = "auto") -> float:
    """Monte Carlo rejection rate of the unit-root test, one rng per rep.

    ``process`` is ``random_walk`` (size check), ``ar1`` with the given
    coefficient, or ``white_noise`` (power checks). ``lags`` passes
    through to the test; power studies of short-memory alternatives
    should override the Schwert default, which is sized for lag search.
    """
    if level not in _LEVELS:
        raise ValueError(f"level must be one of {_LEVELS}")
    order = _LEVELS.index(level)
    rejections = 0
    for rep in range(reps):
        rng = np.random.default_rng(seed + rep)
        shocks = rng.standard_normal(n)
        if process == "random_walk":
            y = np.cumsum(shocks)
        elif process == "white_noise":
            y = shocks
        elif process == "ar1":
            y = np.empty(n)
            y[0] = shocks[0]
            for t in range(1, n):
                y[t] = phi * y[t - 1] + shocks[t]
        else:
            raise ValueError(f"unknown process {process!r}")
        result = adf_test(TimeSeries(np.arange(n, dtype=float), y),
                          lags=lags, kind=kind)
        if (result.reject_at is not None
                and _LEVELS.index(result.reject_at) <= order):
            rejections += 1
    return rejections / reps
