"""Unit-root and cointegration tests for the validation protocol.

``adf_test`` regresses the differenced series on its lagged level,
lagged differences, and optional deterministic terms; the test statistic
is the t-ratio of the lagged-level coefficient. ``engle_granger`` runs
the two-step residual-based cointegration test: OLS of y on x with an
intercept, then a no-deterministic-terms unit-root test on the
residuals against stricter critical values.

Critical values come from the MacKinnon (2010, QED working paper 1227)
response surfaces cv(n) = b_inf + b1/n + b2/n^2 + b3/n^3, a cubic in
1/n evaluated at the regression's observation count n; below n = 25
the n = 25 value applies.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fit import TimeSeries, RegressionResult, ols

REGRESSION_KINDS = ("none", "constant", "constant+trend")
_LEVELS = ("1%", "5%", "10%")

# one (b_inf, b1, b2, b3) row per level, rows follow _LEVELS
_ADF_SURFACES = {
    "none": (
        (-2.56574, -2.2358, -3.627, 0.0),
        (-1.94100, -0.2686, -3.365, 31.223),
        (-1.61682, 0.2656, -2.714, 25.364),
    ),
    "constant": (
        (-3.43035, -6.5393, -16.786, -79.433),
        (-2.86154, -2.8903, -4.234, -40.040),
        (-2.56677, -1.5384, -2.809, 0.0),
    ),
    "constant+trend": (
        (-3.95877, -9.0531, -28.428, -134.155),
        (-3.41049, -4.3904, -9.036, -45.374),
        (-3.12705, -2.5856, -3.925, -22.380),
    ),
}

# residual-based cointegration test, two series, intercept in step 1
_ENGLE_GRANGER_SURFACE = (
    (-3.89644, -10.9519, -22.527, 0.0),
    (-3.33613, -6.1101, -6.823, 0.0),
    (-3.04445, -4.2412, -2.720, 0.0),
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


def _critical_values(surface, n_obs: float) -> dict[str, float]:
    q = 1.0 / max(n_obs, 25)
    return {level: b_inf + b1 * q + b2 * q ** 2 + b3 * q ** 3
            for level, (b_inf, b1, b2, b3) in zip(_LEVELS, surface)}


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
    return _unit_root(series.values, lags, kind, _ADF_SURFACES[kind])


def _unit_root(y: np.ndarray, lags: int | str, kind: str,
               surface) -> ADFResult:
    """``adf_test``'s regression of the values ``y``, judged by
    ``surface`` at its n."""
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
    pinv = np.linalg.pinv(design)
    beta = pinv @ response
    sigma = np.linalg.norm(response - design @ beta) / np.sqrt(nobs - ncols)
    se = float(sigma * np.linalg.norm(pinv[0]))    # (X'X)^-1 = X+ X+'
    if se == 0.0:
        raise ValueError("degenerate unit-root regression")
    statistic = float(beta[0] / se)
    critical_values = _critical_values(surface, nobs)
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
            critical_values=_critical_values(_ENGLE_GRANGER_SURFACE, len(y)),
            reject_at="1%",
        )
        return CointegrationResult(step1=step1, residual_adf=degenerate_adf,
                                   cointegrated_at="1%", degenerate=True)
    residual_adf = _unit_root(residuals, "auto", "none", _ENGLE_GRANGER_SURFACE)
    return CointegrationResult(step1=step1, residual_adf=residual_adf,
                               cointegrated_at=residual_adf.reject_at)


def simulate_adf_rejection_rate(process: str, reps: int, n: int,
                                level: str = "5%", phi: float = 0.5,
                                seed: int = 0, lags: int | str = "auto"
                                ) -> float:
    """Monte Carlo rejection rate of the constant-only unit-root test,
    one rng per rep.

    ``process`` is ``random_walk`` (size check), ``ar1`` with the given
    coefficient, or ``white_noise`` (power checks). ``lags`` passes
    through to the test; power studies of short-memory alternatives
    should override the Schwert default, which is sized for lag search.
    """
    if level not in _LEVELS:
        raise ValueError(f"level must be one of {_LEVELS}")
    if process not in ("random_walk", "white_noise", "ar1"):
        raise ValueError(f"unknown process {process!r}")
    if reps < 1:
        raise ValueError("reps must be at least 1")
    order = _LEVELS.index(level)
    rejections = 0
    for rep in range(reps):
        rng = np.random.default_rng(seed + rep)
        shocks = rng.standard_normal(n)
        if process == "random_walk":
            y = np.cumsum(shocks)
        elif process == "white_noise":
            y = shocks
        else:
            y = np.empty(n)
            y[0] = shocks[0]
            for t in range(1, n):
                y[t] = phi * y[t - 1] + shocks[t]
        result = adf_test(TimeSeries(np.arange(n, dtype=float), y),
                          lags=lags)
        if (result.reject_at is not None
                and _LEVELS.index(result.reject_at) <= order):
            rejections += 1
    return rejections / reps
