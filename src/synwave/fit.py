"""Least-squares fitting of pulse chains and their staircases, plus OLS,
the one straight-line fit.

One model in one parameterisation, (beta, then A, log k, c per pulse),
fits differential data as a sech^2 chain and cumulative data as its
running integral, a staircase of steps x_sat = 2A/k, s = 2k, t0 = c.
One damped least-squares loop (Levenberg-Marquardt, closed-form
Jacobian, at most 500 iterations) fits both and gives standard errors.
The shift is free and the pulse count fixed. A chain of n pulses is
the logistic-CWT extraction of n waves (``lcwt.extract_waves``), whose
last joint refit is the fit; a staircase is seeded at its own level
crossings.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import (
    LogisticComponent,
    SolitonChainModel,
    SolitonComponent,
    _check_uniform_grid,
    _flat_chain,
    _flat_staircase,
    _sech_squared,
)

_DAMPING_START = 1e-3
_DAMPING_MAX = 1e12
_REL_SSE_TOL = 1e-10
_GRAD_TOL = 1e-8
_MAX_ITERATIONS = 500
# stands in for a fitted amplitude of exactly 0, which a pulse may not have
_TINY = float(np.finfo(float).tiny)
# log k is clipped to this range, which keeps exp(log k) finite when a
# degenerate fit runs the log-width out of range
_LOG_K_CLIP = 50.0


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled finite series: strictly increasing constant-step times."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.ndim != 1:
            raise ValueError("times and values must be 1-D")
        if t.size != v.size:
            raise ValueError("times and values differ in length")
        if t.size == 0:
            raise ValueError("empty series")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("times and values must be finite")
        _check_uniform_grid("times", t)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def dt(self) -> float:
        if self.times.size < 2:
            return 1.0
        return float(self.times[1] - self.times[0])


@dataclass(frozen=True)
class RegressionResult:
    """Simple OLS summary: y = B x + C with the usual diagnostics."""

    slope: float
    intercept: float
    t_values: np.ndarray          # (t for slope, t for intercept)
    r_squared: float
    adjusted_r_squared: float
    n_observations: int
    residuals: np.ndarray

    def to_dict(self) -> dict:
        return {
            "B": self.slope,
            "C": self.intercept,
            "t_values": self.t_values.tolist(),
            "r2": self.r_squared,
            "adj_r2": self.adjusted_r_squared,
            "n": self.n_observations,
        }


@dataclass(frozen=True)
class FitResult:
    """Outcome of a nonlinear chain fit, of pulses or of their staircase.

    ``standard_errors`` line up with the flat parameter vector
    (beta, then A, k, center per component, in center order).
    ``model.components[i]`` started as ``init.components[order[i]]``.
    """

    model: SolitonChainModel
    sse: float
    iterations: int
    converged: bool
    standard_errors: np.ndarray
    sse_history: tuple[float, ...]
    order: tuple[int, ...]

    @property
    def degenerate(self) -> bool:
        """Whether any standard error is not finite."""
        return not np.isfinite(self.standard_errors).all()


def ols(x, y) -> RegressionResult:
    """Closed-form simple regression of y on x with an intercept, n >= 2.

    Two points give an exact line; with no residual degrees of freedom
    its adjusted r^2 and t-values are nan.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D and equally long")
    n = x.size
    if n < 2:
        raise ValueError("need at least 2 observations")
    x_mean = float(x.mean())
    y_mean = float(y.mean())
    sxx = float(((x - x_mean) ** 2).sum())
    if sxx == 0.0:
        raise ValueError("zero-variance x")
    sxy = float(((x - x_mean) * (y - y_mean)).sum())
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    residuals = y - (slope * x + intercept)
    sse = float((residuals ** 2).sum())
    sst = float(((y - y_mean) ** 2).sum())
    r2 = 1.0 if sst == 0.0 else 1.0 - sse / sst
    if n == 2:
        adj_r2 = t_slope = t_intercept = float("nan")
    else:
        adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - 2)
        sigma2 = sse / (n - 2)
        se_slope = np.sqrt(sigma2 / sxx)
        se_intercept = np.sqrt(sigma2 * (1.0 / n + x_mean ** 2 / sxx))

        def t_ratio(coef, se):
            if se > 0.0:
                return coef / se
            return 0.0 if coef == 0.0 else np.inf * np.sign(coef)

        t_slope = t_ratio(slope, se_slope)
        t_intercept = t_ratio(intercept, se_intercept)
    return RegressionResult(
        slope=slope,
        intercept=intercept,
        t_values=np.array([t_slope, t_intercept]),
        r_squared=r2,
        adjusted_r_squared=adj_r2,
        n_observations=n,
        residuals=residuals,
    )


def levenberg_marquardt(evaluate, p0):
    """Damped least squares minimizing sum(r^2), where ``(r, jacobian) =
    evaluate(p)``.

    ``jacobian()`` builds r's Jacobian at that same p, one row per
    residual and one column per parameter; LM calls it once per
    iteration, at the last accepted point, and returns that point's
    function last. The damping factor starts at 1e-3, shrinks 10x after
    an accepted step and grows 10x after a rejected one. Converged when
    the relative SSE drop of an accepted step falls below 1e-10 or when
    every Jacobian column is within 1e-8 of orthogonal to the residual,
    |J_j' r| <= 1e-8 |J_j| |r| (MINPACK's gradient test, More 1978; a
    zero column passes); both rules are free of the units of the data
    and the parameters. Returns best-so-far on stall or after 500
    iterations.
    """
    params = np.asarray(p0, dtype=float).copy()
    residual, jacobian = evaluate(params)
    if not np.isfinite(residual).all():
        raise ValueError("residuals are not finite at the starting point")
    sse = float(residual @ residual)
    damping = _DAMPING_START
    history = [sse]
    converged = False
    iterations = 0
    # the diagonal of a (p, p) matrix, as a slice of its flat view
    diagonal = slice(None, None, params.size + 1)
    for iterations in range(1, _MAX_ITERATIONS + 1):
        jac = jacobian()
        jac_t = jac.T
        grad = jac_t @ residual
        jtj = jac_t @ jac
        diag = jtj.ravel()[diagonal].copy()
        if (np.abs(grad) <= _GRAD_TOL * np.sqrt(diag) * np.sqrt(sse)).all():
            converged = True
            break
        diag[diag <= 0.0] = 1.0
        accepted = False
        while damping < _DAMPING_MAX:
            damped = jtj.copy()
            damped.ravel()[diagonal] += damping * diag
            try:
                step = np.linalg.solve(damped, -grad)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and np.isfinite(step).all():
                trial = params + step
                trial_residual, trial_jacobian = evaluate(trial)
                trial_sse = float(trial_residual @ trial_residual)
                if np.isfinite(trial_sse) and trial_sse <= sse:
                    accepted = True
                    break
            damping *= 10.0
        if not accepted:
            break
        drop = (sse - trial_sse) / max(sse, np.finfo(float).tiny)
        params, residual, jacobian = trial, trial_residual, trial_jacobian
        sse = trial_sse
        history.append(sse)
        damping = max(damping / 10.0, 1e-15)
        if drop < _REL_SSE_TOL:
            converged = True
            break
    return params, residual, sse, iterations, converged, history, jacobian


def _chain_pack(model: SolitonChainModel) -> np.ndarray:
    flat = [model.beta]
    for comp in model.components:
        flat.extend([comp.amplitude, np.log(comp.k), comp.center])
    return np.asarray(flat, dtype=float)


def _chain_columns(params: np.ndarray):
    """Amplitudes, widths and centers of flat ``params`` as (p, 1) columns.

    An amplitude of exactly 0, which a pulse may not have, is read as
    _TINY, and log k is clipped.
    """
    a = params[1::3, None]
    k = np.exp(np.minimum(np.maximum(params[2::3, None], -_LOG_K_CLIP),
                          _LOG_K_CLIP))
    return np.where(a == 0.0, _TINY, a), k, params[3::3, None]


def _chain_unpack(params: np.ndarray) -> SolitonChainModel:
    """The model of flat ``params``, read by ``_chain_columns``."""
    return SolitonChainModel(beta=float(params[0]), components=tuple(
        SolitonComponent(*pulse)
        for pulse in np.hstack(_chain_columns(params)).tolist()))


def _pulse_form(params: np.ndarray, times: np.ndarray):
    """The chain's value at flat ``params``, and a function giving its
    per-pulse d/dA, d/dlog k, d/dc from the same z and sech^2 z."""
    a, k, c = _chain_columns(params)
    value, z, s = _flat_chain(params[0], a, k, c, times)

    def partials():
        th = np.tanh(z)
        return s, -2.0 * a * s * th * z, 2.0 * a * k * s * th

    return value, partials


def _step_form(params: np.ndarray, times: np.ndarray):
    """The staircase's value at flat ``params`` (beta plus the running
    integral of the pulses), and its partials from the same z and tanh z."""
    a, k, c = _chain_columns(params)
    steps, z, th = _flat_staircase(a, k, c, times)

    def partials():
        s = _sech_squared(z)
        rise = 1.0 + th
        return rise / k, (a / k) * (s * z - rise), -a * s

    return params[0] + steps, partials


def _chain_jacobian(params: np.ndarray, partials) -> np.ndarray:
    """Closed-form Jacobian of a chain form's residual at flat ``params``.

    ``partials`` are the form's per-pulse columns d/dA, d/dlog k, d/dc
    there, one row per pulse. log k has no effect outside its clip, and
    sech^2 is exactly 0 beyond the model's tail cutoff.
    """
    d_a, d_log_k, d_c = partials
    jac = np.empty((d_a.shape[1], params.size))
    jac[:, 0] = 1.0
    jac[:, 1::3] = d_a.T
    jac[:, 2::3] = np.where(np.abs(params[2::3, None]) > _LOG_K_CLIP, 0.0,
                            d_log_k).T
    jac[:, 3::3] = d_c.T
    return jac


def _standard_errors(jac: np.ndarray, sse: float) -> np.ndarray:
    """Asymptotic per-parameter errors from the residual's Jacobian at the
    solution, one column per parameter.

    Parameters lying along a numerically singular direction of J'J get
    an infinite error; that is how degenerate fits (for example a pulse
    whose amplitude collapsed to zero) are flagged.
    """
    m, p = jac.shape
    dof = m - p
    if dof <= 0:
        return np.full(p, np.inf)
    sigma2 = sse / dof
    w, v = np.linalg.eigh(jac.T @ jac)
    w_max = float(w.max()) if w.size else 0.0
    keep = w > w_max * 1e-12 if w_max > 0.0 else np.zeros_like(w, dtype=bool)
    errors = np.empty(p)
    for j in range(p):
        weights = v[j] ** 2
        total = float(weights.sum())
        if not keep.any() or float(weights[~keep].sum()) > 1e-12 * total:
            errors[j] = np.inf
        else:
            errors[j] = np.sqrt(sigma2 * float((weights[keep] / w[keep]).sum()))
    return errors


def max_pulses(samples: int) -> int:
    """Most pulses a chain fit takes on this many samples: 3 parameters a
    pulse plus beta, and more samples than parameters (3p + 1 < samples)."""
    return (samples - 2) // 3


def _fit_chain(series: TimeSeries, init: SolitonChainModel, form) -> FitResult:
    """Fit a chain form to the series, starting from ``init``.

    ``form(params, times)`` is the form's value at flat parameters and a
    function giving its per-pulse partials (``_pulse_form`` for the pulse
    chain, ``_step_form`` for the staircase). One evaluation gives LM the
    residual and a function building the Jacobian from that evaluation's
    terms, so the Jacobian LM takes at the point it accepted reuses them.
    Components come out in center order (``order``), error rows with
    them; a width's error is mapped back from log space as k * se(log k).
    """
    n = len(init.components)
    if n > max_pulses(len(series)):
        raise ValueError(f"series too short to fit {n} components")

    def evaluate(params):
        value, partials = form(params, series.times)
        return (value - series.values,
                lambda: _chain_jacobian(params, partials()))

    params, _, sse, iterations, converged, history, jacobian = (
        levenberg_marquardt(evaluate, _chain_pack(init)))
    errors = _standard_errors(jacobian(), sse)
    model = _chain_unpack(params)
    # the model sorts its components by center; the error rows follow
    order = np.argsort(params[3::3], kind="stable")
    body = errors[1:].reshape(n, 3)[order]
    body[:, 1] *= [c.k for c in model.components]
    errors = np.concatenate([errors[:1], body.ravel()])
    return FitResult(model, sse, iterations, converged, errors,
                     tuple(history), tuple(order.tolist()))


def fit_soliton_chain(series: TimeSeries, n: int | None = None,
                      init: SolitonChainModel | None = None) -> FitResult:
    """Fit beta + sum of A_i sech^2(k_i (t - c_i)) to the series.

    Starts from ``init``; else the fit is the last joint refit of the
    wave extraction with at most ``n`` waves, which must keep all ``n``.
    Widths are optimized as log(k).
    """
    if init is None:
        if n is None:
            raise ValueError("give a component count or an initial model")
        if n < 1:
            raise ValueError("component count must be at least 1")
        room = max_pulses(len(series))
        if n > room:
            raise ValueError(f"series has room for only {room} pulses")
        # imported here because lcwt imports this module
        from .lcwt import extract_waves
        result = extract_waves(series, max_waves=n).fit
        found = 0 if result is None else len(result.model.components)
        if found < n:
            raise ValueError(f"extraction found {found} of {n} waves")
        return result
    return _fit_chain(series, init, _pulse_form)


def soliton_to_logistic(comp: SolitonComponent) -> LogisticComponent:
    """Pulse (A, k, c) to the logistic step whose derivative it is."""
    return LogisticComponent(
        x_sat=2.0 * comp.amplitude / comp.k,
        s=2.0 * comp.k,
        t0=comp.center,
    )


def logistic_to_soliton(comp: LogisticComponent) -> SolitonComponent:
    """Logistic step (x_sat, s, t0) to its derivative pulse."""
    return SolitonComponent(
        amplitude=comp.x_sat * comp.s / 4.0,
        k=comp.s / 2.0,
        center=comp.t0,
    )


def fit_logistic_sum(cumulative: TimeSeries, n: int) -> FitResult:
    """Fit baseline + a staircase of n logistic steps to cumulative data.

    The staircase is fitted as the running integral of a pulse chain,
    ``beta + cumulative_chain_eval``. Step i is seeded where the series
    first climbs (i + 1/2)/n of its total rise from the first value: the
    pulse takes the series slope there, and k makes the step rise / n
    tall (a step without a rise of the slope's sign starts at k = 1/dt).
    The result is in chain form: ``model.beta`` is the baseline, and
    ``soliton_to_logistic`` maps each pulse to its step (x_sat = 2A/k,
    s = 2k, t0 = c).
    """
    if n < 1:
        raise ValueError("step count must be at least 1")
    values = cumulative.values
    rise = float(values[-1] - values[0])
    slope = np.gradient(values, cumulative.dt)
    climbed = (values - values[0]) * np.sign(rise)
    params = [values[0]]
    for i in range(n):
        j = int(np.argmax(climbed >= (i + 0.5) / n * abs(rise)))
        a = float(slope[j])
        k = 2.0 * a * n / rise if a * rise > 0.0 else 1.0 / cumulative.dt
        params += [a, np.log(k), cumulative.times[j]]
    return _fit_chain(cumulative, _chain_unpack(np.array(params)), _step_form)
