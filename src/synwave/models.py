"""Closed-form curve and wave evaluators with PDE residual checks.

Building blocks:

    logistic step    x(t) = x_sat / (1 + exp(-s (t - t0)))
    logistic rate    x'(t) = (x_sat s / 4) sech^2((s/2)(t - t0)); for s > 0
                     that is soliton_eval(fit.logistic_to_soliton(c), t)
    solitary pulse   A sech^2(k (t - c))
    traveling wave   u(X,T) = -(k^2/2) sech^2((k/2)(X - k^2 T))

A sum of solitary pulses over a vertical shift models differential data;
its running integral is a staircase of logistic steps, each pulse
integrating to a step of total height 2A/k. The traveling wave solves
u_T - 6 u u_X + u_XXX = 0, and ``rescaled_kdv_residual`` checks the rescaled
variant 4 R_T - 2 R R_X + R_XXX + C1 = 0. Residual norms use
second-order central stencils on interior grid points only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Exponential tails are cut to exactly zero beyond this argument size,
# inside the double-precision underflow region.
_TAIL_CUTOFF = 350.0


@dataclass(frozen=True)
class LogisticComponent:
    """One logistic step: saturation level, steepness, midpoint."""

    x_sat: float
    s: float
    t0: float

    def __post_init__(self):
        if self.x_sat <= 0.0:
            raise ValueError("x_sat must be positive")
        if self.s == 0.0:
            raise ValueError("steepness s must be nonzero")


@dataclass(frozen=True)
class SolitonComponent:
    """One sech^2 pulse: signed amplitude, width parameter, peak location."""

    amplitude: float
    k: float
    center: float

    def __post_init__(self):
        if self.amplitude == 0.0:
            raise ValueError("amplitude must be nonzero")
        if self.k <= 0.0:
            raise ValueError("width parameter k must be positive")


@dataclass(frozen=True)
class SolitonChainModel:
    """Vertical shift plus an ordered (by center) list of pulses."""

    beta: float
    components: tuple[SolitonComponent, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        centers = [c.center for c in comps]
        if centers != sorted(centers):
            comps = tuple(sorted(comps, key=lambda c: c.center))
        object.__setattr__(self, "components", comps)


def _check_uniform_grid(name: str, g: np.ndarray) -> None:
    """Raise unless the steps of ``g`` are strictly positive and constant
    within 1e-9 relative."""
    steps = np.diff(g)
    if np.any(steps <= 0.0):
        raise ValueError(f"{name} must be strictly increasing")
    h = steps[0] if steps.size else 0.0
    if np.any(np.abs(steps - h) > 1e-9 * max(1.0, abs(h))):
        raise ValueError(f"{name} must be uniformly spaced")


@dataclass(frozen=True)
class GridFunction:
    """2-D field sampled on a uniform (time, phase) grid.

    ``values[i, j]`` is the field at ``(t_grid[i], x_grid[j])``.
    """

    x_grid: np.ndarray
    t_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x_grid, dtype=float)
        t = np.asarray(self.t_grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        for name, g in (("x_grid", x), ("t_grid", t)):
            if g.ndim != 1 or g.size < 2:
                raise ValueError(f"{name} must be 1-D with at least 2 points")
            _check_uniform_grid(name, g)
        if v.shape != (t.size, x.size):
            raise ValueError(
                f"values shape {v.shape} does not match (t={t.size}, x={x.size})"
            )
        object.__setattr__(self, "x_grid", x)
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "values", v)

    @property
    def dx(self) -> float:
        return float(self.x_grid[1] - self.x_grid[0])

    @property
    def dt(self) -> float:
        return float(self.t_grid[1] - self.t_grid[0])


def _sech_squared(z):
    """Numerically stable sech^2; exactly 0 beyond the tail cutoff.

    The exponent is capped at the cutoff, so even |z| near the largest
    double neither overflows nor warns.
    """
    a = np.abs(np.asarray(z, dtype=float))
    e = np.exp(-2.0 * np.minimum(a, _TAIL_CUTOFF))
    return np.where(a <= _TAIL_CUTOFF, 4.0 * e / (1.0 + e) ** 2, 0.0)


def _sigmoid(z):
    """Stable logistic sigmoid; exactly 0 and 1 beyond the tail cutoff."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.minimum(np.abs(z), _TAIL_CUTOFF))
    out = np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    return np.where(z < -_TAIL_CUTOFF, 0.0, out)


def logistic_eval(c: LogisticComponent, t):
    """Logistic step value; stable for arguments out to +-700."""
    return c.x_sat * _sigmoid(c.s * (np.asarray(t, dtype=float) - c.t0))


def soliton_eval(sol: SolitonComponent, t):
    """Pulse value A sech^2(k (t - center)); even about the center."""
    z = sol.k * (np.asarray(t, dtype=float) - sol.center)
    return sol.amplitude * _sech_squared(z)


def _flat_chain(beta, a, k, c, t):
    """beta + sum of a_i sech^2(z_i), with z_i = k_i (t - c_i), and z and
    sech^2 z, one row per pulse.

    ``a``, ``k`` and ``c`` hold one entry per pulse along a leading axis
    and broadcast against the array ``t``; the pulses are added in
    center order.
    """
    z = k * (t - c)
    s = _sech_squared(z)
    return _add_pulses(np.full(t.shape, beta, dtype=float), a * s, c), z, s


def _flat_staircase(a, k, c, t):
    """Running integral of the pulse sum, sum of (a_i/k_i)(1 + tanh z_i),
    and z and tanh z, laid out as in ``_flat_chain``."""
    z = k * (t - c)
    th = np.tanh(z)
    steps = (a / k) * (1.0 + th)
    return _add_pulses(np.zeros(t.shape), steps, c), z, th


def _add_pulses(out, rows, c):
    """``out`` plus the pulse rows, one at a time in (stable) center order,
    so every sum rounds as a pulse-by-pulse loop over the model does."""
    for i in np.argsort(c.ravel(), kind="stable"):
        out += rows[i]
    return out


def _pulse_columns(m: SolitonChainModel, t: np.ndarray):
    """The model's amplitudes, widths and centers shaped for ``_flat_chain``."""
    columns = np.array([(p.amplitude, p.k, p.center) for p in m.components],
                       dtype=float).reshape(-1, 3)
    return columns.T.reshape((3, len(m.components)) + (1,) * t.ndim)


def chain_eval(m: SolitonChainModel, t):
    """Vertical shift plus the sum of all pulses."""
    t_arr = np.asarray(t, dtype=float)
    value, _, _ = _flat_chain(m.beta, *_pulse_columns(m, t_arr), t_arr)
    return value


def cumulative_chain_eval(m: SolitonChainModel, t):
    """Running integral of the pulse sum from t = -infinity (shift excluded).

    Each pulse contributes (A/k)(1 + tanh(k (t - c))), a logistic step of
    total height 2A/k centered at c. The baseline is 0; callers add their
    own offset.
    """
    t_arr = np.asarray(t, dtype=float)
    value, _, _ = _flat_staircase(*_pulse_columns(m, t_arr), t_arr)
    return value


def kdv_soliton(k: float, x, t):
    """Traveling solitary-wave solution of u_T - 6 u u_X + u_XXX = 0.

    u = -(k^2/2) sech^2((k/2)(X - k^2 T)); a trough of depth k^2/2 moving
    at speed k^2.
    """
    if k <= 0.0:
        raise ValueError("k must be positive")
    x_arr = np.asarray(x, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    z = 0.5 * k * (x_arr - k * k * t_arr)
    return -0.5 * k * k * _sech_squared(z)


def sample_grid(f, x_grid, t_grid) -> GridFunction:
    """Sample ``f(x_vector, t_scalar)`` row by row onto a GridFunction."""
    x = np.asarray(x_grid, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    values = np.empty((t.size, x.size), dtype=float)
    for i in range(t.size):
        values[i, :] = f(x, t[i])
    return GridFunction(x, t, values)


def _pde_residual(g: GridFunction, time_coef: float, nonlin_coef: float,
                  forcing: float) -> float:
    """Max |time_coef u_T + nonlin_coef u u_X + u_XXX + forcing| on the interior.

    Central stencils: 3-point first derivatives, 5-point third derivative.
    Evaluation streams over time rows, so only O(row) extra memory is used.
    """
    v = g.values
    nt, nx = v.shape
    if nt < 5 or nx < 5:
        raise ValueError("residual stencils need at least 5 points per axis")
    hx = g.dx
    ht = g.dt
    worst = 0.0
    for i in range(1, nt - 1):
        row = v[i]
        u_t = (v[i + 1, 2:-2] - v[i - 1, 2:-2]) / (2.0 * ht)
        u_x = (row[3:-1] - row[1:-3]) / (2.0 * hx)
        u_xxx = (row[4:] - 2.0 * row[3:-1] + 2.0 * row[1:-3] - row[:-4]) / (
            2.0 * hx ** 3
        )
        res = time_coef * u_t + nonlin_coef * row[2:-2] * u_x + u_xxx + forcing
        worst = max(worst, float(np.abs(res).max()))
    return worst


def kdv_residual(g: GridFunction) -> float:
    """Max-absolute residual of u_T - 6 u u_X + u_XXX on interior points.

    Second-order accurate, so the result shrinks about 4x when both grid
    steps halve; steps should satisfy k h <= 0.1 for the narrowest feature.
    """
    return _pde_residual(g, time_coef=1.0, nonlin_coef=-6.0, forcing=0.0)


def rescaled_kdv_residual(g: GridFunction, c1: float) -> float:
    """Max-absolute residual of 4 R_T - 2 R R_X + R_XXX + C1 on the interior."""
    return _pde_residual(g, time_coef=4.0, nonlin_coef=-2.0, forcing=float(c1))
