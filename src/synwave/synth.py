"""Seeded synthetic series: demo inputs and test oracles.

The corn-like generator reproduces a commodity-price-shaped window, a
vertical shift of 310.75 under three sech^2 pulses, with seeded Gaussian
noise at a fraction of the largest pulse amplitude. The patent-like
generator emits a cumulative staircase of logistic steps. Regenerating
with the same seed is byte-identical.
"""
from __future__ import annotations

import numpy as np

from ._floatcsv import write_table
from .fit import TimeSeries
from .models import (
    LogisticComponent,
    SolitonChainModel,
    SolitonComponent,
    chain_eval,
    logistic_eval,
)

CORN_BETA = 310.75
CORN_PULSES = (
    (71.75, 0.03, 54.16),
    (208.21, 0.04, 122.4),
    (370.57, 0.02, 201.0),
)
CORN_SAMPLES = 241
CORN_NOISE_FRACTION = 0.01


def corn_like_model() -> SolitonChainModel:
    """The noise-free chain behind the corn-like generator."""
    return SolitonChainModel(
        beta=CORN_BETA,
        components=tuple(SolitonComponent(*p) for p in CORN_PULSES),
    )


def corn_like_series(seed: int, n: int = CORN_SAMPLES) -> TimeSeries:
    """Three-pulse chain plus seeded noise sized against the tallest pulse."""
    rng = np.random.default_rng(seed)
    times = np.arange(n, dtype=float)
    clean = chain_eval(corn_like_model(), times)
    sigma = CORN_NOISE_FRACTION * max(abs(p[0]) for p in CORN_PULSES)
    return TimeSeries(times, clean + sigma * rng.standard_normal(n))


def patent_like_series(seed: int, n: int = 42) -> TimeSeries:
    """Monotone cumulative staircase of seeded logistic steps."""
    rng = np.random.default_rng(seed)
    times = np.arange(n, dtype=float)
    values = np.full(n, 40.0 + 20.0 * rng.random())
    n_steps = 3
    for i in range(n_steps):
        component = LogisticComponent(
            x_sat=float(rng.uniform(200.0, 600.0)),
            s=float(rng.uniform(0.3, 0.8)),
            t0=float(n * (i + 0.7) / (n_steps + 0.5) + rng.uniform(-2.0, 2.0)),
        )
        values = values + logistic_eval(component, times)
    return TimeSeries(times, values)


def noise_series(seed: int, n: int = 1000) -> TimeSeries:
    """Standard normal draws on a unit time grid."""
    rng = np.random.default_rng(seed)
    return TimeSeries(np.arange(n, dtype=float), rng.standard_normal(n))


def synthetic_series(kind: str, seed: int, n: int | None = None) -> tuple:
    """One seeded dataset as a ``t,value`` table, ``(header, columns)``;
    without ``n`` the generator's own default length applies."""
    if n is not None and n < 1:
        raise ValueError("n must be at least 1")
    generators = {"corn-like": corn_like_series,
                  "patent-like": patent_like_series, "noise": noise_series}
    if kind not in generators:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    series = generators[kind](seed, **({} if n is None else {"n": n}))
    return ("t", "value"), (series.times.tolist(), series.values.tolist())


def generate_synthetic(kind: str, seed: int, path, n: int | None = None) -> None:
    """Write the table that ``synwave synth`` writes to ``path``, without
    its ``#`` lines."""
    table = synthetic_series(kind, seed, n)
    with open(path, "w", encoding="utf-8") as fh:
        write_table(fh, *table)
