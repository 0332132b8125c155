"""Benchmark workloads: seeded input generators, the timed op, output checks.

Every input is a pure function of ``(seed, index)``: ``seed`` is the
benchmark's ``--seed`` and ``index`` numbers the ops of one run, so the
same seed gives the same inputs and no two ops of a run share one. The
program receives only the generated inputs. Generation and checking run
outside the timed op. ``synwave`` and numpy are imported inside the
functions, so that a setup probe times their cold import first.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Any, Callable

# input index of the untimed warm-up op; measured ops count up from 0
WARMUP_INDEX = 999_999
# a recovered pulse center must lie this close to the generator's truth
CENTER_TOLERANCE = 2.0
# relative tolerance of an ADF statistic against the benchmark's recompute
ADF_STATISTIC_TOLERANCE = 1e-10


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``make_input(seed, index, work_dir)`` builds an op's input (it may
    write files under ``work_dir``), ``run(inp, out_dir)`` is the timed
    op, and ``check(inp, out_dir, result)`` returns ``None`` when the
    output is right and a one-line reason otherwise. ``nominal_op_s`` is
    the op's cost when the benchmark was written; it sizes the fixed op
    list of a traced run. ``setup_probes`` fresh interpreters measure
    set-up, each on an input from ``make_probe_input`` (``make_input``
    when not given). ``imports`` are the modules a fresh user process
    imports.
    """

    name: str
    make_input: Callable[[int, int, Path], Any]
    run: Callable[[Any, Path], Any]
    check: Callable[[Any, Path, Any], str | None]
    nominal_op_s: float
    setup_probes: int
    imports: tuple[str, ...] = ("synwave",)
    make_probe_input: Callable[[int, int, Path], Any] | None = None


def _centers_off(got, truth) -> str | None:
    """Reason the sorted centers miss the truth by more than the tolerance."""
    got = sorted(got)
    truth = sorted(truth)
    if len(got) != len(truth):
        return f"{len(got)} centers, want {len(truth)}"
    worst = max(abs(g - t) for g, t in zip(got, truth))
    if not worst <= CENTER_TOLERANCE:
        return f"a center is {worst:.4g} samples off"
    return None


# --- corn: the paper's pipeline on corn-price-shaped series ---------------


@dataclass(frozen=True)
class CornInput:
    csv: Path
    series_seed: int


def _corn_input(seed: int, index: int, work_dir: Path) -> CornInput:
    from synwave import synth

    series_seed = seed * 1_000_000 + index
    csv = work_dir / f"corn_{series_seed}.csv"
    synth.generate_synthetic("corn-like", series_seed, csv)
    return CornInput(csv, series_seed)


def _corn_run(inp: CornInput, out_dir: Path) -> int:
    from synwave import cli

    argv = ["pipeline", "--input", str(inp.csv), "--seed",
            str(inp.series_seed), "--out-dir", str(out_dir), "--svg"]
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _corn_check(inp: CornInput, out_dir: Path, exit_code: int) -> str | None:
    from synwave import synth

    if exit_code != 0:
        return f"exit code {exit_code}"
    truth = [c for _, _, c in synth.CORN_PULSES]
    fit = json.loads((out_dir / "fit_report.json").read_text())
    off = _centers_off([c["center"] for c in fit["components"]], truth)
    if off:
        return f"fit_report.json: {off}"
    waves = json.loads((out_dir / "wave_trains.json").read_text())["waves"]
    off = _centers_off([w["center"] for w in waves], truth)
    if off:
        return f"wave_trains.json: {off}"
    return None


# --- corn_cwt: the pipeline's CLI steps that do not fit the chain ---------


def _corn_cwt_run(inp: CornInput, out_dir: Path) -> tuple[int, int]:
    from synwave import cli

    common = ["--input", str(inp.csv), "--seed", str(inp.series_seed),
              "--out-dir", str(out_dir)]
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["cwt", *common, "--svg"]), cli.main(["adf", *common])


def _adf_statistic(y, lags: int) -> float:
    """t-ratio of the lagged level in the ADF regression with a constant,
    from a QR solve, independent of stats.adf_test's lstsq and pinv."""
    import numpy as np

    d = np.diff(y)
    rows = range(lags, y.size - 1)
    design = np.array([[y[i], *(d[i - j] for j in range(1, lags + 1)), 1.0]
                       for i in rows])
    response = d[lags:]
    q, r = np.linalg.qr(design)
    beta = np.linalg.solve(r, q.T @ response)
    residuals = response - design @ beta
    sigma2 = residuals @ residuals / (design.shape[0] - design.shape[1])
    r_inv = np.linalg.inv(r)
    return float(beta[0] / math.sqrt(sigma2 * (r_inv[0] @ r_inv[0])))


def _corn_cwt_check(inp: CornInput, out_dir: Path,
                    exit_codes: tuple[int, int]) -> str | None:
    from synwave import synth

    if exit_codes != (0, 0):
        return f"exit codes {exit_codes}"
    truth = [c for _, _, c in synth.CORN_PULSES]
    waves = json.loads((out_dir / "wave_trains.json").read_text())["waves"]
    off = _centers_off([w["center"] for w in waves], truth)
    if off:
        return f"wave_trains.json: {off}"
    adf = json.loads((out_dir / "adf.json").read_text())
    y = synth.corn_like_series(inp.series_seed).values
    lags = math.floor(12.0 * (y.size / 100.0) ** 0.25)
    if adf["lags"] != lags or adf["kind"] != "constant":
        return f"adf.json: lags {adf['lags']}, kind {adf['kind']}"
    want = _adf_statistic(y, lags)
    if not abs(adf["statistic"] - want) <= ADF_STATISTIC_TOLERANCE * abs(want):
        return f"adf.json: statistic {adf['statistic']!r}, recompute {want!r}"
    return None


# --- long: chain fit and wave extraction on long mixed-sign chains --------

LONG_PULSES = 8
LONG_MIN_SAMPLES = 3000
LONG_MAX_SAMPLES = 5000
LONG_NEGATIVE_PROBABILITY = 0.25
LONG_NOISE_SIGMA = 1.5


@dataclass(frozen=True)
class LongInput:
    series: Any                 # synwave.fit.TimeSeries
    centers: tuple[float, ...]


def _long_input(seed: int, index: int, work_dir: Path) -> LongInput:
    """Eight pulses spread evenly with jitter, widths a tenth of the spacing."""
    import numpy as np

    from synwave import models
    from synwave.fit import TimeSeries

    rng = np.random.default_rng([seed, index])
    n = int(rng.integers(LONG_MIN_SAMPLES, LONG_MAX_SAMPLES + 1))
    spacing = n / LONG_PULSES
    components = []
    for i in range(LONG_PULSES):
        center = (i + 0.5 + rng.uniform(-0.1, 0.1)) * spacing
        half_width = spacing * rng.uniform(0.06, 0.12)
        amplitude = rng.uniform(60.0, 150.0)
        if rng.random() < LONG_NEGATIVE_PROBABILITY:
            amplitude = -amplitude
        components.append(models.SolitonComponent(
            float(amplitude), float(np.log(1.0 + np.sqrt(2.0)) / half_width),
            float(center)))
    chain = models.SolitonChainModel(beta=100.0, components=tuple(components))
    times = np.arange(n, dtype=float)
    values = (models.chain_eval(chain, times)
              + LONG_NOISE_SIGMA * rng.standard_normal(n))
    return LongInput(TimeSeries(times, values),
                     tuple(c.center for c in components))


def _long_run(inp: LongInput, out_dir: Path):
    from synwave import fit, lcwt

    chain = fit.fit_soliton_chain(inp.series, LONG_PULSES)
    waves = lcwt.extract_waves(inp.series, max_waves=12, energy_stop=0.05)
    return chain, waves


def _long_check(inp: LongInput, out_dir: Path, result) -> str | None:
    chain, extraction = result
    off = _centers_off([c.center for c in chain.model.components], inp.centers)
    if off:
        return f"fit_soliton_chain: {off}"
    off = _centers_off([w.center for w in extraction.waves], inp.centers)
    if off:
        return f"extract_waves: {off}"
    return None


# --- events: sliding-window redundancy over an event stream ---------------

EVENTS = 5000
EVENT_VARIABLES = ("x", "y", "z")
EVENT_CATEGORIES = ("lo", "mid", "hi")
EVENT_WINDOW = 64
EVENT_STRIDE = 1
EVENT_CHECKED_WINDOWS = 32
EVENT_TOLERANCE = 1e-12
# a set-up probe's stream: one first call costs what a full one does, but
# its repeats are short, so the host's speed swings hardly move the excess
EVENT_PROBE_EVENTS = 500


@dataclass(frozen=True)
class EventsInput:
    stream: list
    check_windows: tuple[int, ...]


def _n_windows(n_events: int) -> int:
    return (n_events - EVENT_WINDOW) // EVENT_STRIDE + 1


def _events_input(seed: int, index: int, work_dir: Path,
                  n_events: int = EVENTS) -> EventsInput:
    """x, y uniform; z = (x + y) mod 3 with a coupling that drifts along the
    stream, so windows range from redundant to synergetic."""
    import numpy as np

    rng = np.random.default_rng([seed, index])
    x = rng.integers(0, 3, n_events)
    y = rng.integers(0, 3, n_events)
    coupling = 0.5 + 0.45 * np.sin(np.linspace(0.0, 6.0 * np.pi, n_events))
    z = np.where(rng.random(n_events) < coupling, (x + y) % 3,
                 rng.integers(0, 3, n_events))
    names = EVENT_CATEGORIES
    stream = [(names[a], names[b], names[c])
              for a, b, c in zip(x.tolist(), y.tolist(), z.tolist())]
    picks = rng.choice(_n_windows(n_events), EVENT_CHECKED_WINDOWS,
                       replace=False)
    return EventsInput(stream, tuple(sorted(int(p) for p in picks)))


def _events_probe_input(seed: int, index: int, work_dir: Path) -> EventsInput:
    return _events_input(seed, index, work_dir, EVENT_PROBE_EVENTS)


def _events_run(inp: EventsInput, out_dir: Path):
    from synwave import infotheory

    return infotheory.synergy_indicator(
        inp.stream, EVENT_VARIABLES, EVENT_VARIABLES, EVENT_WINDOW,
        EVENT_STRIDE)


def _window_redundancy(rows: list) -> float:
    """R = (-1)^(n-1) T from integer counts, independent of infotheory."""
    n_vars = len(rows[0])
    w = len(rows)
    total = 0.0
    for size in range(1, n_vars + 1):
        for subset in combinations(range(n_vars), size):
            counts = Counter(tuple(r[j] for j in subset) for r in rows)
            h = math.log2(w) - sum(c * math.log2(c) for c in counts.values()) / w
            total += (1.0 if size % 2 == 1 else -1.0) * h
    return (1.0 if (n_vars - 1) % 2 == 0 else -1.0) * total


def _events_check(inp: EventsInput, out_dir: Path, result) -> str | None:
    import numpy as np

    n_windows = _n_windows(len(inp.stream))
    starts = np.asarray(result.window_starts)
    if not np.array_equal(starts, np.arange(n_windows) * EVENT_STRIDE):
        return f"window starts wrong ({starts.size} windows, want {n_windows})"
    for start in inp.check_windows:
        want = _window_redundancy(inp.stream[start:start + EVENT_WINDOW])
        got = float(result.redundancy_bits[start // EVENT_STRIDE])
        if not abs(got - want) <= EVENT_TOLERANCE:
            return f"window {start}: R={got!r}, recount gives {want!r}"
    return None


# --- mc_adf: Monte Carlo size of the unit-root test -----------------------

ADF_REPS = 1000
ADF_SAMPLES = 250
ADF_SIZE_RANGE = (0.03, 0.07)


def _adf_input(seed: int, index: int, work_dir: Path) -> int:
    # each rep draws from its own rng seeded base + rep; blocks never overlap
    return (seed * 1_000_000 + index) * ADF_REPS


def _adf_run(base_seed: int, out_dir: Path) -> float:
    from synwave import stats

    return stats.simulate_adf_rejection_rate(
        "random_walk", ADF_REPS, ADF_SAMPLES, "5%", seed=base_seed)


def _adf_check(base_seed: int, out_dir: Path, size: float) -> str | None:
    lo, hi = ADF_SIZE_RANGE
    if not lo <= size <= hi:
        return f"size {size:.3f} outside [{lo}, {hi}]"
    return None


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "corn",
            _corn_input, _corn_run, _corn_check,
            nominal_op_s=0.35, setup_probes=9,
            imports=("synwave", "synwave.cli")),
        Workload(
            "corn_cwt",
            _corn_input, _corn_cwt_run, _corn_cwt_check,
            nominal_op_s=0.3, setup_probes=9,
            imports=("synwave", "synwave.cli")),
        Workload(
            "long",
            _long_input, _long_run, _long_check,
            nominal_op_s=8.0, setup_probes=1),
        Workload(
            "events",
            _events_input, _events_run, _events_check,
            nominal_op_s=1.5, setup_probes=15,
            make_probe_input=_events_probe_input),
        Workload(
            "mc_adf",
            _adf_input, _adf_run, _adf_check,
            nominal_op_s=0.65, setup_probes=9),
    )
}
