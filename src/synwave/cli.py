"""Command-line front door: ingestion, per-step commands, full pipeline.

Subcommands map one-to-one onto the analysis stages: ``entropy`` and
``synergy`` for categorical data, ``fit`` / ``cwt`` / ``adf`` / ``coint``
for numeric series, ``pipeline`` for the whole chain, and ``synth`` for
seeded generators. Exit codes: 0 success, 1 input or configuration
error or no wave found, 2 pipeline completed but failed validation (a
low-confidence extraction or no cointegration). Each handler computes
all of its results before it creates the output directory, so an exit
1 writes nothing.

Every artifact records the parsed command line (the subcommand and every
option, the seed included) without the output directory, so re-running
an identical command reproduces byte-identical files wherever they are
written.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import infotheory, lcwt, models, stats, synth
from .fit import (FitResult, RegressionResult, TimeSeries, fit_soliton_chain,
                  ols)

OUT_DIR_ENV = "SYNWAVE_OUT_DIR"

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_VALIDATION_FAILED = 2


# size of the decomposition plot, in SVG user units
_PLOT_WIDTH = 720
_PLOT_HEIGHT = 360


def _fmt(value) -> str:
    """Console formatting: 6 significant digits for floats."""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _sanitize(obj):
    """JSON-safe copy: numpy scalars unwrapped, non-finite floats as null."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_sanitize(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_line_plot(path, times, curves, comments=()) -> None:
    """Static SVG polylines; ``curves`` maps label -> (values, color)."""
    times = np.asarray(times, dtype=float)
    all_values = np.concatenate([np.asarray(v) for v, _ in curves.values()])
    lo, hi = float(all_values.min()), float(all_values.max())
    if hi == lo:
        hi = lo + 1.0
    t0, t1 = float(times[0]), float(times[-1])
    t_span = t1 - t0 if t1 > t0 else 1.0

    def sx(t):
        return 40.0 + (t - t0) / t_span * (_PLOT_WIDTH - 60.0)

    def sy(v):
        return (_PLOT_HEIGHT - 30.0
                - (v - lo) / (hi - lo) * (_PLOT_HEIGHT - 50.0))

    parts = [f"<!-- {line} -->" for line in comments]
    parts.extend([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_PLOT_WIDTH}" '
        f'height="{_PLOT_HEIGHT}" viewBox="0 0 {_PLOT_WIDTH} {_PLOT_HEIGHT}">',
        f'<rect width="{_PLOT_WIDTH}" height="{_PLOT_HEIGHT}" fill="white"/>',
    ])
    for label_index, (label, (values, color)) in enumerate(sorted(curves.items())):
        pts = " ".join(f"{sx(t):.2f},{sy(v):.2f}"
                       for t, v in zip(times, np.asarray(values, dtype=float)))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="50" y="{20 + 14 * label_index}" '
                     f'fill="{color}" font-size="12">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _config(args: argparse.Namespace) -> dict:
    """What every artifact records: the parsed command line without the
    handler and the output directory."""
    return {key: value for key, value in vars(args).items()
            if key not in ("handler", "out_dir")}


def _config_comments(config: dict) -> list[str]:
    return [f"{key}: {config[key]}" for key in sorted(config)]


def _read_csv_rows(path) -> tuple[list[str], list[list[str]]]:
    """Header and data rows; blank and ``#`` lines are skipped, quoted
    cells may hold commas, and every data row has the header's length."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [raw.strip() for raw in fh]
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    records = [[cell.strip() for cell in cells] for cells in csv.reader(
        (line for line in lines if line and not line.startswith("#")),
        skipinitialspace=True)]
    if not records:
        raise ValueError(f"{path} is empty")
    header, rows = records[0], records[1:]
    if not rows:
        raise ValueError(f"{path} has no data rows")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"ragged row {i + 1}")
    return header, rows


def _column_index(header: list[str], name: str) -> int:
    if name not in header:
        raise ValueError(f"column {name!r} not in header {header}")
    return header.index(name)


def ingest_timeseries(path, value_column: str | None = None,
                      time_column: str | None = None,
                      fill: bool = False) -> TimeSeries:
    """Load one numeric column as a TimeSeries.

    Without a time column the index runs 0..n-1. Missing cells are an
    error unless ``fill`` is set, in which case they are linearly
    interpolated and a warning is emitted.
    """
    header, rows = _read_csv_rows(path)
    v_idx = (len(header) - 1 if value_column is None
             else _column_index(header, value_column))
    values = np.empty(len(rows))
    missing = []
    for i, row in enumerate(rows):
        cell = row[v_idx]
        if cell == "" or cell.lower() == "nan":
            values[i] = np.nan
            missing.append(i)
            continue
        try:
            values[i] = float(cell)
        except ValueError as exc:
            raise ValueError(
                f"non-numeric cell {cell!r} at row {i + 1}") from exc
    if missing:
        if not fill:
            raise ValueError(
                f"{len(missing)} missing values (rows {missing[:5]}...); "
                "pass --fill to interpolate")
        good = np.flatnonzero(~np.isnan(values))
        if good.size == 0:
            raise ValueError("no numeric values to interpolate from")
        values = np.interp(np.arange(values.size), good, values[good])
        warnings.warn(f"filled {len(missing)} missing values by linear "
                      "interpolation", stacklevel=2)
    if time_column is None:
        times = np.arange(len(rows), dtype=float)
    else:
        t_idx = _column_index(header, time_column)
        try:
            times = np.array([float(row[t_idx]) for row in rows])
        except ValueError as exc:
            raise ValueError("non-numeric time cell") from exc
    return TimeSeries(times, values)


def _read_series(args) -> TimeSeries:
    """The series named by the ``--input`` and series-column options."""
    return ingest_timeseries(args.input, args.value_column, args.time_column,
                             args.fill)


def read_categorical_csv(path, columns=None) -> tuple[tuple[str, ...], list[tuple]]:
    """Load categorical observations, one tuple per row."""
    header, rows = _read_csv_rows(path)
    if columns:
        idx = [_column_index(header, name) for name in columns]
    else:
        columns = header
        idx = list(range(len(header)))
    return tuple(columns), [tuple(row[j] for j in idx) for row in rows]


def _resolve_out_dir(arg_value) -> Path:
    out = arg_value or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_synth(args) -> int:
    series, params = synth.synthetic_series(args.kind, args.seed, args.n)
    out_dir = _resolve_out_dir(args.out_dir)
    path = out_dir / f"{args.kind.replace('-', '_')}_{args.seed}.csv"
    synth.write_series_csv(path, series, params)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_entropy(args) -> int:
    variables, rows = read_categorical_csv(args.input, args.subset or None)
    table = infotheory.from_observations(rows, variables)
    subsets = [variables]
    if len(variables) > 1:
        subsets = [variables] + [(v,) for v in variables]
    reports = [infotheory.information_report(table, s) for s in subsets]
    out_dir = _resolve_out_dir(args.out_dir)
    path = out_dir / "entropy_report.json"
    write_json(path, {"config": _config(args),
                      "reports": [report.to_dict() for report in reports]})
    for report in reports:
        t = report.mutual_information_bits
        print(f"subset={','.join(report.subset)} H={_fmt(report.entropy_bits)}"
              + (f" T={_fmt(t)} R={_fmt(report.redundancy_bits)}"
                 if t is not None else ""))
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_synergy(args) -> int:
    variables, rows = read_categorical_csv(args.input)
    subset = tuple(args.subset) if args.subset else variables
    series = infotheory.synergy_indicator(
        rows, variables, subset, args.window, args.stride)
    out_dir = _resolve_out_dir(args.out_dir)
    path = out_dir / "synergy.csv"
    with open(path, "w", encoding="utf-8") as fh:
        for line in _config_comments(_config(args)):
            fh.write(f"# {line}\n")
        fh.write("window_start,redundancy_bits\n")
        for start, value in zip(series.window_starts.tolist(),
                                series.redundancy_bits.tolist()):
            fh.write(f"{start},{value!r}\n")
    print(f"{series.window_starts.size} windows, "
          f"mean R={_fmt(float(series.redundancy_bits.mean()))}")
    print(f"wrote {path}")
    return EXIT_OK


def _lags(value: str):
    """The ``--lags`` option: ``"auto"`` or a lag count."""
    return "auto" if value == "auto" else int(value)


def _chain_regression(series: TimeSeries, result: FitResult
                      ) -> tuple[np.ndarray, RegressionResult]:
    """A chain fit's predictions and their regression on the data."""
    predictions = models.chain_eval(result.model, series.times)
    return predictions, ols(predictions, series.values)


def _fit_payload(result: FitResult, regression: RegressionResult,
                 config: dict) -> dict:
    return {
        "config": config,
        "beta": result.model.beta,
        "components": [
            {"A": c.amplitude, "k": c.k, "center": c.center}
            for c in result.model.components
        ],
        "sse": result.sse,
        "iterations": result.iterations,
        "converged": result.converged,
        "standard_errors": result.standard_errors.tolist(),
        "regression": regression.to_dict(),
    }


def _cmd_fit(args) -> int:
    series = _read_series(args)
    result = fit_soliton_chain(series, args.components)
    _, regression = _chain_regression(series, result)
    out_dir = _resolve_out_dir(args.out_dir)
    path = out_dir / "fit_report.json"
    write_json(path, _fit_payload(result, regression, _config(args)))
    print(f"beta={_fmt(result.model.beta)} sse={_fmt(result.sse)} "
          f"converged={result.converged}")
    for comp in result.model.components:
        print(f"  A={_fmt(comp.amplitude)} k={_fmt(comp.k)} "
              f"center={_fmt(comp.center)}")
    print(f"R2={_fmt(regression.r_squared)}")
    print(f"wrote {path}")
    return EXIT_OK


def _extract(series: TimeSeries, args) -> lcwt.ExtractionResult:
    """Wave extraction as the cwt options of ``args`` ask."""
    return lcwt.extract_waves(
        series, max_waves=args.max_waves, energy_stop=args.energy_stop,
        scales=lcwt.default_scales(len(series), args.scales))


def _write_cwt(extraction: lcwt.ExtractionResult,
               trains: list[lcwt.WaveTrain], args, out_dir: Path) -> None:
    """Write the scalogram and the wave trains to ``out_dir``."""
    config = _config(args)
    comments = _config_comments(config)
    lcwt.scalogram_to_csv(extraction.scalogram, out_dir / "scalogram.csv",
                          comments)
    if args.svg:
        lcwt.scalogram_to_svg(extraction.scalogram, out_dir / "scalogram.svg",
                              comments=comments)
    write_json(out_dir / "wave_trains.json", {
        "config": config,
        "waves": [w.to_dict() for w in extraction.waves],
        "trains": [t.to_dict() for t in trains],
        "low_confidence": extraction.low_confidence,
        "energy_history": list(extraction.energy_history),
    })


def _cmd_cwt(args) -> int:
    series = _read_series(args)
    extraction = _extract(series, args)
    trains = lcwt.group_wave_trains(extraction.waves)
    out_dir = _resolve_out_dir(args.out_dir)
    _write_cwt(extraction, trains, args, out_dir)
    print(f"{len(extraction.waves)} waves retained, "
          f"low_confidence={extraction.low_confidence}")
    print(f"wrote {out_dir / 'scalogram.csv'} and "
          f"{out_dir / 'wave_trains.json'}")
    return EXIT_OK


def _cmd_adf(args) -> int:
    series = _read_series(args)
    result = stats.adf_test(series, _lags(args.lags), args.kind)
    out_dir = _resolve_out_dir(args.out_dir)
    payload = {"config": _config(args), **result.to_dict()}
    path = out_dir / "adf.json"
    write_json(path, payload)
    print(f"statistic={_fmt(result.statistic)} lags={result.lags_used} "
          f"reject_at={result.reject_at}")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_coint(args) -> int:
    y = ingest_timeseries(args.input, args.y_column, args.time_column,
                          args.fill)
    x = ingest_timeseries(args.input, args.x_column, args.time_column,
                          args.fill)
    result = stats.engle_granger(y, x)
    out_dir = _resolve_out_dir(args.out_dir)
    payload = {"config": _config(args), **result.to_dict()}
    path = out_dir / "cointegration.json"
    write_json(path, payload)
    print(f"cointegrated_at={result.cointegrated_at} "
          f"stat={_fmt(result.residual_adf.statistic)}")
    print(f"wrote {path}")
    return EXIT_OK


def run_pipeline(args) -> int:
    """Extract, split, and validate one series end to end.

    The pulse chain is the extraction's last joint refit. Every stage
    runs before the output directory is made, so an input error (no
    wave found, a bad lag order) writes nothing.
    """
    series = _read_series(args)

    # stage 1: scalogram and iterative wave extraction
    extraction = _extract(series, args)
    chain_fit = extraction.fit
    if chain_fit is None:
        raise ValueError("no wave found")
    trains = lcwt.group_wave_trains(extraction.waves)

    # stage 2: the extracted chain and its regression diagnostics
    predictions, regression = _chain_regression(series, chain_fit)

    # stage 3: redundancy decomposition from the waves of either sign
    split = lcwt.redundancy_split(extraction.waves, series.times,
                                  args.positive_role)

    # stage 4: unit-root and cointegration validation of data vs model
    adf_data = stats.adf_test(series, _lags(args.lags), args.kind)
    validation_error = None
    cointegration = None
    try:
        cointegration = stats.engle_granger(
            series, TimeSeries(series.times, predictions))
    except ValueError as exc:
        validation_error = str(exc)
    checks = {
        "extraction_confident": not extraction.low_confidence,
        "cointegrated": (cointegration is not None
                         and cointegration.cointegrated_at is not None),
    }
    passed = all(checks.values())

    out_dir = _resolve_out_dir(args.out_dir)
    config = _config(args)
    _write_cwt(extraction, trains, args, out_dir)
    write_json(out_dir / "fit_report.json",
               _fit_payload(chain_fit, regression, config))
    write_json(out_dir / "regression_report.json",
               {"config": config, **regression.to_dict()})
    if args.svg:
        write_line_plot(out_dir / "decomposition.svg", series.times, {
            "data": (series.values, "#888888"),
            "fitted chain": (predictions, "#d62728"),
            "extraction residual": (extraction.residual.values, "#1f77b4"),
        }, comments=_config_comments(config))
    with open(out_dir / "redundancy.csv", "w", encoding="utf-8") as fh:
        for line in _config_comments(config):
            fh.write(f"# {line}\n")
        fh.write("t,historical,synergetic,total\n")
        hist = split.historical.tolist()
        syn = split.synergetic.tolist()
        total = split.total.tolist()
        for i, t in enumerate(series.times.tolist()):
            fh.write(f"{t!r},{hist[i]!r},{syn[i]!r},{total[i]!r}\n")
    write_json(out_dir / "validation.json", {
        "config": config,
        "adf_data": adf_data.to_dict(),
        "engle_granger": cointegration.to_dict() if cointegration else None,
        "engle_granger_error": validation_error,
        # reported beside the checks: it does not gate the exit code
        "fit": {"converged": chain_fit.converged,
                "iterations": chain_fit.iterations,
                "degenerate": chain_fit.degenerate},
        "waves_retained": len(extraction.waves),
        "low_confidence": extraction.low_confidence,
        "checks": checks,
        "passed": passed,
    })

    print(f"fit: beta={_fmt(chain_fit.model.beta)} "
          f"R2={_fmt(regression.r_squared)}")
    print(f"extraction: {len(extraction.waves)} waves, "
          f"low_confidence={extraction.low_confidence}")
    print(f"validation: passed={passed}")
    return EXIT_OK if passed else EXIT_VALIDATION_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synwave",
        description="Solitary-wave and information-redundancy analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, input_required=True):
        if input_required:
            p.add_argument("--input", required=True, help="input CSV path")
        p.add_argument("--out-dir", default=None,
                       help=f"output directory (default ${OUT_DIR_ENV} or .)")
        p.add_argument("--seed", type=int, default=0)

    def add_series_columns(p):
        p.add_argument("--value-column", default=None)
        p.add_argument("--time-column", default=None)
        p.add_argument("--fill", action="store_true",
                       help="linearly interpolate missing values")

    def add_cwt(p):
        p.add_argument("--scales", type=int, default=lcwt.DEFAULT_NUM_SCALES)
        p.add_argument("--max-waves", type=int,
                       default=lcwt.DEFAULT_MAX_WAVES)
        p.add_argument("--energy-stop", type=float,
                       default=lcwt.DEFAULT_ENERGY_STOP)
        p.add_argument("--svg", action="store_true")

    def add_adf(p):
        p.add_argument("--lags", default="auto")
        p.add_argument("--kind", default="constant",
                       choices=stats.REGRESSION_KINDS)

    p = sub.add_parser("synth", help="write a seeded synthetic dataset")
    p.add_argument("--kind", required=True,
                   choices=("corn-like", "patent-like", "noise"))
    p.add_argument("--n", type=int, default=None)
    add_common(p, input_required=False)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("entropy", help="entropy / information report")
    add_common(p)
    p.add_argument("--subset", nargs="*", default=None)
    p.set_defaults(handler=_cmd_entropy)

    p = sub.add_parser("synergy", help="sliding-window redundancy")
    add_common(p)
    p.add_argument("--subset", nargs="*", default=None)
    p.add_argument("--window", type=int, default=64)
    p.add_argument("--stride", type=int, default=1)
    p.set_defaults(handler=_cmd_synergy)

    p = sub.add_parser("fit", help="pulse-chain least squares")
    add_common(p)
    add_series_columns(p)
    p.add_argument("--components", type=int, default=3)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("cwt", help="scalogram and wave extraction")
    add_common(p)
    add_series_columns(p)
    add_cwt(p)
    p.set_defaults(handler=_cmd_cwt)

    p = sub.add_parser("adf", help="unit-root test")
    add_common(p)
    add_series_columns(p)
    add_adf(p)
    p.set_defaults(handler=_cmd_adf)

    p = sub.add_parser("coint", help="two-step cointegration test")
    add_common(p)
    p.add_argument("--y-column", required=True)
    p.add_argument("--x-column", required=True)
    p.add_argument("--time-column", default=None)
    p.add_argument("--fill", action="store_true")
    p.set_defaults(handler=_cmd_coint)

    p = sub.add_parser("pipeline", help="full analysis chain")
    add_common(p)
    add_series_columns(p)
    add_cwt(p)
    add_adf(p)
    p.add_argument("--positive-role", default="historical",
                   choices=("historical", "synergetic"))
    p.set_defaults(handler=run_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; those are input errors here
        code = exc.code if isinstance(exc.code, int) else EXIT_INPUT_ERROR
        return EXIT_INPUT_ERROR if code == 2 else code
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
