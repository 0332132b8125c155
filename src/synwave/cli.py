"""Command-line front door: ingestion, per-step commands, full pipeline.

Subcommands map one-to-one onto the analysis stages: ``entropy`` and
``synergy`` for categorical data, ``fit`` / ``cwt`` / ``adf`` / ``coint``
for numeric series, ``pipeline`` for the whole chain, and ``synth`` for
seeded generators. Exit codes: 0 success, 1 input or configuration
error or no wave found, 2 pipeline completed but failed validation (a
low-confidence extraction or no cointegration).

Each handler only computes: it returns its exit code, the files to write
and its console lines, or raises on bad input. ``main`` alone creates the
output directory, after the handler returns, opens every file and hands
the open stream to its writer (``_write_file``), and prints one ``wrote``
line per file, so an exit 1 writes nothing. Every artifact but a
``synth`` CSV records the parsed command line (the subcommand and every
option, the seed included) without the output directory, so re-running
an identical command reproduces byte-identical files wherever they are
written; a ``synth`` CSV records the generator's parameters instead.
``--seed`` changes only ``synth``'s data; elsewhere it is only recorded.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import infotheory, lcwt, models, stats, synth
from ._floatcsv import write_table
from .fit import (FitResult, RegressionResult, TimeSeries, fit_soliton_chain,
                  ols)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_VALIDATION_FAILED = 2


# size of the decomposition plot, in SVG user units
_PLOT_WIDTH = 720
_PLOT_HEIGHT = 360


def _fmt(value: float) -> str:
    """Console formatting: 6 significant digits."""
    return f"{value:.6g}"


def _sanitize(obj):
    """JSON-safe copy of a payload of plain Python values: tuples as lists,
    non-finite floats as null."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_json(fh, payload: dict) -> None:
    json.dump(_sanitize(payload), fh, indent=2, sort_keys=True)
    fh.write("\n")


def write_line_plot(fh, times, curves, comments=()) -> None:
    """Write static SVG polylines into the text stream ``fh``; ``curves``
    maps label -> (values, color)."""
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

    fh.write(lcwt.svg_head(comments, _PLOT_WIDTH, _PLOT_HEIGHT))
    fh.write(f'<rect width="{_PLOT_WIDTH}" height="{_PLOT_HEIGHT}" '
             'fill="white"/>\n')
    for label_index, (label, (values, color)) in enumerate(sorted(curves.items())):
        pts = " ".join(f"{sx(t):.2f},{sy(v):.2f}"
                       for t, v in zip(times, np.asarray(values, dtype=float)))
        fh.write(f'<polyline points="{pts}" fill="none" '
                 f'stroke="{color}" stroke-width="1.5"/>\n'
                 f'<text x="50" y="{20 + 14 * label_index}" '
                 f'fill="{color}" font-size="12">{label}</text>\n')
    fh.write("</svg>\n")


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


def _write_file(path: Path, body, config: dict) -> None:
    """Open ``path``, the one place an artifact is opened, and write ``body``
    with ``config`` into it: a dict as JSON with a ``config`` key, a pair
    ``(header, columns)`` by ``write_table``, else ``body(fh, comments)``."""
    comments = _config_comments(config)
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(body, dict):
            write_json(fh, {"config": config, **body})
        elif isinstance(body, tuple):
            write_table(fh, *body, comments)
        else:
            body(fh, comments)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit code, files, console lines) and
# writes nothing; ``main`` writes the files (see ``_write_file``)


def _cmd_synth(args):
    table, params = synth.synthetic_series(args.kind, args.seed, args.n)
    return EXIT_OK, {
        f"{args.kind.replace('-', '_')}_{args.seed}.csv":
            lambda fh, _: write_table(fh, *table, params),
    }, []


def _cmd_entropy(args):
    variables, rows = read_categorical_csv(args.input, args.subset or None)
    table = infotheory.from_observations(rows, variables)
    subsets = [variables]
    if len(variables) > 1:
        subsets = [variables] + [(v,) for v in variables]
    reports = [infotheory.information_report(table, s) for s in subsets]
    lines = []
    for report in reports:
        t = report.mutual_information_bits
        lines.append(
            f"subset={','.join(report.subset)} H={_fmt(report.entropy_bits)}"
            + (f" T={_fmt(t)} R={_fmt(report.redundancy_bits)}"
               if t is not None else ""))
    return EXIT_OK, {"entropy_report.json": {
        "reports": [report.to_dict() for report in reports]}}, lines


def _cmd_synergy(args):
    variables, rows = read_categorical_csv(args.input)
    subset = tuple(args.subset) if args.subset else variables
    series = infotheory.synergy_indicator(
        rows, variables, subset, args.window, args.stride)
    return EXIT_OK, {"synergy.csv": (
        ("window_start", "redundancy_bits"),
        (series.window_starts.tolist(), series.redundancy_bits.tolist()),
    )}, [f"{series.window_starts.size} windows, "
         f"mean R={_fmt(float(series.redundancy_bits.mean()))}"]


def _lags(value: str):
    """The ``--lags`` option: ``"auto"`` or a lag count."""
    if value == "auto":
        return value
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"--lags takes auto or a whole number, not {value!r}"
                         ) from None


def _chain_regression(series: TimeSeries, result: FitResult
                      ) -> tuple[np.ndarray, RegressionResult]:
    """A chain fit's predictions and their regression on the data."""
    predictions = models.chain_eval(result.model, series.times)
    return predictions, ols(predictions, series.values)


def _fit_payload(result: FitResult, regression: RegressionResult) -> dict:
    return {
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


def _cmd_fit(args):
    series = _read_series(args)
    result = fit_soliton_chain(series, args.components)
    _, regression = _chain_regression(series, result)
    lines = [f"beta={_fmt(result.model.beta)} sse={_fmt(result.sse)} "
             f"converged={result.converged}"]
    lines.extend(f"  A={_fmt(comp.amplitude)} k={_fmt(comp.k)} "
                 f"center={_fmt(comp.center)}"
                 for comp in result.model.components)
    lines.append(f"R2={_fmt(regression.r_squared)}")
    return EXIT_OK, {"fit_report.json": _fit_payload(result, regression)}, lines


def _extract(series: TimeSeries, args) -> tuple[lcwt.ExtractionResult, dict]:
    """Wave extraction as the cwt options of ``args`` ask, and its files:
    the scalogram (CSV, and SVG under ``--svg``) and the wave trains."""
    extraction = lcwt.extract_waves(
        series, max_waves=args.max_waves, energy_stop=args.energy_stop,
        scales=lcwt.default_scales(len(series), args.scales))
    files = {"scalogram.csv": lambda fh, comments: lcwt.scalogram_to_csv(
        extraction.scalogram, fh, comments)}
    if args.svg:
        files["scalogram.svg"] = lambda fh, comments: lcwt.scalogram_to_svg(
            extraction.scalogram, fh, comments)
    files["wave_trains.json"] = {
        "waves": [w.to_dict() for w in extraction.waves],
        "trains": [t.to_dict()
                   for t in lcwt.group_wave_trains(extraction.waves)],
        "low_confidence": extraction.low_confidence,
        "energy_history": list(extraction.energy_history),
    }
    return extraction, files


def _cmd_cwt(args):
    extraction, files = _extract(_read_series(args), args)
    return EXIT_OK, files, [f"{len(extraction.waves)} waves retained, "
                            f"low_confidence={extraction.low_confidence}"]


def _cmd_adf(args):
    series = _read_series(args)
    result = stats.adf_test(series, _lags(args.lags), args.kind)
    return EXIT_OK, {"adf.json": result.to_dict()}, [
        f"statistic={_fmt(result.statistic)} lags={result.lags_used} "
        f"reject_at={result.reject_at}"]


def _cmd_coint(args):
    y = ingest_timeseries(args.input, args.y_column, args.time_column,
                          args.fill)
    x = ingest_timeseries(args.input, args.x_column, args.time_column,
                          args.fill)
    result = stats.engle_granger(y, x)
    return EXIT_OK, {"cointegration.json": result.to_dict()}, [
        f"cointegrated_at={result.cointegrated_at} "
        f"stat={_fmt(result.residual_adf.statistic)}"]


def run_pipeline(args):
    """Extract, split, and validate one series end to end.

    The pulse chain is the extraction's last joint refit. An input error
    (no wave found, a bad lag order) raises; a run that completes returns
    every file, and exit code 2 if validation failed.
    """
    series = _read_series(args)

    # stage 1: scalogram and iterative wave extraction
    extraction, files = _extract(series, args)
    chain_fit = extraction.fit
    if chain_fit is None:
        raise ValueError("no wave found")

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

    files["fit_report.json"] = _fit_payload(chain_fit, regression)
    files["regression_report.json"] = regression.to_dict()
    if args.svg:
        files["decomposition.svg"] = lambda fh, comments: write_line_plot(
            fh, series.times, {
                "data": (series.values, "#888888"),
                "fitted chain": (predictions, "#d62728"),
                "extraction residual": (extraction.residual.values, "#1f77b4"),
            }, comments)
    files["redundancy.csv"] = (
        ("t", "historical", "synergetic", "total"),
        (series.times.tolist(), split.historical.tolist(),
         split.synergetic.tolist(), split.total.tolist()))
    files["validation.json"] = {
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
    }
    return EXIT_OK if passed else EXIT_VALIDATION_FAILED, files, [
        f"fit: beta={_fmt(chain_fit.model.beta)} "
        f"R2={_fmt(regression.r_squared)}",
        f"extraction: {len(extraction.waves)} waves, "
        f"low_confidence={extraction.low_confidence}",
        f"validation: passed={passed}",
    ]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``synwave`` parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="synwave",
        description="Solitary-wave and information-redundancy analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, input_required=True):
        if input_required:
            p.add_argument("--input", required=True, help="input CSV path")
        p.add_argument("--out-dir", default=".", help="output directory")
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
        code, files, lines = args.handler(args)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        config = _config(args)
        for line in lines:
            print(line)
        for name, body in files.items():
            _write_file(out_dir / name, body, config)
            print(f"wrote {out_dir / name}")
    except (ValueError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
