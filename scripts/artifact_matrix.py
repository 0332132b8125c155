#!/usr/bin/env python3
"""Run a fixed matrix of synwave commands and keep everything they leave.

    python scripts/artifact_matrix.py OUT_DIR

Every run calls ``cli.main`` of this checkout's ``src`` from inside
OUT_DIR with relative paths, so the tree depends only on the code. Run
NAME writes its artifacts to ``NAME/out`` and its exit code, stdout and
stderr to ``NAME/exit_code``, ``NAME/stdout`` and ``NAME/stderr``. Two
checkouts make the same artifacts when ``diff -r`` finds their trees
equal:

    mkdir base && git archive BASE | tar -x -C base
    python base/scripts/artifact_matrix.py matrix-base
    python scripts/artifact_matrix.py matrix-head
    diff -r matrix-base matrix-head

The 150 runs: ``synth`` of every kind; ``pipeline --svg``, ``cwt --svg``,
``fit`` and ``adf`` on corn-like seeds 0-19 and 33; four runs whose CWT
filter bank has another key than n = 241, dt = 1 and 64 scales, in an
order where each changes one part of the key from the transform before
(``cwt --svg --scales 16`` on corn-like seed 33, the same without
``--svg`` on its values sampled every 0.25 time units, ``cwt`` on noise
seed 0 at n = 1000, and ``pipeline`` on corn-like seed 33 at n = 1000);
``cwt`` on a chain whose last refit moves two pulses past each other;
``cwt --energy-stop 1e-9`` on 16 samples holding two pulses of opposite
sign 0.48 samples apart, so any change to how overlapping pulses are
seeded shows;
``cwt --svg`` on 6 samples, fewer than any band's pad, so the reflection
repeats, and again with those samples in a column named ``v--\x01w``,
which each artifact's config records, so its SVG must escape both the
``--`` and the control character to stay XML; ``pipeline`` on
patent-like seeds 0-3 (exit 2); ``coint``,
``entropy`` and ``synergy`` on a 256-row xor stream; ``entropy`` and three
``synergy`` runs (window 8 stride 3, subset ``c a`` window 50 stride 7,
window 600) on 600 seeded rows of three five-label string columns;
``synergy --window 64`` and ``--window 63 --stride 5`` on 400 seeded
rows with a constant run of 140 rows; and every exit-1 case of
``FAILING_RUNS`` in tests/test_cli.py. The script exits 1 when a run's
exit code is not the expected one.
"""
import argparse
import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from synwave import cli, models, synth  # noqa: E402
from test_cli import (FAILING_RUNS, write_pair_csv,  # noqa: E402
                      write_two_series_csv)

CORN_SEEDS = [*range(20), 33]
# a column name holding "--" and a control character
ODD_COLUMN = "v--\x01w"
PATENT_SEEDS = range(4)


def synth_csv(kind: str, seed: int) -> str:
    """Relative path of the series that run ``synth/KIND_SEED`` writes."""
    return f"synth/{kind}_{seed}/out/{kind.replace('-', '_')}_{seed}.csv"


def write_xor_csv(path):
    """Binary columns ``a`` and ``b`` (seeded) and ``c = a xor b``."""
    rng = np.random.default_rng(0)
    a, b = rng.integers(0, 2, (2, 256)).tolist()
    path.write_text("a,b,c\n" + "".join(
        f"{x},{y},{x ^ y}\n" for x, y in zip(a, b)))


def write_labels_csv(path):
    """600 seeded rows of columns ``a``, ``b`` and ``c``, five string
    labels each, ``c`` drawn from ``a`` and ``b`` two times in three."""
    rng = np.random.default_rng(1)
    a, b, noise = rng.integers(0, 5, (3, 600))
    c = np.where(rng.random(600) < 2 / 3, (a + 2 * b) % 5, noise)
    names = ("calm", "drift", "gust", "lull", "surge")
    path.write_text("a,b,c\n" + "".join(
        f"{names[x]},{names[y]},{names[z]}\n"
        for x, y, z in zip(a.tolist(), b.tolist(), c.tolist())))


def write_run_csv(path):
    """400 seeded rows of columns ``a``, ``b`` and ``c`` (four, four and
    three labels) with rows 150-289 one constant row."""
    rng = np.random.default_rng(2)
    rows = np.column_stack([rng.integers(0, k, 400) for k in (4, 4, 3)])
    rows[150:290] = (3, 1, 2)
    path.write_text("a,b,c\n" + "".join(
        f"{a},{b},{c}\n" for a, b, c in rows.tolist()))


def write_quarter_step_csv(path):
    """Corn-like seed 33's values on a time axis of step 0.25."""
    values = synth.corn_like_series(33).values.tolist()
    path.write_text("t,value\n" + "".join(
        f"{0.25 * i!r},{v!r}\n" for i, v in enumerate(values)))


def write_crossing_csv(path):
    """Column ``value``: the chain 100 + (217, 0.054, 115.7) +
    (-219, 0.023, 119.5) + (54, 0.044, 142.4) over n = 241 plus seeded
    unit noise; its last refit moves the two overlapping pulses past
    each other."""
    times = np.arange(241.0)
    chain = models.SolitonChainModel(100.0, (
        models.SolitonComponent(217.0, 0.054, 115.7),
        models.SolitonComponent(-219.0, 0.023, 119.5),
        models.SolitonComponent(54.0, 0.044, 142.4)))
    values = models.chain_eval(chain, times) + np.random.default_rng(
        0).standard_normal(241)
    path.write_text("value\n" + "".join(f"{v!r}\n" for v in values.tolist()))


def write_overlap_csv(path):
    """Column ``value``: the chain 5 + (-26.434, 0.8, 4.401) +
    (70.999, 0.8, 4.880) + (33.153, 0.8, 11.585) over 16 samples plus
    seeded noise of sd 0.01; its first two pulses overlap."""
    times = np.arange(16.0)
    chain = models.SolitonChainModel(5.0, (
        models.SolitonComponent(-26.434, 0.8, 4.401),
        models.SolitonComponent(70.999, 0.8, 4.880),
        models.SolitonComponent(33.153, 0.8, 11.585)))
    values = models.chain_eval(chain, times) + 0.01 * np.random.default_rng(
        0).standard_normal(16)
    path.write_text("value\n" + "".join(f"{v!r}\n" for v in values.tolist()))


def write_tiny_csv(path, column="value"):
    """Column ``column``: six seeded normal draws, fewer than the 10
    samples by which the default grid's one band reflects them."""
    values = np.random.default_rng(3).standard_normal(6)
    path.write_text(f"{column}\n" + "".join(
        f"{v!r}\n" for v in values.tolist()))


def runs():
    """(name, argv without --out-dir, expected exit code), inputs first."""
    for kind, seeds in (("corn-like", CORN_SEEDS),
                        ("patent-like", PATENT_SEEDS), ("noise", [0])):
        for seed in seeds:
            yield (f"synth/{kind}_{seed}",
                   ["synth", "--kind", kind, "--seed", str(seed)], 0)
    yield ("synth/corn-like_33_n1000",
           ["synth", "--kind", "corn-like", "--seed", "33", "--n", "1000"], 0)
    for seed in CORN_SEEDS:
        data = synth_csv("corn-like", seed)
        for name, argv in (
                ("pipeline-svg", ["pipeline", "--seed", str(seed), "--svg"]),
                ("cwt-svg", ["cwt", "--svg"]), ("fit", ["fit"]),
                ("adf", ["adf"])):
            yield f"{name}/corn_like_{seed}", [*argv, "--input", data], 0
    # from fit/corn_like_33's key, each transform below changes one part
    # of the filter bank's key: the scale grid, then the time step, then
    # the length (and with it the default grid); the last run reuses the
    # noise run's key
    corn33 = synth_csv("corn-like", 33)
    yield ("cwt-svg-scales16/corn_like_33",
           ["cwt", "--svg", "--scales", "16", "--input", corn33], 0)
    yield ("cwt-quarter-step-scales16/corn_like_33",
           ["cwt", "--scales", "16", "--input", "inputs/quarter_step.csv",
            "--time-column", "t"], 0)
    yield "cwt/noise_0", ["cwt", "--input", synth_csv("noise", 0)], 0
    yield ("pipeline/corn_like_33_n1000",
           ["pipeline", "--seed", "33", "--input",
            "synth/corn-like_33_n1000/out/corn_like_33.csv"], 0)
    yield "cwt/crossing", ["cwt", "--input", "inputs/crossing.csv"], 0
    yield ("cwt-energy-stop/overlap", ["cwt", "--energy-stop", "1e-9",
                                        "--input", "inputs/overlap.csv"], 0)
    yield "cwt/tiny", ["cwt", "--svg", "--input", "inputs/tiny.csv"], 0
    yield ("cwt-svg-odd-column/tiny",
           ["cwt", "--svg", "--value-column", ODD_COLUMN,
            "--input", "inputs/odd_column.csv"], 0)
    for seed in PATENT_SEEDS:
        yield (f"pipeline/patent_like_{seed}",
               ["pipeline", "--seed", str(seed), "--input",
                synth_csv("patent-like", seed)], 2)
    yield ("adf-trend/corn_like_33",
           ["adf", "--lags", "3", "--kind", "constant+trend",
            "--input", corn33], 0)
    yield ("coint/pair", ["coint", "--input", "inputs/pair.csv",
                          "--y-column", "y", "--x-column", "x"], 0)
    yield ("coint/two", ["coint", "--input", "inputs/two.csv",
                         "--y-column", "a", "--x-column", "b"], 0)
    yield "entropy/xor", ["entropy", "--input", "inputs/xor.csv"], 0
    yield ("entropy-subset/xor",
           ["entropy", "--input", "inputs/xor.csv", "--subset", "a", "c"], 0)
    yield "synergy/xor", ["synergy", "--input", "inputs/xor.csv"], 0
    yield ("synergy-stride/xor", ["synergy", "--input", "inputs/xor.csv",
                                  "--window", "64", "--stride", "32"], 0)
    # window ends by strided slices, a subset out of column order, and
    # one window over the whole stream
    yield "entropy/labels", ["entropy", "--input", "inputs/labels.csv"], 0
    for name, argv in (
            ("synergy-w8-s3", ["--window", "8", "--stride", "3"]),
            ("synergy-ca-w50-s7", ["--subset", "c", "a", "--window", "50",
                                   "--stride", "7"]),
            ("synergy-w600", ["--window", "600"])):
        yield (f"{name}/labels",
               ["synergy", "--input", "inputs/labels.csv", *argv], 0)
    # a constant run longer than the window fills one cell's bit field
    # with the whole window
    for name, argv in (("synergy-w64", ["--window", "64"]),
                       ("synergy-w63-s5", ["--window", "63", "--stride", "5"])):
        yield (f"{name}/run", ["synergy", "--input", "inputs/run.csv", *argv], 0)
    for argv, _ in FAILING_RUNS:
        inputs = [] if argv[0] == "synth" else ["--input", corn33]
        yield "fail/" + "_".join(argv), [*argv, *inputs], 1


def run(name: str, argv) -> int:
    """One ``cli.main`` call with its record beside its artifacts."""
    record = Path(name)
    record.mkdir(parents=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*argv, "--out-dir", str(record / "out")])
    (record / "exit_code").write_text(f"{code}\n")
    (record / "stdout").write_text(stdout.getvalue())
    (record / "stderr").write_text(stderr.getvalue())
    return code


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out_dir", help="new or empty directory for the tree")
    out = Path(parser.parse_args().out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        parser.error(f"{out} is not empty")
    os.chdir(out)
    inputs = Path("inputs")
    inputs.mkdir()
    write_pair_csv(inputs / "pair.csv")
    write_two_series_csv(inputs / "two.csv")
    write_xor_csv(inputs / "xor.csv")
    write_labels_csv(inputs / "labels.csv")
    write_run_csv(inputs / "run.csv")
    write_quarter_step_csv(inputs / "quarter_step.csv")
    write_crossing_csv(inputs / "crossing.csv")
    write_overlap_csv(inputs / "overlap.csv")
    write_tiny_csv(inputs / "tiny.csv")
    write_tiny_csv(inputs / "odd_column.csv", ODD_COLUMN)
    total = unexpected = 0
    for name, argv, expected in runs():
        code = run(name, argv)
        total += 1
        if code != expected:
            unexpected += 1
            print(f"{name}: exit {code}, expected {expected}")
    print(f"{total} runs, {unexpected} with an unexpected exit code")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
