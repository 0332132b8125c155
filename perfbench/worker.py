"""One benchmark process: a setup probe, a timed closed loop, or a fixed op list.

``run.py`` starts this file in a fresh interpreter for each phase, so each
phase sees the import and first-call costs a user's process sees, and the
peak resident memory it reports belongs to that phase alone. Results go to
the JSON file named by ``--out``.

    setup    time the workload's imports, then one op on one probe input,
             first cold and then ``SETUP_REPEATS`` times warm
    measure  one warm-up op, then ops 0, 1, ... for ``--seconds``
    deck     ops 0 .. ``--ops``-1 from a cold start, traced with ``--trace 1``

A setup probe names the modules to time as its second argument, because
they are imported before anything else, this file's own imports included:

    python3 perfbench/worker.py setup synwave,synwave.cli --workload corn ...
"""
from __future__ import annotations

import sys
import time

if __name__ == "__main__" and sys.argv[1:2] == ["setup"]:
    _started = time.perf_counter()
    for _module in sys.argv.pop(2).split(","):
        __import__(_module)
    IMPORT_S = time.perf_counter() - _started

import argparse
import ctypes
import json
import resource
import shutil
import traceback
from pathlib import Path

from tracer import OP_SPAN, Tracer, layer_metrics

# warm repeats of a setup probe's op; their median is the first op's reference
SETUP_REPEATS = 3


def _environment() -> dict:
    """Library versions and BLAS threads as this process loaded them."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "synwave": sys.modules["synwave"].__file__}


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class OpRunner:
    """Runs single ops of one workload in per-op directories under ``work``;
    with a tracer, each op is a root span and the tracer knows its id."""

    def __init__(self, workload, seed: int, work: Path, tracer=None,
                 make_input=None):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.make_input = make_input or workload.make_input
        self.run = (workload.run if tracer is None
                    else tracer.span(OP_SPAN, workload.run))

    def __call__(self, index: int, repeats: int = 1) -> tuple[list[float], str | None]:
        """Latency of each repeat of op ``index`` and the first failure."""
        op_dir = self.work / f"op{index}"
        op_dir.mkdir(parents=True)
        try:
            inp = self.make_input(self.seed, index, op_dir)
            latencies = []
            failure = None
            for attempt in range(repeats):
                out_dir = op_dir / f"out{attempt}"
                if self.tracer is not None:
                    self.tracer.op = index
                start = time.perf_counter()
                try:
                    result = self.run(inp, out_dir)
                except Exception as exc:  # a raising op is a failed op
                    latencies.append(time.perf_counter() - start)
                    failure = failure or _describe(exc)
                    continue
                finally:
                    if self.tracer is not None:
                        self.tracer.op = -1
                latencies.append(time.perf_counter() - start)
                if self.tracer is not None:
                    if out_dir.exists():
                        self.tracer.counts["cli.bytes_written"] += sum(
                            f.stat().st_size for f in out_dir.iterdir())
                try:
                    reason = self.workload.check(inp, out_dir, result)
                except Exception as exc:  # unreadable output fails the check
                    reason = f"check: {_describe(exc)}"
                failure = failure or reason
            return latencies, failure
        finally:
            shutil.rmtree(op_dir, ignore_errors=True)


def _describe(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return (f"{type(exc).__name__}: {exc} "
            f"({Path(frame.filename).name}:{frame.lineno})")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(workload, args) -> dict:
    runner = OpRunner(workload, args.seed, args.work,
                      make_input=workload.make_probe_input)
    latencies, _ = runner(args.index, repeats=1 + SETUP_REPEATS)
    return {"import_s": IMPORT_S, "first_s": latencies[0],
            "repeats_s": latencies[1:]}


def _measure(workload, args) -> dict:
    from workloads import WARMUP_INDEX

    runner = OpRunner(workload, args.seed, args.work)
    runner(WARMUP_INDEX)
    latencies, failures = [], {}
    started = time.perf_counter()
    index = 0
    while time.perf_counter() - started < args.seconds:
        op_latencies, failure = runner(index)
        latencies.extend(op_latencies)
        if failure:
            failures[index] = failure
        index += 1
    return {"latencies_s": latencies, "failures": failures,
            "peak_rss_mb": _peak_rss_mb(), "env": _environment()}


def _deck(workload, args) -> dict:
    # import first, so the plain pass times no imports the traced one skips
    for module in workload.imports:
        __import__(module)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    runner = OpRunner(workload, args.seed, args.work, tracer)
    latencies, failures = [], {}
    for index in range(args.ops):
        op_latencies, failure = runner(index)
        latencies.extend(op_latencies)
        if failure:
            failures[index] = failure
    result = {"latencies_s": latencies, "failures": failures,
              "env": _environment()}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, args.ops)
        result["untraced_functions"] = tracer.missing
        result["spans"] = len(tracer.span_start)
        tracer.save(args.spans)
    return result


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "measure", "deck"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--ops", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    phase = {"setup": _setup, "measure": _measure, "deck": _deck}[args.mode]
    result = phase(workload, args)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
