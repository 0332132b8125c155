"""Outside-in layer trace: spans around calls into synwave's public functions.

``Tracer.install()`` replaces each function named in ``TRACED`` by a
wrapper in every synwave module namespace that holds it (``fit``, ``cli``
and ``lcwt`` all look up ``fit_soliton_chain``, for example), so calls are
seen wherever callers find them. Only public names are wrapped. Each call
records a span (name, start, end, parent span, op id) in compact arrays
kept in memory; ``save`` writes them out once the run is over. Self time
is a span's duration minus the time covered by its child spans; the
metrics are computed from the arrays once the op list has run. Counters
are updated at the span boundaries, so they count exactly the calls made
and nothing else.
Calls made outside an op, while inputs are made or outputs checked, are
neither recorded nor counted.
"""
from __future__ import annotations

import functools
import importlib
import time
from array import array
from pathlib import Path

import numpy as np

# span name -> module that defines the function; synth is left alone
# because it only makes inputs, outside the timed ops
TRACED = {
    "cli.run_pipeline": "synwave.cli",
    "cli.ingest_timeseries": "synwave.cli",
    "cli.write_json": "synwave.cli",
    "cli.write_line_plot": "synwave.cli",
    "fit.fit_soliton_chain": "synwave.fit",
    "fit.initialize_components": "synwave.fit",
    "fit.levenberg_marquardt": "synwave.fit",
    "models.chain_eval": "synwave.models",
    "models.soliton_eval": "synwave.models",
    "lcwt.cwt": "synwave.lcwt",
    "lcwt.extract_waves": "synwave.lcwt",
    "lcwt.wavelet_scale_constant": "synwave.lcwt",
    "lcwt.scalogram_to_csv": "synwave.lcwt",
    "lcwt.scalogram_to_svg": "synwave.lcwt",
    "stats.adf_test": "synwave.stats",
    "stats.engle_granger": "synwave.stats",
    "stats.simulate_adf_rejection_rate": "synwave.stats",
    "infotheory.synergy_indicator": "synwave.infotheory",
    "infotheory.from_observations": "synwave.infotheory",
    "infotheory.entropy": "synwave.infotheory",
}
NAMESPACES = ("synwave.cli", "synwave.fit", "synwave.models", "synwave.lcwt",
              "synwave.stats", "synwave.infotheory")
OP_SPAN = "op"

COUNTERS = ("fit.residual_evals", "fit.lm_iterations", "fit.lm_unconverged",
            "models.pulse_evals", "lcwt.passes", "lcwt.refits", "lcwt.waves",
            "infotheory.windows", "cli.bytes_written")


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = [OP_SPAN, *TRACED]
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.op = -1
        # one entry per span; _open holds the indices of the open spans
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._open: list[int] = []
        self.missing: list[str] = []

    def span(self, name: str, fn, after=None, before=None):
        """``fn`` wrapped in a span; ``before(args, kwargs)`` may return
        replacement arguments, ``after(args, kwargs, result, parent)``
        updates counters with the name of the enclosing span."""
        nid = self.ids[name]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op < 0:  # making inputs or checking outputs
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            open_spans = self._open
            parent = open_spans[-1] if open_spans else -1
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_op.append(self.op)
            self.span_end.append(0)
            open_spans.append(idx)
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = clock()
                open_spans.pop()
            if after is not None:
                after(args, kwargs, result, self.names[
                    self.span_name[parent]] if parent >= 0 else None)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function in every namespace that holds it."""
        hooks = self._hooks()
        modules = [importlib.import_module(m) for m in NAMESPACES]
        for name, home in TRACED.items():
            original = getattr(importlib.import_module(home),
                               name.split(".", 1)[1], None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.span(name, original, **hooks.get(name, {}))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _hooks(self) -> dict:
        counts = self.counts

        def count_residuals(args, kwargs):
            residual_fn = args[0] if args else kwargs.pop("residual_fn")

            def counted(params):
                counts["fit.residual_evals"] += 1
                return residual_fn(params)

            return (counted, *args[1:]), kwargs

        def lm_done(args, kwargs, result, parent):
            counts["fit.lm_iterations"] += int(result[3])
            counts["fit.lm_unconverged"] += 0 if result[4] else 1

        def pulses(args, kwargs, result, parent):
            model = args[0] if args else kwargs["m"]
            t = args[1] if len(args) > 1 else kwargs["t"]
            counts["models.pulse_evals"] += len(model.components) * int(np.size(t))

        def under_extraction(counter):
            def after(args, kwargs, result, parent):
                if parent == "lcwt.extract_waves":
                    counts[counter] += 1
            return after

        def waves(args, kwargs, result, parent):
            counts["lcwt.waves"] += len(result.waves)

        def windows(args, kwargs, result, parent):
            counts["infotheory.windows"] += int(result.window_starts.size)

        return {
            "fit.levenberg_marquardt": {"before": count_residuals,
                                        "after": lm_done},
            "models.chain_eval": {"after": pulses},
            "lcwt.cwt": {"after": under_extraction("lcwt.passes")},
            "fit.fit_soliton_chain": {"after": under_extraction("lcwt.refits")},
            "lcwt.extract_waves": {"after": waves},
            "infotheory.synergy_indicator": {"after": windows},
        }

    def span_times(self):
        """Per span: name id, parent's name id (-1 at the root), duration
        and self time in ns."""
        name = np.array(self.span_name, dtype=np.int64)
        parent = np.array(self.span_parent, dtype=np.int64)
        duration = (np.array(self.span_end, dtype=np.int64)
                    - np.array(self.span_start, dtype=np.int64))
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested],
                               minlength=duration.size)
        parent_name = np.full_like(name, -1)
        parent_name[nested] = name[parent[nested]]
        return name, parent_name, duration, duration - children

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 op=np.frombuffer(self.span_op, dtype=np.int32),
                 start_ns=np.frombuffer(self.span_start, dtype=np.int64),
                 end_ns=np.frombuffer(self.span_end, dtype=np.int64))


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced op list: self ms per op, exact counts.

    The CWT that calibrates the wavelet's scale constant runs once per
    process, so it counts under ``lcwt.wavelet_scale_constant`` (a one-off
    total) and not under ``lcwt.cwt``, whose figures are per op.
    """
    ids = tracer.ids
    name, parent_name, duration, self_ns = tracer.span_times()
    calibration = ((name == ids["lcwt.cwt"])
                   & (parent_name == ids["lcwt.wavelet_scale_constant"]))

    def spans(span):
        return (name == ids[span]) & ~calibration

    def per_op(span):
        return (float(self_ns[spans(span)].sum()) / 1e6 / n_ops, "ms/op")

    def calls(span):
        return (int(spans(span).sum()), "count")

    def count(name):
        return (tracer.counts[name], "count")

    kappa = ids["lcwt.wavelet_scale_constant"]
    waves = tracer.counts["lcwt.waves"]
    refits_per_wave = tracer.counts["lcwt.refits"] / waves if waves else 0.0
    return {
        "fit.fit_soliton_chain.calls": calls("fit.fit_soliton_chain"),
        "fit.levenberg_marquardt.ms": per_op("fit.levenberg_marquardt"),
        "fit.lm_iterations": count("fit.lm_iterations"),
        "fit.residual_evals": count("fit.residual_evals"),
        "fit.lm_unconverged": count("fit.lm_unconverged"),
        "fit.initialize_components.ms": per_op("fit.initialize_components"),
        "models.chain_eval.calls": calls("models.chain_eval"),
        "models.chain_eval.ms": per_op("models.chain_eval"),
        "models.soliton_eval.ms": per_op("models.soliton_eval"),
        "models.pulse_evals": count("models.pulse_evals"),
        "lcwt.cwt.calls": calls("lcwt.cwt"),
        "lcwt.cwt.ms": per_op("lcwt.cwt"),
        "lcwt.extract_waves.ms": per_op("lcwt.extract_waves"),
        "lcwt.passes": count("lcwt.passes"),
        "lcwt.refits": count("lcwt.refits"),
        "lcwt.refits_per_wave": (refits_per_wave, "ratio"),
        "lcwt.wavelet_scale_constant.ms":
            (float(self_ns[name == kappa].sum()) / 1e6, "ms"),
        # the calibration's own CWT is a child span; this includes it
        "lcwt.wavelet_scale_constant.total_ms":
            (float(duration[name == kappa].sum()) / 1e6, "ms"),
        "lcwt.scalogram_to_svg.ms": per_op("lcwt.scalogram_to_svg"),
        "lcwt.scalogram_to_csv.ms": per_op("lcwt.scalogram_to_csv"),
        "cli.write_json.ms": per_op("cli.write_json"),
        "cli.write_line_plot.ms": per_op("cli.write_line_plot"),
        "cli.run_pipeline.ms": per_op("cli.run_pipeline"),
        "cli.ingest_timeseries.ms": per_op("cli.ingest_timeseries"),
        "cli.bytes_written": (tracer.counts["cli.bytes_written"], "B"),
        "stats.adf_test.calls": calls("stats.adf_test"),
        "stats.adf_test.ms": per_op("stats.adf_test"),
        "stats.engle_granger.ms": per_op("stats.engle_granger"),
        "stats.simulate_adf_rejection_rate.ms":
            per_op("stats.simulate_adf_rejection_rate"),
        "infotheory.synergy_indicator.ms": per_op("infotheory.synergy_indicator"),
        "infotheory.windows": count("infotheory.windows"),
        "infotheory.from_observations.calls": calls("infotheory.from_observations"),
        "infotheory.from_observations.ms": per_op("infotheory.from_observations"),
        "infotheory.entropy.calls": calls("infotheory.entropy"),
        "infotheory.entropy.ms": per_op("infotheory.entropy"),
    }
