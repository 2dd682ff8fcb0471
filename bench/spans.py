"""Spans recorded around calls into lfdrkit's layers, from the benchmark side.

Nothing in ``src/`` is timed.  While a traced job runs, the public functions
listed in :data:`TARGETS` are replaced, in the module namespace their caller
looks them up in, by wrappers that record one span per call: name, start,
end, parent span and job.  Spans stay in memory and are written out once,
when the run ends.  A layer's self time is its spans' durations minus the
parts covered by their child spans.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# (module, attribute, span name, value recorded from (args, result)).  The
# module is the namespace the caller resolves the name in: ``cmd_analyze``
# looks up ``grenander_fit`` in ``lfdrkit.cli``, ``_run_chunk`` looks up
# ``generate`` in ``lfdrkit.simulate``.  The span name's prefix is the layer.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("lfdrkit.cli", "main", "cli.main", None),
    ("lfdrkit.cli", "read_stats_csv", "cli.read_stats_csv", None),
    ("lfdrkit.cli", "storey_pi0", "lfdr.storey_pi0", None),
    ("lfdrkit.cli", "grenander_fit", "density.grenander_fit",
     lambda args, res: len(res.heights)),
    ("lfdrkit.cli", "score_hypotheses", "lfdr.score_hypotheses", None),
    ("lfdrkit.cli", "q_values", "procedures.q_values", None),
    ("lfdrkit.cli", "bh_threshold", "procedures.bh_threshold", None),
    ("lfdrkit.cli", "support_line", "procedures.support_line", None),
    ("lfdrkit.cli", "lfdr_threshold_rule", "procedures.lfdr_threshold_rule", None),
    ("lfdrkit.cli", "mc_error_rates", "simulate.mc_error_rates", None),
    ("lfdrkit.simulate", "replicate_rng", "simulate.replicate_rng", None),
    ("lfdrkit.simulate", "generate", "simulate.generate", None),
    ("lfdrkit.simulate", "perturb_grid_pvalues", "procedures.perturb_grid_pvalues", None),
    # run_procedure lives in simulate but only dispatches to a rejection rule,
    # so its time is charged to procedures; the value is the values it sorts.
    ("lfdrkit.simulate", "run_procedure", "procedures.run_procedure",
     lambda args, res: args[0].m),
    ("lfdrkit.density", "npmle_mixture_fit", "density.npmle_mixture_fit",
     lambda args, res: res.loglik),
    ("lfdrkit.compound", "clfdr_vs_lfdr_gap", "compound.clfdr_vs_lfdr_gap", None),
    ("lfdrkit.compound", "clfdr_exact", "compound.clfdr_exact", None),
)

JOB_SPAN = "bench.job"

# fields of one span record
NAME, PARENT, JOB, START, END, VALUE = range(6)


class Tracer:
    """In-memory span store; one instance per run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = [-1]
        self._job = -1

    def _open(self, name: str) -> list:
        span = [name, self._stack[-1], self._job, 0, 0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, value: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if value is not None:
                span[VALUE] = float(value(args, result))
            return result
        return traced

    @contextmanager
    def job(self, index: int):
        """Trace one job: install the wrappers, open its root span, undo both."""
        saved = []
        for mod_name, attr, name, value in TARGETS:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original, value))
        self._job = index
        root = self._open(JOB_SPAN)
        try:
            yield
        finally:
            self._close(root)
            self._job = -1
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def job_summaries(self) -> Dict[int, Dict[str, Dict[str, float]]]:
        """For each traced job, per span name: total and self time, calls and
        summed value; per layer: self time."""
        if not self.spans:
            return {}
        cols = list(zip(*self.spans))
        dur = (np.asarray(cols[END], dtype=np.int64)
               - np.asarray(cols[START], dtype=np.int64)) / 1e9
        parents = np.asarray(cols[PARENT], dtype=np.int64)
        has_parent = parents >= 0
        self_time = dur - np.bincount(parents[has_parent], weights=dur[has_parent],
                                      minlength=dur.size)
        out: Dict[int, Dict[str, Dict[str, float]]] = {}
        for i, span in enumerate(self.spans):
            name = span[NAME]
            summary = out.setdefault(span[JOB], {
                "total_s": {}, "self_s": {}, "calls": {}, "value": {}, "layer_self_s": {}})
            for key, inc in (("total_s", dur[i]), ("self_s", self_time[i]),
                             ("calls", 1), ("value", span[VALUE])):
                summary[key][name] = summary[key].get(name, 0) + float(inc)
            layer = name.split(".", 1)[0]
            layers = summary["layer_self_s"]
            layers[layer] = layers.get(layer, 0.0) + float(self_time[i])
        return out

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated row."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tjob\tname\tparent\tstart_ns\tend_ns\tvalue\n")
            for i, span in enumerate(self.spans):
                fh.write(f"{i}\t{span[JOB]}\t{span[NAME]}\t{span[PARENT]}\t"
                         f"{span[START]}\t{span[END]}\t{span[VALUE]!r}\n")
