"""In-memory span recorder that wraps facil's layer functions from outside.

Each wrapped function is replaced where its caller looks it up (for example
``facil.flywheel.curate_expansion``, not ``facil.curation.curate_expansion``),
so the program itself is unchanged and the wrappers come off again after each
traced call.  A span is (run id, name, start, end, parent span); spans stay in
memory and are written out as JSON lines when the benchmark run ends.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np


def _keep_result(args, kwargs, result):
    return result


def _keep_curation(args, kwargs, result):
    # (dataset the pass started from, returned trace)
    return args[1], result[2]


def _keep_batch_count(args, kwargs, result):
    return len(args[1])


# Span name -> (lookup sites "module:attribute.path", payload kept for counts).
SITES = {
    "flywheel.run_flywheel": (
        ["facil.cli:run_flywheel", "facil.flywheel:run_flywheel", "facil.analysis:run_flywheel"],
        _keep_result,
    ),
    "curation.curate_expansion": (["facil.flywheel:curate_expansion"], _keep_curation),
    "curation.aggregated_tensor": (["facil.curation:aggregated_tensor"], None),
    "oracle.evaluate": (
        [
            "facil.flywheel:simulate_evaluation",
            "facil.flywheel:mapped_evaluation",
            "facil.flywheel:ratio_guided_evaluation",
            "facil.analysis:simulate_evaluation",
            "facil.analysis:mapped_evaluation",
        ],
        _keep_result,
    ),
    "oracle.success_tensor": (["facil.oracle:success_tensor"], None),
    "dataset.add_many": (["facil.flywheel:add_many"], _keep_batch_count),
    "dataset.add_demos": (["facil.dataset:add_demos", "facil.curation:add_demos"], None),
    "analysis.baseline_sampler": (["facil.analysis:baseline_sampler"], None),
    "serialize": (
        [
            "facil.flywheel:RunHistory.to_json",
            "facil.flywheel:RunHistory.iterations_csv",
            "facil.oracle:EvaluationReport.to_csv",
            "facil.cli:dataset_to_csv",
            "facil.cli:comparison_csv",
        ],
        _keep_result,
    ),
    "cli.parse_config": (["facil.cli:parse_config"], None),
}

ROOT_SPAN = "cli.main"


def _resolve(site: str):
    module_name, path = site.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def span_cells_visited(dataset, trace) -> int:
    """Cells one curation pass touched: each selection plus its hypercube spans.

    The span of selection s with support point d has 2**(dims where s and d
    differ) cells; the support grows by each earlier selection, as in
    ``curate_expansion``.
    """
    if not trace.steps:
        return 0
    seen = {tuple(c) for c in dataset.support}
    points = np.zeros((len(seen) + len(trace.steps), len(trace.steps[0].selected)), np.int64)
    points[: len(seen)] = sorted(seen)
    count = len(seen)
    visited = 0
    for step in trace.steps:
        differing = (points[:count] != np.asarray(step.selected)).sum(axis=1)
        visited += 1 + int(np.left_shift(1, differing).sum())
        if step.selected not in seen:
            seen.add(step.selected)
            points[count] = step.selected
            count += 1
    return visited


class Tracer:
    """Collects spans for a sequence of traced calls, one run id per call."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [run_id, name, start, end, parent, payload]
        self.run_id = 0
        self._stack: list[int] = []

    def _wrap(self, name, fn, keep):
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            record = [self.run_id, name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(record)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            if keep is not None:
                record[5] = keep(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Replace every lookup site with a wrapper; restore them on exit."""
        saved = []
        try:
            for name, (sites, keep) in SITES.items():
                for site in sites:
                    owner, attr = _resolve(site)
                    original = getattr(owner, attr)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original, keep))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def call(self, fn, *args):
        """Run fn as one traced call under a root span.

        Returns (result, per-layer metrics of this call, per-stage counts).
        """
        self.run_id += 1
        first = len(self.spans)
        with self.installed():
            result = self._wrap(ROOT_SPAN, fn, None)(*args)
        return (result, *self._summarize(first))

    def _summarize(self, first: int) -> tuple[dict[str, float], list[dict[str, int]]]:
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for record in spans:
            if record[4] is not None:
                child_time[record[4] - first] += record[3] - record[2]

        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        for record, children in zip(spans, child_time):
            name, duration = record[1], record[3] - record[2]
            total[name] = total.get(name, 0.0) + duration
            own[name] = own.get(name, 0.0) + duration - children
            calls[name] = calls.get(name, 0) + 1

        def kept(name):
            return [r[5] for r in spans if r[1] == name and r[5] is not None]

        histories = kept("flywheel.run_flywheel")
        reports = kept("oracle.evaluate")
        passes = kept("curation.curate_expansion")
        selections = sum(len(trace.steps) for _, trace in passes)
        newly_marked = sum(s.newly_marked for _, trace in passes for s in trace.steps)
        visited = sum(span_cells_visited(dataset, trace) for dataset, trace in passes)
        final = histories[-1].dataset if histories else None
        metrics = {
            "trace.wall_s": total[ROOT_SPAN],
            "cli.main.self_s": own[ROOT_SPAN],
            "cli.parse_config.s": total.get("cli.parse_config", 0.0),
            "flywheel.run_flywheel.self_s": own.get("flywheel.run_flywheel", 0.0),
            "flywheel.run_flywheel.calls": calls.get("flywheel.run_flywheel", 0),
            "flywheel.iterations": sum(h.iterations for h in histories),
            "curation.curate_expansion.self_s": own.get("curation.curate_expansion", 0.0),
            "curation.curate_expansion.calls": calls.get("curation.curate_expansion", 0),
            "curation.aggregated_tensor.s": total.get("curation.aggregated_tensor", 0.0),
            "curation.selections": selections,
            "curation.newly_marked": newly_marked,
            "curation.span_cells": visited,
            "curation.mark_yield": newly_marked / visited if visited else 0.0,
            "oracle.evaluate.self_s": own.get("oracle.evaluate", 0.0),
            "oracle.evaluate.calls": calls.get("oracle.evaluate", 0),
            "oracle.evaluate.cells": sum(r.space.cardinality for r in reports),
            "oracle.evaluate.rollouts": sum(r.total_rollouts for r in reports),
            "oracle.success_tensor.s": total.get("oracle.success_tensor", 0.0),
            "oracle.success_tensor.calls": calls.get("oracle.success_tensor", 0),
            "dataset.add_demos.s": total.get("dataset.add_demos", 0.0),
            "dataset.add_demos.calls": calls.get("dataset.add_demos", 0),
            "dataset.batches_folded": sum(kept("dataset.add_many")),
            "dataset.demos_final": final.total if final is not None else 0,
            "dataset.support_final": len(final.support) if final is not None else 0,
            "analysis.baseline_sampler.s": total.get("analysis.baseline_sampler", 0.0),
            "analysis.baseline_sampler.calls": calls.get("analysis.baseline_sampler", 0),
            "serialize.s": total.get("serialize", 0.0),
            "serialize.bytes": sum(len(text.encode("utf-8")) for text in kept("serialize")),
        }
        stages = [
            {
                "iterations": h.iterations,
                "rollouts": h.total_rollouts,
                "demos": h.dataset.total,
                "support": len(h.dataset.support),
            }
            for h in histories
        ]
        for record in spans:
            record[5] = None  # drop outputs once counted
        return metrics, stages

    def write_jsonl(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for index, (run_id, name, start, end, parent, _) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "run": run_id,
                            "span": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )
