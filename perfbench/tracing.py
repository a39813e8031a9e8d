"""Spans and counters recorded around markercal's layer boundaries.

Tracing is installed from outside the program. Each entry of PATCHES names
the attribute that callers resolve at call time (a module global such as
``markercal.pipeline.estimate_two_poses``, or a method on a class), and
``installed()`` swaps in a wrapper that records a span around the original
call and restores the original on exit. Nothing under ``src/`` knows about
tracing, so a traced run executes the same program code as an untraced one.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from markercal.pipeline import CalibrationConfig
from markercal.planar_pose import candidate_set

_TAU_RATIO = CalibrationConfig().tau_ratio


class Tracer:
    """In-memory span list plus named counters.

    Spans are stored as parallel lists; ``parent[i]`` is the index of the
    span that was open when span ``i`` started, or -1 at the top level.
    """

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] += n

    def peak(self, key: str, n: int) -> None:
        self.counters[key] = max(self.counters[key], n)

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = self.durations()
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def nesting_errors(self) -> list[str]:
        """Children that are unclosed or stick out of their parent's interval."""
        errors = []
        for i, p in enumerate(self.parent):
            if not self.end[i] >= self.start[i]:
                errors.append(f"span {i} ({self.names[i]}) not closed")
            elif p >= 0 and not (
                self.start[p] <= self.start[i] and self.end[i] <= self.end[p]
            ):
                errors.append(f"span {i} ({self.names[i]}) outside parent {p}")
        return errors


def _wrap(tracer: Tracer, fn, name: str, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            tracer.close(idx)
            tracer.count(name + ".raised")
            raise
        tracer.close(idx)
        if hook is not None:
            hook(tracer, args, result)
        return result

    return traced


# -- counter hooks: run after the span closes, so their cost lands in the
# -- parent's self time and in the reported tracing overhead.


def _planar(tracer, args, h):
    if len(candidate_set(h, _TAU_RATIO)) == 2:
        tracer.count("planar_pose.ambiguous")


def _pairs(tracer, args, accs):
    for acc in accs.values():
        n = len(acc.samples)
        tracer.count("pairwise.pairs")
        tracer.count("pairwise.samples", n)
        tracer.peak("pairwise.max_pair_samples", n)


def _proposals(tracer, args, fc):
    n = len(fc.candidates)
    tracer.count("frame_init.proposals", n)
    tracer.peak("frame_init.max_frame_proposals", n)


def _graph(tracer, args, graph):
    tracer.count("structure_init.edges", len(graph.edges))


def _lm(tracer, args, result):
    _, report = result
    tracer.count("optimizer.lm_iterations", report.iterations)
    tracer.count("optimizer.lm_accepted", report.accepted_steps)
    tracer.count("optimizer.params", np.size(args[0]))


def _system(tracer, args, system):
    tracer.peak("optimizer.residuals", system.residuals.size)


def _track_solve(tracer, args, result):
    tracer.count("optimizer.track_iterations", args[0].last_iterations)


def _project(tracer, args, result):
    tracer.count("geometry.project_points", np.size(args[0]) // 3)


# (module, attribute path, span name, counter hook)
PATCHES = (
    ("markercal.synthetic", "generate", "synthetic.generate", None),
    ("markercal.dataset", "load_dataset", "dataset.load", None),
    ("markercal.pipeline", "calibrate", "pipeline.calibrate", None),
    ("markercal.pipeline", "track_sequence", "pipeline.track_sequence", None),
    ("markercal.pipeline", "estimate_two_poses", "planar_pose", _planar),
    ("markercal.optimizer", "estimate_two_poses", "planar_pose", _planar),
    ("markercal.pipeline", "collect_camera_pairs", "pairwise.collect", _pairs),
    ("markercal.pipeline", "collect_marker_pairs", "pairwise.collect", _pairs),
    ("markercal.pipeline", "select_optimal", "pairwise.select", None),
    ("markercal.pipeline", "build_graph", "structure_init", _graph),
    ("markercal.pipeline", "minimum_spanning_tree", "structure_init", None),
    ("markercal.pipeline", "chain_poses", "structure_init", None),
    ("markercal.pipeline", "frame_candidates", "frame_init.candidates", _proposals),
    ("markercal.pipeline", "build_trajectory", "frame_init.select", None),
    ("markercal.pipeline", "refine_all", "optimizer.refine", None),
    ("markercal.optimizer", "lm_minimize", "optimizer.lm", _lm),
    ("markercal.optimizer", "ResidualBuilder.system", "optimizer.jacobian", _system),
    ("markercal.optimizer", "ResidualBuilder.residuals", "optimizer.residual", None),
    ("markercal.optimizer", "spsolve", "optimizer.solve", None),
    ("markercal.optimizer", "FrameTracker.solve", "optimizer.track_solve", _track_solve),
    ("markercal.optimizer", "FrameTracker.cold_start", "optimizer.cold_start", None),
    ("markercal.optimizer", "project_arrays", "geometry.project", _project),
    ("markercal.planar_pose", "project", "geometry.project", _project),
)


@contextmanager
def installed(tracer: Tracer):
    """Route every patched attribute through `tracer` until the block exits."""
    saved = []
    try:
        for module_name, path, span, hook in PATCHES:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, span, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# name -> unit of every per-layer metric, in report order
LAYER_UNITS = {
    "planar_pose.calls": "count",
    "planar_pose.s": "s",
    "planar_pose.failed": "count",
    "planar_pose.ambiguous_frac": "fraction",
    "pairwise.collect_s": "s",
    "pairwise.select_s": "s",
    "pairwise.select_calls": "count",
    "pairwise.pairs": "count",
    "pairwise.samples": "count",
    "pairwise.max_pair_samples": "count",
    "frame_init.candidates_s": "s",
    "frame_init.select_s": "s",
    "frame_init.proposals": "count",
    "frame_init.max_frame_proposals": "count",
    "structure_init.s": "s",
    "structure_init.edges": "count",
    "optimizer.refine_s": "s",
    "optimizer.lm_s": "s",
    "optimizer.normal_eq_s": "s",
    "optimizer.jacobian_s": "s",
    "optimizer.jacobian_calls": "count",
    "optimizer.residual_s": "s",
    "optimizer.residual_calls": "count",
    "optimizer.solve_s": "s",
    "optimizer.solve_calls": "count",
    "optimizer.lm_iterations": "count",
    "optimizer.lm_accept_ratio": "fraction",
    "optimizer.params": "count",
    "optimizer.residuals": "count",
    "optimizer.track_solve_s": "s",
    "optimizer.track_solve_calls": "count",
    "optimizer.track_iterations": "count",
    "optimizer.cold_start_s": "s",
    "optimizer.cold_start_calls": "count",
    "optimizer.cold_start_planar_s": "s",
    "geometry.project_calls": "count",
    "geometry.project_points": "count",
    "geometry.project_s": "s",
    "pipeline.self_s": "s",
    "dataset.load_s": "s",
    "synthetic.generate_s": "s",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals from one traced run, keyed as in LAYER_UNITS.

    Times are inclusive span totals unless the name says self time
    (normal_eq_s is LM's self time, pipeline.self_s the pipeline drivers'
    self time). dataset.load_s and synthetic.generate_s are medians per
    set-up, matching how setup_s is reported.
    """
    dur = tracer.durations()
    self_t = tracer.self_times()
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    per_call: dict[str, list[float]] = defaultdict(list)
    cold_planar = 0.0
    for i, name in enumerate(tracer.names):
        total[name] += dur[i]
        own[name] += self_t[i]
        calls[name] += 1
        per_call[name].append(dur[i])
        p = tracer.parent[i]
        if name == "planar_pose" and p >= 0 and tracer.names[p] == "optimizer.cold_start":
            cold_planar += dur[i]
    c = tracer.counters
    planar_ok = calls["planar_pose"] - c["planar_pose.raised"]
    lm_iters = c["optimizer.lm_iterations"]

    def median(name):
        return statistics.median(per_call[name]) if per_call[name] else 0.0

    return {
        "planar_pose.calls": calls["planar_pose"],
        "planar_pose.s": total["planar_pose"],
        "planar_pose.failed": c["planar_pose.raised"],
        "planar_pose.ambiguous_frac": c["planar_pose.ambiguous"] / planar_ok if planar_ok else 0.0,
        "pairwise.collect_s": total["pairwise.collect"],
        "pairwise.select_s": total["pairwise.select"],
        "pairwise.select_calls": calls["pairwise.select"],
        "pairwise.pairs": c["pairwise.pairs"],
        "pairwise.samples": c["pairwise.samples"],
        "pairwise.max_pair_samples": c["pairwise.max_pair_samples"],
        "frame_init.candidates_s": total["frame_init.candidates"],
        "frame_init.select_s": total["frame_init.select"],
        "frame_init.proposals": c["frame_init.proposals"],
        "frame_init.max_frame_proposals": c["frame_init.max_frame_proposals"],
        "structure_init.s": total["structure_init"],
        "structure_init.edges": c["structure_init.edges"],
        "optimizer.refine_s": total["optimizer.refine"],
        "optimizer.lm_s": total["optimizer.lm"],
        "optimizer.normal_eq_s": own["optimizer.lm"],
        "optimizer.jacobian_s": total["optimizer.jacobian"],
        "optimizer.jacobian_calls": calls["optimizer.jacobian"],
        "optimizer.residual_s": total["optimizer.residual"],
        "optimizer.residual_calls": calls["optimizer.residual"],
        "optimizer.solve_s": total["optimizer.solve"],
        "optimizer.solve_calls": calls["optimizer.solve"],
        "optimizer.lm_iterations": lm_iters,
        "optimizer.lm_accept_ratio": c["optimizer.lm_accepted"] / lm_iters if lm_iters else 0.0,
        "optimizer.params": c["optimizer.params"],
        "optimizer.residuals": c["optimizer.residuals"],
        "optimizer.track_solve_s": total["optimizer.track_solve"],
        "optimizer.track_solve_calls": calls["optimizer.track_solve"],
        "optimizer.track_iterations": c["optimizer.track_iterations"],
        "optimizer.cold_start_s": total["optimizer.cold_start"],
        "optimizer.cold_start_calls": calls["optimizer.cold_start"],
        "optimizer.cold_start_planar_s": cold_planar,
        "geometry.project_calls": calls["geometry.project"],
        "geometry.project_points": c["geometry.project_points"],
        "geometry.project_s": total["geometry.project"],
        "pipeline.self_s": own["pipeline.calibrate"] + own["pipeline.track_sequence"],
        "dataset.load_s": median("dataset.load"),
        "synthetic.generate_s": median("synthetic.generate"),
    }
