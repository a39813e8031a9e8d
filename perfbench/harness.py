"""Workloads, measurement loops and correctness gate of the markercal benchmark.

Every workload is generated in-process by ``markercal.synthetic.generate``
from the seed, written out and read back through ``markercal.dataset``, and
then driven through the public API (``pipeline.calibrate``,
``pipeline.track_sequence``, ``optimizer.track_frame``). README.md in this
directory says why each workload exists and which layer it stresses.
"""

from __future__ import annotations

import contextlib
import math
import os
import resource
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from markercal import dataset, optimizer, pipeline, synthetic
from markercal.frame_init import FrameState, Trajectory
from markercal.geometry import CameraIntrinsics, MarkerTemplate, rotation_angle

import hostspeed
import tracing

# criterion-2 tolerances a calibration must meet (mm, deg, mm, mm)
CAL_TOL = {"obj_err_mm": 2.0, "obj_rot_deg": 3.0, "cam_err_mm": 10.0, "marker_err_mm": 1.5}
# a tracked frame must land this close to its reference pose
FRAME_TOL_MM = 2.0
FRAME_TOL_DEG = 3.0

SETUP_REPEATS = 5  # set-ups per run; setup_s reports their median
WARMUP_SEED = 0  # the warm-up scene is fixed: it only has to touch the code paths
WARMUP_COLD_FRAMES = 20

# An operation is one calibrate() call on the calibration workloads and one
# frame solve on the tracking workloads. Operation timings are normalised to
# the host speed that hostspeed.Sampler records while they run.
E2E_UNITS = {
    "setup_s": "s",
    "op_p50_norm_ms": "ms",
    "op_p90_norm_ms": "ms",
    "ops_per_norm_s": "1/s",
    "final_rms_px": "px",
    "peak_rss_mb": "MB",
}
WALL_UNITS = {"op_p50_ms": "ms", "op_p90_ms": "ms", "ops_per_s": "1/s"}  # report only
LAYER_UNITS = {**tracing.LAYER_UNITS, "trace.overhead_ms": "ms"}

_ZOOM = CameraIntrinsics(fx=1800.0, fy=1800.0, cx=640.0, cy=480.0, width=1280, height=960)


def scene_spec(workload: str, seed: int, tiny: bool = False) -> synthetic.SceneSpec:
    """The acceptance-test scene behind each workload; `tiny` shortens it."""
    if workload == "ambiguity":  # criterion 5
        return synthetic.SceneSpec(
            n_cameras=5, circle_radius=0.20, camera_height=2.0, intrinsics=_ZOOM,
            object="flat-grid", marker_side=0.06, n_frames=10 if tiny else 100,
            trajectory="orbit", noise_sigma=0.5, ambiguity_stress=True, seed=seed,
        )
    if workload == "long_orbit":  # criterion 2 at five times the length
        return synthetic.SceneSpec(
            n_cameras=5, circle_radius=0.7, object="cube", marker_side=0.04,
            n_frames=20 if tiny else 1000, trajectory="orbit", noise_sigma=0.3,
            seed=seed,
        )
    if workload in ("track", "reacquire"):  # criterion 7
        return synthetic.SceneSpec(
            n_cameras=5, circle_radius=0.7, object="cube", marker_side=0.04,
            n_frames=20 if tiny else 735, trajectory="fast", noise_sigma=0.2,
            seed=seed,
        )
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Inputs:
    gt: synthetic.GroundTruth
    ds: dataset.Dataset
    by_frame: dict[int, list]


def set_up_inputs(spec: synthetic.SceneSpec, workdir: str) -> tuple[Inputs, list]:
    """Generate the scene and round-trip it through the dataset files.

    Repeats SETUP_REPEATS times and returns the last inputs with the
    (start, end) perf_counter interval of each set-up.
    """
    det_path = os.path.join(workdir, "detections.jsonl")
    intr_path = os.path.join(workdir, "intrinsics.json")
    spans = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        gt, dets, intr = synthetic.generate(spec)
        dataset.save_detections(dets, det_path)
        dataset.save_intrinsics(intr, intr_path)
        ds = dataset.load_dataset(det_path, intr_path, spec.marker_side, spec.n_frames)
        spans.append((start, time.perf_counter()))
    by_frame: dict[int, list] = {}
    for d in ds.detections:
        by_frame.setdefault(d.t, []).append(d)
    return Inputs(gt, ds, by_frame), spans


@dataclass
class Outcome:
    """Everything one side (untraced or traced) of a run measured."""

    attempted: int = 0
    failed: int = 0
    passes: int = 0
    op_s: list[float] = field(default_factory=list)  # latency of each operation
    op_start: list[float] = field(default_factory=list)  # perf_counter at its start
    op_key: list[int] = field(default_factory=list)  # its frame, or 0 for a calibration
    spans: list[tuple[float, float]] = field(default_factory=list)  # each measured pass
    rms_px: list[float] = field(default_factory=list)
    obj_mm: list[float] = field(default_factory=list)
    rot_deg: list[float] = field(default_factory=list)
    cam_mm: list[float] = field(default_factory=list)
    marker_mm: list[float] = field(default_factory=list)
    outputs: list[bytes] = field(default_factory=list)  # bytes written per pass
    errors: list[str] = field(default_factory=list)
    lm: list[dict] = field(default_factory=list)


def _file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _trajectory_bytes(traj: Trajectory, workdir: str) -> bytes:
    path = os.path.join(workdir, "trajectory.csv")
    dataset.save_trajectory_csv(traj, path)
    return _file_bytes(path)


class CalibrationWorkload:
    """The operation is one calibrate() call on the whole sequence.

    It fails if calibrate() raises or if synthetic.evaluate puts it outside
    the criterion-2 tolerances.
    """

    min_passes = 1

    def __init__(self, name: str):
        self.name = name

    def warm_up(self, workdir: str, inp: Inputs) -> None:
        spec = scene_spec(self.name, WARMUP_SEED, tiny=True)
        _, dets, intr = synthetic.generate(spec)
        pipeline.calibrate(dataset.Dataset(dets, intr, spec.marker_side, spec.n_frames))

    def one_pass(self, inp: Inputs, out: Outcome, workdir: str) -> None:
        out.passes += 1
        out.attempted += 1
        start = time.perf_counter()
        try:
            result, _ = pipeline.calibrate(inp.ds)
        except Exception:
            result = None
            out.errors.append(traceback.format_exc(limit=3))
        elapsed = time.perf_counter() - start
        out.op_s.append(elapsed)
        out.op_start.append(start)
        out.op_key.append(0)
        out.spans.append((start, start + elapsed))
        if result is None:
            out.failed += 1
            out.outputs.append(b"")
            return

        rep = result.report
        out.lm.append({"iterations": rep.iterations, "reason": rep.reason,
                       "initial_rms_px": rep.initial_rms, "final_rms_px": rep.final_rms})
        out.rms_px.append(rep.final_rms)
        try:
            err = synthetic.evaluate(result, inp.gt)
        except Exception:
            out.errors.append(traceback.format_exc(limit=3))
            out.failed += 1
            out.outputs.append(b"")
            return
        errs = {"obj_err_mm": err.obj_trans_err, "obj_rot_deg": err.obj_rot_err,
                "cam_err_mm": err.cam_trans_err, "marker_err_mm": err.marker_config_err}
        out.obj_mm.append(err.obj_trans_err)
        out.rot_deg.append(err.obj_rot_err)
        out.cam_mm.append(err.cam_trans_err)
        out.marker_mm.append(err.marker_config_err)
        missed = {k: v for k, v in errs.items() if not v < CAL_TOL[k]}
        if missed:
            out.errors.append(f"calibration misses criterion-2 tolerances: {missed}")
            out.failed += 1

        cal_path = os.path.join(workdir, "calibration.json")
        dataset.save_calibration(result, cal_path)
        out.outputs.append(_file_bytes(cal_path) + _trajectory_bytes(result.traj, workdir))


class TrackWorkload:
    """The operation is one frame solve; a pass replays the whole sequence.

    track_sequence warm-starts each frame from the previous pose. A frame
    fails if it returns no pose, raises, or lands more than FRAME_TOL_MM or
    FRAME_TOL_DEG from the ground-truth pose.
    """

    min_passes = 2  # two passes, so their outputs can be compared

    def __init__(self, name: str):
        self.name = name

    def _truth(self, inp: Inputs):
        return synthetic.result_from_ground_truth(inp.gt, inp.ds.marker_side)

    def warm_up(self, workdir: str, inp: Inputs) -> None:
        ds = inp.ds
        pipeline.track_sequence(self._truth(inp), ds.detections, ds.intrinsics, ds.n_frames)

    def one_pass(self, inp: Inputs, out: Outcome, workdir: str) -> None:
        ds = inp.ds
        frames = sorted(inp.by_frame)
        start = time.perf_counter()
        traj, rms_by_frame, times = pipeline.track_sequence(
            self._truth(inp), ds.detections, ds.intrinsics, ds.n_frames
        )
        end = time.perf_counter()
        frame_times = [times[t] for t in frames]
        # track_sequence times each frame but not its start; frames run back
        # to back, so each starts where the previous ones add up to
        starts = start + np.concatenate(([0.0], np.cumsum(frame_times)[:-1]))
        self._account(inp, out, traj, frame_times, starts.tolist(),
                      [rms_by_frame[t] for t in frames if t in rms_by_frame],
                      (start, end), workdir)

    def _account(self, inp, out, traj, frame_times, frame_starts, rms, span, workdir):
        refs = dict(inp.gt.traj_gt.tracked_items())
        out.passes += 1
        out.spans.append(span)
        out.op_s.extend(frame_times)
        out.op_start.extend(frame_starts)
        out.op_key.extend(sorted(inp.by_frame))
        out.rms_px.extend(rms)
        bad = 0
        for t in sorted(inp.by_frame):
            out.attempted += 1
            pose = traj.frames[t].pose
            if pose is None:
                bad += 1
                continue
            ref = refs[t]
            trans = 1000.0 * float(np.linalg.norm(pose.translation - ref.translation))
            rot = math.degrees(rotation_angle(pose.rotation @ ref.rotation.T))
            out.obj_mm.append(trans)
            out.rot_deg.append(rot)
            if not (trans <= FRAME_TOL_MM and rot <= FRAME_TOL_DEG):
                bad += 1
        out.failed += bad
        if bad:
            out.errors.append(f"{bad} of {len(inp.by_frame)} frames missed the ground truth")
        out.outputs.append(_trajectory_bytes(traj, workdir))


class ReacquireWorkload(TrackWorkload):
    """Every frame solved cold through track_frame(..., warm=None)."""

    def warm_up(self, workdir: str, inp: Inputs) -> None:
        truth = self._truth(inp)
        template = MarkerTemplate(inp.ds.marker_side)
        for t in sorted(inp.by_frame)[:WARMUP_COLD_FRAMES]:
            optimizer.track_frame(inp.by_frame[t], truth.cams.poses, truth.markers.poses,
                                  inp.ds.intrinsics, template, warm=None)

    def one_pass(self, inp: Inputs, out: Outcome, workdir: str) -> None:
        truth = self._truth(inp)
        cams, markers = truth.cams.poses, truth.markers.poses
        intr = inp.ds.intrinsics
        template = MarkerTemplate(inp.ds.marker_side)
        traj = Trajectory()
        frame_times, frame_starts, rms = [], [], []
        start = time.perf_counter()
        for t, dets in sorted(inp.by_frame.items()):
            t0 = time.perf_counter()
            frame_starts.append(t0)
            try:
                pose, frame_rms = optimizer.track_frame(dets, cams, markers, intr,
                                                        template, warm=None)
            except Exception:
                out.errors.append(traceback.format_exc(limit=3))
                pose, frame_rms = None, None
            frame_times.append(time.perf_counter() - t0)
            traj.frames[t] = FrameState(pose)
            if frame_rms is not None:
                rms.append(frame_rms)
        self._account(inp, out, traj, frame_times, frame_starts, rms,
                      (start, time.perf_counter()), workdir)


WORKLOADS = {
    "ambiguity": CalibrationWorkload,
    "long_orbit": CalibrationWorkload,
    "track": TrackWorkload,
    "reacquire": ReacquireWorkload,
}


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else math.nan


def _ms(op_s: list[float], q: float) -> float:
    return 1000.0 * float(np.percentile(op_s, q))


def _trimmed_mean(values: list[float]) -> float:
    """Mean without the fastest and slowest tenth, and at least one of each
    from three values on, so a pass the host or the sampler stalled drops out."""
    values = sorted(values)
    k = max(1, len(values) // 10) if len(values) >= 3 else 0
    return statistics.fmean(values[k:len(values) - k])


def per_op_s(out: Outcome, speed: hostspeed.Sampler | None = None) -> list[float]:
    """Each operation's time over the passes, normalised if `speed` is given.

    One value per frame (or per calibration). The latency percentiles are
    taken over these, so they describe how solve cost spreads over the
    frames rather than how the host's speed spread over the run.
    """
    by_key = defaultdict(list)
    for key, start, s in zip(out.op_key, out.op_start, out.op_s):
        by_key[key].append(speed.scaled(start, start + s) if speed else s)
    return [_trimmed_mean(v) for v in by_key.values()]


def wall_timings(out: Outcome) -> dict[str, float]:
    """Operation latencies and rate in plain wall time, for the report."""
    op_s = per_op_s(out)
    busy_s = sum(end - start for start, end in out.spans)
    return {"op_p50_ms": _ms(op_s, 50), "op_p90_ms": _ms(op_s, 90),
            "ops_per_s": (out.attempted - out.failed) / busy_s}


def end_to_end(out: Outcome, speed: hostspeed.Sampler, setup_s: float) -> dict[str, float]:
    op_s = per_op_s(out, speed)
    busy_s = sum(speed.scaled(start, end) for start, end in out.spans)
    return {
        "setup_s": setup_s,
        "op_p50_norm_ms": _ms(op_s, 50),
        "op_p90_norm_ms": _ms(op_s, 90),
        "ops_per_norm_s": (out.attempted - out.failed) / busy_s,
        "final_rms_px": _mean(out.rms_px),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _measure(work, inp: Inputs, out: Outcome, seconds: float, workdir: str) -> None:
    deadline = time.perf_counter() + seconds
    while True:
        work.one_pass(inp, out, workdir)
        if out.passes >= work.min_passes and time.perf_counter() >= deadline:
            return


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str,
        import_s: float = 0.0, tiny: bool = False):
    """Set up, warm up and measure one workload.

    Returns (metrics {name: value}, verdict {attempted, failed, correct},
    report dict, tracer or None). With trace=False the metrics are
    E2E_UNITS; with trace=True one traced pass follows the untraced ones and
    the metrics are LAYER_UNITS.
    """
    work = WORKLOADS[workload](workload)
    spec = scene_spec(workload, seed, tiny)
    tracer = tracing.Tracer() if trace else None

    with hostspeed.Sampler() as setup_speed:
        with tracing.installed(tracer) if trace else contextlib.nullcontext():
            inp, setup_spans = set_up_inputs(spec, workdir)
        start = time.perf_counter()
        work.warm_up(workdir, inp)
        warm_up = (start, time.perf_counter())
    # set-up time, normalised like the operations; the imports ended just
    # before the sampler's first sample
    first = setup_speed.times[0]
    setup_s = (import_s * setup_speed.factor(first, first)
               + statistics.median(setup_speed.scaled(*span) for span in setup_spans)
               + setup_speed.scaled(*warm_up))

    out = Outcome()
    with hostspeed.Sampler() as speed:
        _measure(work, inp, out, seconds, workdir)
    metrics = end_to_end(out, speed, setup_s)
    wall = wall_timings(out)
    # None when only one pass ran: a single output has nothing to compare with
    checks = {"repeat_bytes_equal": len(set(out.outputs)) == 1 if out.passes >= 2 else None}
    attempted, failed, errors = out.attempted, out.failed, list(out.errors)

    report = {
        "workload": workload,
        "seed": seed,
        "detections": len(inp.ds.detections),
        "frames": inp.ds.n_frames,
        "passes": out.passes,
        "op_samples": len(out.op_s),
        "import_s": import_s,  # this and the next two in wall time
        "setup_one_s": statistics.median(end - start for start, end in setup_spans),
        "warm_up_s": warm_up[1] - warm_up[0],
        **{k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
        **{k: {"value": v, "unit": WALL_UNITS[k]} for k, v in wall.items()},
        "host_kernel": speed.summary(),
        "obj_err_mm": {"value": _mean(out.obj_mm), "unit": "mm"},
        "obj_rot_deg": {"value": _mean(out.rot_deg), "unit": "deg"},
    }
    if isinstance(work, CalibrationWorkload):
        report["calibrate_s"] = {"value": statistics.median(out.op_s), "unit": "s"}
        report["cam_err_mm"] = {"value": _mean(out.cam_mm), "unit": "mm"}
        report["marker_err_mm"] = {"value": _mean(out.marker_mm), "unit": "mm"}
        report["lm"] = out.lm
    else:
        report["pose_rate"] = {"value": wall["ops_per_s"], "unit": "1/s"}
        report["frame_p50_ms"] = {"value": wall["op_p50_ms"], "unit": "ms"}
        report["frame_p90_ms"] = {"value": wall["op_p90_ms"], "unit": "ms"}

    if trace:
        traced = Outcome()
        with tracing.installed(tracer), hostspeed.Sampler() as traced_speed:
            work.one_pass(inp, traced, workdir)
        checks["traced_bytes_equal"] = traced.outputs[0] == out.outputs[0]
        checks["spans_nest"] = not tracer.nesting_errors()
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead_ms"] = (_ms(per_op_s(traced, traced_speed), 50)
                                        - _ms(per_op_s(out, speed), 50))
        attempted += traced.attempted
        failed += traced.failed
        errors += traced.errors

    report["fail_frac"] = {"value": failed / attempted, "unit": "fraction"}
    report["checks"] = checks
    report["errors"] = errors[:5]
    verdict = {"correct": failed == 0 and False not in checks.values(),
               "attempted": attempted, "failed": failed}
    return metrics, verdict, report, tracer
