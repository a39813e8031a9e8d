"""End-to-end drivers: offline calibration and online tracking.

calibrate() runs the full offline chain on a validated dataset: per-detection
pose candidates, pairwise relative-pose voting, spanning-tree initialization
of both camera and marker structures, the object poses of all frames (one
batched selection over every frame's proposals, not a loop per frame), and
the joint refinement (Levenberg-Marquardt with the frame poses eliminated
blockwise).
track_sequence() replays a detection stream against a finished calibration,
starting each frame from the motion of the frames before it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from itertools import compress

from .errors import NoValidPose, ValidationError
from .frame_init import (
    SOURCE_TRACKED,
    FrameState,
    Trajectory,
    build_trajectory,
    frame_candidates,
)
from .geometry import CameraIntrinsics, MarkerTemplate, RigidTransform, compose, invert
from .optimizer import (
    CalibrationResult,
    FrameTracker,
    SolverOptions,
    refine_all,
)
from .pairwise import (
    collect_camera_pairs,
    collect_marker_pairs,
    probe_points,
    select_optimal,
)
from .planar_pose import (
    CandidateSet,
    Detection,
    candidate_set,
    corner_arrays,
    estimate_two_poses,  # noqa: F401  bound by name for perfbench/tracing.py
    planar_poses,
)
from .structure_init import (
    DEFAULT_TAU_N,
    PoseGraph,
    StructureEstimate,
    build_graph,
    chain_poses,
    minimum_spanning_tree,
)

# m; the axis probe points used to compare transforms sit this far out
PROBE_SCALE = 1.0


@dataclass(frozen=True)
class CalibrationConfig:
    """Knobs for the offline calibration chain.

    tau_ratio gates the two-pose ambiguity test (a detection whose
    second-best reprojection error is less than tau_ratio times the best
    keeps both poses); ratios are at least 1, so tau_ratio=1 keeps only the
    best pose of every detection. tau_n inflates graph edge weights for
    pairs seen in fewer than tau_n samples. ref_camera and ref_marker fix
    the gauge; they default to the lowest id present. solver holds the LM
    iteration budget and stop threshold.
    """

    tau_ratio: float = 2.0
    tau_n: float = DEFAULT_TAU_N
    ref_camera: int | None = None
    ref_marker: int | None = None
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        # written so that NaN fails too
        if not self.tau_ratio >= 1.0:
            raise ValidationError(f"tau_ratio must be >= 1, got {self.tau_ratio}")
        if not self.tau_n >= 1.0:
            raise ValidationError(f"tau_n must be >= 1, got {self.tau_n}")


@dataclass
class CalibrationArtifacts:
    """Intermediate products kept for diagnostics and graph export."""

    candidates: CandidateSet
    camera_graph: PoseGraph
    marker_graph: PoseGraph
    camera_tree: list
    marker_tree: list


def detection_candidates(
    dataset, config: CalibrationConfig = CalibrationConfig()
) -> CandidateSet:
    """The table of candidate marker-to-camera poses of every detection.

    Detections whose corners are degenerate or whose solutions all fall
    behind the camera keep no pose and propose nothing to later stages.
    """
    dets = dataset.detections
    poses = planar_poses(*corner_arrays(dets, dataset.intrinsics), MarkerTemplate(dataset.marker_side))
    return candidate_set(poses, [d.key for d in dets], config.tau_ratio)


def _pick_reference(requested: int | None, vertices, kind: str) -> int:
    if requested is None:
        return min(vertices)
    if requested not in vertices:
        raise ValidationError(
            f"reference {kind} {requested} has no usable detections"
        )
    return requested


def _structure_side(
    accumulators: dict, config: CalibrationConfig, vertices, reference: int
) -> tuple[StructureEstimate, PoseGraph, list]:
    probe = probe_points(PROBE_SCALE)
    for acc in accumulators.values():
        select_optimal(acc, probe)
    graph = build_graph(list(accumulators.values()), config.tau_n, vertices=vertices)
    tree = minimum_spanning_tree(graph)
    return chain_poses(graph, tree, reference), graph, tree


def calibrate(
    dataset, config: CalibrationConfig = CalibrationConfig()
) -> tuple[CalibrationResult, CalibrationArtifacts]:
    """Full offline calibration from detections alone.

    Returns the refined result plus the intermediate artifacts (candidate
    table, co-observation graphs, spanning trees). Cameras and markers with
    no usable detection (none at all, or only degenerate ones) are left out
    of the estimate; detections without a pose candidate are left out of the
    refinement and counted in its report's left_out. Raises NoValidPose when
    no detection is usable, and DisconnectedGraph when the remaining cameras
    (or markers) do not form one connected component.
    """
    if not dataset.detections:
        raise ValidationError("dataset contains no detections")

    candidates = detection_candidates(dataset, config)

    usable = candidates.keys[candidates.counts > 0]
    if not len(usable):
        raise NoValidPose("no detection yields a usable pose")
    cam_vertices = sorted(set(usable[:, 1].tolist()))
    marker_vertices = sorted(set(usable[:, 2].tolist()))
    ref_cam = _pick_reference(config.ref_camera, cam_vertices, "camera")
    ref_marker = _pick_reference(config.ref_marker, marker_vertices, "marker")

    cam_pairs = collect_camera_pairs(candidates)
    marker_pairs = collect_marker_pairs(candidates)
    cams, cam_graph, cam_tree = _structure_side(cam_pairs, config, cam_vertices, ref_cam)
    markers, marker_graph, marker_tree = _structure_side(
        marker_pairs, config, marker_vertices, ref_marker
    )

    proposals = frame_candidates(candidates, cams, markers)
    traj = build_trajectory(proposals, probe_points(PROBE_SCALE), dataset.n_frames)

    init = CalibrationResult(
        cams=cams, markers=markers, traj=traj, marker_side=dataset.marker_side
    )
    # the table's rows are the detections in sorted key order
    posed = list(compress(sorted(dataset.detections, key=lambda d: d.key), candidates.counts))
    result = refine_all(init, posed, dataset.intrinsics, opts=config.solver)
    left_out = result.report.left_out + len(dataset.detections) - len(posed)
    result = replace(result, report=replace(result.report, left_out=left_out))
    artifacts = CalibrationArtifacts(
        candidates=candidates,
        camera_graph=cam_graph,
        marker_graph=marker_graph,
        camera_tree=cam_tree,
        marker_tree=marker_tree,
    )
    return result, artifacts


# A frame started from the constant-velocity prediction is solved again
# from the last pose when its rms ends above this multiple of the last
# frame's. On the `track` scenes (seeds 0, 5) a frame's rms is at most 1.62
# times the last one's; where the prediction overshoots a sudden turn (the
# ambiguity-stress scenes), LM can stop at 90-260 times it.
_RETRY_RMS_RATIO = 2.0


class TrackSession:
    """Stateful frame-by-frame tracking against a fixed calibration.

    Feeds each frame's detections to the pose solver. Frame t, the
    detections' t, starts from the constant-velocity prediction
    P1 (P0^-1 P1) when the last two tracked frames are t-2 and t-1, and from
    the last tracked pose P1 otherwise: the motion up to frame t is unknown
    on the second tracked frame and after an empty frame, an untracked frame
    or a jump in t, and is never extrapolated over. A frame started from the
    prediction whose rms ends above _RETRY_RMS_RATIO times the last frame's
    is solved again from P1, and the lower rms is kept. Frames with no
    detections, and frames before the first pose whose detections are all
    unusable (no cold-start candidate), produce None and clear nothing:
    `warm` stays the last tracked pose.
    """

    def __init__(
        self,
        result: CalibrationResult,
        intrinsics: dict[int, CameraIntrinsics],
        opts: SolverOptions = SolverOptions(),
    ):
        self.tracker = FrameTracker(
            result.cams.poses,
            result.markers.poses,
            intrinsics,
            MarkerTemplate(result.marker_side),
        )
        self.opts = opts
        self.warm: RigidTransform | None = None
        self.last_rms: float | None = None
        self._warm_t: int | None = None  # the frame index of `warm`
        self._warm_rms: float | None = None  # the rms of `warm`
        self._motion: RigidTransform | None = None  # P0^-1 P1 of frames _warm_t - 1, _warm_t

    def feed(self, dets: list[Detection]) -> RigidTransform | None:
        t = dets[0].t if dets else None
        follows = self._warm_t is not None and t == self._warm_t + 1
        start = self.warm
        if follows and self._motion is not None:
            start = compose(self.warm, self._motion)
        try:
            pose, rms = self.tracker.solve(dets, warm=start, opts=self.opts)
            if start is not self.warm and rms > _RETRY_RMS_RATIO * self._warm_rms:
                # the prediction overshot a turn: the last pose may fit better
                retry = self.tracker.solve(dets, warm=self.warm, opts=self.opts)
                pose, rms = min((pose, rms), retry, key=lambda fit: fit[1])
        except NoValidPose:
            pose, rms = None, None
        if pose is not None:
            self._motion = compose(invert(self.warm), pose) if follows else None
            self.warm, self._warm_t, self._warm_rms = pose, t, rms
        self.last_rms = rms
        return pose


def track_sequence(
    result: CalibrationResult,
    detections: list[Detection],
    intrinsics: dict[int, CameraIntrinsics],
    n_frames: int | None = None,
    opts: SolverOptions = SolverOptions(),
) -> tuple[Trajectory, dict[int, float], list[float]]:
    """Track every frame of a recorded sequence.

    Returns the trajectory (frames without detections get a None pose),
    per-frame rms for the solved frames, and per-frame wall-clock seconds
    (timing is reported to the caller, never written into result files).
    Raises ValidationError for a detection outside frames 0..n_frames-1.
    """
    if n_frames is None:
        n_frames = 1 + max((d.t for d in detections), default=-1)
    by_frame: dict[int, list[Detection]] = {}
    for d in detections:
        if not 0 <= d.t < n_frames:
            raise ValidationError(f"frame index {d.t} outside the declared {n_frames} frames")
        by_frame.setdefault(d.t, []).append(d)

    session = TrackSession(result, intrinsics, opts)
    traj = Trajectory()
    rms_by_frame: dict[int, float] = {}
    times = []
    for t in range(n_frames):
        t0 = time.perf_counter()
        pose = session.feed(by_frame.get(t, []))
        times.append(time.perf_counter() - t0)
        traj.frames[t] = FrameState(pose, SOURCE_TRACKED)
        if pose is not None:
            rms_by_frame[t] = session.last_rms
    return traj, rms_by_frame, times
