"""End-to-end drivers: offline calibration and online tracking.

calibrate() runs the full offline chain on a validated dataset: per-detection
pose candidates, pairwise relative-pose voting (each pair keeps the sample
whose images of the three axis tips at 1 m agree best with the others'),
spanning-tree initialization of both camera and marker structures, the
object poses of all frames (one batched selection over every frame's
proposals by the same distance, not a loop per frame), and the joint
refinement (Levenberg-Marquardt with the frame poses eliminated
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
    CAMERA_PAIR,
    MARKER_PAIR,
    collect_camera_pairs,
    collect_marker_pairs,
    select_optimal,
)
from .planar_pose import (
    CandidateSet,
    Detection,
    candidate_set,
    corner_arrays,
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

# perfbench/tracing.py looks this name up to wrap it; nothing calls it
estimate_two_poses = None


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
    """Intermediate products kept for diagnostics and graph export. Each graph
    names its side; the spanning trees live on the result's cams and markers."""

    candidates: CandidateSet
    camera_graph: PoseGraph
    marker_graph: PoseGraph


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
    accumulators: dict, kind: str, config: CalibrationConfig, vertices, reference: int
) -> tuple[StructureEstimate, PoseGraph]:
    for acc in accumulators.values():
        select_optimal(acc)
    graph = build_graph(list(accumulators.values()), kind, config.tau_n, vertices)
    return chain_poses(graph, minimum_spanning_tree(graph), reference), graph


def calibrate(
    dataset, config: CalibrationConfig = CalibrationConfig()
) -> tuple[CalibrationResult, CalibrationArtifacts]:
    """Full offline calibration from detections alone.

    Returns the refined result, whose cams and markers hold the spanning
    trees, plus the candidate table and co-observation graphs. Cameras and
    markers with no usable detection (none at all, or only degenerate ones)
    are left out of the estimate; detections without a pose candidate are
    left out of the refinement and counted in its report's left_out. Raises
    NoValidPose when no detection is usable, and DisconnectedGraph when the
    remaining cameras (or markers) do not form one connected component.
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

    cams, cam_graph = _structure_side(
        collect_camera_pairs(candidates), CAMERA_PAIR, config, cam_vertices, ref_cam
    )
    markers, marker_graph = _structure_side(
        collect_marker_pairs(candidates), MARKER_PAIR, config, marker_vertices, ref_marker
    )

    proposals = frame_candidates(candidates, cams, markers)
    traj = build_trajectory(proposals, dataset.n_frames)

    init = CalibrationResult(
        cams=cams, markers=markers, traj=traj, marker_side=dataset.marker_side
    )
    # the table's rows are the detections in sorted key order
    posed = list(compress(sorted(dataset.detections, key=lambda d: d.key), candidates.counts))
    result = refine_all(init, posed, dataset.intrinsics, opts=config.solver)
    left_out = result.report.left_out + len(dataset.detections) - len(posed)
    result = replace(result, report=replace(result.report, left_out=left_out))
    return result, CalibrationArtifacts(candidates, cam_graph, marker_graph)


class TrackSession:
    """Stateful frame-by-frame tracking against a fixed calibration.

    Feeds each frame's detections to the pose solver. Frame t, the
    detections' t, starts from the constant-velocity prediction
    P1 (P0^-1 P1) when the last two tracked frames are t-2 and t-1, and from
    the last tracked pose P1 otherwise: the motion up to frame t is unknown
    on the second tracked frame and after an empty frame, an untracked frame
    or a jump in t, and is never extrapolated over. Frames with no
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
        self._motion: RigidTransform | None = None  # P0^-1 P1 of frames _warm_t - 1, _warm_t

    def feed(self, dets: list[Detection]) -> RigidTransform | None:
        t = dets[0].t if dets else None
        follows = self._warm_t is not None and t == self._warm_t + 1
        start = self.warm
        if follows and self._motion is not None:
            start = compose(self.warm, self._motion)
        try:
            pose, rms = self.tracker.solve(dets, warm=start, opts=self.opts)
        except NoValidPose:
            pose, rms = None, None
        if pose is not None:
            self._motion = compose(invert(self.warm), pose) if follows else None
            self.warm, self._warm_t = pose, t
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
