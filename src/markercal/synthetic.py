"""Synthetic multi-camera marker scenes and the evaluation harness.

Scenes place cameras on a circle looking at its center, attach square
markers to a rigid object (cube, pentagonal prism, flat grid or explicit
poses) and move the object along a parametric trajectory. Detections are
the projected marker corners of every visible (frame, camera, marker)
triple, optionally perturbed by i.i.d. Gaussian pixel noise. Everything is
deterministic given the SceneSpec seed.

Evaluation aligns estimates to ground truth with the closed-form
least-squares (Horn) method before differencing, so a global rigid offset
between the two gauges never counts as error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateConfiguration, FrameMismatch, InvalidSpec
from .frame_init import FrameState, Trajectory
from .geometry import (
    MIN_DEPTH,
    CameraIntrinsics,
    MarkerTemplate,
    RigidTransform,
    compose,
    invert,
    project,
    rotation_angle,
    rotation_from_rvec,
)
from .optimizer import CalibrationResult
from .planar_pose import Detection
from .structure_init import StructureEstimate

# a marker is considered detectable up to ~85 degrees of grazing incidence
GRAZING_COS = 0.087

OBJECT_KINDS = ("cube", "pentagon", "flat-grid")
TRAJECTORY_KINDS = ("static", "orbit", "fast")


def _default_intrinsics() -> CameraIntrinsics:
    return CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0)


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of a synthetic capture session."""

    n_cameras: int = 5
    circle_radius: float = 1.0
    camera_height: float = 0.4
    intrinsics: CameraIntrinsics = field(default_factory=_default_intrinsics)
    object: str | dict[int, RigidTransform] = "cube"
    marker_side: float = 0.04
    n_frames: int = 100
    trajectory: str = "static"
    noise_sigma: float = 0.0
    ambiguity_stress: bool = False
    seed: int = 0

    def __post_init__(self):
        # written so that NaN and +-inf fail too
        if self.n_cameras < 1:
            raise InvalidSpec("n_cameras must be at least 1")
        if not 0 < self.circle_radius < math.inf:
            raise InvalidSpec(
                f"circle_radius must be positive and finite, got {self.circle_radius}"
            )
        if not math.isfinite(self.camera_height):
            raise InvalidSpec(f"camera_height must be finite, got {self.camera_height}")
        if not 0 < self.marker_side < math.inf:
            raise InvalidSpec(f"marker_side must be positive and finite, got {self.marker_side}")
        if self.n_frames < 1:
            raise InvalidSpec("n_frames must be at least 1")
        if isinstance(self.object, str):
            if self.object not in OBJECT_KINDS:
                raise InvalidSpec(f"unknown object kind {self.object!r}")
        elif not self.object:
            raise InvalidSpec("explicit marker layout is empty")
        if self.trajectory not in TRAJECTORY_KINDS:
            raise InvalidSpec(f"unknown trajectory kind {self.trajectory!r}")
        if not 0 <= self.noise_sigma < math.inf:
            raise InvalidSpec(
                f"noise_sigma must be non-negative and finite, got {self.noise_sigma}"
            )


@dataclass(frozen=True)
class GroundTruth:
    """True poses in the same gauge the pipeline estimates.

    cams_gt[c] maps camera c into the reference (lowest-id) camera frame,
    markers_gt[m] maps marker m into the reference marker frame, and
    traj_gt holds the reference-marker-to-reference-camera pose per frame.
    """

    cams_gt: StructureEstimate
    markers_gt: StructureEstimate
    traj_gt: Trajectory


@dataclass(frozen=True)
class ErrorReport:
    obj_trans_err: float  # mm, mean over frames after trajectory alignment
    obj_rot_err: float  # degrees, mean over frames
    cam_trans_err: float  # mm, mean over cameras after center alignment
    marker_config_err: float  # mm, mean corner discrepancy of the structure


def _frame_axes(forward: np.ndarray, up_hint: np.ndarray) -> np.ndarray:
    """Right-handed rotation whose third column is `forward`."""
    z = forward / np.linalg.norm(forward)
    x = np.cross(up_hint, z)
    if np.linalg.norm(x) < 1e-8:
        x = np.cross(np.array([0.0, 1.0, 0.0]), z)
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    return np.column_stack([x, y, z])


def _camera_ring(spec: SceneSpec) -> list[RigidTransform]:
    """Camera-to-world poses, evenly spaced on the circle, aimed at origin."""
    out = []
    for c in range(spec.n_cameras):
        th = 2.0 * math.pi * c / spec.n_cameras
        pos = np.array(
            [
                spec.circle_radius * math.cos(th),
                spec.circle_radius * math.sin(th),
                spec.camera_height,
            ]
        )
        rot = _frame_axes(-pos, np.array([0.0, 0.0, -1.0]))
        out.append(RigidTransform(rot, pos))
    return out


def marker_layout(kind: str, side: float) -> dict[int, RigidTransform]:
    """Marker-to-object poses for the built-in rigid objects.

    cube: 4 markers on the vertical faces of a cube of edge 1.5*side.
    pentagon: 5 markers on the side faces of a pentagonal prism.
    flat-grid: 6 coplanar markers in a 3x2 grid facing +z.
    """
    up = np.array([0.0, 0.0, 1.0])
    if kind == "cube":
        half = 0.75 * side
        normals = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]
        return {
            i: RigidTransform(_frame_axes(np.array(n, dtype=np.float64), up),
                              half * np.array(n, dtype=np.float64))
            for i, n in enumerate(normals)
        }
    if kind == "pentagon":
        out = {}
        for i in range(5):
            th = 2.0 * math.pi * i / 5.0
            n = np.array([math.cos(th), math.sin(th), 0.0])
            out[i] = RigidTransform(_frame_axes(n, up), side * n)
        return out
    if kind == "flat-grid":
        pitch = 1.5 * side
        out = {}
        for i in range(6):
            row, col = divmod(i, 3)
            pos = np.array([(col - 1) * pitch, (row - 0.5) * pitch, 0.0])
            out[i] = RigidTransform(np.eye(3), pos)
        return out
    raise InvalidSpec(f"unknown object kind {kind!r}")


def _base_trajectory(spec: SceneSpec, rng) -> list[RigidTransform]:
    """Object-to-world pose per frame, before any ambiguity stressing."""
    n = spec.n_frames
    if spec.trajectory == "static":
        # a few held placements; the first is the canonical attitude
        k = min(4, n)
        placements = [RigidTransform.identity()]
        for _ in range(k - 1):
            rot = rotation_from_rvec(0.5 * rng.normal(size=3))
            placements.append(RigidTransform(rot, 0.05 * rng.normal(size=3)))
        return [placements[(t * k) // n] for t in range(n)]
    turns = 1.0 if spec.trajectory == "orbit" else 4.0
    radius = 0.08 if spec.trajectory == "orbit" else 0.15
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    base = rotation_from_rvec(0.3 * rng.normal(size=3))
    out = []
    for t in range(n):
        th = 2.0 * math.pi * turns * t / n
        rot = rotation_from_rvec(axis * th) @ base
        pos = radius * np.array([math.cos(th), math.sin(th), 0.5 * math.sin(2.0 * th)])
        out.append(RigidTransform(rot, pos))
    return out


def _stress_trajectory(traj, spec, rng, cam_world, marker_obj):
    """Re-aim the object so one marker faces one camera head-on each frame."""
    marker_ids = sorted(marker_obj)
    out = []
    for t, pose in enumerate(traj):
        cam_pos = cam_world[t % spec.n_cameras].translation
        m = marker_ids[t % len(marker_ids)]
        normal_obj = marker_obj[m].rotation[:, 2]
        d = cam_pos - pose.translation
        d /= np.linalg.norm(d)
        axis = np.cross(normal_obj, d)
        s = float(np.linalg.norm(axis))
        c = float(normal_obj @ d)
        if s < 1e-12:
            align = np.eye(3) if c > 0 else rotation_from_rvec(np.array([math.pi, 0.0, 0.0]))
        else:
            align = rotation_from_rvec(axis / s * math.atan2(s, c))
        spin = rotation_from_rvec(d * rng.uniform(0.0, 2.0 * math.pi))
        jitter = rotation_from_rvec(0.02 * rng.normal(size=3))
        out.append(RigidTransform(jitter @ spin @ align, pose.translation))
    return out


def _visible_corners(marker_in_cam, template, intr):
    """Projected corners when the marker passes the visibility test, else None."""
    pts = marker_in_cam.apply(template.corners)
    center = marker_in_cam.translation
    if center[2] <= MIN_DEPTH or np.any(pts[:, 2] <= MIN_DEPTH):
        return None
    view = center / np.linalg.norm(center)
    normal = marker_in_cam.rotation[:, 2]
    if -(normal @ view) <= GRAZING_COS:
        return None
    pix = project(pts, intr)
    inside = (
        (pix[:, 0] >= 0.0)
        & (pix[:, 0] <= intr.width - 1.0)
        & (pix[:, 1] >= 0.0)
        & (pix[:, 1] <= intr.height - 1.0)
    )
    return pix if bool(np.all(inside)) else None


def generate(spec: SceneSpec):
    """(GroundTruth, detections, intrinsics) for a synthetic session.

    Detections are emitted in (t, cam, marker) order; noise draws happen in
    that order too, so the output is bit-for-bit reproducible per seed.
    """
    rng = np.random.default_rng(spec.seed)
    cam_world = _camera_ring(spec)
    if isinstance(spec.object, str):
        marker_obj = marker_layout(spec.object, spec.marker_side)
    else:
        marker_obj = dict(spec.object)
    obj_world = _base_trajectory(spec, rng)
    if spec.ambiguity_stress:
        obj_world = _stress_trajectory(obj_world, spec, rng, cam_world, marker_obj)

    ref_cam = 0
    ref_marker = min(marker_obj)
    w0_inv = invert(cam_world[ref_cam])
    p0 = marker_obj[ref_marker]
    cam_poses = {c: compose(w0_inv, cam_world[c]) for c in range(spec.n_cameras)}
    cam_poses[ref_cam] = RigidTransform.identity()
    marker_poses = {m: compose(invert(p0), p) for m, p in marker_obj.items()}
    marker_poses[ref_marker] = RigidTransform.identity()
    cams_gt = StructureEstimate(ref_cam, cam_poses, ())
    markers_gt = StructureEstimate(ref_marker, marker_poses, ())
    traj_gt = Trajectory()
    for t in range(spec.n_frames):
        traj_gt.frames[t] = FrameState(compose(w0_inv, compose(obj_world[t], p0)))

    template = MarkerTemplate(spec.marker_side)
    intrinsics = {c: spec.intrinsics for c in range(spec.n_cameras)}
    detections = []
    world_to_cam = [invert(w) for w in cam_world]
    for t in range(spec.n_frames):
        for c in range(spec.n_cameras):
            obj_in_cam = compose(world_to_cam[c], obj_world[t])
            for m in sorted(marker_obj):
                marker_in_cam = compose(obj_in_cam, marker_obj[m])
                pix = _visible_corners(marker_in_cam, template, spec.intrinsics)
                if pix is None:
                    continue
                if spec.noise_sigma > 0:
                    pix = pix + rng.normal(scale=spec.noise_sigma, size=(4, 2))
                detections.append(Detection(t, c, m, pix))
    return GroundTruth(cams_gt, markers_gt, traj_gt), detections, intrinsics


# ---------------------------------------------------------------------------
# Alignment and metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HornAlignment:
    transform: RigidTransform  # maps the first point set into the second
    rms: float  # per-axis residual after alignment, input units


def align_horn(est: np.ndarray, gt: np.ndarray) -> HornAlignment:
    """Closed-form least-squares rigid alignment of (N,3) points est -> gt.

    Raises DegenerateConfiguration for fewer than 3 correspondences or
    collinear/coincident point sets, where the rotation is not unique.
    """
    p = np.asarray(est, dtype=np.float64).reshape(-1, 3)
    q = np.asarray(gt, dtype=np.float64).reshape(-1, 3)
    if p.shape != q.shape:
        raise ValueError(f"point sets differ in shape: {p.shape} vs {q.shape}")
    n = p.shape[0]
    if n < 3:
        raise DegenerateConfiguration("need at least 3 correspondences")
    pc = p - p.mean(axis=0)
    qc = q - q.mean(axis=0)
    for pts in (pc, qc):
        sv = np.linalg.svd(pts, compute_uv=False)
        if sv[1] <= 1e-8 * max(float(sv[0]), 1e-300):
            raise DegenerateConfiguration("collinear or coincident points")
    u, _, vt = np.linalg.svd(pc.T @ qc)
    d = np.array([1.0, 1.0, float(np.sign(np.linalg.det(vt.T @ u.T)))])
    rot = (vt.T * d) @ u.T
    trans = q.mean(axis=0) - rot @ p.mean(axis=0)
    res = (rot @ p.T).T + trans - q
    rms = math.sqrt(float((res**2).sum()) / (3 * n))
    return HornAlignment(RigidTransform(rot, trans), rms)


def evaluate(result: CalibrationResult, gt: GroundTruth) -> ErrorReport:
    """Error metrics of a calibration against ground truth, Horn-aligned.

    Metrics run over the tracked frames common to both trajectories; an
    estimated frame absent from the ground truth raises FrameMismatch, as
    do mismatched camera or marker id sets.
    """
    if set(result.cams.poses) != set(gt.cams_gt.poses):
        raise FrameMismatch("camera ids differ between estimate and ground truth")
    if set(result.markers.poses) != set(gt.markers_gt.poses):
        raise FrameMismatch("marker ids differ between estimate and ground truth")
    est_frames = dict(result.traj.tracked_items())
    gt_frames = dict(gt.traj_gt.tracked_items())
    extra = sorted(set(est_frames) - set(gt_frames))
    if extra:
        raise FrameMismatch(f"estimated frames missing from ground truth: {extra}")
    common = sorted(set(est_frames) & set(gt_frames))
    if len(common) < 3:
        raise FrameMismatch("fewer than 3 commonly tracked frames")

    p_est = np.array([est_frames[t].translation for t in common])
    p_gt = np.array([gt_frames[t].translation for t in common])
    horn = align_horn(p_est, p_gt)
    aligned = horn.transform.apply(p_est)
    obj_trans = float(np.linalg.norm(aligned - p_gt, axis=1).mean())
    xr = horn.transform.rotation
    obj_rot = float(
        np.mean(
            [
                rotation_angle(xr @ est_frames[t].rotation @ gt_frames[t].rotation.T)
                for t in common
            ]
        )
    )

    cam_ids = sorted(result.cams.poses)
    c_est = np.array([result.cams.poses[c].translation for c in cam_ids])
    c_gt = np.array([gt.cams_gt.poses[c].translation for c in cam_ids])
    if len(cam_ids) >= 3:
        c_est = align_horn(c_est, c_gt).transform.apply(c_est)
    cam_trans = float(np.linalg.norm(c_est - c_gt, axis=1).mean())

    template = MarkerTemplate(result.marker_side)
    marker_ids = sorted(result.markers.poses)
    k_est = np.concatenate(
        [result.markers.poses[m].apply(template.corners) for m in marker_ids]
    )
    k_gt = np.concatenate(
        [gt.markers_gt.poses[m].apply(template.corners) for m in marker_ids]
    )
    k_est = align_horn(k_est, k_gt).transform.apply(k_est)
    config = float(np.linalg.norm(k_est - k_gt, axis=1).mean())

    return ErrorReport(
        obj_trans_err=1000.0 * obj_trans,
        obj_rot_err=math.degrees(obj_rot),
        cam_trans_err=1000.0 * cam_trans,
        marker_config_err=1000.0 * config,
    )


def result_from_ground_truth(gt: GroundTruth, marker_side: float) -> CalibrationResult:
    """Wrap ground truth as a CalibrationResult (for oracles and warm starts)."""
    traj = Trajectory()
    for t, st in gt.traj_gt.frames.items():
        traj.frames[t] = FrameState(st.pose, st.source)
    return CalibrationResult(
        cams=gt.cams_gt, markers=gt.markers_gt, traj=traj, marker_side=marker_side
    )
