"""File formats: detections (JSON lines), intrinsics, calibration, trajectories.

All writers are atomic (write to a temp file in the target directory, then
rename), so a crashed run never leaves a half-written file, and all output
is deterministic: floats are serialized with their shortest round-trip
representation, object keys are sorted, rows are sorted by id.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import MissingIntrinsics, ParseError, ValidationError
from .frame_init import SOURCE_TRACKED, FrameState, Trajectory
from .geometry import (
    CameraIntrinsics,
    MarkerTemplate,
    RigidTransform,
    rotation_from_rvec,
    rotation_to_quaternion,
    rvec_from_rotation,
)
from .optimizer import CalibrationResult, FitReport
from .pairwise import PairKey
from .structure_init import StructureEstimate

_ORTHONORMAL_TOL = 1e-9  # largest |R^T R - I| entry of a file's rotation; saved ones are ~1e-15


@dataclass(frozen=True)
class Dataset:
    """Validated input to the calibration pipeline."""

    detections: list
    intrinsics: dict[int, CameraIntrinsics]
    marker_side: float
    n_frames: int

    def __post_init__(self):
        if not 0 < self.marker_side < np.inf:  # written so that NaN fails too
            raise ValidationError(
                f"marker_side must be positive and finite, got {self.marker_side}"
            )
        if self.n_frames < 0:
            raise ValidationError("n_frames must be non-negative")
        seen = set()
        for d in self.detections:
            if d.t < 0 or d.cam < 0 or d.marker < 0:
                raise ValidationError(f"negative id in detection {d.key}")
            if d.t >= self.n_frames:
                raise ValidationError(
                    f"frame index {d.t} outside the declared {self.n_frames} frames"
                )
            if d.cam not in self.intrinsics:
                raise MissingIntrinsics(d.cam)
            if d.key in seen:
                raise ValidationError(f"duplicate detection {d.key}")
            seen.add(d.key)


def parse_detection_line(line: str, lineno: int | None = None):
    """One detection from one JSON line; errors carry the line number."""
    from .planar_pose import Detection

    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", lineno) from None
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object", lineno)
    missing = sorted({"t", "cam", "marker", "corners"} - obj.keys())
    if missing:
        raise ParseError(f"missing fields: {', '.join(missing)}", lineno)
    for name in ("t", "cam", "marker"):
        if isinstance(obj[name], bool) or not isinstance(obj[name], int):
            raise ParseError(f"field {name!r} must be an integer", lineno)
    rows = obj["corners"]
    if not (isinstance(rows, list) and len(rows) == 4
            and all(isinstance(row, list) and len(row) == 2 for row in rows)):
        raise ParseError("corners must be a 4x2 array of numbers", lineno)
    try:
        corners = np.array([[json_scalar(v, float, "corners") for v in row] for row in rows])
    except TypeError as e:
        raise ParseError(str(e), lineno) from None
    if not np.all(np.isfinite(corners)):
        raise ParseError("corners must be a finite 4x2 array", lineno)
    return Detection(obj["t"], obj["cam"], obj["marker"], corners)


def load_detections(path) -> list:
    """Detections from a JSON-lines file; duplicates name both source lines."""
    dets = []
    first_line: dict[tuple[int, int, int], int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            d = parse_detection_line(raw, lineno)
            if d.key in first_line:
                raise ValidationError(
                    f"duplicate detection (t={d.t}, cam={d.cam}, marker={d.marker})"
                    f" at lines {first_line[d.key]} and {lineno}"
                )
            first_line[d.key] = lineno
            dets.append(d)
    return dets


def read_json(path):
    """The document in a JSON file; a syntax error becomes ParseError with its line."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e.msg}", e.lineno) from None


def json_scalar(val, kind: type, name: str):
    """`val` as `kind` (bool, int, float or str), or TypeError if its JSON type differs.

    Booleans come only from true/false, integers only from integers and
    floats from any number; nothing is converted from a bool or a string.
    """
    allowed = (int, float) if kind is float else kind
    if isinstance(val, bool) != (kind is bool) or not isinstance(val, allowed):
        raise TypeError(f"{name} must be a JSON {kind.__name__}, got {val!r}")
    return kind(val)


def parse_intrinsics(val, where: str) -> CameraIntrinsics:
    """One camera's intrinsics from its JSON object; errors name `where`."""
    try:
        return CameraIntrinsics(
            fx=json_scalar(val["fx"], float, "fx"),
            fy=json_scalar(val["fy"], float, "fy"),
            cx=json_scalar(val["cx"], float, "cx"),
            cy=json_scalar(val["cy"], float, "cy"),
            dist=np.array(
                [json_scalar(v, float, "dist") for v in val.get("dist", [0.0] * 5)]
            ),
            width=json_scalar(val.get("width", 640), int, "width"),
            height=json_scalar(val.get("height", 480), int, "height"),
            pre_undistorted=json_scalar(
                val.get("pre_undistorted", False), bool, "pre_undistorted"
            ),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ValidationError(f"bad intrinsics for {where}: {e}") from None


def load_intrinsics(path) -> dict[int, CameraIntrinsics]:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ParseError("intrinsics file must be a JSON object keyed by camera id")
    out = {}
    for key, val in doc.items():
        try:
            cam = int(key)
        except ValueError:
            raise ValidationError(f"camera id {key!r} is not an integer") from None
        out[cam] = parse_intrinsics(val, f"camera {key}")
    return out


def load_dataset(detections_path, intrinsics_path, marker_side: float,
                 n_frames: int | None = None) -> Dataset:
    dets = load_detections(detections_path)
    intr = load_intrinsics(intrinsics_path)
    if n_frames is None:
        n_frames = 1 + max((d.t for d in dets), default=-1)
    return Dataset(dets, intr, marker_side, n_frames)


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------


def atomic_write(path, text: str) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_detections(detections, path) -> None:
    lines = []
    for d in detections:
        corners = [[float(x), float(y)] for x, y in d.corners]
        lines.append(
            json.dumps(
                {"t": d.t, "cam": d.cam, "marker": d.marker, "corners": corners},
                separators=(",", ":"),
            )
        )
    atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))


def save_intrinsics(intrinsics: dict[int, CameraIntrinsics], path) -> None:
    doc = {
        str(c): {
            "fx": intr.fx,
            "fy": intr.fy,
            "cx": intr.cx,
            "cy": intr.cy,
            "dist": [float(v) for v in intr.dist],
            "width": intr.width,
            "height": intr.height,
            "pre_undistorted": intr.pre_undistorted,
        }
        for c, intr in sorted(intrinsics.items())
    }
    atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _transform_to_json(p: RigidTransform) -> dict:
    rvec = rvec_from_rotation(p.rotation)
    return {
        "rvec": [float(v) for v in rvec],
        "tvec": [float(v) for v in p.translation],
        "matrix": [[float(v) for v in row] for row in p.as_matrix()],
    }


def _transform_from_json(obj) -> RigidTransform:
    rvec = np.asarray(obj["rvec"], dtype=np.float64)
    tvec = np.asarray(obj["tvec"], dtype=np.float64)
    if rvec.shape != (3,) or tvec.shape != (3,):
        raise ValidationError("transform rvec/tvec must be 3-vectors")
    if "matrix" not in obj:
        return RigidTransform(rotation_from_rvec(rvec), tvec)
    # The matrix stores the rotation exactly (rvec -> rotation is lossy in
    # the last ulps), so prefer it; rvec stays as the readable form and is
    # cross-checked so inconsistent hand edits fail loudly.
    mat = np.asarray(obj["matrix"], dtype=np.float64)
    if mat.shape != (4, 4):
        raise ValidationError("transform matrix must be 4x4")
    rot = mat[:3, :3]
    if not np.abs(rot.T @ rot - np.eye(3)).max() <= _ORTHONORMAL_TOL:  # NaN fails too
        raise ValidationError("transform matrix rotation is not orthonormal")
    if not (
        np.abs(rot - rotation_from_rvec(rvec)).max() <= 1e-6
        and np.abs(mat[:3, 3] - tvec).max() <= 1e-6
    ):
        raise ValidationError("transform matrix disagrees with rvec/tvec")
    return RigidTransform(rot, mat[:3, 3])


def _structure_to_json(s: StructureEstimate) -> dict:
    return {
        "reference": s.reference,
        "poses": {str(i): _transform_to_json(p) for i, p in sorted(s.poses.items())},
        "tree_edges": [[k.a, k.b] for k in s.tree_edges],
    }


def _structure_from_json(obj, kind: str) -> StructureEstimate:
    poses = {int(i): _transform_from_json(p) for i, p in obj["poses"].items()}
    edges = tuple(PairKey(a, b, kind) for a, b in obj.get("tree_edges", []))
    return StructureEstimate(int(obj["reference"]), poses, edges)


def save_calibration(result: CalibrationResult, path) -> None:
    traj = {}
    for t, st in sorted(result.traj.frames.items()):
        entry = {"source": st.source}
        entry["pose"] = None if st.pose is None else _transform_to_json(st.pose)
        traj[str(t)] = entry
    report = None
    if result.report is not None:
        report = {
            "initial_rms": result.report.initial_rms,
            "final_rms": result.report.final_rms,
            "iterations": result.report.iterations,
            "reason": result.report.reason,
            "per_frame_rms": {
                str(t): v for t, v in sorted(result.report.per_frame_rms.items())
            },
        }
    doc = {
        "marker_side": result.marker_side,
        "cameras": _structure_to_json(result.cams),
        "markers": _structure_to_json(result.markers),
        "trajectory": traj,
        "report": report,
    }
    atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_calibration(path) -> CalibrationResult:
    doc = read_json(path)
    try:
        cams = _structure_from_json(doc["cameras"], "camera")
        markers = _structure_from_json(doc["markers"], "marker")
        traj = Trajectory()
        for t, entry in doc["trajectory"].items():
            pose = entry["pose"]
            traj.frames[int(t)] = FrameState(
                None if pose is None else _transform_from_json(pose), entry["source"]
            )
        report = None
        if doc.get("report") is not None:
            rep = doc["report"]
            report = FitReport(
                initial_rms=float(rep["initial_rms"]),
                final_rms=float(rep["final_rms"]),
                iterations=int(rep["iterations"]),
                per_frame_rms={int(t): float(v) for t, v in rep["per_frame_rms"].items()},
                reason=rep.get("reason", ""),
            )
        return CalibrationResult(
            cams=cams,
            markers=markers,
            traj=traj,
            # MarkerTemplate raises ValueError on a non-positive or non-finite side
            marker_side=MarkerTemplate(float(doc["marker_side"])).side,
            report=report,
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ValidationError(f"bad calibration file: {e}") from None


TRAJECTORY_HEADER = "t,tx,ty,tz,qx,qy,qz,qw"


def trajectory_csv_row(t: int, pose: RigidTransform | None) -> str:
    """One trajectory CSV row; a missing pose leaves its cells empty."""
    if pose is None:
        return f"{t},,,,,,,"
    w, x, y, z = (float(v) for v in rotation_to_quaternion(pose.rotation))
    tx, ty, tz = (float(v) for v in pose.translation)
    return f"{t},{tx!r},{ty!r},{tz!r},{x!r},{y!r},{z!r},{w!r}"


def save_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV rows `t,tx,ty,tz,qx,qy,qz,qw`; untracked frames leave pose cells empty."""
    lines = [TRAJECTORY_HEADER]
    lines += [trajectory_csv_row(t, st.pose) for t, st in sorted(traj.frames.items())]
    atomic_write(path, "\n".join(lines) + "\n")


def _quat_to_rotation(x: float, y: float, z: float, w: float) -> np.ndarray:
    q = np.array([w, x, y, z])
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def load_trajectory_csv(path) -> Trajectory:
    """Inverse of save_trajectory_csv; loaded poses are marked as tracked."""
    traj = Trajectory()
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != TRAJECTORY_HEADER:
            raise ParseError(f"unexpected trajectory header {header!r}", 1)
        for lineno, raw in enumerate(fh, start=2):
            raw = raw.strip()
            if not raw:
                continue
            parts = raw.split(",")
            if len(parts) != 8:
                raise ParseError("expected 8 comma-separated fields", lineno)
            try:
                t = int(parts[0])
                if parts[1] == "":
                    traj.frames[t] = FrameState(None, SOURCE_TRACKED)
                    continue
                tx, ty, tz, qx, qy, qz, qw = (float(v) for v in parts[1:])
            except ValueError:
                raise ParseError("malformed trajectory row", lineno) from None
            pose = RigidTransform(
                _quat_to_rotation(qx, qy, qz, qw), np.array([tx, ty, tz])
            )
            traj.frames[t] = FrameState(pose, SOURCE_TRACKED)
    return traj


def save_ground_truth(gt, path) -> None:
    traj = {
        str(t): _transform_to_json(st.pose)
        for t, st in sorted(gt.traj_gt.frames.items())
        if st.pose is not None
    }
    doc = {
        "cameras": _structure_to_json(gt.cams_gt),
        "markers": _structure_to_json(gt.markers_gt),
        "trajectory": traj,
    }
    atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_ground_truth(path):
    from .synthetic import GroundTruth

    doc = read_json(path)
    try:
        traj = Trajectory()
        for t, pose in doc["trajectory"].items():
            traj.frames[int(t)] = FrameState(_transform_from_json(pose))
        return GroundTruth(
            cams_gt=_structure_from_json(doc["cameras"], "camera"),
            markers_gt=_structure_from_json(doc["markers"], "marker"),
            traj_gt=traj,
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ValidationError(f"bad ground-truth file: {e}") from None
