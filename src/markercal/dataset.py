"""File formats: detections (JSON lines), intrinsics, calibration, and the
trajectory CSV, which is written only (no program path reads it back).

All writers are atomic (write to a temp file in the target directory, then
rename), so a crashed run never leaves a half-written file, and all output
is deterministic: floats are serialized with their shortest round-trip
representation, object keys are sorted, rows are sorted by id.
"""

from __future__ import annotations

import array
import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import MissingIntrinsics, ParseError, ValidationError
from .frame_init import FrameState, Trajectory
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
from .planar_pose import Detection
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


_NUMBER_TYPES = {int, float}


def _detection_fields(line: str, lineno: int | None):
    """(t, cam, marker, its 8 corner values x0, y0, ..., y3) of one JSON line.

    The ids must be JSON integers and the corners a 4x2 array of finite
    JSON numbers within double range; errors carry the line number.
    """
    try:
        obj = json.loads(line)
    except ValueError as e:  # JSONDecodeError, or an integer past Python's digit limit
        raise ParseError(f"invalid JSON: {getattr(e, 'msg', e)}", lineno) from None
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
    vals = rows[0] + rows[1] + rows[2] + rows[3]
    try:
        # the type set also rejects bools; isfinite overflows on a huge integer
        ok = set(map(type, vals)) <= _NUMBER_TYPES and all(map(math.isfinite, vals))
    except OverflowError:
        ok = False
    if not ok:
        try:
            for v in vals:
                json_scalar(v, float, "corners")
        except (TypeError, ValueError) as e:
            raise ParseError(str(e), lineno) from None
        raise ParseError("corners must be a finite 4x2 array", lineno)
    return obj["t"], obj["cam"], obj["marker"], vals


def utf8_lines(binary):
    """(line number, text) of each line of a binary stream, lines ending at
    b"\\n"; a line that is not UTF-8 raises ParseError naming it."""
    for lineno, raw in enumerate(binary, start=1):
        try:
            yield lineno, raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(
                f"not UTF-8: byte {raw[e.start]:#04x} at offset {e.start}", lineno
            ) from None


def parse_detection_line(line: str, lineno: int | None = None):
    """One detection from one JSON line; errors carry the line number."""
    return Detection(*_detection_fields(line, lineno))


def load_detections(path) -> list:
    """Detections from a JSON-lines file; duplicates name both source lines.

    The corners of all lines are converted in one pass, and each detection's
    corners are a view of that one read-only (N, 4, 2) array.
    """
    first_line: dict[tuple[int, int, int], int] = {}
    values = array.array("d")  # flat: 8 doubles per detection, in file order
    with open(path, "rb") as fh:
        for lineno, raw in utf8_lines(fh):
            if not raw.strip():
                continue
            t, cam, marker, vals = _detection_fields(raw, lineno)
            key = (t, cam, marker)
            if key in first_line:
                raise ValidationError(
                    f"duplicate detection (t={t}, cam={cam}, marker={marker})"
                    f" at lines {first_line[key]} and {lineno}"
                )
            first_line[key] = lineno
            values.extend(vals)
    corners = np.frombuffer(values, dtype=np.float64).reshape(-1, 4, 2)
    corners.flags.writeable = False
    return [Detection(*key, c) for key, c in zip(first_line, corners)]


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ParseError(f"repeated key {next(k for i, k in enumerate(keys) if k in keys[:i])!r}")
    return obj


def read_json(path):
    """The document in a JSON file; a syntax error or an object that repeats
    a key becomes ParseError, a syntax error with its line."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except ValueError as e:  # JSONDecodeError, or an integer past Python's digit limit
            raise ParseError(
                f"invalid JSON: {getattr(e, 'msg', e)}", getattr(e, "lineno", None)
            ) from None


def json_scalar(val, kind: type, name: str):
    """`val` as `kind` (bool, int, float or str), or TypeError if its JSON type differs.

    Booleans come only from true/false, integers only from integers and
    floats from any number; nothing is converted from a bool or a string.
    An integer read as a float but too large for a double raises ValueError.
    """
    allowed = (int, float) if kind is float else kind
    if isinstance(val, bool) != (kind is bool) or not isinstance(val, allowed):
        raise TypeError(f"{name} must be a JSON {kind.__name__}, got {val!r}")
    try:
        return kind(val)
    except OverflowError:
        raise ValueError(
            f"{name} must be within double range, got a {len(str(abs(val)))}-digit integer"
        ) from None


def parse_id(key: str, name: str) -> int:
    """The integer id that `key` spells in the form the writers write,
    str(id) == key; ValueError naming `name` otherwise. int() alone would
    also read "01", " 2 ", "1_0" and non-ASCII digits."""
    try:
        n = int(key)
    except ValueError:
        n = None
    if n is None or str(n) != key:
        raise ValueError(f"{name} {key!r} is not a canonical integer id")
    return n


def id_items(obj, name: str) -> list:
    """The (id, value) entries of `obj`, a JSON object keyed by ids, each key
    read by parse_id; TypeError naming `name` when obj is not an object."""
    if not isinstance(obj, dict):
        raise TypeError(f"{name} must be a JSON object keyed by id")
    return [(parse_id(key, f"{name} key"), val) for key, val in obj.items()]


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
    try:
        items = id_items(doc, "intrinsics")
    except ValueError as e:
        raise ValidationError(str(e)) from None
    return {cam: parse_intrinsics(val, f"camera {cam}") for cam, val in items}


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


# one detection line; for a finite float, %r writes what json.dumps writes
_DETECTION_LINE = (
    '{"t":%d,"cam":%d,"marker":%d,"corners":[[%r,%r],[%r,%r],[%r,%r],[%r,%r]]}'
)


def save_detections(detections, path) -> None:
    """One JSON line per detection; non-finite corners raise ValidationError."""
    detections = list(detections)
    corners = np.array([d.corners for d in detections], dtype=np.float64).reshape(-1, 8)
    finite = np.isfinite(corners).all(axis=1)
    if not finite.all():
        d = detections[int(np.argmin(finite))]
        raise ValidationError(
            f"detection (t={d.t}, cam={d.cam}, marker={d.marker}) has non-finite corners"
        )
    # one short list of floats per line: no float object outlives its line
    lines = [
        _DETECTION_LINE % (d.t, d.cam, d.marker, *d.corners.ravel().tolist())
        for d in detections
    ]
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


def _json_floats(val, n: int, name: str) -> list:
    """A JSON array of n numbers, each read by json_scalar; ValidationError
    naming `name` when val is not an array of n entries."""
    if not isinstance(val, list) or len(val) != n:
        raise ValidationError(f"transform {name} must be an array of {n} numbers")
    return [json_scalar(v, float, name) for v in val]


def _transform_from_json(obj) -> RigidTransform:
    rvec = np.array(_json_floats(obj["rvec"], 3, "rvec"))
    tvec = np.array(_json_floats(obj["tvec"], 3, "tvec"))
    if not (np.isfinite(rvec).all() and np.isfinite(tvec).all()):
        raise ValidationError("transform rvec/tvec must be finite")
    if "matrix" not in obj:
        return RigidTransform(rotation_from_rvec(rvec), tvec)
    # The matrix stores the rotation exactly (rvec -> rotation is lossy in
    # the last ulps), so prefer it; rvec stays as the readable form and is
    # cross-checked so inconsistent hand edits fail loudly.
    rows = obj["matrix"]
    if not isinstance(rows, list) or len(rows) != 4:
        raise ValidationError("transform matrix must be 4x4")
    mat = np.array([_json_floats(row, 4, "matrix row") for row in rows])
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
    """A structure whose reference and every tree-edge end is one of its
    pose ids; ValueError or TypeError naming what is not."""
    where = f"{kind}s"
    poses = {i: _transform_from_json(p) for i, p in id_items(obj["poses"], f"{where}.poses")}
    reference = json_scalar(obj["reference"], int, f"{where}.reference")
    if reference not in poses:
        raise ValueError(f"{where}.reference {reference} is not one of its poses")
    edges = obj.get("tree_edges", [])
    if not isinstance(edges, list):
        raise TypeError(f"{where}.tree_edges must be a JSON array")
    keys = []
    for edge in edges:
        if not isinstance(edge, list) or len(edge) != 2:
            raise TypeError(f"{where}.tree_edges entry must be a pair of ids, got {edge!r}")
        ids = [json_scalar(v, int, f"{where}.tree_edges id") for v in edge]
        unknown = [i for i in ids if i not in poses]
        if unknown:
            raise ValueError(f"{where}.tree_edges id {unknown[0]} is not one of its poses")
        keys.append(PairKey(*ids))
    return StructureEstimate(reference, poses, tuple(keys))


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
            "left_out": result.report.left_out,
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
        for t, entry in id_items(doc["trajectory"], "trajectory"):
            pose = entry["pose"]
            traj.frames[t] = FrameState(
                None if pose is None else _transform_from_json(pose),
                json_scalar(entry["source"], str, "source"),
            )
        report = None
        if doc.get("report") is not None:
            rep = doc["report"]
            report = FitReport(
                initial_rms=json_scalar(rep["initial_rms"], float, "initial_rms"),
                final_rms=json_scalar(rep["final_rms"], float, "final_rms"),
                iterations=json_scalar(rep["iterations"], int, "iterations"),
                per_frame_rms={
                    t: json_scalar(v, float, "per_frame_rms")
                    for t, v in id_items(rep["per_frame_rms"], "report.per_frame_rms")
                },
                reason=json_scalar(rep.get("reason", ""), str, "reason"),
                # files written before the count was saved load as 0
                left_out=json_scalar(rep.get("left_out", 0), int, "left_out"),
            )
        return CalibrationResult(
            cams=cams,
            markers=markers,
            traj=traj,
            # MarkerTemplate raises ValueError on a non-positive or non-finite side
            marker_side=MarkerTemplate(
                json_scalar(doc["marker_side"], float, "marker_side")
            ).side,
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
        for t, pose in id_items(doc["trajectory"], "trajectory"):
            traj.frames[t] = FrameState(_transform_from_json(pose))
        return GroundTruth(
            cams_gt=_structure_from_json(doc["cameras"], "camera"),
            markers_gt=_structure_from_json(doc["markers"], "marker"),
            traj_gt=traj,
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ValidationError(f"bad ground-truth file: {e}") from None
