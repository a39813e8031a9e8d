"""Tests for file parsing, validation and round-trip serialization."""

import json
import math
import os
import struct

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from markercal.dataset import (
    Dataset,
    atomic_write,
    json_scalar,
    load_calibration,
    load_dataset,
    load_detections,
    load_ground_truth,
    load_intrinsics,
    parse_detection_line,
    save_calibration,
    save_detections,
    save_ground_truth,
    save_intrinsics,
    save_trajectory_csv,
    trajectory_csv_row,
)
from markercal.errors import MissingIntrinsics, ParseError, ValidationError
from markercal.frame_init import SOURCE_INIT, FrameState, Trajectory
from markercal.geometry import (
    CameraIntrinsics,
    RigidTransform,
    rotation_from_rvec,
    rotation_to_quaternion,
)
from markercal.optimizer import CalibrationResult, FitReport
from markercal.pairwise import PairKey
from markercal.planar_pose import Detection
from markercal.structure_init import StructureEstimate
from markercal.synthetic import SceneSpec, generate

CORNERS = [[100.0, 100.0], [150.0, 100.0], [150.0, 150.0], [100.0, 150.0]]


def _det_line(t=0, cam=0, marker=0, corners=CORNERS):
    return json.dumps({"t": t, "cam": cam, "marker": marker, "corners": corners})


def _intr():
    return CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0)


def _pose(rx=0.1, ty=0.2):
    return RigidTransform(
        rotation_from_rvec(np.array([rx, -0.2, 0.3])), np.array([0.05, ty, 1.0])
    )


class TestParseDetectionLine:
    def test_valid_line(self):
        d = parse_detection_line(_det_line(t=3, cam=1, marker=7))
        assert d.key == (3, 1, 7)
        assert d.corners.shape == (4, 2)
        assert d.corners[2, 1] == 150.0

    def test_invalid_json_reports_line(self):
        with pytest.raises(ParseError) as e:
            parse_detection_line("{not json", 17)
        assert e.value.line == 17
        assert "line 17" in str(e.value)

    def test_non_object(self):
        with pytest.raises(ParseError):
            parse_detection_line("[1, 2, 3]", 1)

    def test_missing_fields_named(self):
        with pytest.raises(ParseError, match="cam"):
            parse_detection_line(json.dumps({"t": 0, "marker": 0, "corners": CORNERS}))

    @pytest.mark.parametrize("value", [1.5, "1", True, None])
    def test_non_integer_ids(self, value):
        line = json.dumps({"t": value, "cam": 0, "marker": 0, "corners": CORNERS})
        with pytest.raises(ParseError, match="'t'"):
            parse_detection_line(line)

    @pytest.mark.parametrize(
        "corners",
        [
            [[0, 0], [1, 0], [1, 1]],
            [[0, 0, 0]] * 4,
            "abcd",
            [[0, 0], [1, 0], [1, 1], [0, float("nan")]],
        ],
    )
    def test_bad_corners(self, corners):
        line = json.dumps({"t": 0, "cam": 0, "marker": 0, "corners": corners})
        with pytest.raises(ParseError, match="corners"):
            parse_detection_line(line)

    @pytest.mark.parametrize("corners", [
        [["1", "2"], [3, 4], [5, 6], [7, 8]],
        [[1, 2], [True, 4], [5, 6], [7, 8]],
        [[1, 2], [3, 4], [5, None], [7, 8]],
        [[1, 2], [3, 4], [5, 6], [[7], 8]],
    ], ids=["string", "bool", "null", "nested"])
    def test_non_number_corner_values(self, corners):
        line = json.dumps({"t": 0, "cam": 0, "marker": 0, "corners": corners})
        with pytest.raises(ParseError, match="corners") as e:
            parse_detection_line(line, 5)
        assert e.value.line == 5

    def test_integer_corner_beyond_double_range(self, tmp_path):
        # a valid JSON integer, but float() of it overflows
        line = json.dumps({"t": 0, "cam": 0, "marker": 0,
                           "corners": [[1, 2], [3, 10 ** 400], [5, 6], [7, 8]]})
        with pytest.raises(ParseError, match="corners must be within double range") as e:
            parse_detection_line(line, 5)
        assert e.value.line == 5
        p = tmp_path / "d.jsonl"
        p.write_text(_det_line() + "\n" + line + "\n")
        with pytest.raises(ParseError, match="within double range") as e:
            load_detections(p)
        assert e.value.line == 2

    def test_integer_past_digit_limit(self):
        # json.loads raises a plain ValueError, not a JSONDecodeError
        line = '{"t": 0, "cam": 0, "marker": 0, "corners": 1' + "0" * 5000 + "}"
        with pytest.raises(ParseError, match="invalid JSON") as e:
            parse_detection_line(line, 3)
        assert e.value.line == 3


class TestLoadDetections:
    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text(_det_line(t=0) + "\n\n" + _det_line(t=1) + "\n")
        dets = load_detections(p)
        assert [d.t for d in dets] == [0, 1]

    def test_duplicate_names_both_lines(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text("\n".join([_det_line(t=0), _det_line(t=1), _det_line(t=0)]))
        with pytest.raises(ValidationError, match=r"lines 1 and 3"):
            load_detections(p)

    def test_parse_error_carries_line(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text(_det_line() + "\nnonsense\n")
        with pytest.raises(ParseError) as e:
            load_detections(p)
        assert e.value.line == 2

    def test_non_utf8_line_named(self, tmp_path):
        # line 3 opens with 0xff 0xfe, bytes no UTF-8 text holds; the whole
        # file fits one read, so the error names the line, not the read
        lines = [_det_line(t=t).encode() for t in range(4)]
        lines[2] = b"\xff\xfe" + lines[2]
        p = tmp_path / "d.jsonl"
        p.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ParseError, match="not UTF-8: byte 0xff at offset 0") as e:
            load_detections(p)
        assert e.value.line == 3

    def test_crlf_line_ends(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_bytes(f"{_det_line(t=0)}\r\n\r\n{_det_line(t=1)}\r\n".encode())
        assert [d.t for d in load_detections(p)] == [0, 1]

    def test_corners_read_only(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text(_det_line(t=0) + "\n" + _det_line(t=1) + "\n")
        for d in load_detections(p):
            assert d.corners.shape == (4, 2) and not d.corners.flags.writeable
            with pytest.raises(ValueError):
                d.corners[0, 0] = 1.0

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text("\n")
        assert load_detections(p) == []
        save_detections([], p)
        assert p.read_bytes() == b""


class TestSaveDetections:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_corner_rejected(self, tmp_path, value):
        # json.dumps would write NaN or Infinity, which no JSON reader takes
        corners = np.array(CORNERS)
        corners[3, 1] = value
        dets = [Detection(0, 0, 0, np.array(CORNERS)), Detection(1, 0, 2, corners)]
        p = tmp_path / "d.jsonl"
        with pytest.raises(ValidationError, match=r"\(t=1, cam=0, marker=2\).*non-finite"):
            save_detections(dets, p)
        assert not p.exists()


def _oracle_parse_line(line, lineno=None):
    """One detection, checked and converted value by value: the per-line
    oracle of the file reader's one-pass checks."""
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


def _oracle_load(path):
    """The detections of a file, one line at a time through the oracle."""
    dets, first_line = [], {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            d = _oracle_parse_line(raw, lineno)
            if d.key in first_line:
                raise ValidationError(
                    f"duplicate detection (t={d.t}, cam={d.cam}, marker={d.marker})"
                    f" at lines {first_line[d.key]} and {lineno}"
                )
            first_line[d.key] = lineno
            dets.append(d)
    return dets


def _oracle_text(dets):
    """The detection file, one json.dumps per line."""
    lines = [
        json.dumps(
            {"t": d.t, "cam": d.cam, "marker": d.marker,
             "corners": [[float(x), float(y)] for x, y in d.corners]},
            separators=(",", ":"),
        )
        for d in dets
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def _outcome(fn, *args):
    """What `fn(*args)` raised (type, message, line), or None."""
    try:
        fn(*args)
    except (ParseError, ValidationError) as e:
        return type(e), str(e), getattr(e, "line", None)
    return None


def _assert_bit_equal(got, want):
    assert [d.key for d in got] == [d.key for d in want]
    for a, b in zip(got, want):
        assert a.corners.dtype == b.corners.dtype == np.float64
        assert a.corners.tobytes() == b.corners.tobytes()


# every malformed detection line of the dataset and CLI tests
_MALFORMED_LINES = [
    "{not json",
    "[1, 2, 3]",
    "nonsense",
    "garbage",
    "this is not json",
    json.dumps({"t": 0, "marker": 0, "corners": CORNERS}),
    *(json.dumps({"t": v, "cam": 0, "marker": 0, "corners": CORNERS})
      for v in (1.5, "1", True, None)),
    *(json.dumps({"t": 0, "cam": 0, "marker": 0, "corners": c}) for c in (
        [[0, 0], [1, 0], [1, 1]],
        [[0, 0, 0]] * 4,
        "abcd",
        [[0, 0], [1, 0], [1, 1], [0, float("nan")]],
        [[0, 0], [1, 0], [float("inf"), 1], [0, 1]],
        [["1", "2"], [3, 4], [5, 6], [7, 8]],
        [[1, 2], [True, 4], [5, 6], [7, 8]],
        [[1, 2], [3, 4], [5, None], [7, 8]],
        [[1, 2], [3, 4], [5, 6], [[7], 8]],
        [[1, float("nan")], [3, 4], [5, "6"], [7, 8]],  # a type error wins over NaN
    )),
]


class TestDetectionFilesAgainstOracle:
    """The one-pass reader and writer against the per-line oracle above."""

    @pytest.mark.parametrize("spec", [
        # the benchmark's scenes, shortened: ambiguity, long_orbit, and
        # track/reacquire
        SceneSpec(n_cameras=5, circle_radius=0.20, camera_height=2.0,
                  intrinsics=CameraIntrinsics(fx=1800.0, fy=1800.0, cx=640.0, cy=480.0,
                                              width=1280, height=960),
                  object="flat-grid", marker_side=0.06, n_frames=10, trajectory="orbit",
                  noise_sigma=0.5, ambiguity_stress=True, seed=0),
        SceneSpec(n_cameras=5, circle_radius=0.7, object="cube", marker_side=0.04,
                  n_frames=20, trajectory="orbit", noise_sigma=0.3, seed=1),
        SceneSpec(n_cameras=5, circle_radius=0.7, object="cube", marker_side=0.04,
                  n_frames=20, trajectory="fast", noise_sigma=0.2, seed=2),
    ], ids=["ambiguity", "long_orbit", "track"])
    def test_scene_files(self, tmp_path, spec):
        _, dets, _ = generate(spec)
        p = tmp_path / "d.jsonl"
        save_detections(dets, p)
        assert p.read_text() == _oracle_text(dets)
        _assert_bit_equal(load_detections(p), _oracle_load(p))
        _assert_bit_equal(load_detections(p), dets)

    def test_edge_values(self, tmp_path):
        rng = np.random.default_rng(11)
        specials = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 2.0 ** 53 + 2, 1e-300,
                    0.1, 1 / 3, 1e16, 123456789.0]
        dets = []
        for i in range(40):
            corners = rng.normal(scale=10.0 ** rng.integers(-3, 6), size=8)
            corners[rng.integers(0, 8, size=3)] = rng.choice(specials, size=3)
            dets.append(Detection(i // 4, i % 4, i, corners.reshape(4, 2)))
        p = tmp_path / "d.jsonl"
        save_detections(dets, p)
        assert p.read_text() == _oracle_text(dets)
        _assert_bit_equal(load_detections(p), _oracle_load(p))
        _assert_bit_equal(load_detections(p), dets)

    def test_integer_corner_values(self, tmp_path):
        # JSON integers, exact and rounded, and floats mixed in one line
        lines = [
            _det_line(0, corners=[[100, 2], [3, 4], [5, 6], [7, 8]]),
            _det_line(1, corners=[[2 ** 53 + 1, -(2 ** 63) - 1], [2 ** 64 + 3, 10 ** 300],
                                  [-0.0, 5e-324], [1e308, -7]]),
            _det_line(2, corners=[[-0, 0], [1.5, 2], [3, 4.25], [0, 0]]),
        ]
        p = tmp_path / "d.jsonl"
        p.write_text("\n".join(lines) + "\n")
        got = load_detections(p)
        _assert_bit_equal(got, _oracle_load(p))
        _assert_bit_equal([parse_detection_line(line) for line in lines], got)
        save_detections(got, tmp_path / "e.jsonl")
        assert (tmp_path / "e.jsonl").read_text() == _oracle_text(got)

    @pytest.mark.parametrize("line", _MALFORMED_LINES)
    def test_malformed_line(self, tmp_path, line):
        want = _outcome(_oracle_parse_line, line, 7)
        assert want is not None
        assert _outcome(parse_detection_line, line, 7) == want
        # in a file, after one good line and a blank one
        p = tmp_path / "d.jsonl"
        p.write_text(_det_line(t=9) + "\n\n" + line + "\n")
        want = _outcome(_oracle_load, p)
        assert want[2] == 3
        assert _outcome(load_detections, p) == want

    def test_errors_in_file_order(self, tmp_path):
        # a bad line before a duplicate wins, and so does a duplicate before
        # a bad line
        good, bad = _det_line(t=0), "nonsense"
        p = tmp_path / "d.jsonl"
        p.write_text("\n".join([good, bad, good]) + "\n")
        assert _outcome(load_detections, p) == _outcome(_oracle_load, p)
        assert _outcome(load_detections, p)[::2] == (ParseError, 2)
        p.write_text("\n".join([good, good, bad]) + "\n")
        assert _outcome(load_detections, p) == _outcome(_oracle_load, p)
        kind, message, _ = _outcome(load_detections, p)
        assert kind is ValidationError and message.endswith("at lines 1 and 2")


class TestLoadIntrinsics:
    def test_defaults_filled(self, tmp_path):
        p = tmp_path / "i.json"
        p.write_text(json.dumps({"0": {"fx": 600, "fy": 610, "cx": 320, "cy": 240}}))
        intr = load_intrinsics(p)
        assert intr[0].fy == 610.0
        assert np.all(intr[0].dist == 0.0)
        assert (intr[0].width, intr[0].height) == (640, 480)
        assert intr[0].pre_undistorted is False

    def test_non_integer_camera_id(self, tmp_path):
        p = tmp_path / "i.json"
        p.write_text(json.dumps({"left": {"fx": 600, "fy": 600, "cx": 320, "cy": 240}}))
        with pytest.raises(ValidationError, match="left"):
            load_intrinsics(p)

    @pytest.mark.parametrize("key", ["01", " 2 ", "1_0", "\u0663", "+1", "-0"])
    def test_non_canonical_camera_id(self, tmp_path, key):
        # int() reads each of these; "01" beside "1" replaced camera 1's fx
        p = tmp_path / "i.json"
        cam = {"fy": 600, "cx": 320, "cy": 240}
        p.write_text(json.dumps({"1": {"fx": 600, **cam}, key: {"fx": 900, **cam}}))
        with pytest.raises(ValidationError, match="intrinsics key") as e:
            load_intrinsics(p)
        assert repr(key) in str(e.value)

    def test_repeated_camera_id(self, tmp_path):
        p = tmp_path / "i.json"
        cam = '{"fx": %d, "fy": 600, "cx": 320, "cy": 240}'
        p.write_text('{"1": %s, "1": %s}' % (cam % 600, cam % 900))
        with pytest.raises(ParseError, match="repeated key '1'"):
            load_intrinsics(p)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "i.json"
        p.write_text(json.dumps({"0": {"fx": 600, "cx": 320, "cy": 240}}))
        with pytest.raises(ValidationError, match="camera 0"):
            load_intrinsics(p)

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "i.json"
        p.write_text("{{{")
        with pytest.raises(ParseError):
            load_intrinsics(p)

    @pytest.mark.parametrize("field", [
        {"pre_undistorted": "false"},
        {"width": 640.9},
        {"height": True},
        {"fx": "600"},
        {"dist": [True, 0, 0, 0, 0]},
    ])
    def test_wrong_json_type(self, tmp_path, field):
        p = tmp_path / "i.json"
        p.write_text(json.dumps({"0": {"fx": 600, "fy": 600, "cx": 320, "cy": 240, **field}}))
        with pytest.raises(ValidationError, match="camera 0"):
            load_intrinsics(p)

    def test_integer_beyond_double_range(self, tmp_path):
        p = tmp_path / "i.json"
        p.write_text('{"0": {"fx": 1' + "0" * 400 + ', "fy": 600, "cx": 320, "cy": 240}}')
        with pytest.raises(ValidationError, match="camera 0: fx must be within double range"):
            load_intrinsics(p)

    def test_integer_past_digit_limit(self, tmp_path):
        p = tmp_path / "i.json"
        p.write_text('{"0": {"fx": 1' + "0" * 5000 + ', "fy": 600, "cx": 320, "cy": 240}}')
        with pytest.raises(ParseError, match="invalid JSON"):
            load_intrinsics(p)

    @pytest.mark.parametrize("field", [
        {"fx": float("nan")},
        {"fy": float("inf")},
        {"cx": float("-inf")},
        {"cy": float("nan")},
        {"dist": [0, float("nan"), 0, 0, 0]},
    ], ids=["fx_nan", "fy_inf", "cx_minus_inf", "cy_nan", "dist_nan"])
    def test_non_finite_value(self, tmp_path, field):
        # json.dumps writes NaN and Infinity, and json.load reads them back
        p = tmp_path / "i.json"
        p.write_text(json.dumps({"0": {"fx": 600, "fy": 600, "cx": 320, "cy": 240, **field}}))
        with pytest.raises(ValidationError, match="finite"):
            load_intrinsics(p)


class TestDataset:
    def _one(self):
        return [parse_detection_line(_det_line())]

    def test_minimal_valid(self):
        ds = Dataset(self._one(), {0: _intr()}, 0.04, 1)
        assert len(ds.detections) == 1

    def test_marker_side_positive(self):
        for side in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="marker_side"):
                Dataset(self._one(), {0: _intr()}, side, 1)

    def test_frame_out_of_range(self):
        dets = [parse_detection_line(_det_line(t=5))]
        with pytest.raises(ValidationError, match="frame index 5"):
            Dataset(dets, {0: _intr()}, 0.04, 5)

    def test_missing_intrinsics(self):
        dets = [parse_detection_line(_det_line(cam=2))]
        with pytest.raises(MissingIntrinsics) as e:
            Dataset(dets, {0: _intr()}, 0.04, 1)
        assert e.value.cam == 2

    def test_duplicate_key(self):
        dets = [parse_detection_line(_det_line())] * 2
        with pytest.raises(ValidationError, match="duplicate"):
            Dataset(dets, {0: _intr()}, 0.04, 1)

    def test_load_dataset_infers_n_frames(self, tmp_path):
        dp, ip = tmp_path / "d.jsonl", tmp_path / "i.json"
        dp.write_text(_det_line(t=0) + "\n" + _det_line(t=41) + "\n")
        ip.write_text(json.dumps({"0": {"fx": 600, "fy": 600, "cx": 320, "cy": 240}}))
        ds = load_dataset(dp, ip, 0.04)
        assert ds.n_frames == 42


class TestAtomicWrite:
    def test_writes_and_overwrites(self, tmp_path):
        p = tmp_path / "out.txt"
        atomic_write(p, "first")
        atomic_write(p, "second")
        assert p.read_text() == "second"

    def test_no_temp_residue(self, tmp_path):
        atomic_write(tmp_path / "out.txt", "data")
        assert sorted(f.name for f in tmp_path.iterdir()) == ["out.txt"]

    def test_failed_rename_keeps_old_file(self, tmp_path, monkeypatch):
        p = tmp_path / "out.txt"
        p.write_text("old")

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            atomic_write(p, "new")
        assert p.read_text() == "old"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["out.txt"]


class TestDetectionRoundTrip:
    def test_byte_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        dets = [
            parse_detection_line(
                _det_line(t, c, m, (100 + 50 * rng.random((4, 2))).tolist())
            )
            for t in range(3)
            for c in range(2)
            for m in range(2)
        ]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_detections(dets, p1)
        save_detections(load_detections(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_intrinsics_byte_identical(self, tmp_path):
        intr = {
            0: _intr(),
            3: CameraIntrinsics(
                fx=601.5, fy=598.25, cx=321.125, cy=239.5,
                dist=np.array([-0.2, 0.05, 0.001, -0.001, 0.01]),
                width=1280, height=720,
            ),
        }
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_intrinsics(intr, p1)
        save_intrinsics(load_intrinsics(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCalibrationRoundTrip:
    def _result(self):
        cams = StructureEstimate(
            0,
            {0: RigidTransform.identity(), 1: _pose(0.2, 0.1)},
            (PairKey(0, 1),),
        )
        markers = StructureEstimate(
            0,
            {0: RigidTransform.identity(), 2: _pose(-0.4, 0.3)},
            (PairKey(0, 2),),
        )
        traj = Trajectory()
        traj.frames[0] = FrameState(_pose(0.7, -0.2))
        traj.frames[1] = FrameState(None, SOURCE_INIT)
        report = FitReport(
            initial_rms=1.5, final_rms=0.25, iterations=12,
            per_frame_rms={0: 0.25}, reason="min_improve",
        )
        return CalibrationResult(cams, markers, traj, 0.04, report)

    def test_round_trip(self, tmp_path):
        r1 = self._result()
        p = tmp_path / "cal.json"
        save_calibration(r1, p)
        r2 = load_calibration(p)
        assert r2.marker_side == 0.04
        assert r2.cams.reference == 0 and r2.markers.reference == 0
        assert r2.cams.tree_edges == r1.cams.tree_edges
        for i in r1.cams.poses:
            assert np.allclose(
                r1.cams.poses[i].as_matrix(), r2.cams.poses[i].as_matrix(), atol=1e-12
            )
        assert np.allclose(
            r1.traj.frames[0].pose.as_matrix(),
            r2.traj.frames[0].pose.as_matrix(),
            atol=1e-12,
        )
        assert r2.traj.frames[1].pose is None
        assert r2.report.iterations == 12
        assert r2.report.reason == "min_improve"
        assert r2.report.per_frame_rms == {0: 0.25}

    def test_byte_identical_resave(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_calibration(self._result(), p1)
        save_calibration(load_calibration(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_field_rejected(self, tmp_path):
        p = tmp_path / "cal.json"
        save_calibration(self._result(), p)
        doc = json.loads(p.read_text())
        del doc["markers"]
        p.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            load_calibration(p)

    def test_bad_marker_side_rejected(self, tmp_path):
        p = tmp_path / "cal.json"
        save_calibration(self._result(), p)
        doc = json.loads(p.read_text())
        for side in (0.0, float("nan"), float("inf")):
            doc["marker_side"] = side
            p.write_text(json.dumps(doc))
            with pytest.raises(ValidationError, match="marker side"):
                load_calibration(p)

    def test_matrix_rvec_disagreement_rejected(self, tmp_path):
        p = tmp_path / "cal.json"
        save_calibration(self._result(), p)
        doc = json.loads(p.read_text())
        doc["cameras"]["poses"]["1"]["matrix"][0][3] += 0.5
        p.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="disagrees"):
            load_calibration(p)

    def test_non_orthonormal_matrix_rejected(self, tmp_path):
        # 9e-7 passes the rvec cross-check but leaves |R^T R - I| at 1.7e-6;
        # a NaN translation fails the cross-check
        p = tmp_path / "cal.json"
        save_calibration(self._result(), p)
        for row, col, delta, match in ((0, 0, 9e-7, "not orthonormal"),
                                       (1, 3, float("nan"), "disagrees")):
            doc = json.loads(p.read_text())
            doc["cameras"]["poses"]["1"]["matrix"][row][col] += delta
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            with pytest.raises(ValidationError, match=match):
                load_calibration(bad)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("initial_rms", "1.5"),
            ("final_rms", True),
            ("final_rms", None),
            ("iterations", "6"),
            ("iterations", 6.0),
            ("iterations", False),
            ("reason", 7),
            ("reason", None),
            ("per_frame_rms", {"0": "0.25"}),
            ("per_frame_rms", {"0": True}),
        ],
    )
    def test_report_field_of_wrong_type_rejected(self, tmp_path, field, value):
        p = tmp_path / "cal.json"
        save_calibration(self._result(), p)
        doc = json.loads(p.read_text())
        doc["report"][field] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=field):
            load_calibration(p)

    def test_report_field_beyond_double_range_rejected(self, tmp_path):
        p = tmp_path / "cal.json"
        save_calibration(self._result(), p)
        doc = json.loads(p.read_text())
        doc["report"]["final_rms"] = 10 ** 400
        p.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="final_rms must be within double range"):
            load_calibration(p)

    @pytest.mark.parametrize("value", [True, "0.04", 10 ** 400], ids=["bool", "string", "huge"])
    def test_marker_side_of_wrong_type_rejected(self, tmp_path, value):
        # a bare float() read true as a 1 m marker
        p = tmp_path / "cal.json"
        save_calibration(self._result(), p)
        doc = json.loads(p.read_text())
        doc["marker_side"] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="marker_side"):
            load_calibration(p)

    @pytest.mark.parametrize("value", [1.7, "0", True], ids=["fraction", "string", "bool"])
    def test_reference_of_wrong_type_rejected(self, tmp_path, value):
        # a bare int() made 1.7 camera 1
        p = tmp_path / "cal.json"
        save_calibration(self._result(), p)
        doc = json.loads(p.read_text())
        doc["cameras"]["reference"] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="reference must be a JSON int"):
            load_calibration(p)

    @pytest.mark.parametrize("value", [5, None], ids=["number", "null"])
    def test_frame_source_of_wrong_type_rejected(self, tmp_path, value):
        p = tmp_path / "cal.json"
        save_calibration(self._result(), p)
        doc = json.loads(p.read_text())
        doc["trajectory"]["1"]["source"] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="source must be a JSON str"):
            load_calibration(p)

    @pytest.mark.parametrize("key", ["01", "1_0", " 1", "\u0661"])
    @pytest.mark.parametrize("where", ["cameras.poses", "markers.poses", "trajectory",
                                       "report.per_frame_rms"])
    def test_non_canonical_id_rejected(self, tmp_path, where, key):
        # int() read each key as an id; "01" beside "1" replaced entry 1
        p = tmp_path / "cal.json"
        save_calibration(self._result(), p)
        doc = json.loads(p.read_text())
        first, second = where.split(".") if "." in where else (where, None)
        obj = doc[first] if second is None else doc[first][second]
        obj[key] = next(iter(obj.values()))
        p.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=f"{where} key") as e:
            load_calibration(p)
        assert repr(key) in str(e.value)

    @pytest.mark.parametrize("where", ["cameras.poses", "trajectory", "report.per_frame_rms"])
    def test_structure_of_wrong_json_type_rejected(self, tmp_path, where):
        p = tmp_path / "cal.json"
        save_calibration(self._result(), p)
        doc = json.loads(p.read_text())
        first, second = where.split(".") if "." in where else (where, None)
        if second is None:
            doc[first] = list(doc[first].values())
        else:
            doc[first][second] = list(doc[first][second].values())
        p.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=f"{where} must be a JSON object"):
            load_calibration(p)

    def test_repeated_key_rejected(self, tmp_path):
        # json.load kept the last of two marker_side keys
        p = tmp_path / "cal.json"
        save_calibration(self._result(), p)
        text = p.read_text()
        assert text.count('"marker_side": 0.04,') == 1
        p.write_text(text.replace('"marker_side": 0.04,', '"marker_side": 0.04, "marker_side": 0.05,'))
        with pytest.raises(ParseError, match="repeated key 'marker_side'"):
            load_calibration(p)

    def test_report_loads_as_saved(self, tmp_path):
        # integral rms values are JSON numbers too; a file without `reason`
        # loads with the empty reason
        r1 = self._result()
        p = tmp_path / "cal.json"
        save_calibration(r1, p)
        assert load_calibration(p).report == r1.report
        doc = json.loads(p.read_text())
        doc["report"]["final_rms"] = 0
        del doc["report"]["reason"]
        p.write_text(json.dumps(doc))
        report = load_calibration(p).report
        assert report.final_rms == 0.0 and isinstance(report.final_rms, float)
        assert report.reason == ""

    @pytest.mark.parametrize("edge", [[True, 2.5], [0, "1"], [0.0, 1]],
                             ids=["bool and fraction", "string", "float"])
    def test_tree_edge_id_of_wrong_type_rejected(self, tmp_path, edge):
        # [[true, 2.5]] loaded as PairKey(a=True, b=2.5) and saved back
        p = tmp_path / "cal.json"
        save_calibration(self._result(), p)
        doc = json.loads(p.read_text())
        doc["cameras"]["tree_edges"] = [edge]
        p.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="cameras.tree_edges id must be a JSON int"):
            load_calibration(p)

    @pytest.mark.parametrize("where, edge, unknown", [("cameras", [7, 9], 7), ("markers", [0, 1], 1)])
    def test_tree_edge_outside_poses_rejected(self, tmp_path, where, edge, unknown):
        # cameras 7 and 9, and marker 1, are not in the file
        p = tmp_path / "cal.json"
        save_calibration(self._result(), p)
        doc = json.loads(p.read_text())
        doc[where]["tree_edges"] = [edge]
        p.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=f"{where}.tree_edges id {unknown} is not one"):
            load_calibration(p)

    def test_tree_edge_not_a_pair_rejected(self, tmp_path):
        # the string "01" unpacked into the ids "0" and "1"
        p = tmp_path / "cal.json"
        save_calibration(self._result(), p)
        doc = json.loads(p.read_text())
        doc["cameras"]["tree_edges"] = ["01"]
        p.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="tree_edges entry must be a pair of ids"):
            load_calibration(p)

    def test_reference_outside_poses_rejected(self, tmp_path):
        p = tmp_path / "cal.json"
        save_calibration(self._result(), p)
        doc = json.loads(p.read_text())
        doc["markers"]["reference"] = 5
        p.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="markers.reference 5 is not one of its poses"):
            load_calibration(p)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rvec", [True, False, False]),
            ("tvec", ["0", 0.0, 0.0]),
            ("matrix", [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                        [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, True]]),
        ],
    )
    def test_transform_entry_of_wrong_type_rejected(self, tmp_path, field, value):
        # each loaded: true as 1, the string "0" as 0.0, and the matrix's
        # bottom row was never read
        p = tmp_path / "cal.json"
        save_calibration(self._result(), p)
        doc = json.loads(p.read_text())
        pose = doc["cameras"]["poses"]["0"]
        if field == "rvec":
            del pose["matrix"]
        pose[field] = value
        p.write_text(json.dumps(doc))
        name = "matrix row" if field == "matrix" else field
        with pytest.raises(ValidationError, match=f"{name} must be a JSON float"):
            load_calibration(p)

    def test_rvec_only_transform_accepted(self, tmp_path):
        p = tmp_path / "cal.json"
        r1 = self._result()
        save_calibration(r1, p)
        doc = json.loads(p.read_text())
        del doc["cameras"]["poses"]["1"]["matrix"]
        p.write_text(json.dumps(doc))
        r2 = load_calibration(p)
        assert np.allclose(
            r1.cams.poses[1].as_matrix(), r2.cams.poses[1].as_matrix(), atol=1e-9
        )


class TestTrajectoryCsv:
    def test_written_text_with_untracked(self, tmp_path):
        traj = Trajectory()
        traj.frames[0] = FrameState(_pose(0.5, 0.1))
        traj.frames[1] = FrameState(None)
        traj.frames[2] = FrameState(_pose(-1.2, -0.4))
        p = tmp_path / "t.csv"
        save_trajectory_csv(traj, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "t,tx,ty,tz,qx,qy,qz,qw"
        assert lines[2] == "1,,,,,,,"
        for t, line in ((0, lines[1]), (2, lines[3])):
            pose = traj.frames[t].pose
            w, x, y, z = (float(v) for v in rotation_to_quaternion(pose.rotation))
            cells = [repr(float(v)) for v in pose.translation] + [repr(v) for v in (x, y, z, w)]
            assert line == f"{t}," + ",".join(cells)
            quat = [float(v) for v in line.split(",")[4:]]
            np.testing.assert_allclose(
                Rotation.from_quat(quat).as_matrix(), pose.rotation, rtol=0, atol=1e-12
            )

    _HALF_TURN_XY = (math.pi * math.sqrt(0.5), math.pi * math.sqrt(0.5), 0.0)
    _HALF_TURN_XYZ = (math.pi / math.sqrt(3.0),) * 3

    @pytest.mark.parametrize(
        "rvec",
        [
            (0.0, 0.0, 0.0),  # identity
            (1e-9, 0.0, 0.0),  # a tiny angle
            (0.3, -0.2, 0.1),  # positive trace
            (math.pi, 0.0, 0.0),  # half turns: w = 0, one branch per axis
            (0.0, math.pi, 0.0),
            (0.0, 0.0, math.pi),
            _HALF_TURN_XY,  # m00 = m11 tie
            _HALF_TURN_XYZ,  # three-way diagonal tie
            (3.0, 0.0, 0.0),  # negative trace
            (-3.0, 0.0, 0.0),  # negative trace and w < 0 before the sign flip,
            (0.0, -3.0, 0.0),  # one per axis branch
            (0.0, 0.0, -3.0),
        ],
    )
    def test_row_quaternion_gives_back_rotation(self, rvec):
        pose = RigidTransform(rotation_from_rvec(np.array(rvec)), np.array([0.05, 0.2, 1.0]))
        cells = trajectory_csv_row(4, pose).split(",")
        assert len(cells) == 8 and cells[0] == "4"
        x, y, z, w = (float(v) for v in cells[4:])
        assert w >= 0.0
        assert abs(math.sqrt(x * x + y * y + z * z + w * w) - 1.0) < 1e-15
        np.testing.assert_allclose(
            Rotation.from_quat([x, y, z, w]).as_matrix(), pose.rotation, rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize(
        "translation",
        [(0.1, 0.2, 0.3), (-0.0, 1e-300, -1e300), (5e-324, 123456789.0123456, -2.5)],
    )
    def test_row_translation_reads_back_bit_for_bit(self, translation):
        row = trajectory_csv_row(0, RigidTransform(np.eye(3), np.array(translation)))
        cells = row.split(",")[1:4]
        # packed, so that -0.0 and 0.0 differ
        assert [struct.pack("<d", float(c)) for c in cells] == [
            struct.pack("<d", v) for v in translation
        ]

    def test_rows_in_t_order(self, tmp_path):
        traj = Trajectory()
        for t in (12, 0, 2**53 + 1, 3):
            traj.frames[t] = FrameState(None if t == 3 else _pose())
        p = tmp_path / "t.csv"
        save_trajectory_csv(traj, p)
        rows = p.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0", "3", "12", str(2**53 + 1)]
        assert rows[1] == "3,,,,,,,"

    def test_empty_trajectory_writes_header_only(self, tmp_path):
        p = tmp_path / "t.csv"
        save_trajectory_csv(Trajectory(), p)
        assert p.read_bytes() == b"t,tx,ty,tz,qx,qy,qz,qw\n"


class TestGroundTruthRoundTrip:
    def test_round_trip(self, tmp_path):
        from markercal.synthetic import SceneSpec, generate

        gt, _, _ = generate(SceneSpec(n_cameras=3, n_frames=4, trajectory="orbit"))
        p = tmp_path / "gt.json"
        save_ground_truth(gt, p)
        g2 = load_ground_truth(p)
        assert set(g2.cams_gt.poses) == set(gt.cams_gt.poses)
        for c in gt.cams_gt.poses:
            assert np.allclose(
                gt.cams_gt.poses[c].as_matrix(),
                g2.cams_gt.poses[c].as_matrix(),
                atol=1e-12,
            )
        for t, st in gt.traj_gt.frames.items():
            assert np.allclose(
                st.pose.as_matrix(), g2.traj_gt.frames[t].pose.as_matrix(), atol=1e-12
            )

    @pytest.mark.parametrize("key", ["00", "0_1"])
    def test_non_canonical_frame_rejected(self, tmp_path, key):
        gt, _, _ = generate(SceneSpec(n_cameras=3, n_frames=2, trajectory="orbit"))
        p = tmp_path / "gt.json"
        save_ground_truth(gt, p)
        doc = json.loads(p.read_text())
        doc["trajectory"][key] = doc["trajectory"].pop("1")
        p.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=f"trajectory key '{key}'"):
            load_ground_truth(p)

    def test_trajectory_array_rejected(self, tmp_path):
        gt, _, _ = generate(SceneSpec(n_cameras=3, n_frames=2, trajectory="orbit"))
        p = tmp_path / "gt.json"
        save_ground_truth(gt, p)
        doc = json.loads(p.read_text())
        doc["trajectory"] = list(doc["trajectory"].values())
        p.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="trajectory must be a JSON object"):
            load_ground_truth(p)
