"""Tests for file parsing, validation and round-trip serialization."""

import json
import os

import numpy as np
import pytest

from markercal.dataset import (
    Dataset,
    atomic_write,
    load_calibration,
    load_dataset,
    load_detections,
    load_ground_truth,
    load_intrinsics,
    load_trajectory_csv,
    parse_detection_line,
    save_calibration,
    save_detections,
    save_ground_truth,
    save_intrinsics,
    save_trajectory_csv,
)
from markercal.errors import MissingIntrinsics, ParseError, ValidationError
from markercal.frame_init import SOURCE_INIT, FrameState, Trajectory
from markercal.geometry import CameraIntrinsics, RigidTransform, rotation_from_rvec
from markercal.optimizer import CalibrationResult, FitReport
from markercal.pairwise import PairKey
from markercal.structure_init import StructureEstimate

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
            (PairKey(0, 1, "camera"),),
        )
        markers = StructureEstimate(
            0,
            {0: RigidTransform.identity(), 2: _pose(-0.4, 0.3)},
            (PairKey(0, 2, "marker"),),
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
    def test_round_trip_with_untracked(self, tmp_path):
        traj = Trajectory()
        traj.frames[0] = FrameState(_pose(0.5, 0.1))
        traj.frames[1] = FrameState(None)
        traj.frames[2] = FrameState(_pose(-1.2, -0.4))
        p = tmp_path / "t.csv"
        save_trajectory_csv(traj, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "t,tx,ty,tz,qx,qy,qz,qw"
        assert lines[2] == "1,,,,,,,"
        back = load_trajectory_csv(p)
        assert back.frames[1].pose is None
        for t in (0, 2):
            assert np.allclose(
                traj.frames[t].pose.as_matrix(),
                back.frames[t].pose.as_matrix(),
                atol=1e-12,
            )

    def test_bad_header(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("frame,x,y,z\n")
        with pytest.raises(ParseError) as e:
            load_trajectory_csv(p)
        assert e.value.line == 1

    def test_bad_row(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("t,tx,ty,tz,qx,qy,qz,qw\n0,1,2\n")
        with pytest.raises(ParseError) as e:
            load_trajectory_csv(p)
        assert e.value.line == 2

    def test_malformed_float(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("t,tx,ty,tz,qx,qy,qz,qw\n0,a,b,c,d,e,f,g\n")
        with pytest.raises(ParseError):
            load_trajectory_csv(p)


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
