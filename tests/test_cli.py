"""Tests for the command-line interface: subcommands, exit codes, streams."""

import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from markercal import cli
from markercal.dataset import (
    load_calibration,
    load_trajectory_csv,
    save_detections,
    save_intrinsics,
)
from markercal.synthetic import SceneSpec, generate


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A small synthetic dataset plus a finished calibration on disk."""
    d = tmp_path_factory.mktemp("cli")
    spec = SceneSpec(
        n_cameras=3, circle_radius=0.7, object="cube", n_frames=10,
        trajectory="orbit", noise_sigma=0.2, seed=4,
    )
    gt, dets, intr = generate(spec)
    save_detections(dets, d / "detections.jsonl")
    save_intrinsics(intr, d / "intrinsics.json")
    from markercal.dataset import save_ground_truth

    save_ground_truth(gt, d / "ground_truth.json")
    rc = cli.main([
        "calibrate",
        "--detections", str(d / "detections.jsonl"),
        "--intrinsics", str(d / "intrinsics.json"),
        "--marker-side", "0.04",
        "--output", str(d / "cal.json"),
    ])
    assert rc == 0
    return d


def _stdin(data: str | bytes) -> io.TextIOWrapper:
    """A stand-in for sys.stdin over `data`, with the binary buffer that
    stream mode reads."""
    return io.TextIOWrapper(io.BytesIO(data.encode() if isinstance(data, str) else data))


def _non_utf8(path, row: int) -> bytes:
    """The lines of a detections file with 0xff 0xfe, which no UTF-8 text
    holds, put before line row + 1."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[row] = b"\xff\xfe" + lines[row]
    return b"".join(lines)


class TestCalibrateCommand:
    def test_outputs_and_stdout(self, workdir, tmp_path, capsys):
        rc = cli.main([
            "calibrate",
            "--detections", str(workdir / "detections.jsonl"),
            "--intrinsics", str(workdir / "intrinsics.json"),
            "--marker-side", "0.04",
            "--output", str(tmp_path / "cal.json"),
            "--trajectory-csv", str(tmp_path / "traj.csv"),
            "--dump-graph", str(tmp_path / "graph"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rms" in out and "camera graph" in out
        assert (tmp_path / "cal.json").exists()
        assert (tmp_path / "traj.csv").exists()
        assert (tmp_path / "graph.cameras.dot").read_text().startswith("graph")
        assert (tmp_path / "graph.markers.dot").exists()

    def test_rerun_byte_identical(self, workdir, tmp_path):
        args = [
            "calibrate",
            "--detections", str(workdir / "detections.jsonl"),
            "--intrinsics", str(workdir / "intrinsics.json"),
            "--marker-side", "0.04",
        ]
        assert cli.main(args + ["--output", str(tmp_path / "a.json")]) == 0
        assert cli.main(args + ["--output", str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_missing_input_exit_2(self, tmp_path, capsys):
        rc = cli.main([
            "calibrate",
            "--detections", str(tmp_path / "nope.jsonl"),
            "--intrinsics", str(tmp_path / "nope.json"),
            "--marker-side", "0.04",
            "--output", str(tmp_path / "cal.json"),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_detection_file_exit_2(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        rc = cli.main([
            "calibrate",
            "--detections", str(bad),
            "--intrinsics", str(workdir / "intrinsics.json"),
            "--marker-side", "0.04",
            "--output", str(tmp_path / "cal.json"),
        ])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("row", [0, 2])
    def test_non_utf8_detection_file_exit_2(self, workdir, tmp_path, capsys, row):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(_non_utf8(workdir / "detections.jsonl", row))
        rc = cli.main([
            "calibrate",
            "--detections", str(bad),
            "--intrinsics", str(workdir / "intrinsics.json"),
            "--marker-side", "0.04",
            "--output", str(tmp_path / "cal.json"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: line {row + 1}: not UTF-8: byte 0xff at offset 0\n"
        assert not (tmp_path / "cal.json").exists()

    def test_integer_corner_beyond_double_range_exit_2(self, workdir, tmp_path, capsys):
        # a valid JSON integer that float() overflows on, in the third line
        lines = (workdir / "detections.jsonl").read_text().splitlines()
        det = json.loads(lines[2])
        lines[2] = json.dumps({**det, "corners": [[1, 2], [3, 10 ** 400], [5, 6], [7, 8]]})
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        rc = cli.main([
            "calibrate",
            "--detections", str(bad),
            "--intrinsics", str(workdir / "intrinsics.json"),
            "--marker-side", "0.04",
            "--output", str(tmp_path / "cal.json"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: corners must be within double range")
        assert not (tmp_path / "cal.json").exists()

    def test_non_finite_intrinsics_exit_2(self, workdir, tmp_path, capsys):
        intr = json.loads((workdir / "intrinsics.json").read_text())
        intr["0"]["fx"] = float("nan")
        bad = tmp_path / "intrinsics.json"
        bad.write_text(json.dumps(intr))
        rc = cli.main([
            "calibrate",
            "--detections", str(workdir / "detections.jsonl"),
            "--intrinsics", str(bad),
            "--marker-side", "0.04",
            "--output", str(tmp_path / "cal.json"),
        ])
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "cal.json").exists()

    @pytest.mark.parametrize("flag, value, named", [
        ("--min-improve", "0", "min_improve"),
        ("--min-improve", "nan", "min_improve"),
        ("--max-iters", "0", "max_iters"),
        ("--marker-side", "nan", "marker_side"),
        ("--marker-side", "inf", "marker_side"),
    ])
    def test_bad_solver_or_side_flag_exit_2(self, workdir, tmp_path, capsys, flag, value, named):
        args = {
            "--detections": str(workdir / "detections.jsonl"),
            "--intrinsics": str(workdir / "intrinsics.json"),
            "--marker-side": "0.04",
            "--output": str(tmp_path / "cal.json"),
            flag: value,
        }
        rc = cli.main(["calibrate", *(item for pair in args.items() for item in pair)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert "Traceback" not in err
        assert not (tmp_path / "cal.json").exists()

    def test_disconnected_exit_3(self, tmp_path, capsys):
        spec = SceneSpec(
            n_cameras=2, circle_radius=0.7, object="cube", n_frames=8,
            trajectory="orbit", seed=1,
        )
        _, dets, intr = generate(spec)
        kept = [d for d in dets if d.t % 2 == d.cam]  # cameras never co-observe
        save_detections(kept, tmp_path / "d.jsonl")
        save_intrinsics(intr, tmp_path / "i.json")
        rc = cli.main([
            "calibrate",
            "--detections", str(tmp_path / "d.jsonl"),
            "--intrinsics", str(tmp_path / "i.json"),
            "--marker-side", "0.04",
            "--output", str(tmp_path / "cal.json"),
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert "camera" in err
        assert not (tmp_path / "cal.json").exists()

    def test_numerical_failure_exit_4(self, workdir, tmp_path, monkeypatch):
        from markercal import pipeline
        from markercal.errors import NumericalFailure

        def boom(*args, **kwargs):
            raise NumericalFailure("synthetic failure")

        monkeypatch.setattr(pipeline, "calibrate", boom)
        rc = cli.main([
            "calibrate",
            "--detections", str(workdir / "detections.jsonl"),
            "--intrinsics", str(workdir / "intrinsics.json"),
            "--marker-side", "0.04",
            "--output", str(tmp_path / "cal.json"),
        ])
        assert rc == 4


class TestTrackCommand:
    def test_file_mode(self, workdir, tmp_path, capsys):
        rc = cli.main([
            "track",
            "--calibration", str(workdir / "cal.json"),
            "--intrinsics", str(workdir / "intrinsics.json"),
            "--detections", str(workdir / "detections.jsonl"),
            "--output", str(tmp_path / "traj.csv"),
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "tracked 10/10 frames" in err
        assert "solve time" in err
        traj = load_trajectory_csv(tmp_path / "traj.csv")
        cal = load_calibration(workdir / "cal.json")
        for t, st in cal.traj.frames.items():
            d = np.abs(traj.frames[t].pose.as_matrix() - st.pose.as_matrix()).max()
            assert d < 1e-5

    def test_stream_mode(self, workdir, tmp_path, capsys, monkeypatch):
        lines = (workdir / "detections.jsonl").read_text()
        monkeypatch.setattr(sys, "stdin", _stdin(lines))
        track = [
            "track",
            "--calibration", str(workdir / "cal.json"),
            "--intrinsics", str(workdir / "intrinsics.json"),
        ]
        rc = cli.main(track + ["--detections", "-"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "t,tx,ty,tz,qx,qy,qz,qw"
        assert len(out) == 11  # header + one row per frame
        assert out[1].startswith("0,") and out[10].startswith("9,")
        # the same detections in file mode write the same CSV lines
        rc = cli.main(track + [
            "--detections", str(workdir / "detections.jsonl"),
            "--output", str(tmp_path / "traj.csv"),
        ])
        assert rc == 0
        assert out == (tmp_path / "traj.csv").read_text().splitlines()
        # with frame 4 gone, stdin jumps from t = 3 to 5 while file mode
        # feeds an empty frame 4: both start frame 5 from the frame-3 pose
        # and write the same rows, file mode an empty one for frame 4
        gap = [line for line in lines.splitlines(keepends=True) if json.loads(line)["t"] != 4]
        (tmp_path / "gap.jsonl").write_text("".join(gap))
        monkeypatch.setattr(sys, "stdin", _stdin("".join(gap)))
        assert cli.main(track + ["--detections", "-"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert cli.main(track + [
            "--detections", str(tmp_path / "gap.jsonl"), "--output", str(tmp_path / "gap.csv"),
        ]) == 0
        assert (tmp_path / "gap.csv").read_text().splitlines() == out[:5] + ["4,,,,,,,"] + out[5:]

    def test_detection_outside_declared_frames_exit_2(self, workdir, tmp_path, capsys):
        rc = cli.main([
            "track",
            "--calibration", str(workdir / "cal.json"),
            "--intrinsics", str(workdir / "intrinsics.json"),
            "--detections", str(workdir / "detections.jsonl"),
            "--n-frames", "5",
            "--output", str(tmp_path / "traj.csv"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: frame index 5 outside the declared 5 frames" in err
        assert "Traceback" not in err
        assert not (tmp_path / "traj.csv").exists()

    def test_stream_bad_line_exit_2(self, workdir, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", _stdin("garbage\n"))
        rc = cli.main([
            "track",
            "--calibration", str(workdir / "cal.json"),
            "--intrinsics", str(workdir / "intrinsics.json"),
            "--detections", "-",
        ])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    def test_stream_non_utf8_line_exit_2(self, workdir, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", _stdin(_non_utf8(workdir / "detections.jsonl", 2)))
        rc = cli.main([
            "track",
            "--calibration", str(workdir / "cal.json"),
            "--intrinsics", str(workdir / "intrinsics.json"),
            "--detections", "-",
        ])
        assert rc == 2
        assert capsys.readouterr().err == "error: line 3: not UTF-8: byte 0xff at offset 0\n"

    def test_stream_integer_corner_beyond_double_range_exit_2(self, workdir, capsys,
                                                              monkeypatch):
        line = json.dumps({"t": 0, "cam": 0, "marker": 0,
                           "corners": [[1, 2], [3, 4], [5, 6], [7, -(10 ** 400)]]})
        monkeypatch.setattr(sys, "stdin", _stdin("\n" + line + "\n"))
        rc = cli.main([
            "track",
            "--calibration", str(workdir / "cal.json"),
            "--intrinsics", str(workdir / "intrinsics.json"),
            "--detections", "-",
        ])
        assert rc == 2
        assert "error: line 2: corners must be within double range" in capsys.readouterr().err

    @pytest.mark.parametrize("stream", [False, True], ids=["file", "stdin"])
    @pytest.mark.parametrize("case", ["unknown camera", "unknown marker", "missing intrinsics",
                                      "duplicate detection"])
    def test_unresolvable_detection_exit_2(self, workdir, tmp_path, capsys, monkeypatch,
                                           stream, case):
        # one detection of frame 3 names a camera or marker the calibration
        # lacks, or a calibrated camera has no intrinsics, or is repeated
        lines = (workdir / "detections.jsonl").read_text().splitlines()
        intrinsics = json.loads((workdir / "intrinsics.json").read_text())
        row = next(i for i, line in enumerate(lines) if json.loads(line)["t"] == 3)
        det = json.loads(lines[row])
        if case == "missing intrinsics":
            del intrinsics[str(det["cam"])]
        elif case == "duplicate detection":
            lines.insert(row, lines[row])
        else:
            det["cam" if case == "unknown camera" else "marker"] = 77
            lines[row] = json.dumps(det)
        (tmp_path / "intrinsics.json").write_text(json.dumps(intrinsics))
        (tmp_path / "detections.jsonl").write_text("\n".join(lines) + "\n")
        args = [
            "track",
            "--calibration", str(workdir / "cal.json"),
            "--intrinsics", str(tmp_path / "intrinsics.json"),
            "--output", str(tmp_path / "traj.csv"),
        ]
        if stream:
            monkeypatch.setattr(sys, "stdin", _stdin("\n".join(lines) + "\n"))
            args += ["--detections", "-"]
        else:
            args += ["--detections", str(tmp_path / "detections.jsonl")]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        expect = {"missing intrinsics": "no intrinsics", "duplicate detection": "duplicate"}
        assert expect.get(case, "77") in err

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_rvec_without_matrix_exit_2(self, workdir, tmp_path, capsys, value):
        # without its matrix a transform is read from rvec and tvec, which
        # json reads as NaN or Infinity
        doc = json.loads((workdir / "cal.json").read_text())
        pose = doc["cameras"]["poses"]["1"]
        del pose["matrix"]
        pose["rvec"][0] = value
        (tmp_path / "cal.json").write_text(json.dumps(doc))
        rc = cli.main([
            "track",
            "--calibration", str(tmp_path / "cal.json"),
            "--intrinsics", str(workdir / "intrinsics.json"),
            "--detections", str(workdir / "detections.jsonl"),
            "--output", str(tmp_path / "traj.csv"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "rvec/tvec must be finite" in err
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.parametrize(
        "field, value", [("iterations", "6"), ("final_rms", True), ("reason", 7)]
    )
    def test_report_field_of_wrong_type_exit_2(self, workdir, tmp_path, capsys, field, value):
        doc = json.loads((workdir / "cal.json").read_text())
        doc["report"][field] = value
        (tmp_path / "cal.json").write_text(json.dumps(doc))
        rc = cli.main([
            "track",
            "--calibration", str(tmp_path / "cal.json"),
            "--intrinsics", str(workdir / "intrinsics.json"),
            "--detections", str(workdir / "detections.jsonl"),
            "--output", str(tmp_path / "traj.csv"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{field} must be a JSON" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edge, message",
        [([True, 2.5], "cameras.tree_edges id must be a JSON int, got True"),
         ([7, 9], "cameras.tree_edges id 7 is not one of its poses")],
        ids=["bool and fraction", "unknown cameras"],
    )
    def test_bad_tree_edge_exit_2(self, workdir, tmp_path, capsys, edge, message):
        # each loaded, and tracking ran on the calibration
        doc = json.loads((workdir / "cal.json").read_text())
        doc["cameras"]["tree_edges"] = [edge]
        (tmp_path / "cal.json").write_text(json.dumps(doc))
        rc = cli.main([
            "track",
            "--calibration", str(tmp_path / "cal.json"),
            "--intrinsics", str(workdir / "intrinsics.json"),
            "--detections", str(workdir / "detections.jsonl"),
            "--output", str(tmp_path / "traj.csv"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: bad calibration file: {message}\n"

    @pytest.mark.parametrize("where", ["cameras.poses", "trajectory", "report.per_frame_rms"])
    def test_structure_array_exit_2(self, workdir, tmp_path, capsys, where):
        # each was an AttributeError traceback and exit 1
        doc = json.loads((workdir / "cal.json").read_text())
        *path, last = where.split(".")
        parent = doc[path[0]] if path else doc
        parent[last] = list(parent[last].values())
        (tmp_path / "cal.json").write_text(json.dumps(doc))
        rc = cli.main([
            "track",
            "--calibration", str(tmp_path / "cal.json"),
            "--intrinsics", str(workdir / "intrinsics.json"),
            "--detections", str(workdir / "detections.jsonl"),
            "--output", str(tmp_path / "traj.csv"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{where} must be a JSON object" in err
        assert "Traceback" not in err

    def test_non_canonical_camera_id_exit_2(self, workdir, tmp_path, capsys):
        # camera 1 given again as "01" with another fx
        doc = json.loads((workdir / "intrinsics.json").read_text())
        doc["01"] = {**doc["1"], "fx": doc["1"]["fx"] + 300.0}
        (tmp_path / "intrinsics.json").write_text(json.dumps(doc))
        rc = cli.main([
            "track",
            "--calibration", str(workdir / "cal.json"),
            "--intrinsics", str(tmp_path / "intrinsics.json"),
            "--detections", str(workdir / "detections.jsonl"),
            "--output", str(tmp_path / "traj.csv"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: intrinsics key '01' is not a canonical integer id\n"

    def test_stream_frame_index_going_back_exit_2(self, workdir, capsys, monkeypatch):
        # frames 0, 1, then 0 again: the repeated frame is rejected, naming
        # its line, after frame 0's row
        lines = (workdir / "detections.jsonl").read_text().splitlines()
        frame = {t: [line for line in lines if json.loads(line)["t"] == t] for t in (0, 1)}
        text = "\n".join(frame[0] + frame[1] + frame[0][:1]) + "\n"
        monkeypatch.setattr(sys, "stdin", _stdin(text))
        rc = cli.main([
            "track",
            "--calibration", str(workdir / "cal.json"),
            "--intrinsics", str(workdir / "intrinsics.json"),
            "--detections", "-",
        ])
        assert rc == 2
        out, err = capsys.readouterr()
        lineno = len(frame[0]) + len(frame[1]) + 1
        assert err == f"error: line {lineno}: frame 0 comes after frame 1\n"
        assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["0"]


class TestSynthCommand:
    def test_default_spec(self, tmp_path, capsys):
        rc = cli.main(["synth", "--output-dir", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "5 cameras" in out
        for name in ("detections.jsonl", "intrinsics.json", "ground_truth.json"):
            assert (tmp_path / "out" / name).exists()

    def test_spec_file(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "n_cameras": 2, "n_frames": 3, "seed": 9, "noise_sigma": 0.1,
            "circle_radius": 0.8, "trajectory": "static",
        }))
        rc = cli.main([
            "synth", "--spec", str(spec_path), "--output-dir", str(tmp_path / "out"),
        ])
        assert rc == 0
        intr = json.loads((tmp_path / "out" / "intrinsics.json").read_text())
        assert set(intr) == {"0", "1"}

    def test_unknown_field_exit_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"n_camras": 3}))
        rc = cli.main([
            "synth", "--spec", str(spec_path), "--output-dir", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert "n_camras" in capsys.readouterr().err

    def test_invalid_spec_exit_2(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"n_cameras": 0}))
        rc = cli.main([
            "synth", "--spec", str(spec_path), "--output-dir", str(tmp_path / "out"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("text", [
        json.dumps({"intrinsics": {"fx": 500}}),
        json.dumps({"intrinsics": {"fx": 0, "fy": 500, "cx": 320, "cy": 240}}),
        json.dumps({"n_cameras": "three"}),
        '{"n_cameras": 3',
        json.dumps({"ambiguity_stress": "false"}),
        json.dumps({"n_cameras": 2.9}),
        json.dumps({"seed": True}),
        json.dumps({"intrinsics": {"fx": 500, "fy": 500, "cx": 320, "cy": 240,
                                   "pre_undistorted": "false"}}),
        json.dumps({"intrinsics": {"fx": 500, "fy": 500, "cx": 320, "cy": 240,
                                   "width": 640.9}}),
        '{"marker_side": NaN}',
        '{"noise_sigma": NaN}',
        '{"circle_radius": Infinity}',
        '{"camera_height": NaN}',
        '{"circle_radius": 1' + "0" * 400 + "}",
        '{"intrinsics": {"fx": 1' + "0" * 400 + ', "fy": 500, "cx": 320, "cy": 240}}',
        '{"seed": 1' + "0" * 5000 + "}",
    ], ids=["missing_intrinsics_field", "zero_focal_length", "non_integer_count",
            "invalid_json", "string_bool", "fractional_count", "bool_seed",
            "string_intrinsics_bool", "fractional_width", "nan_marker_side", "nan_noise_sigma",
            "infinite_circle_radius", "nan_camera_height", "huge_integer_radius",
            "huge_integer_focal_length", "integer_past_digit_limit"])
    def test_malformed_spec_exit_2(self, tmp_path, capsys, text):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(text)
        rc = cli.main([
            "synth", "--spec", str(spec_path), "--output-dir", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_same_seed_identical(self, tmp_path):
        for sub in ("a", "b"):
            assert cli.main(["synth", "--output-dir", str(tmp_path / sub)]) == 0
        a = (tmp_path / "a" / "detections.jsonl").read_bytes()
        b = (tmp_path / "b" / "detections.jsonl").read_bytes()
        assert a == b


class TestEvalCommand:
    def test_report_and_json(self, workdir, tmp_path, capsys):
        rc = cli.main([
            "eval",
            "--calibration", str(workdir / "cal.json"),
            "--ground-truth", str(workdir / "ground_truth.json"),
            "--output", str(tmp_path / "report.json"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "object translation" in out and "mm" in out
        doc = json.loads((tmp_path / "report.json").read_text())
        assert set(doc) == {
            "obj_trans_err_mm", "obj_rot_err_deg",
            "cam_trans_err_mm", "marker_config_err_mm",
        }
        assert doc["obj_trans_err_mm"] < 2.0

    def test_frame_mismatch_exit_2(self, workdir, tmp_path):
        cal = json.loads((workdir / "cal.json").read_text())
        cal["trajectory"] = {"0": cal["trajectory"]["0"]}
        (tmp_path / "cut.json").write_text(json.dumps(cal))
        rc = cli.main([
            "eval",
            "--calibration", str(tmp_path / "cut.json"),
            "--ground-truth", str(workdir / "ground_truth.json"),
        ])
        assert rc == 2


class TestThreadFlag:
    def test_sets_env_caps(self, tmp_path, monkeypatch):
        for var in cli._THREAD_ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        rc = cli.main(["synth", "--output-dir", str(tmp_path / "o"), "--threads", "2"])
        assert rc == 0
        for var in cli._THREAD_ENV_VARS:
            assert os.environ[var] == "2"

    def test_absent_flag_leaves_env(self, tmp_path, monkeypatch):
        for var in cli._THREAD_ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        rc = cli.main(["synth", "--output-dir", str(tmp_path / "o")])
        assert rc == 0
        assert all(var not in os.environ for var in cli._THREAD_ENV_VARS)

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_below_one_exit_2(self, tmp_path, monkeypatch, capsys, value):
        # OpenBLAS reads 0 or a negative count as no cap at all
        for var in cli._THREAD_ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        rc = cli.main(["synth", "--output-dir", str(tmp_path / "o"), "--threads", value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--threads" in err
        assert all(var not in os.environ for var in cli._THREAD_ENV_VARS)
        assert not (tmp_path / "o").exists()


def _loaded_after(*modules: str) -> set[str]:
    """The top-level packages in sys.modules after a fresh interpreter
    imports `modules` from this markercal."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = f"import sys, {', '.join(modules)}; print(' '.join(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout
    return {name.split(".")[0] for name in out.split()}


class TestImports:
    def test_cli_leaves_numpy_unloaded(self):
        # --threads caps BLAS through environment variables, which only take
        # effect if numpy loads after them
        assert "numpy" not in _loaded_after("markercal.cli")

    def test_runtime_leaves_scipy_unloaded(self):
        # numpy is the only runtime dependency
        loaded = _loaded_after(
            "markercal.cli", "markercal.pipeline", "markercal.optimizer",
            "markercal.dataset", "markercal.synthetic",
        )
        assert "numpy" in loaded
        assert "scipy" not in loaded
