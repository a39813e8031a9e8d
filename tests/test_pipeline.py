"""End-to-end tests for the offline calibration driver and the tracker."""

import json

import numpy as np
import pytest

from markercal.dataset import Dataset, load_calibration, save_calibration
from markercal.errors import DisconnectedGraph, NoValidPose, ValidationError
from markercal.geometry import (
    CameraIntrinsics,
    MarkerTemplate,
    RigidTransform,
    compose,
    invert,
    project,
    rotation_angle,
    rotation_from_rvec,
)
from markercal.pipeline import (
    CalibrationConfig,
    TrackSession,
    calibrate,
    detection_candidates,
    track_sequence,
)
from markercal.planar_pose import Detection
from markercal.synthetic import SceneSpec, evaluate, generate, result_from_ground_truth


def _dataset(**kwargs):
    # radius 0.7 keeps the markers large enough in view that a 3-camera
    # noisy scene initializes in the right basin for every seed
    defaults = dict(
        n_cameras=3, circle_radius=0.7, object="cube", n_frames=16,
        trajectory="orbit", seed=2,
    )
    defaults.update(kwargs)
    spec = SceneSpec(**defaults)
    gt, dets, intr = generate(spec)
    return gt, Dataset(dets, intr, spec.marker_side, spec.n_frames)


def _stepped_track(steps, noise=0.0, seed=5):
    """The ground-truth calibration of _dataset's scene, and a track from its
    frame 0 that moves by one (rvec, translation) step per frame, applied on
    the right (in the object frame). Returns the calibration, intrinsics,
    true poses and detections by frame: every marker facing every camera."""
    gt, ds = _dataset()
    result = result_from_ground_truth(gt, ds.marker_side)
    template = MarkerTemplate(ds.marker_side)
    rng = np.random.default_rng(seed)
    poses = [gt.traj_gt.frames[0].pose]
    for w, v in steps:
        poses.append(compose(poses[-1], RigidTransform(rotation_from_rvec(np.asarray(w)), v)))
    by_frame = {}
    for t, pose in enumerate(poses):
        for c, cam in sorted(result.cams.poses.items()):
            for m, marker in sorted(result.markers.poses.items()):
                top = compose(invert(cam), compose(pose, marker))
                if top.rotation[:, 2] @ top.translation >= 0.0:
                    continue  # the marker's back face
                pix = project(top.apply(template.corners), ds.intrinsics[c])
                pix = pix + rng.normal(scale=noise, size=pix.shape) if noise else pix
                by_frame.setdefault(t, []).append(Detection(t, c, m, pix))
    return result, ds.intrinsics, poses, by_frame


def _recorded_starts(session, monkeypatch) -> list:
    """Route session's solves through a wrapper that records each warm start."""
    starts, solve = [], session.tracker.solve

    def recording(dets, warm=None, opts=None):
        starts.append(warm)
        return solve(dets, warm=warm, opts=opts)

    monkeypatch.setattr(session.tracker, "solve", recording)
    return starts


def _keys(table) -> set:
    return {tuple(key) for key in table.keys.tolist()}


class TestCalibrationConfig:
    def test_defaults(self):
        c = CalibrationConfig()
        assert c.tau_ratio == 2.0
        assert c.tau_n == 10.0
        assert c.solver.max_iters == 10000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau_ratio": 0.5},
            {"tau_n": 0.0},
            {"tau_ratio": float("nan")},
            {"tau_n": float("nan")},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            CalibrationConfig(**kwargs)


class TestDetectionCandidates:
    def test_every_detection_gets_a_set(self):
        _, ds = _dataset(noise_sigma=0.2)
        sets = detection_candidates(ds)
        assert _keys(sets) == {d.key for d in ds.detections}
        assert (sets.counts >= 1).all()

    def test_ablation_keeps_single_pose(self):
        # ratios are clamped to >= 1, so tau_ratio=1 keeps only the best pose
        _, ds = _dataset(noise_sigma=0.5)
        sets = detection_candidates(ds, CalibrationConfig(tau_ratio=1.0))
        assert (sets.counts == 1).all()
        both = detection_candidates(ds, CalibrationConfig())
        assert (both.counts == 2).any()

    def test_input_order_does_not_matter(self, tmp_path):
        _, ds = _dataset(ambiguity_stress=True, noise_sigma=0.3)
        dets = list(ds.detections)
        np.random.default_rng(5).shuffle(dets)
        shuffled = Dataset(dets, ds.intrinsics, ds.marker_side, ds.n_frames)
        assert [d.key for d in dets] != [d.key for d in ds.detections]
        a, b = detection_candidates(ds), detection_candidates(shuffled)
        assert (a.counts == 2).any()
        for name in ("keys", "counts", "ratios", "offsets"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        np.testing.assert_array_equal(a.poses.rotations, b.poses.rotations)
        np.testing.assert_array_equal(a.poses.translations, b.poses.translations)
        outputs = []
        for side in (ds, shuffled):
            path = tmp_path / "calibration.json"
            save_calibration(calibrate(side)[0], path)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]


class TestCalibrate:
    def test_zero_noise_recovery(self):
        gt, ds = _dataset()
        result, artifacts = calibrate(ds)
        assert result.report.final_rms < 1e-8
        rep = evaluate(result, gt)
        # evaluate reports mm and degrees; 1e-3 mm = 1e-6 m
        assert rep.obj_trans_err < 1e-3
        assert rep.obj_rot_err < np.degrees(1e-6)
        assert rep.cam_trans_err < 1e-3
        assert rep.marker_config_err < 1e-3
        assert np.allclose(
            result.cams.poses[result.cams.reference].as_matrix(), np.eye(4)
        )
        assert np.allclose(
            result.markers.poses[result.markers.reference].as_matrix(), np.eye(4)
        )

    def test_all_frames_tracked(self):
        _, ds = _dataset(noise_sigma=0.3)
        result, _ = calibrate(ds)
        assert all(st.pose is not None for st in result.traj.frames.values())
        assert set(result.traj.frames) == set(range(ds.n_frames))

    def test_artifacts_cover_all_detections(self):
        _, ds = _dataset()
        _, artifacts = calibrate(ds)
        assert _keys(artifacts.candidates) == {d.key for d in ds.detections}
        assert len(artifacts.camera_tree) == len(artifacts.camera_graph.vertices) - 1
        assert len(artifacts.marker_tree) == len(artifacts.marker_graph.vertices) - 1

    def test_deterministic_output(self, tmp_path):
        _, ds = _dataset(noise_sigma=0.3)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_calibration(calibrate(ds)[0], p1)
        save_calibration(calibrate(ds)[0], p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_dataset_rejected(self):
        _, ds = _dataset()
        empty = Dataset([], ds.intrinsics, ds.marker_side, ds.n_frames)
        with pytest.raises(ValidationError, match="no detections"):
            calibrate(empty)

    def test_disconnected_cameras(self):
        # keep camera c only in frames with t % 3 == c: no two cameras
        # ever co-observe anything, so no camera pair exists
        _, ds = _dataset(n_frames=18)
        dets = [d for d in ds.detections if d.t % 3 == d.cam]
        sliced = Dataset(dets, ds.intrinsics, ds.marker_side, ds.n_frames)
        with pytest.raises(DisconnectedGraph) as e:
            calibrate(sliced)
        assert e.value.kind == "camera"
        assert len(e.value.components) > 1

    def test_explicit_references(self):
        gt, ds = _dataset()
        config = CalibrationConfig(ref_camera=2, ref_marker=1)
        result, _ = calibrate(ds, config)
        assert result.cams.reference == 2
        assert result.markers.reference == 1
        assert np.allclose(result.cams.poses[2].as_matrix(), np.eye(4))

    def test_unknown_reference_rejected(self):
        _, ds = _dataset()
        with pytest.raises(ValidationError, match="reference camera 99"):
            calibrate(ds, CalibrationConfig(ref_camera=99))

    def test_intrinsics_only_camera_ignored(self):
        gt, ds = _dataset()
        intr = dict(ds.intrinsics)
        intr[77] = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0)
        widened = Dataset(ds.detections, intr, ds.marker_side, ds.n_frames)
        result, _ = calibrate(widened)
        assert 77 not in result.cams.poses

    def test_frame_with_only_unusable_detections_left_untracked(self):
        # frame 16 holds a single detection with collinear corners: it has no
        # pose candidate, so the frame stays untracked and the detection must
        # not reach the refinement
        spec = SceneSpec(n_frames=16, seed=1)
        _, dets, intr = generate(spec)
        line = np.array([[100.0, 100.0], [110.0, 110.0], [120.0, 120.0], [130.0, 130.0]])
        extra = Dataset(dets + [Detection(16, 0, 0, line)], intr, spec.marker_side, 17)
        result, _ = calibrate(extra)
        plain, _ = calibrate(Dataset(dets, intr, spec.marker_side, 16))
        assert result.traj.frames[16].pose is None
        pairs = [(result.cams.poses, plain.cams.poses),
                 (result.markers.poses, plain.markers.poses),
                 (dict(result.traj.tracked_items()), dict(plain.traj.tracked_items()))]
        for got, expect in pairs:
            assert got.keys() == expect.keys()
            for k in expect:
                assert np.array_equal(got[k].rotation, expect[k].rotation)
                assert np.array_equal(got[k].translation, expect[k].translation)

    @pytest.mark.parametrize("cam, marker", [(9, 0), (0, 77)])
    def test_entity_with_only_unusable_detections_left_out(self, cam, marker):
        # a new camera 9 (or marker 77) is seen once, with collinear corners:
        # it has no pose candidate, so it stays out of the estimate like an
        # intrinsics-only camera, and its detection stays out of the cost
        spec = SceneSpec(n_frames=16, seed=1)
        _, dets, intr = generate(spec)
        intr = {**intr, 9: intr[0]}
        line = np.array([[100.0, 100.0], [110.0, 110.0], [120.0, 120.0], [130.0, 130.0]])
        extra = Dataset(dets + [Detection(3, cam, marker, line)], intr, spec.marker_side, 16)
        result, _ = calibrate(extra)
        plain, _ = calibrate(Dataset(dets, intr, spec.marker_side, 16))
        assert 9 not in result.cams.poses and 77 not in result.markers.poses
        assert result.report.left_out == 1 and plain.report.left_out == 0
        assert result.report.final_rms == plain.report.final_rms
        for got, expect in [(result.cams.poses, plain.cams.poses),
                            (result.markers.poses, plain.markers.poses)]:
            assert got.keys() == expect.keys()
            for k in expect:
                assert np.array_equal(got[k].as_matrix(), expect[k].as_matrix())

    def test_detection_without_pose_left_out_of_the_cost(self):
        # corner 2 of one detection pulled to the mean of corners 0, 1 and 3
        # makes the quad non-convex: it has no pose candidate, though its
        # frame, camera and marker are estimated from other detections
        spec = SceneSpec(n_cameras=3, object="cube", n_frames=16, trajectory="orbit",
                         noise_sigma=0.0, seed=2)
        _, dets, intr = generate(spec)
        corners = dets[5].corners.copy()
        corners[2] = corners[[0, 1, 3]].mean(axis=0)
        dets[5] = Detection(dets[5].t, dets[5].cam, dets[5].marker, corners)
        result, _ = calibrate(Dataset(dets, intr, spec.marker_side, spec.n_frames))
        assert result.traj.frames[dets[5].t].pose is not None
        assert dets[5].cam in result.cams.poses and dets[5].marker in result.markers.poses
        assert result.report.left_out == 1
        assert result.report.final_rms < 1e-6

    def test_left_out_count_survives_the_calibration_file(self, tmp_path):
        # one detection of the noise-free cube scene above made collinear
        spec = SceneSpec(n_cameras=3, object="cube", n_frames=16, trajectory="orbit",
                         noise_sigma=0.0, seed=2)
        _, dets, intr = generate(spec)
        line = np.array([[100.0, 100.0], [110.0, 110.0], [120.0, 120.0], [130.0, 130.0]])
        dets[5] = Detection(dets[5].t, dets[5].cam, dets[5].marker, line)
        result, _ = calibrate(Dataset(dets, intr, spec.marker_side, spec.n_frames))
        assert result.report.left_out == 1
        path = tmp_path / "cal.json"
        save_calibration(result, path)
        assert load_calibration(path).report == result.report
        # a file written without the count loads it as 0
        doc = json.loads(path.read_text())
        del doc["report"]["left_out"]
        path.write_text(json.dumps(doc))
        assert load_calibration(path).report.left_out == 0

    def test_no_usable_detection_raises(self):
        _, ds = _dataset()
        line = np.array([[100.0, 100.0], [110.0, 110.0], [120.0, 120.0], [130.0, 130.0]])
        dets = [Detection(d.t, d.cam, d.marker, line) for d in ds.detections]
        with pytest.raises(NoValidPose, match="no detection"):
            calibrate(Dataset(dets, ds.intrinsics, ds.marker_side, ds.n_frames))

    def test_ablation_still_runs(self):
        _, ds = _dataset(noise_sigma=0.3)
        result, _ = calibrate(ds, CalibrationConfig(tau_ratio=1.0))
        assert np.isfinite(result.report.final_rms)


class TestTrackSequence:
    def test_matches_calibration_trajectory(self):
        _, ds = _dataset(noise_sigma=0.2)
        result, _ = calibrate(ds)
        traj, rms, times = track_sequence(
            result, ds.detections, ds.intrinsics, ds.n_frames
        )
        assert len(times) == ds.n_frames
        for t, st in result.traj.frames.items():
            got = traj.frames[t].pose
            assert np.abs(got.as_matrix() - st.pose.as_matrix()).max() < 1e-6

    def test_empty_frame_untracked(self):
        _, ds = _dataset()
        result, _ = calibrate(ds)
        dets = [d for d in ds.detections if d.t != 3]
        traj, rms, _ = track_sequence(result, dets, ds.intrinsics, ds.n_frames)
        assert traj.frames[3].pose is None
        assert 3 not in rms
        assert traj.frames[4].pose is not None

    def test_frame_with_only_unusable_detections_untracked(self):
        # frame 0 holds only a zero-corner quad, which has no cold-start
        # candidate: it stays untracked and frames 1-4 are tracked
        _, ds = _dataset()
        result, _ = calibrate(ds)
        dets = [Detection(0, 0, 0, np.zeros((4, 2)))]
        dets += [d for d in ds.detections if 1 <= d.t <= 4]
        traj, rms, _ = track_sequence(result, dets, ds.intrinsics, 5)
        assert traj.frames[0].pose is None
        assert 0 not in rms
        for t in range(1, 5):
            expect = result.traj.frames[t].pose.as_matrix()
            assert np.abs(traj.frames[t].pose.as_matrix() - expect).max() < 1e-6

    def test_detection_outside_declared_frames_rejected(self):
        gt, ds = _dataset()
        result = result_from_ground_truth(gt, ds.marker_side)
        with pytest.raises(ValidationError, match="frame index 5 outside the declared 5 frames"):
            track_sequence(result, ds.detections, ds.intrinsics, 5)

    def test_duplicate_detection_rejected(self):
        # a repeated (cam, marker) in one frame would count its corners twice
        gt, ds = _dataset()
        result = result_from_ground_truth(gt, ds.marker_side)
        dup = next(d for d in ds.detections if d.t == 2)
        with pytest.raises(ValidationError, match=rf"duplicate detection \(2, {dup.cam}, "):
            track_sequence(result, ds.detections + [dup], ds.intrinsics, ds.n_frames)

    def test_infers_frame_count(self):
        _, ds = _dataset()
        result, _ = calibrate(ds)
        traj, _, _ = track_sequence(result, ds.detections, ds.intrinsics)
        assert len(traj.frames) == ds.n_frames


class TestTrackSession:
    def test_warm_state_survives_gap(self):
        _, ds = _dataset(noise_sigma=0.2)
        result, _ = calibrate(ds)
        by_frame = {}
        for d in ds.detections:
            by_frame.setdefault(d.t, []).append(d)
        session = TrackSession(result, ds.intrinsics)
        p0 = session.feed(by_frame[0])
        assert p0 is not None
        assert session.feed([]) is None
        assert session.warm is p0  # gap does not clear the warm start
        p2 = session.feed(by_frame[1])
        assert p2 is not None

    def test_tracks_every_frame_of_a_stress_scene(self):
        # the object turns 25-180 degrees between frames, so a prediction
        # that doubles the last turn overshoots, and LM must run on from it
        # to the optimum: under a stop rule on the mean |r|, frame 6 of the
        # first scene ended at 53.6 px, and two frames of the second (the
        # criterion-5 scene at seed 2) at up to 132.5 px
        ci = dict(n_cameras=3, circle_radius=0.2, object="flat-grid", n_frames=12, seed=0)
        zoom = CameraIntrinsics(fx=1800.0, fy=1800.0, cx=640.0, cy=480.0, width=1280, height=960)
        criterion_5 = dict(
            n_cameras=5, circle_radius=0.20, intrinsics=zoom, object="flat-grid",
            n_frames=100, seed=2,
        )
        for scene in (ci, criterion_5):
            spec = SceneSpec(
                camera_height=2.0, marker_side=0.06, trajectory="orbit", noise_sigma=0.5,
                ambiguity_stress=True, **scene,
            )
            _, dets, intr = generate(spec)
            result, _ = calibrate(Dataset(dets, intr, spec.marker_side, spec.n_frames))
            traj, rms, _ = track_sequence(result, dets, intr, spec.n_frames)
            assert len(rms) == spec.n_frames
            assert max(rms.values()) < 2.0

    def test_constant_twist_starts_from_the_prediction(self, monkeypatch):
        step = ([0.02, -0.03, 0.01], [0.004, 0.002, -0.003])
        result, intr, truth, by_frame = _stepped_track([step] * 5)
        session = TrackSession(result, intr)
        starts = _recorded_starts(session, monkeypatch)
        poses = [session.feed(by_frame[t]) for t in range(6)]
        assert len(starts) == 6  # no frame solved twice
        assert starts[0] is None and starts[1] is poses[0]
        for t in range(2, 6):
            expect = compose(poses[t - 1], compose(invert(poses[t - 2]), poses[t - 1]))
            np.testing.assert_array_equal(starts[t].rotation, expect.rotation)
            np.testing.assert_array_equal(starts[t].translation, expect.translation)
            # on a noise-free constant twist the prediction is the next pose
            assert np.abs(starts[t].as_matrix() - truth[t].as_matrix()).max() < 1e-9

    def test_reversing_track_stays_on_truth(self):
        # five 3-degree, 1.4 cm steps one way, then five back: the frame
        # after the turn starts two steps off
        forward = ([0.03, 0.04, 0.0], [0.01, -0.01, 0.0])
        back = tuple(-np.asarray(a) for a in forward)
        result, intr, truth, by_frame = _stepped_track([forward] * 5 + [back] * 5, noise=0.2)
        session = TrackSession(result, intr)
        for t, expect in enumerate(truth):
            pose = session.feed(by_frame[t])
            assert 1000.0 * np.linalg.norm(pose.translation - expect.translation) < 2.0
            assert np.degrees(rotation_angle(pose.rotation @ expect.rotation.T)) < 3.0

    @pytest.mark.parametrize("gap", [True, False], ids=["empty frame", "jump in t"])
    def test_no_prediction_across_a_gap(self, monkeypatch, gap):
        # frame 3 is empty, or missing from the stream altogether: frames 4
        # and 5 start from the last pose, since no motion up to them is known
        step = ([0.02, -0.03, 0.01], [0.004, 0.002, -0.003])
        result, intr, _, by_frame = _stepped_track([step] * 6)
        session = TrackSession(result, intr)
        starts = _recorded_starts(session, monkeypatch)
        poses = {t: session.feed(by_frame[t]) for t in range(3)}
        if gap:
            assert session.feed([]) is None
            assert session.warm is poses[2]
        poses[4] = session.feed(by_frame[4])
        poses[5] = session.feed(by_frame[5])
        poses[6] = session.feed(by_frame[6])
        assert starts[-3] is poses[2]
        assert starts[-2] is poses[4]
        expect = compose(poses[5], compose(invert(poses[4]), poses[5]))
        np.testing.assert_array_equal(starts[-1].as_matrix(), expect.as_matrix())
