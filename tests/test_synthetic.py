"""Tests for scene generation, Horn alignment and the error metrics."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from markercal import synthetic
from markercal.errors import DegenerateConfiguration, FrameMismatch, InvalidSpec
from markercal.frame_init import FrameState, Trajectory
from markercal.geometry import (
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
from markercal.optimizer import CalibrationResult, refine_all
from markercal.planar_pose import POSE_OK, corner_arrays, planar_poses
from markercal.structure_init import StructureEstimate
from markercal.synthetic import (
    GRAZING_COS,
    OBJECT_KINDS,
    TRAJECTORY_KINDS,
    ErrorReport,
    GroundTruth,
    SceneSpec,
    align_horn,
    evaluate,
    generate,
    marker_layout,
    result_from_ground_truth,
)


class TestSceneSpec:
    def test_defaults_are_valid(self):
        spec = SceneSpec()
        assert spec.n_cameras == 5
        assert spec.marker_side == 0.04
        assert spec.intrinsics.fx == 600.0
        assert spec.intrinsics.width == 640

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_cameras": 0},
            {"circle_radius": -1.0},
            {"circle_radius": 0.0},
            {"marker_side": 0.0},
            {"n_frames": 0},
            {"object": "sphere"},
            {"object": {}},
            {"trajectory": "spline"},
            {"noise_sigma": -0.1},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(InvalidSpec):
            SceneSpec(**kwargs)


class TestMarkerLayout:
    def test_cube_has_four_outward_faces(self):
        layout = marker_layout("cube", 0.04)
        assert sorted(layout) == [0, 1, 2, 3]
        for pose in layout.values():
            normal = pose.rotation[:, 2]
            # outward: the face normal points away from the object center
            assert normal @ pose.translation > 0
            assert math.isclose(np.linalg.norm(pose.translation), 0.03)

    def test_pentagon_and_grid_counts(self):
        assert len(marker_layout("pentagon", 0.04)) == 5
        grid = marker_layout("flat-grid", 0.04)
        assert len(grid) == 6
        for pose in grid.values():
            np.testing.assert_array_equal(pose.rotation, np.eye(3))
            assert pose.translation[2] == 0.0


class TestGenerate:
    def test_same_seed_bit_identical(self):
        spec = SceneSpec(n_frames=20, noise_sigma=0.4, trajectory="orbit", seed=9)
        gt_a, dets_a, _ = generate(spec)
        gt_b, dets_b, _ = generate(spec)
        assert [d.key for d in dets_a] == [d.key for d in dets_b]
        for da, db in zip(dets_a, dets_b):
            np.testing.assert_array_equal(da.corners, db.corners)
        for c in gt_a.cams_gt.poses:
            np.testing.assert_array_equal(
                gt_a.cams_gt.poses[c].as_matrix(), gt_b.cams_gt.poses[c].as_matrix()
            )
        for t, st in gt_a.traj_gt.frames.items():
            np.testing.assert_array_equal(
                st.pose.as_matrix(), gt_b.traj_gt.frames[t].pose.as_matrix()
            )

    def test_single_camera_sees_exactly_the_facing_marker(self):
        # one camera on the +x axis, canonical cube attitude: only the +x
        # face passes the grazing-angle test
        spec = SceneSpec(n_cameras=1, n_frames=1, trajectory="static")
        _, dets, _ = generate(spec)
        assert [d.key for d in dets] == [(0, 0, 0)]

    def test_detections_consistent_with_ground_truth_gauge(self):
        spec = SceneSpec(n_frames=10, trajectory="orbit", seed=3)
        gt, dets, intr = generate(spec)
        template = MarkerTemplate(spec.marker_side)
        assert len(dets) > 50
        for d in dets:
            chain = compose(
                invert(gt.cams_gt.poses[d.cam]),
                compose(gt.traj_gt.frames[d.t].pose, gt.markers_gt.poses[d.marker]),
            )
            pix = project(chain.apply(template.corners), intr[d.cam])
            np.testing.assert_allclose(pix, d.corners, atol=1e-9)

    def test_reference_entries_are_identity(self):
        gt, _, _ = generate(SceneSpec(n_frames=2))
        np.testing.assert_array_equal(gt.cams_gt.poses[0].as_matrix(), np.eye(4))
        np.testing.assert_array_equal(gt.markers_gt.poses[0].as_matrix(), np.eye(4))

    def test_noise_perturbs_corners(self):
        clean_spec = SceneSpec(n_frames=5, seed=4)
        noisy_spec = replace(clean_spec, noise_sigma=0.5)
        _, clean, _ = generate(clean_spec)
        _, noisy, _ = generate(noisy_spec)
        assert [d.key for d in clean] == [d.key for d in noisy]
        diffs = np.concatenate(
            [(a.corners - b.corners).ravel() for a, b in zip(clean, noisy)]
        )
        assert 0.1 < np.abs(diffs).mean() < 2.0

    def test_fast_trajectory_moves_more_per_frame(self):
        def mean_step(kind):
            gt, _, _ = generate(SceneSpec(n_frames=40, trajectory=kind, seed=5))
            poses = [st.pose for _, st in sorted(gt.traj_gt.frames.items())]
            return np.mean(
                [
                    rotation_angle(a.rotation @ b.rotation.T)
                    for a, b in zip(poses[1:], poses)
                ]
            )

        assert mean_step("fast") > 2.0 * mean_step("orbit")

    def test_ambiguity_stress_makes_detections_ambiguous(self):
        spec = SceneSpec(
            circle_radius=2.0,
            camera_height=0.4,
            n_frames=40,
            trajectory="orbit",
            noise_sigma=0.5,
            ambiguity_stress=True,
            seed=6,
        )
        _, dets, intr = generate(spec)
        template = MarkerTemplate(spec.marker_side)
        ratios = []
        for d in dets:
            poses = planar_poses(*corner_arrays([d], {d.cam: intr[d.cam]}), template)
            assert poses.status[0] == POSE_OK
            ratios.append(poses.ratios[0])
        ratios = np.array(ratios)
        assert len(ratios) > 100
        assert np.mean(ratios < 2.0) >= 0.5


def _per_view_generate(spec):
    """generate() one (frame, camera, marker) view at a time: the oracle of
    its array pass. Returns the ground-truth poses keyed ("cam", c),
    ("marker", m) and ("frame", t), the detections as (key, pixels) and the
    count of views cut by each visibility test."""
    rng = np.random.default_rng(spec.seed)
    cam_world = synthetic._camera_ring(spec)
    if isinstance(spec.object, str):
        marker_obj = marker_layout(spec.object, spec.marker_side)
    else:
        marker_obj = dict(spec.object)
    obj_world = synthetic._base_trajectory(spec, rng)
    if spec.ambiguity_stress:
        obj_world = synthetic._stress_trajectory(obj_world, spec, rng, cam_world, marker_obj)
    w0_inv = invert(cam_world[0])
    p0 = marker_obj[min(marker_obj)]
    gt = {("cam", c): compose(w0_inv, cam_world[c]) for c in range(1, spec.n_cameras)}
    gt[("cam", 0)] = RigidTransform.identity()
    gt.update({("marker", m): compose(invert(p0), p) for m, p in marker_obj.items()})
    gt[("marker", min(marker_obj))] = RigidTransform.identity()
    for t in range(spec.n_frames):
        gt[("frame", t)] = compose(w0_inv, compose(obj_world[t], p0))

    template = MarkerTemplate(spec.marker_side)
    intr = spec.intrinsics
    world_to_cam = [invert(w) for w in cam_world]
    dets, cuts = [], Counter()
    for t in range(spec.n_frames):
        for c in range(spec.n_cameras):
            obj_in_cam = compose(world_to_cam[c], obj_world[t])
            for m in sorted(marker_obj):
                marker_in_cam = compose(obj_in_cam, marker_obj[m])
                pts = marker_in_cam.apply(template.corners)
                center = marker_in_cam.translation
                if center[2] <= MIN_DEPTH or np.any(pts[:, 2] <= MIN_DEPTH):
                    cuts["depth"] += 1
                    continue
                view = center / np.linalg.norm(center)
                if -(marker_in_cam.rotation[:, 2] @ view) <= GRAZING_COS:
                    cuts["grazing"] += 1
                    continue
                pix = project(pts, intr)
                inside = (
                    (pix[:, 0] >= 0.0)
                    & (pix[:, 0] <= intr.width - 1.0)
                    & (pix[:, 1] >= 0.0)
                    & (pix[:, 1] <= intr.height - 1.0)
                )
                if not np.all(inside):
                    cuts["border"] += 1
                    continue
                if spec.noise_sigma > 0:
                    pix = pix + rng.normal(scale=spec.noise_sigma, size=(4, 2))
                dets.append(((t, c, m), pix))
    return gt, dets, cuts


def _assert_matches_per_view(spec):
    """generate() gives the oracle's keys in its order, its pixel bytes and
    its ground-truth pose bytes; returns the oracle's cut counts."""
    gt, dets, _ = generate(spec)
    want_gt, want, cuts = _per_view_generate(spec)
    assert [d.key for d in dets] == [key for key, _ in want]
    for d, (_, pix) in zip(dets, want):
        assert np.array_equal(d.corners, pix)
        assert d.corners.tobytes() == pix.tobytes()  # also tells -0.0 from +0.0
    got = {("cam", c): p for c, p in gt.cams_gt.poses.items()}
    got.update({("marker", m): p for m, p in gt.markers_gt.poses.items()})
    got.update({("frame", t): st.pose for t, st in gt.traj_gt.frames.items()})
    assert got.keys() == want_gt.keys()
    for key, pose in want_gt.items():
        assert got[key].as_matrix().tobytes() == pose.as_matrix().tobytes(), key
    return cuts


_DISTORTED = CameraIntrinsics(
    fx=600.0, fy=600.0, cx=320.0, cy=240.0, dist=np.array([-0.2, 0.05, 0.001, -0.002, 0.01])
)


def _scattered_rig(n_markers, seed):
    """Markers at random attitudes up to about 2 m from the object origin, so
    that some sit behind a camera of the unit ring, some outside its image
    and some edge-on."""
    rng = np.random.default_rng(seed)
    return {
        m: RigidTransform(rotation_from_rvec(rng.normal(size=3)), 0.8 * rng.normal(size=3))
        for m in range(n_markers)
    }


class TestGenerateMatchesPerView:
    """generate() poses, tests and projects its views as arrays, a block of
    frames at a time; each case here must come out bit for bit as the one-view
    loop of _per_view_generate gives it."""

    @pytest.mark.parametrize("stress", [False, True])
    @pytest.mark.parametrize("trajectory", TRAJECTORY_KINDS)
    @pytest.mark.parametrize("kind", OBJECT_KINDS)
    def test_every_object_and_trajectory(self, kind, trajectory, stress):
        for intr in (SceneSpec().intrinsics, _DISTORTED):
            for sigma in (0.0, 0.4):
                spec = SceneSpec(
                    object=kind, trajectory=trajectory, ambiguity_stress=stress,
                    intrinsics=intr, noise_sigma=sigma, n_frames=9, seed=3,
                )
                _assert_matches_per_view(spec)

    def test_depth_grazing_and_border_cuts(self):
        spec = SceneSpec(
            object=_scattered_rig(12, 1), trajectory="fast", noise_sigma=0.3,
            intrinsics=_DISTORTED, n_frames=15, seed=2,
        )
        cuts = _assert_matches_per_view(spec)
        assert min(cuts[k] for k in ("depth", "grazing", "border")) > 0, cuts

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_small_blocks(self, monkeypatch, block):
        # 20 views per frame: block 1 and 7 hold less than one frame, 64
        # holds three, and 23 frames leave a partial last block
        monkeypatch.setattr(synthetic, "_BLOCK_VIEWS", block, raising=False)
        spec = SceneSpec(trajectory="orbit", noise_sigma=0.4, n_frames=23, seed=4)
        _assert_matches_per_view(spec)

    def test_frame_count_not_a_multiple_of_the_block(self):
        # 20 views per frame, 51 frames per 1024-view block: two blocks, the
        # second partial
        spec = SceneSpec(trajectory="fast", noise_sigma=0.2, n_frames=60, seed=1)
        _assert_matches_per_view(spec)

    def test_views_per_frame_exceed_the_block(self):
        # 40 cameras x 30 markers: 1200 views per frame, over 1024
        spec = SceneSpec(
            n_cameras=40, object=_scattered_rig(30, 5), trajectory="orbit",
            noise_sigma=0.3, n_frames=2, seed=6,
        )
        cuts = _assert_matches_per_view(spec)
        assert sum(cuts.values()) < 2 * 1200  # some views are seen


class TestAlignHorn:
    def test_identical_sets_give_identity(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(20, 3))
        horn = align_horn(pts, pts)
        np.testing.assert_allclose(horn.transform.as_matrix(), np.eye(4), atol=1e-12)
        assert horn.rms < 1e-12

    def test_recovers_inverse_of_applied_transform(self):
        rng = np.random.default_rng(1)
        gt = rng.normal(size=(50, 3))
        x = RigidTransform(
            rotation_from_rvec(np.array([0.4, -0.7, 0.2])), np.array([0.3, 0.1, -0.5])
        )
        est = x.apply(gt)
        horn = align_horn(est, gt)
        np.testing.assert_allclose(
            horn.transform.as_matrix(), invert(x).as_matrix(), atol=1e-9
        )
        assert horn.rms < 1e-9

    def test_noise_statistics(self):
        rng = np.random.default_rng(3)
        sigma = 0.001
        gt = rng.normal(size=(300, 3))
        est = gt + rng.normal(scale=sigma, size=gt.shape)
        horn = align_horn(est, gt)
        assert abs(horn.rms / sigma - 1.0) < 0.2

    def test_degenerate_inputs_rejected(self):
        line = np.outer(np.arange(10.0), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DegenerateConfiguration):
            align_horn(line, line)
        same = np.ones((5, 3))
        with pytest.raises(DegenerateConfiguration):
            align_horn(same, same)
        with pytest.raises(DegenerateConfiguration):
            align_horn(np.eye(2, 3), np.eye(2, 3))


class TestEvaluate:
    def _gt(self, **kwargs):
        spec = SceneSpec(n_frames=20, trajectory="orbit", seed=8, **kwargs)
        gt, dets, intr = generate(spec)
        return spec, gt, dets, intr

    def test_ground_truth_scores_zero(self):
        spec, gt, _, _ = self._gt()
        report = evaluate(result_from_ground_truth(gt, spec.marker_side), gt)
        assert report.obj_trans_err < 1e-9
        assert report.obj_rot_err < 1e-9
        assert report.cam_trans_err < 1e-9
        assert report.marker_config_err < 1e-9

    def test_global_offset_absorbed_by_alignment(self):
        spec, gt, _, _ = self._gt()
        result = result_from_ground_truth(gt, spec.marker_side)
        shifted = Trajectory()
        for t, st in result.traj.frames.items():
            shifted.frames[t] = FrameState(
                RigidTransform(st.pose.rotation, st.pose.translation + np.array([0.5, -0.2, 0.1]))
            )
        moved = CalibrationResult(
            cams=result.cams, markers=result.markers, traj=shifted,
            marker_side=result.marker_side,
        )
        report = evaluate(moved, gt)
        assert report.obj_trans_err < 1e-9
        assert report.obj_rot_err < 1e-9

    def test_metrics_invariant_to_rigid_change_of_gt_frame(self):
        spec, gt, _, _ = self._gt()
        result = result_from_ground_truth(gt, spec.marker_side)
        # perturb the estimate so the report is non-trivial
        rng = np.random.default_rng(0)
        bad_markers = {
            m: RigidTransform(p.rotation, p.translation + 0.002 * rng.normal(size=3))
            for m, p in result.markers.poses.items()
        }
        bad_traj = Trajectory()
        for t, st in result.traj.frames.items():
            bad_traj.frames[t] = FrameState(
                RigidTransform(
                    rotation_from_rvec(0.01 * rng.normal(size=3)) @ st.pose.rotation,
                    st.pose.translation + 0.003 * rng.normal(size=3),
                )
            )
        result = CalibrationResult(
            cams=result.cams,
            markers=StructureEstimate(gt.markers_gt.reference, bad_markers, ()),
            traj=bad_traj,
            marker_side=result.marker_side,
        )
        x = RigidTransform(
            rotation_from_rvec(np.array([0.3, 0.2, -0.4])), np.array([1.0, 0.5, -0.3])
        )
        moved_gt = GroundTruth(
            cams_gt=StructureEstimate(
                gt.cams_gt.reference,
                {c: compose(x, p) for c, p in gt.cams_gt.poses.items()},
                (),
            ),
            markers_gt=StructureEstimate(
                gt.markers_gt.reference,
                {m: compose(x, p) for m, p in gt.markers_gt.poses.items()},
                (),
            ),
            traj_gt=Trajectory(
                frames={
                    t: FrameState(compose(x, st.pose))
                    for t, st in gt.traj_gt.frames.items()
                }
            ),
        )
        a = evaluate(result, gt)
        b = evaluate(result, moved_gt)
        assert a.obj_trans_err > 1.0  # the perturbation registers
        assert abs(a.obj_trans_err - b.obj_trans_err) < 1e-9
        assert abs(a.obj_rot_err - b.obj_rot_err) < 1e-9
        assert abs(a.cam_trans_err - b.cam_trans_err) < 1e-9
        assert abs(a.marker_config_err - b.marker_config_err) < 1e-9

    def test_frame_and_id_mismatches_rejected(self):
        spec, gt, _, _ = self._gt()
        result = result_from_ground_truth(gt, spec.marker_side)
        extra_traj = Trajectory(frames=dict(result.traj.frames))
        extra_traj.frames[999] = FrameState(RigidTransform.identity())
        with pytest.raises(FrameMismatch):
            evaluate(
                CalibrationResult(result.cams, result.markers, extra_traj, 0.04), gt
            )
        short_traj = Trajectory(
            frames={t: result.traj.frames[t] for t in (0, 1)}
        )
        with pytest.raises(FrameMismatch):
            evaluate(
                CalibrationResult(result.cams, result.markers, short_traj, 0.04), gt
            )
        missing_cam = StructureEstimate(
            0, {c: p for c, p in result.cams.poses.items() if c != 4}, ()
        )
        with pytest.raises(FrameMismatch):
            evaluate(
                CalibrationResult(missing_cam, result.markers, result.traj, 0.04), gt
            )


def _refined_obj_error(spec):
    gt, dets, intr = generate(spec)
    init = result_from_ground_truth(gt, spec.marker_side)
    out = refine_all(init, dets, intr)
    return evaluate(out, gt).obj_trans_err


class TestNoiseMonotonicity:
    def test_doubling_sigma_does_not_reduce_error(self):
        base = SceneSpec(circle_radius=0.7, n_frames=30, trajectory="orbit")
        lo = [
            _refined_obj_error(replace(base, noise_sigma=0.2, seed=s))
            for s in range(20)
        ]
        hi = [
            _refined_obj_error(replace(base, noise_sigma=0.4, seed=s))
            for s in range(20)
        ]
        assert np.mean(hi) >= np.mean(lo)
        assert np.mean(lo) > 0.0
