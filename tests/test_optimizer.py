"""Tests for the joint refinement solver and the per-frame tracker."""

import dataclasses
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from markercal import geometry, optimizer
from markercal.errors import MissingIntrinsics, NoValidPose, NumericalFailure, ValidationError
from markercal.frame_init import SOURCE_INIT, SOURCE_REFINED, FrameState, Trajectory
from markercal.geometry import (
    CameraIntrinsics,
    IndexedPoses,
    MarkerTemplate,
    PoseStack,
    RigidTransform,
    compose,
    compose_many,
    invert,
    invert_many,
    project,
    rotation_angle,
    rotation_from_rvec,
    rotation_jacobian_factors,
    rotations_from_rvecs,
    rvec_from_rotation,
)
from markercal.optimizer import (
    BEHIND_RESIDUAL,
    LAMBDA_INIT,
    LAMBDA_UP,
    REASON_MAX_ITERS,
    REASON_MIN_IMPROVE,
    REASON_ZERO_RESIDUAL,
    CalibrationResult,
    FrameArrays,
    FrameTracker,
    BlockJacobian,
    ParamLayout,
    ResidualBuilder,
    ResidualSystem,
    SchurNormal,
    SolverOptions,
    lm_minimize,
    pack_params,
    refine_all,
    track_frame,
    unpack_params,
    _FrameSystem,
    _solve_damped,
    _twist,
)
from markercal.planar_pose import POSE_OK, Detection, corner_arrays, planar_poses
from markercal.structure_init import StructureEstimate
from markercal.synthetic import SceneSpec, generate

DIST = np.array([-0.2, 0.05, 0.001, -0.001, 0.01])


def _intr(dist=None):
    if dist is None:
        return CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0)
    return CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, dist=dist)


def _look_at(pos):
    pos = np.asarray(pos, dtype=np.float64)
    z = -pos / np.linalg.norm(pos)
    up = np.array([0.0, 0.0, -1.0])
    x = np.cross(up, z)
    if np.linalg.norm(x) < 1e-8:
        x = np.cross(np.array([0.0, 1.0, 0.0]), z)
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    return RigidTransform(np.column_stack([x, y, z]), pos)


def _make_scene(rng, n_cams=3, n_markers=3, n_frames=8, noise=0.0, dist=None):
    """Random consistent scene; returns poses in the solver's conventions."""
    intr = {c: _intr(dist) for c in range(n_cams)}
    template = MarkerTemplate(0.04)
    cam_world = []
    for c in range(n_cams):
        th = 2.0 * np.pi * c / n_cams
        pos = np.array([np.cos(th), np.sin(th), 0.1 * ((c % 3) - 1)])
        cam_world.append(_look_at(pos))
    cams = {c: compose(invert(cam_world[0]), cam_world[c]) for c in range(n_cams)}

    marker_obj = []
    for _ in range(n_markers):
        rv = 0.3 * rng.normal(size=3)
        tv = 0.03 * rng.normal(size=3)
        marker_obj.append(RigidTransform(rotation_from_rvec(rv), tv))
    markers = {m: compose(invert(marker_obj[0]), marker_obj[m]) for m in range(n_markers)}

    frames = {}
    for t in range(n_frames):
        rv = 0.4 * rng.normal(size=3)
        tv = 0.06 * rng.normal(size=3)
        obj_world = RigidTransform(rotation_from_rvec(rv), tv)
        frames[t] = compose(invert(cam_world[0]), compose(obj_world, marker_obj[0]))

    dets = _observe(cams, markers, frames, intr, template, rng, noise)
    return cams, markers, frames, dets, intr, template


def _observe(cams, markers, frames, intr, template, rng=None, noise=0.0):
    """Every camera's view of every marker in every frame, sorted by (t, cam, marker)."""
    dets = []
    for t in sorted(frames):
        for c in sorted(cams):
            for m in sorted(markers):
                top = compose(invert(cams[c]), compose(frames[t], markers[m]))
                pix = project(top.apply(template.corners), intr[c])
                if noise:
                    pix = pix + rng.normal(scale=noise, size=pix.shape)
                dets.append(Detection(t, c, m, pix))
    return dets


def _near_pi_frames(frames, rng):
    """Truth frames turned to angle pi - 0.01 about a random axis u, and starts
    at pi - 0.01 about -u: 0.02 rad away, but across the rvec cut at pi."""
    truth, start = {}, {}
    for t, pose in frames.items():
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        truth[t] = RigidTransform(rotation_from_rvec((math.pi - 0.01) * u), pose.translation)
        start[t] = RigidTransform(rotation_from_rvec(-(math.pi - 0.01) * u), pose.translation)
    return truth, start


def _count_calls(monkeypatch, owner, name) -> list[int]:
    """A one-item list counting the calls of owner.name from now on."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _count_projections(monkeypatch) -> list[int]:
    """A one-item list counting the optimizer's project_arrays calls from now on."""
    return _count_calls(monkeypatch, optimizer, "project_arrays")


class _Recording:
    """A builder that records the bytes and the cost of every residuals(x)."""

    def __init__(self, builder):
        self.builder, self.trials = builder, []

    def system(self, x):
        return self.builder.system(x)

    def residuals(self, x):
        r = self.builder.residuals(x)
        self.trials.append((x.tobytes(), float(r @ r)))
        return r


def _assert_returned_point_was_evaluated(builder, recording, x, report):
    """The returned x is, byte for byte, the last trial that lowered the
    cost, and final_rms is read from that point's residuals."""
    cost, accepted = report.cost_history[0], []
    for x_bytes, cost_try in recording.trials:
        if cost_try < cost:
            cost = cost_try
            accepted.append(x_bytes)
    assert len(accepted) == report.accepted_steps > 0
    assert x.tobytes() == accepted[-1]
    r = builder.residuals(x)
    assert report.final_rms == optimizer._rms(float(r @ r), r.size)


def _perturb(pose, rng, rot_deg, trans_m):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    dr = rotation_from_rvec(axis * math.radians(rot_deg))
    dt = rng.normal(size=3)
    dt = dt / np.linalg.norm(dt) * trans_m
    return RigidTransform(dr @ pose.rotation, pose.translation + dt)


def _perturb_all(cams, markers, frames, rng, rot_deg=2.0, trans_m=0.005):
    """Perturb every non-reference pose; references stay exact identity."""
    cams_p = {c: (p if c == 0 else _perturb(p, rng, rot_deg, trans_m)) for c, p in cams.items()}
    markers_p = {m: (p if m == 0 else _perturb(p, rng, rot_deg, trans_m)) for m, p in markers.items()}
    frames_p = {t: _perturb(p, rng, rot_deg, trans_m) for t, p in frames.items()}
    return cams_p, markers_p, frames_p


def _assert_poses_close(est, truth, tol):
    assert est.keys() == truth.keys()
    for k in truth:
        assert rotation_angle(est[k].rotation @ truth[k].rotation.T) < tol
        assert np.linalg.norm(est[k].translation - truth[k].translation) < tol


class TestParamLayout:
    def test_block_order_and_offsets(self):
        layout = ParamLayout.build([0, 1, 2], [0, 1], [0, 1, 2, 3], 0, 0)
        assert layout.camera_ids == (1, 2)
        assert layout.marker_ids == (1,)
        assert layout.frame_ids == (0, 1, 2, 3)
        # (t, cam, marker) keys -> camera, marker and frame block offsets
        keys = np.array([[0, 1, 1], [1, 2, 1], [2, 1, 0], [3, 0, 1]])
        np.testing.assert_array_equal(
            layout.block_offsets(keys), [[0, 12, 18], [6, 12, 24], [0, -6, 30], [-6, 12, 36]]
        )
        assert layout.total == 42

    def test_references_own_no_parameters(self):
        layout = ParamLayout.build([4, 7], [2, 9], [0], 7, 2)
        keys = np.array([[0, 7, 2], [0, 4, 9]])
        np.testing.assert_array_equal(layout.block_offsets(keys), [[-6, -6, 12], [0, 6, 12]])
        assert layout.total == 18

    def test_blocks_disjoint_and_cover(self):
        layout = ParamLayout.build(range(4), range(3), range(5), 0, 0)
        keys = np.array([(t, c, m) for t in range(5) for c in range(4) for m in range(3)])
        blocks = [set(col[col >= 0].tolist()) for col in layout.block_offsets(keys).T]
        assert sum(len(b) for b in blocks) == layout.total // 6
        assert sorted(set().union(*blocks)) == list(range(0, layout.total, 6))

    def test_unknown_reference_rejected(self):
        with pytest.raises(ValueError):
            ParamLayout.build([0, 1], [0], [0], 5, 0)
        with pytest.raises(ValueError):
            ParamLayout.build([0, 1], [0], [0], 0, 5)


class TestPackUnpack:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        cams, markers, frames, *_ = _make_scene(rng)
        layout = ParamLayout.build(cams, markers, frames, 0, 0)
        x = pack_params(cams, markers, frames, layout)
        assert x.shape == (layout.total,)
        cams2, markers2, frames2 = unpack_params(x, layout)
        _assert_poses_close(cams2, cams, 1e-12)
        _assert_poses_close(markers2, markers, 1e-12)
        _assert_poses_close(frames2, frames, 1e-12)

    def test_references_unpack_to_exact_identity(self):
        layout = ParamLayout.build([0, 1], [0], [0], 0, 0)
        cams, markers, _ = unpack_params(np.ones(layout.total), layout)
        np.testing.assert_array_equal(cams[0].rotation, np.eye(3))
        np.testing.assert_array_equal(cams[0].translation, np.zeros(3))
        np.testing.assert_array_equal(markers[0].rotation, np.eye(3))


def _cost(cams, markers, frames, dets, intr, template):
    """(sse px^2, per-corner rms px) of the refinement's residuals with every
    given pose a parameter: the layout's references are spare ids, pinned to
    the identity, that no detection uses."""
    spare = {-1: RigidTransform.identity()}
    layout = ParamLayout.build({**cams, **spare}, {**markers, **spare}, frames, -1, -1)
    builder = ResidualBuilder(dets, intr, template, layout)
    r = builder.residuals(pack_params({**cams, **spare}, {**markers, **spare}, frames, layout))
    sse = float(r @ r)
    return sse, math.sqrt(sse / (4 * builder.n_obs))


class TestGlobalCost:
    def test_exact_parameters_zero_error(self):
        rng = np.random.default_rng(5)
        cams, markers, frames, dets, intr, template = _make_scene(rng)
        sse, rms = _cost(cams, markers, frames, dets, intr, template)
        assert sse < 1e-16
        assert rms < 1e-10

    def test_one_millimeter_shift_costs_point_six_pixels(self):
        # one camera at the reference, marker 1 m ahead: a 1 mm lateral shift
        # moves every corner by exactly fx * 0.001 / 1 = 0.6 px
        intr = {0: _intr()}
        template = MarkerTemplate(0.04)
        cams = {0: RigidTransform.identity()}
        markers = {0: RigidTransform.identity()}
        truth = RigidTransform(np.eye(3), np.array([0.0, 0.0, 1.0]))
        pix = project(truth.apply(template.corners), intr[0])
        dets = [Detection(0, 0, 0, pix)]
        shifted = RigidTransform(np.eye(3), np.array([0.001, 0.0, 1.0]))
        sse, rms = _cost(cams, markers, {0: shifted}, dets, intr, template)
        assert math.isclose(sse, 4 * 0.36, rel_tol=1e-9)
        assert math.isclose(rms, 0.6, rel_tol=1e-9)

    def test_noise_statistics(self):
        # per-corner rms of i.i.d. per-axis noise is sigma * sqrt(2)
        rng = np.random.default_rng(11)
        sigma = 0.5
        cams, markers, frames, dets, intr, template = _make_scene(
            rng, n_frames=30, noise=sigma
        )
        assert 4 * len(dets) >= 1000
        _, rms = _cost(cams, markers, frames, dets, intr, template)
        assert abs(rms / (sigma * math.sqrt(2.0)) - 1.0) < 0.15


def _numeric_jacobian(builder, x, h=1e-6):
    n = builder.residuals(x).size
    jac = np.zeros((n, x.size))
    for j in range(x.size):
        xp = x.copy()
        xp[j] += h
        xm = x.copy()
        xm[j] -= h
        jac[:, j] = (builder.residuals(xp) - builder.residuals(xm)) / (2.0 * h)
    return jac


class TestResidualSystem:
    def _small_problem(self, seed, noise=0.0, dist=None):
        rng = np.random.default_rng(seed)
        cams, markers, frames, dets, intr, template = _make_scene(
            rng, n_cams=2, n_markers=3, n_frames=5, noise=noise, dist=dist
        )
        layout = ParamLayout.build(cams, markers, frames, 0, 0)
        builder = ResidualBuilder(dets, intr, template, layout)
        x = pack_params(cams, markers, frames, layout)
        return builder, layout, x, rng

    def test_jacobian_matches_finite_differences(self):
        worst = 0.0
        for seed in range(20):
            dist = DIST if seed % 2 else None
            builder, _, x, rng = self._small_problem(seed, noise=0.3, dist=dist)
            # evaluate away from the optimum so no terms cancel
            x = x + rng.normal(scale=1e-3, size=x.size)
            analytic = builder.system(x).jacobian.toarray()
            numeric = _numeric_jacobian(builder, x)
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1.0)
            worst = max(worst, float(rel.max()))
        assert worst < 1e-4

    def test_row_sparsity_bound(self):
        builder, _, x, _ = self._small_problem(0)
        jac = builder.system(x).jacobian
        # an observation's 8 rows share its block's parameter columns
        per_row = np.repeat((jac.cols >= 0).sum(axis=1), 8)
        assert per_row.size == jac.shape[0]
        assert per_row.max() <= 18

    def test_reference_rows_touch_only_frame_block(self):
        builder, layout, x, _ = self._small_problem(1)
        jac = builder.system(x).jacobian
        dense = jac.toarray()
        offsets = layout.block_offsets(builder.keys)
        for n, (t, cam, marker) in enumerate(builder.keys.tolist()):
            allowed = {off + i for off in offsets[n].tolist() if off >= 0 for i in range(6)}
            assert offsets[n, 2] >= 0
            assert (offsets[n, 0] < 0) == (cam == layout.ref_camera)
            assert (offsets[n, 1] < 0) == (marker == layout.ref_marker)
            cols = set(jac.cols[n][jac.cols[n] >= 0].tolist())
            assert cols <= allowed
            for row in range(8 * n, 8 * n + 8):
                assert set(np.flatnonzero(dense[row]).tolist()) <= cols
            if cam == layout.ref_camera and marker == layout.ref_marker:
                assert len(cols) == 6

    def test_rows_follow_sorted_detection_order(self):
        intr = {0: _intr()}
        template = MarkerTemplate(0.04)
        cams = {0: RigidTransform.identity()}
        markers = {0: RigidTransform.identity(), 1: RigidTransform(np.eye(3), np.array([0.06, 0.0, 0.0]))}
        pose = RigidTransform(np.eye(3), np.array([0.0, 0.0, 1.0]))
        frames = {0: pose, 1: pose}
        dets = []
        for t in (1, 0):
            for m in (1, 0):
                top = compose(frames[t], markers[m])
                pix = project(top.apply(template.corners), intr[0])
                if (t, m) == (0, 0):
                    pix = pix + np.array([1.0, 0.0])
                dets.append(Detection(t, 0, m, pix))
        layout = ParamLayout.build([0], [0, 1], [0, 1], 0, 0)
        builder = ResidualBuilder(dets, intr, template, layout)
        r = builder.residuals(pack_params(cams, markers, frames, layout))
        # sorted (t, cam, marker) puts the offset detection in rows 0..7
        np.testing.assert_allclose(r[0:8:2], -1.0, atol=1e-9)
        assert np.abs(r[8:]).max() < 1e-9

    def test_detection_outside_layout_rejected(self):
        builder, layout, _, _ = self._small_problem(2)
        intr = {0: _intr(), 1: _intr(), 9: _intr()}
        template = MarkerTemplate(0.04)
        corners = np.array([[300.0, 220.0], [340.0, 220.0], [340.0, 260.0], [300.0, 260.0]])
        with pytest.raises(ValueError):
            ResidualBuilder([Detection(0, 9, 0, corners)], intr, template, layout)
        with pytest.raises(ValueError):
            ResidualBuilder([Detection(99, 0, 0, corners)], intr, template, layout)


class TestBehindCamera:
    """A corner behind its camera gets BEHIND_RESIDUAL and an all-zero Jacobian row."""

    def _scene(self):
        template = MarkerTemplate(0.04)
        intr = {0: _intr(), 1: _intr()}
        shift = RigidTransform(np.eye(3), np.array([0.002, 0.002, 0.0]))
        cams = {0: RigidTransform.identity(), 1: shift}
        markers = {0: RigidTransform.identity(), 1: shift}
        # a quarter turn about (1,1,0) brings corner 0, (s/2,-s/2,0), 0.028 m
        # towards every camera from 0.02 m away, so it lands behind them; the
        # other three corners stay at depths of 0.02 m or more
        axis = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        frame = RigidTransform(rotation_from_rvec(axis * math.pi / 2), np.array([0.0, 0.0, 0.02]))
        corners = np.array([[300.0, 220.0], [340.0, 220.0], [340.0, 260.0], [300.0, 260.0]])
        dets = [Detection(0, c, m, corners) for c in cams for m in markers]
        return cams, markers, {0: frame}, dets, intr, template

    @staticmethod
    def _check(r, jac, n_obs):
        r = r.reshape(n_obs, 4, 2)
        jac = jac.reshape(n_obs, 4, 2, -1)
        assert np.all(r[:, 0] == BEHIND_RESIDUAL)
        assert np.all(jac[:, 0] == 0.0)
        # the corners in front keep their own residuals and derivatives
        assert np.all(np.abs(r[:, 1:]) < 1e4)
        assert np.all(np.abs(jac[:, 1:]).max(axis=-1) > 0.0)

    def test_residual_builder_system(self):
        cams, markers, frames, dets, intr, template = self._scene()
        layout = ParamLayout.build(cams, markers, frames, 0, 0)
        builder = ResidualBuilder(dets, intr, template, layout)
        x = pack_params(cams, markers, frames, layout)
        system = builder.system(x)
        np.testing.assert_array_equal(system.residuals, builder.residuals(x))
        self._check(system.residuals, system.jacobian.toarray(), len(dets))

    def test_frame_tracker_system(self):
        cams, markers, frames, dets, intr, template = self._scene()
        tracker = FrameTracker(cams, markers, intr, template)
        x = np.concatenate([rvec_from_rotation(frames[0].rotation), frames[0].translation])
        system = _FrameSystem(tracker._frame_arrays(dets)).system(x)
        self._check(system.residuals, system.jacobian, len(dets))

    @pytest.mark.parametrize("behind", [True, False], ids=["one behind", "all in front"])
    def test_front_guards_keep_the_masked_rule(self, behind):
        # the oracle writes through the front mask unconditionally, as the
        # kernels did before they skipped the write for an all-front batch
        cams, markers, frames, dets, intr, template = self._scene()
        pose = frames[0] if behind else RigidTransform(np.eye(3), frames[0].translation)
        a = FrameTracker(cams, markers, intr, template)._frame_arrays(dets)
        r, proj, _ = optimizer._corner_residuals(
            a.y, pose.rotation[None], pose.translation[None], a.rc, a.tc, a.obs, a.k
        )
        assert proj.front.all() != behind
        expected_r = proj.pix - a.obs
        expected_r[~proj.front] = BEHIND_RESIDUAL
        expected_jac = geometry.projection_jacobian(proj)
        expected_jac[~proj.front] = 0.0
        assert r.tobytes() == expected_r.tobytes()
        assert optimizer._corner_jacobian(proj).tobytes() == expected_jac.tobytes()


class TestPerCameraIntrinsics:
    """Cameras that differ in fx, cx and distortion: every detection's
    residuals come from its own camera's intrinsics in both solvers."""

    INTR = {
        0: CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0),
        1: CameraIntrinsics(fx=750.0, fy=600.0, cx=300.0, cy=240.0, dist=DIST),
        2: CameraIntrinsics(fx=520.0, fy=600.0, cx=345.0, cy=240.0,
                            dist=[0.1, -0.02, -0.002, 0.0015, 0.003]),
    }

    def _scene(self):
        rng = np.random.default_rng(67)
        cams, markers, frames, _, _, template = _make_scene(rng, n_cams=3, n_frames=2)
        dets = _observe(cams, markers, frames, self.INTR, template, rng, noise=0.3)
        layout = ParamLayout.build(cams, markers, frames, 0, 0)
        x = pack_params(cams, markers, frames, layout)
        x = x + rng.normal(scale=1e-3, size=x.size)
        return dets, template, layout, x

    def _oracle(self, dets, template, cams, markers, frames):
        """Per detection: geometry.project with that detection's own camera."""
        out = []
        for d in dets:
            top = compose(invert(cams[d.cam]), compose(frames[d.t], markers[d.marker]))
            out.append(project(top.apply(template.corners), self.INTR[d.cam]) - d.corners)
        return np.concatenate(out).reshape(-1)

    def test_refinement_residuals(self):
        dets, template, layout, x = self._scene()
        builder = ResidualBuilder(dets, self.INTR, template, layout)
        expected = self._oracle(dets, template, *unpack_params(x, layout))
        np.testing.assert_allclose(builder.residuals(x), expected, rtol=0, atol=1e-9)

    def test_tracker_residuals(self):
        dets, template, layout, x = self._scene()
        cams, markers, frames = unpack_params(x, layout)
        tracker = FrameTracker(cams, markers, self.INTR, template)
        for i, t in enumerate(layout.frame_ids):
            frame_dets = [d for d in dets if d.t == t]
            frame_x = x[6 * (len(layout.camera_ids) + len(layout.marker_ids) + i):][:6]
            got = _FrameSystem(tracker._frame_arrays(frame_dets)).residuals(frame_x)
            expected = self._oracle(frame_dets, template, cams, markers, frames)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)


class TestFrameSystem:
    """The tracker's residuals and Jacobian are the refinement's, frozen."""

    def _scene(self, seed, dist=None):
        rng = np.random.default_rng(seed)
        cams, markers, frames, dets, intr, template = _make_scene(
            rng, n_cams=3, n_markers=3, n_frames=1, noise=0.3, dist=dist
        )
        return cams, markers, frames, dets, intr, template, rng

    @pytest.mark.parametrize("dist", [None, DIST])
    def test_jacobian_is_the_refinements_frame_block(self, dist, monkeypatch):
        cams, markers, frames, dets, intr, template, rng = self._scene(61, dist)
        layout = ParamLayout.build(cams, markers, frames, 0, 0)
        builder = ResidualBuilder(dets, intr, template, layout)
        x = pack_params(cams, markers, frames, layout)
        x = x + rng.normal(scale=1e-3, size=x.size)
        system = builder.system(x)
        # the tracker gets the builder's own camera and marker poses, and its
        # one-rvec Rodrigues routines are swapped for the batched ones that
        # the builder uses, so both solvers see the same bits of every input
        rot, trans = builder._pose_table(x)
        n_cam, n_marker = len(layout.camera_ids), len(layout.marker_ids)

        def poses(ref, ids, first):
            rows = {ref: 0, **{k: first + i for i, k in enumerate(ids)}}
            return {k: RigidTransform(rot[row], trans[row]) for k, row in rows.items()}

        tracker = FrameTracker(
            poses(0, layout.camera_ids, 1), poses(0, layout.marker_ids, 1 + n_cam), intr, template
        )
        monkeypatch.setattr(optimizer, "rotation_from_rvec", lambda v: rotations_from_rvecs(v[None])[0])
        monkeypatch.setattr(
            optimizer, "rotation_jacobian_factor",
            lambda v, r: rotation_jacobian_factors(v[None], r[None])[0],
        )
        frame_x = x[6 * (n_cam + n_marker):]
        tracked = _FrameSystem(tracker._frame_arrays(dets)).system(frame_x)
        np.testing.assert_array_equal(tracked.residuals, system.residuals)
        np.testing.assert_array_equal(tracked.jacobian, system.jacobian.blocks[:, :, 12:].reshape(-1, 6))

    def test_system_after_residuals_is_a_fresh_system(self, monkeypatch):
        # the accepted point's forward projection is reused, bit for bit
        cams, markers, frames, dets, intr, template, rng = self._scene(63, DIST)
        arrays = FrameTracker(cams, markers, intr, template)._frame_arrays(dets)
        x = np.concatenate([rvec_from_rotation(frames[0].rotation), frames[0].translation])
        x = x + rng.normal(scale=1e-3, size=6)
        fresh = _FrameSystem(arrays).system(x)
        frame = _FrameSystem(arrays)
        frame.residuals(x.copy())
        calls = _count_projections(monkeypatch)
        got = frame.system(x)
        assert calls == [0]
        np.testing.assert_array_equal(got.residuals, fresh.residuals)
        np.testing.assert_array_equal(got.jacobian, fresh.jacobian)

    def test_rotation_remapped_in_place_is_projected_again(self, monkeypatch):
        # a caller may change x in place between residuals(x) and system(x)
        cams, markers, frames, dets, intr, template, rng = self._scene(64)
        arrays = FrameTracker(cams, markers, intr, template)._frame_arrays(dets)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        x = np.concatenate([(math.pi + 0.01) * axis, frames[0].translation])
        frame = _FrameSystem(arrays)
        frame.residuals(x)
        x[:3] = rvec_from_rotation(rotation_from_rvec(x[:3]))
        assert np.linalg.norm(x[:3]) < math.pi
        calls = _count_projections(monkeypatch)
        got = frame.system(x)
        assert calls == [1]
        fresh = _FrameSystem(arrays).system(x)
        np.testing.assert_array_equal(got.residuals, fresh.residuals)
        np.testing.assert_array_equal(got.jacobian, fresh.jacobian)

    @pytest.mark.parametrize("dist", [None, DIST])
    def test_jacobian_matches_finite_differences(self, dist):
        cams, markers, frames, dets, intr, template, rng = self._scene(62, dist)
        tracker = FrameTracker(cams, markers, intr, template)
        frame = _FrameSystem(tracker._frame_arrays(dets))
        x = np.concatenate([rvec_from_rotation(frames[0].rotation), frames[0].translation])
        x = x + rng.normal(scale=1e-3, size=6)
        analytic = frame.system(x).jacobian
        numeric = _numeric_jacobian(frame, x)
        assert analytic.shape == (8 * len(dets), 6)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1.0)
        assert rel.max() < 1e-4


def _concatenated_frame_columns(pj, rc, rg, y8, s_frame):
    """_frame_columns as it returned the frame columns: a new array joined
    by np.concatenate after a negated copy."""
    dw = np.matmul(pj.reshape(-1, 8, 3), rc.transpose(0, 2, 1))
    dy = np.matmul(dw, rg)
    rot_part = -np.matmul(geometry.cross(dy, y8), s_frame)
    return dw, dy, np.concatenate([rot_part, dw], axis=-1)


def _concatenated_system(builder, x):
    """ResidualBuilder.system as it formed the (N,8,18) blocks: a forward
    pass of its own, each column group a new array, joined by
    np.concatenate. Returns (residuals, blocks)."""
    rot, trans = builder._pose_table(x)
    rows = builder._rows
    rc, tc = rot[rows[:, 0]], trans[rows[:, 0]]
    rm, tm = rot[rows[:, 1]], trans[rows[:, 1]]
    rg, tg = rot[rows[:, 2]], trans[rows[:, 2]]
    u = builder.template.corners
    y = np.matmul(u, rm.transpose(0, 2, 1)) + tm[:, None, :]
    r, proj, a = optimizer._corner_residuals(y, rg, tg, rc, tc, builder.obs_pix, builder._k)
    n_cam = len(builder.layout.camera_ids)
    rvecs, rots = x.reshape(-1, 6)[:, :3].copy(), rot[1:].copy()
    rvecs[:n_cam] *= -1.0
    rots[:n_cam] = rots[:n_cam].transpose(0, 2, 1)
    factors = np.concatenate([np.zeros((1, 3, 3)), rotation_jacobian_factors(rvecs, rots)])
    s_cam, s_marker, s_frame = (factors[i] for i in rows.T)
    y8 = np.repeat(y, 2, axis=1)
    dw, dy, frame = _concatenated_frame_columns(
        optimizer._corner_jacobian(proj), rc, rg, y8, s_frame
    )
    du = np.matmul(dy, rm)
    jac = np.concatenate(
        [
            np.matmul(geometry.cross(dw, np.repeat(a, 2, axis=1)), s_cam),
            -dw,
            -np.matmul(geometry.cross(du, np.repeat(u, 2, axis=0)), s_marker),
            dy,
            frame,
        ],
        axis=-1,
    )
    return r, jac


class TestRefinementPasses:
    """The refinement projects each LM point once and writes its blocks in
    place; every array equals the one that the joined, twice-projected
    assembly formed, byte for byte."""

    SCENES = ["plain", "distorted", "behind"]

    def _scene(self, name):
        rng = np.random.default_rng(71)
        if name == "behind":
            cams, markers, frames, dets, intr, template = TestBehindCamera()._scene()
        else:
            dist = DIST if name == "distorted" else None
            cams, markers, frames, dets, intr, template = _make_scene(
                rng, n_cams=3, n_markers=3, n_frames=5, noise=0.3, dist=dist
            )
        layout = ParamLayout.build(cams, markers, frames, 0, 0)
        x = pack_params(cams, markers, frames, layout)
        if name != "behind":
            x = x + rng.normal(scale=1e-3, size=x.size)
        builder = ResidualBuilder(dets, intr, template, layout)
        assert (builder.residuals(x) == BEHIND_RESIDUAL).any() == (name == "behind")
        return dets, intr, template, layout, x

    @pytest.mark.parametrize("scene", SCENES)
    def test_in_place_blocks_equal_concatenated_blocks(self, scene):
        dets, intr, template, layout, x = self._scene(scene)
        builder = ResidualBuilder(dets, intr, template, layout)
        r, blocks = _concatenated_system(builder, x)
        system = builder.system(x)
        assert system.residuals.tobytes() == r.tobytes()
        assert system.jacobian.blocks.tobytes() == blocks.tobytes()

    @pytest.mark.parametrize("scene", SCENES)
    def test_tracker_frame_columns_equal_concatenated_columns(self, scene):
        dets, intr, template, layout, x = self._scene(scene)
        cams, markers, frames = unpack_params(x, layout)
        tracker = FrameTracker(cams, markers, intr, template)
        t = layout.frame_ids[0]
        arrays = tracker._frame_arrays([d for d in dets if d.t == t])
        frame_x = _twist(frames[t])
        rot = rotation_from_rvec(frame_x[:3])
        _, proj, _ = optimizer._corner_residuals(
            arrays.y, rot[None], frame_x[None, 3:], arrays.rc, arrays.tc, arrays.obs, arrays.k
        )
        s_g = optimizer.rotation_jacobian_factor(frame_x[:3], rot)
        frame = _concatenated_frame_columns(
            optimizer._corner_jacobian(proj), arrays.rc, rot[None], arrays.y8, s_g[None]
        )[2]
        got = _FrameSystem(arrays).system(frame_x).jacobian
        assert got.tobytes() == frame.reshape(-1, 6).tobytes()

    @pytest.mark.parametrize("scene", SCENES)
    def test_system_after_residuals_makes_no_projection(self, scene, monkeypatch):
        dets, intr, template, layout, x = self._scene(scene)
        fresh = ResidualBuilder(dets, intr, template, layout).system(x)
        builder = ResidualBuilder(dets, intr, template, layout)
        r = builder.residuals(x.copy())
        calls = _count_projections(monkeypatch)
        got = builder.system(x)
        again = builder.residuals(x)
        assert calls == [0]
        assert again is r
        assert got.residuals.tobytes() == fresh.residuals.tobytes()
        assert got.jacobian.blocks.tobytes() == fresh.jacobian.blocks.tobytes()

    def test_x_changed_in_place_is_projected_again(self, monkeypatch):
        dets, intr, template, layout, x = self._scene("distorted")
        builder = ResidualBuilder(dets, intr, template, layout)
        builder.residuals(x)
        x[-4] += 1e-3  # a frame translation, changed in place
        calls = _count_projections(monkeypatch)
        got = builder.system(x)
        assert calls == [1]
        fresh = ResidualBuilder(dets, intr, template, layout).system(x)
        assert got.residuals.tobytes() == fresh.residuals.tobytes()
        assert got.jacobian.blocks.tobytes() == fresh.jacobian.blocks.tobytes()

    def test_two_systems_held_at_once_keep_their_blocks(self):
        dets, intr, template, layout, x = self._scene("plain")
        builder = ResidualBuilder(dets, intr, template, layout)
        first = builder.system(x)
        kept = first.jacobian.blocks.copy()
        builder.system(x + 1e-3)
        assert first.jacobian.blocks.tobytes() == kept.tobytes()

    def test_refine_all_projects_once_per_lm_point(self, monkeypatch):
        # the first system and each LM trial project; the Jacobian at an
        # accepted trial and the final per-frame rms reuse that trial's pass
        rng = np.random.default_rng(33)
        cams, markers, frames, dets, intr, template = _make_scene(rng, n_frames=10, noise=0.3)
        init = TestRefineAll()._init_result(*_perturb_all(cams, markers, frames, rng))
        projections = _count_projections(monkeypatch)
        residual_calls = _count_calls(monkeypatch, ResidualBuilder, "residuals")
        out = refine_all(init, dets, intr)
        assert out.report.reason == REASON_MIN_IMPROVE
        trials = residual_calls[0] - 1  # the last call reads the per-frame rms
        assert trials == out.report.iterations >= 2
        assert projections == [1 + trials]

    def test_set_up_matches_sorted_detections(self):
        # keys sorted by np.lexsort and intrinsics gathered per camera, against
        # the detections sorted by key and stacked one by one, each with its
        # camera's intrinsics row
        dets, template, layout, _ = TestPerCameraIntrinsics()._scene()
        intr = TestPerCameraIntrinsics.INTR
        shuffled = [dets[i] for i in np.random.default_rng(72).permutation(len(dets))]
        builder = ResidualBuilder(shuffled, intr, template, layout)
        ordered = sorted(shuffled, key=lambda d: d.key)
        obs = np.array([d.corners for d in ordered]).reshape(-1, 2)
        rows = [(i.fx, i.fy, i.cx, i.cy, *i.dist.tolist()) for i in (intr[d.cam] for d in ordered)]
        k = np.repeat(np.array(rows, dtype=np.float64).T, 4, axis=1)
        keys = np.array([d.key for d in ordered], dtype=np.int64)
        assert builder.keys.tobytes() == keys.tobytes()
        assert builder.obs_pix.tobytes() == obs.tobytes()
        assert builder._k.tobytes() == k.tobytes()
        # each (camera, marker) pair's observations in observation order, the
        # pairs in the order of their columns (a reference's last), and the
        # flat slots of A, W and V that the pattern scatters into
        pattern = builder._pattern
        n_struct, n_frame = pattern.n_struct, pattern.n_params - pattern.n_struct
        s1, cols = n_struct + 1, pattern.cols
        sc = np.where(cols[:, :12] < 0, n_struct, cols[:, :12])
        groups = {}
        for n, pair in enumerate(zip(sc[:, 0].tolist(), sc[:, 6].tolist())):
            groups.setdefault(pair, []).append(n)
        assert [rows.tolist() for rows in pattern.pair_rows] == [groups[k] for k in sorted(groups)]
        first = sc[[groups[k][0] for k in sorted(groups)]]
        a_index = np.ravel_multi_index((first[:, :, None], first[:, None, :]), (s1, s1))
        assert pattern.a_index.tobytes() == a_index.tobytes()
        fc = cols[:, None, 12:] - n_struct
        w_index = np.ravel_multi_index((sc[:, :, None], fc), (s1, n_frame))
        v_index = s1 * n_frame + np.ravel_multi_index(
            (fc // 6, fc.transpose(0, 2, 1) % 6, fc % 6), (n_frame // 6, 6, 6)
        )
        assert pattern.wv_index.tobytes() == np.concatenate([w_index, v_index], axis=1).tobytes()

    def test_missing_intrinsics_names_the_first_sorted_detections_camera(self):
        # cameras 5 and 3 lack intrinsics; the first detection in key order
        # is camera 5's, in frame 0
        corners = np.array([[300.0, 220.0], [340.0, 220.0], [340.0, 260.0], [300.0, 260.0]])
        dets = [Detection(1, 3, 0, corners), Detection(0, 5, 0, corners), Detection(0, 0, 0, corners)]
        layout = ParamLayout.build([0, 3, 5], [0], [0, 1], 0, 0)
        with pytest.raises(MissingIntrinsics) as e:
            ResidualBuilder(dets, {0: _intr()}, MarkerTemplate(0.04), layout)
        assert e.value.cam == 5


class TestLmMinimize:
    def test_start_at_optimum_keeps_cost(self):
        rng = np.random.default_rng(21)
        cams, markers, frames, dets, intr, template = _make_scene(rng)
        layout = ParamLayout.build(cams, markers, frames, 0, 0)
        builder = ResidualBuilder(dets, intr, template, layout)
        x0 = pack_params(cams, markers, frames, layout)
        x, report = lm_minimize(x0, builder)
        assert report.accepted_steps == 0
        assert report.reason == REASON_ZERO_RESIDUAL
        assert report.final_rms == report.initial_rms
        np.testing.assert_array_equal(x, x0)

    def test_recovers_exact_solution_from_perturbed_init(self):
        rng = np.random.default_rng(22)
        cams, markers, frames, dets, intr, template = _make_scene(rng, n_frames=12)
        layout = ParamLayout.build(cams, markers, frames, 0, 0)
        builder = ResidualBuilder(dets, intr, template, layout)
        cams_p, markers_p, frames_p = _perturb_all(cams, markers, frames, rng)
        x0 = pack_params(cams_p, markers_p, frames_p, layout)
        x, report = lm_minimize(x0, builder)
        assert report.final_rms < 1e-8
        assert report.reason in (REASON_MIN_IMPROVE, REASON_ZERO_RESIDUAL)
        cams_e, markers_e, frames_e = unpack_params(x, layout)
        _assert_poses_close(cams_e, cams, 1e-6)
        _assert_poses_close(markers_e, markers, 1e-6)
        _assert_poses_close(frames_e, frames, 1e-6)

    def test_accepted_cost_strictly_decreases(self):
        rng = np.random.default_rng(23)
        cams, markers, frames, dets, intr, template = _make_scene(rng, noise=0.3)
        layout = ParamLayout.build(cams, markers, frames, 0, 0)
        builder = ResidualBuilder(dets, intr, template, layout)
        cams_p, markers_p, frames_p = _perturb_all(cams, markers, frames, rng)
        x0 = pack_params(cams_p, markers_p, frames_p, layout)
        _, report = lm_minimize(x0, builder)
        assert report.accepted_steps >= 2
        diffs = np.diff(report.cost_history)
        assert np.all(diffs < 0)

    def test_iteration_budget(self):
        rng = np.random.default_rng(24)
        cams, markers, frames, dets, intr, template = _make_scene(rng, noise=0.3)
        layout = ParamLayout.build(cams, markers, frames, 0, 0)
        builder = ResidualBuilder(dets, intr, template, layout)
        cams_p, markers_p, frames_p = _perturb_all(
            cams, markers, frames, rng, rot_deg=10.0, trans_m=0.05
        )
        x0 = pack_params(cams_p, markers_p, frames_p, layout)
        opts = SolverOptions(max_iters=3, min_improve=1e-12)
        _, report = lm_minimize(x0, builder, opts)
        assert report.iterations == 3
        assert report.reason == REASON_MAX_ITERS

    def test_non_finite_init_raises(self):
        rng = np.random.default_rng(25)
        cams, markers, frames, dets, intr, template = _make_scene(rng, n_frames=2)
        layout = ParamLayout.build(cams, markers, frames, 0, 0)
        builder = ResidualBuilder(dets, intr, template, layout)
        x0 = pack_params(cams, markers, frames, layout)
        x0[0] = np.nan
        with pytest.raises(NumericalFailure):
            lm_minimize(x0, builder)

    def _near_pi_scene(self):
        rng = np.random.default_rng(27)
        cams, markers, frames, _, intr, template = _make_scene(rng, n_frames=4)
        truth, start = _near_pi_frames(frames, rng)
        dets = _observe(cams, markers, truth, intr, template)
        layout = ParamLayout.build(cams, markers, truth, 0, 0)
        builder = ResidualBuilder(dets, intr, template, layout)
        return cams, markers, truth, layout, builder, pack_params(cams, markers, start, layout)

    def test_converges_across_pi(self):
        cams, markers, truth, layout, builder, x0 = self._near_pi_scene()
        x, report = lm_minimize(x0, builder)
        assert report.final_rms < 1e-8
        cams_e, markers_e, frames_e = unpack_params(x, layout)
        _assert_poses_close(cams_e, cams, 1e-6)
        _assert_poses_close(markers_e, markers, 1e-6)
        _assert_poses_close(frames_e, truth, 1e-6)
        # each truth sits across the cut from its start, and LM keeps the
        # twists it stepped to
        frame_norms = np.linalg.norm(x.reshape(-1, 6)[-len(truth):, :3], axis=1)
        assert np.all(frame_norms > math.pi)

    @pytest.mark.parametrize("max_iters", [1, SolverOptions.max_iters])
    def test_returns_the_last_accepted_trial(self, max_iters):
        # one iteration ends on the step that crosses the cut at pi
        _, _, _, _, builder, x0 = self._near_pi_scene()
        recording = _Recording(builder)
        x, report = lm_minimize(x0, recording, SolverOptions(max_iters=max_iters))
        _assert_returned_point_was_evaluated(builder, recording, x, report)

    def test_stops_on_rms_not_mean_abs_residual(self):
        # Rosenbrock's valley in translation slots 3 and 4 of one 6-block:
        # accepted steps lower the cost while the mean |r| rises, and a stop
        # rule on the mean |r| quit at (-0.367, 0.085), 1.46 px rms
        class Rosenbrock:
            def residuals(self, x):
                return np.array([10.0 * (x[4] - x[3] ** 2), 1.0 - x[3]])

            def system(self, x):
                jac = np.zeros((2, 6))
                jac[0, 3], jac[0, 4], jac[1, 3] = -20.0 * x[3], 10.0, -1.0
                return ResidualSystem(self.residuals(x), jac)

        x0 = np.array([0.0, 0.0, 0.0, -1.2, 1.0, 0.0])
        x, report = lm_minimize(x0, Rosenbrock())
        np.testing.assert_allclose(x[3:5], [1.0, 1.0], atol=1e-3)
        assert report.final_rms < 1e-3

    def test_solver_options_validated(self):
        with pytest.raises(ValidationError, match="max_iters"):
            SolverOptions(max_iters=0)
        with pytest.raises(ValidationError, match="min_improve"):
            SolverOptions(min_improve=-1.0)
        with pytest.raises(ValidationError, match="min_improve"):
            SolverOptions(min_improve=math.nan)

    def test_gauge_fully_fixed_by_references(self):
        # moving every camera and frame pose by the same rigid transform
        # leaves all relative poses, hence the cost, unchanged
        rng = np.random.default_rng(26)
        cams, markers, frames, dets, intr, template = _make_scene(rng, noise=0.3)
        gauge = RigidTransform(
            rotation_from_rvec(np.array([0.3, -0.2, 0.5])), np.array([0.4, -0.1, 0.2])
        )
        sse_a, _ = _cost(cams, markers, frames, dets, intr, template)
        cams_g = {c: compose(gauge, p) for c, p in cams.items()}
        frames_g = {t: compose(gauge, p) for t, p in frames.items()}
        sse_b, _ = _cost(cams_g, markers, frames_g, dets, intr, template)
        assert abs(sse_a - sse_b) / sse_a < 1e-9


def _dense_step(system, lam):
    jac, r = system.jacobian.toarray(), system.residuals
    return np.linalg.solve(jac.T @ jac + lam * np.eye(jac.shape[1]), -jac.T @ r)


class TestBlockSolve:
    """The Schur-complement step against the dense damped normal equations."""

    def _system(self, seed, n_cams=2, n_markers=3, n_frames=5, dist=None, keep=None):
        rng = np.random.default_rng(seed)
        cams, markers, frames, dets, intr, template = _make_scene(
            rng, n_cams=n_cams, n_markers=n_markers, n_frames=n_frames, noise=0.3, dist=dist
        )
        if keep is not None:
            dets = [d for d in dets if keep(d)]
        layout = ParamLayout.build(cams, markers, frames, 0, 0)
        builder = ResidualBuilder(dets, intr, template, layout)
        x = pack_params(cams, markers, frames, layout)
        return builder.system(x + rng.normal(scale=1e-3, size=x.size)), layout

    def _check(self, system, lams=(1e-3, 1.0, 1e10)):
        normal = system.jacobian.normal(system.residuals)
        for lam in lams:
            step, expect = normal.solve(lam), _dense_step(system, lam)
            assert np.abs(step - expect).max() <= 1e-10 * np.abs(expect).max(), lam

    @pytest.mark.parametrize("dist", [None, DIST])
    def test_step_matches_dense_solve(self, dist):
        for seed in range(3):
            self._check(self._system(seed, n_cams=3, dist=dist)[0])

    @pytest.mark.parametrize("dist", [None, DIST])
    def test_normal_sums_pairs_and_observations_in_order(self, dist):
        # oracles added into dense arrays one term after another: A from each
        # (camera, marker) pair's X^T X over its stacked (8n,12) rows, the
        # pairs in the order of their columns; W and V from each
        # observation's (18,6) product against its frame columns and g from
        # its J^T r, in observation order. Every slot must come out bit for
        # bit the same, and A exactly symmetric
        system, layout = self._system(9, n_cams=3, dist=dist)
        jac, r = system.jacobian, system.residuals
        n_params, n_s = layout.total, 6 * (len(layout.camera_ids) + len(layout.marker_ids))
        cols = np.where(jac.cols < 0, n_params, jac.cols)
        h, g = np.zeros((n_params + 1, n_params + 1)), np.zeros(n_params + 1)
        pairs = {}
        for n, c in enumerate(cols):
            pairs.setdefault((c[0], c[6]), []).append(n)
        for key in sorted(pairs):
            rows = pairs[key]
            x, pair_cols = jac.blocks[rows, :, :12].reshape(-1, 12), cols[rows[0], :12]
            h[np.ix_(pair_cols, pair_cols)] += x.T @ x
        for n in range(len(cols)):
            block = jac.blocks[n]
            h[np.ix_(cols[n], cols[n, 12:])] += block.T @ block[:, 12:]
            g[cols[n]] += block.T @ r[8 * n : 8 * n + 8]
        normal = jac.normal(r)
        n_f = (n_params - n_s) // 6
        frames = h[n_s:n_params, n_s:n_params].reshape(n_f, 6, n_f, 6)
        np.testing.assert_array_equal(normal.a, h[:n_s, :n_s])
        np.testing.assert_array_equal(normal.a, normal.a.T)
        np.testing.assert_array_equal(normal.w, h[:n_s, n_s:n_params])
        np.testing.assert_array_equal(normal.v, frames[np.arange(n_f), :, np.arange(n_f)])
        np.testing.assert_array_equal(normal.g_s, g[:n_s])
        np.testing.assert_array_equal(normal.g_f, g[n_s:n_params])

    @pytest.mark.parametrize("scene", TestRefinementPasses.SCENES)
    def test_normal_matches_dense_products(self, scene):
        dets, intr, template, layout, x = TestRefinementPasses()._scene(scene)
        system = ResidualBuilder(dets, intr, template, layout).system(x)
        jac, r = system.jacobian.toarray(), system.residuals
        h, g = jac.T @ jac, jac.T @ r
        n_s, n_f = h.shape[0] - 6 * len(layout.frame_ids), len(layout.frame_ids)
        frames = h[n_s:, n_s:].reshape(n_f, 6, n_f, 6)[np.arange(n_f), :, np.arange(n_f)]
        normal = system.jacobian.normal(r)
        for got, want in ((normal.a, h[:n_s, :n_s]), (normal.w, h[:n_s, n_s:]), (normal.v, frames),
                          (normal.g_s, g[:n_s]), (normal.g_f, g[n_s:])):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_normal_allocates_under_2kb_per_detection(self):
        # no whole (18,18) product per detection, which alone took 2.6 KB
        rng = np.random.default_rng(34)
        cams, markers, frames, dets, intr, template = _make_scene(
            rng, n_cams=4, n_markers=4, n_frames=64, noise=0.3
        )
        assert len(dets) >= 1000
        layout = ParamLayout.build(cams, markers, frames, 0, 0)
        system = ResidualBuilder(dets, intr, template, layout).system(pack_params(cams, markers, frames, layout))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            system.jacobian.normal(system.residuals)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak / len(dets) < 2048

    def test_empty_reduced_system(self):
        # one camera and one marker: both are references, so only frames move
        system, layout = self._system(4, n_cams=1, n_markers=1)
        assert layout.block_offsets(np.array([[0, 0, 0]])).tolist() == [[-6, -6, 0]]
        self._check(system)

    def test_frame_seen_by_one_detection(self):
        # frame 2 keeps only camera 1's view of marker 1
        system, _ = self._system(5, dist=DIST, keep=lambda d: d.t != 2 or (d.cam, d.marker) == (1, 1))
        self._check(system)

    def test_singular_or_non_finite_solve_gives_none(self):
        system, _ = self._system(7)
        normal = system.jacobian.normal(system.residuals)
        zero = SchurNormal(np.zeros_like(normal.a), normal.w, np.zeros_like(normal.v),
                           normal.g_s, normal.g_f)
        assert _solve_damped(zero, 0.0) is None
        nan = SchurNormal(np.full_like(normal.a, np.nan), normal.w, normal.v,
                          normal.g_s, normal.g_f)
        assert _solve_damped(nan, 1e-3) is None
        assert _solve_damped(normal, 1e-3) is not None

    def test_failed_solve_raises_damping(self, monkeypatch):
        rng = np.random.default_rng(8)
        cams, markers, frames, dets, intr, template = _make_scene(rng, noise=0.3)
        layout = ParamLayout.build(cams, markers, frames, 0, 0)
        builder = ResidualBuilder(dets, intr, template, layout)
        x0 = pack_params(*_perturb_all(cams, markers, frames, rng), layout)
        lams = []
        solve = SchurNormal.solve

        def failing_first(self, lam):
            lams.append(lam)
            if len(lams) == 1:
                raise np.linalg.LinAlgError("singular")
            return solve(self, lam)

        monkeypatch.setattr(SchurNormal, "solve", failing_first)
        _, report = lm_minimize(x0, builder)
        assert lams[:2] == [LAMBDA_INIT, LAMBDA_INIT * LAMBDA_UP]
        assert report.accepted_steps >= 1

    def test_damping_limit_on_non_finite_jacobian(self):
        system, _ = self._system(9)

        class NanBuilder:
            def system(self, x):
                jac = system.jacobian
                return ResidualSystem(system.residuals, BlockJacobian(np.full_like(jac.blocks, np.nan), jac._pattern))

            def residuals(self, x):
                return system.residuals

        with pytest.raises(NumericalFailure, match="singular normal equations at maximum damping"):
            lm_minimize(np.zeros(system.jacobian.shape[1]), NanBuilder())


class TestRefineAll:
    def _init_result(self, cams, markers, frames, untracked=()):
        traj = Trajectory()
        for t, pose in frames.items():
            traj.frames[t] = FrameState(pose)
        for t in untracked:
            traj.frames[t] = FrameState(None)
        return CalibrationResult(
            cams=StructureEstimate(0, cams, ()),
            markers=StructureEstimate(0, markers, ()),
            traj=traj,
            marker_side=0.04,
        )

    def test_recovers_truth_and_keeps_gauge(self):
        rng = np.random.default_rng(31)
        cams, markers, frames, dets, intr, template = _make_scene(rng, n_frames=10)
        cams_p, markers_p, frames_p = _perturb_all(cams, markers, frames, rng)
        init = self._init_result(cams_p, markers_p, frames_p, untracked=(999,))
        out = refine_all(init, dets, intr)
        assert out.report.final_rms < 1e-8
        assert out.report.final_rms <= out.report.initial_rms
        _assert_poses_close(out.cams.poses, cams, 1e-6)
        _assert_poses_close(out.markers.poses, markers, 1e-6)
        np.testing.assert_array_equal(out.cams.poses[0].rotation, np.eye(3))
        np.testing.assert_array_equal(out.cams.poses[0].translation, np.zeros(3))
        np.testing.assert_array_equal(out.markers.poses[0].rotation, np.eye(3))
        for t in frames:
            state = out.traj.frames[t]
            assert state.source == SOURCE_REFINED
            assert rotation_angle(state.pose.rotation @ frames[t].rotation.T) < 1e-6
        assert out.traj.frames[999].pose is None
        assert out.traj.frames[999].source == SOURCE_INIT
        assert out.marker_side == init.marker_side
        assert sorted(out.report.per_frame_rms) == sorted(frames)

    def test_grossly_misplaced_marker_is_pulled_back(self):
        rng = np.random.default_rng(32)
        cams, markers, frames, dets, intr, template = _make_scene(
            rng, n_markers=4, n_frames=10
        )
        markers_bad = dict(markers)
        markers_bad[2] = RigidTransform(
            markers[2].rotation, markers[2].translation + np.array([0.03, 0.0, 0.0])
        )
        init = self._init_result(cams, markers_bad, frames)
        out = refine_all(init, dets, intr)
        assert np.linalg.norm(out.markers.poses[2].translation - markers[2].translation) < 1e-6


class TestTracking:
    def _frame_setup(self, seed, noise=0.0):
        rng = np.random.default_rng(seed)
        cams, markers, frames, dets, intr, template = _make_scene(
            rng, n_cams=5, n_markers=4, n_frames=1, noise=noise
        )
        tracker = FrameTracker(cams, markers, intr, template)
        return tracker, dets, frames[0], rng

    def test_warm_start_at_truth_is_immediate(self):
        tracker, dets, truth, _ = self._frame_setup(41)
        pose, rms = tracker.solve(dets, warm=truth)
        assert rms < 1e-9
        assert tracker.last_iterations <= 2
        assert rotation_angle(pose.rotation @ truth.rotation.T) < 1e-9

    def test_cold_start_recovers_truth(self):
        tracker, dets, truth, _ = self._frame_setup(42)
        pose, rms = tracker.solve(dets)
        assert rms < 1e-8
        assert rotation_angle(pose.rotation @ truth.rotation.T) < 1e-6
        assert np.linalg.norm(pose.translation - truth.translation) < 1e-6

    def test_warm_and_cold_agree_on_unambiguous_frames(self):
        tracker, dets, truth, rng = self._frame_setup(43, noise=0.3)
        cold, _ = tracker.solve(dets)
        warm_init = _perturb(truth, rng, 1.0, 0.01)
        warm, _ = tracker.solve(dets, warm=warm_init)
        assert rotation_angle(cold.rotation @ warm.rotation.T) < 1e-6
        assert np.linalg.norm(cold.translation - warm.translation) < 1e-6

    def _across_pi_frame(self):
        """A tracker, one frame's detections, its truth and a warm start
        across the rvec cut at pi from it."""
        rng = np.random.default_rng(48)
        cams, markers, frames, _, intr, template = _make_scene(
            rng, n_cams=5, n_markers=4, n_frames=1
        )
        truth, start = _near_pi_frames(frames, rng)
        dets = _observe(cams, markers, truth, intr, template)
        return FrameTracker(cams, markers, intr, template), dets, truth, start[0]

    def test_warm_start_across_pi_recovers_truth(self):
        tracker, dets, truth, start = self._across_pi_frame()
        pose, rms = tracker.solve(dets, warm=start)
        assert rms < 1e-8
        _assert_poses_close({0: pose}, truth, 1e-6)

    @pytest.mark.parametrize("max_iters", [1, SolverOptions.max_iters])
    def test_solve_returns_the_last_accepted_trial(self, max_iters, monkeypatch):
        tracker, dets, _, start = self._across_pi_frame()
        runs = []
        minimize = optimizer.lm_minimize

        def recorded(initial, builder, opts):
            recording = _Recording(builder)
            x, report = minimize(initial, recording, opts)
            runs.append((builder, recording, x, report))
            return x, report

        monkeypatch.setattr(optimizer, "lm_minimize", recorded)
        pose, rms = tracker.solve(dets, warm=start, opts=SolverOptions(max_iters=max_iters))
        [(builder, recording, x, report)] = runs
        _assert_returned_point_was_evaluated(builder, recording, x, report)
        assert np.linalg.norm(x[:3]) > math.pi
        assert rms == report.final_rms
        np.testing.assert_array_equal(pose.translation, x[3:])

    @pytest.mark.parametrize("dist", [None, DIST])
    def test_polynomial_formed_only_for_distorted_cameras(self, dist, monkeypatch):
        rng = np.random.default_rng(41)
        cams, markers, frames, dets, intr, template = _make_scene(
            rng, n_cams=5, n_markers=4, n_frames=1, noise=0.3, dist=dist
        )
        tracker = FrameTracker(cams, markers, intr, template)
        warm = _perturb(frames[0], rng, 1.0, 0.01)
        projections = _count_projections(monkeypatch)
        polynomials = _count_calls(monkeypatch, geometry, "_distort_normalized")
        tracker.solve(dets, warm=warm)
        assert projections[0] >= 3
        assert polynomials == ([0] if dist is None else projections)
        if dist is None:  # the cold start's planar poses and scoring too
            tracker.solve(dets)
            assert polynomials == [0]

    def test_negative_zero_dist_solves_as_zero_dist(self):
        rng = np.random.default_rng(43)
        cams, markers, frames, dets, intr, template = _make_scene(
            rng, n_cams=5, n_markers=4, n_frames=1, noise=0.3
        )
        negative = {c: dataclasses.replace(i, dist=[-0.0] * 5) for c, i in intr.items()}
        warm = _perturb(frames[0], rng, 1.0, 0.01)
        expected, expected_rms = FrameTracker(cams, markers, intr, template).solve(dets, warm=warm)
        got, rms = FrameTracker(cams, markers, negative, template).solve(dets, warm=warm)
        assert got.as_matrix().tobytes() == expected.as_matrix().tobytes()
        assert rms == expected_rms

    def test_non_finite_warm_start_raises(self):
        tracker, dets, truth, _ = self._frame_setup(49)
        warm = RigidTransform(truth.rotation, truth.translation + [np.nan, 0.0, 0.0])
        with pytest.raises(NumericalFailure):
            tracker.solve(dets, warm=warm)

    def test_empty_frame_is_untracked(self):
        tracker, _, _, _ = self._frame_setup(44)
        assert tracker.solve([]) == (None, None)

    def test_unknown_camera_rejected(self):
        tracker, dets, _, _ = self._frame_setup(45)
        bad = Detection(0, 77, 0, dets[0].corners)
        with pytest.raises(ValidationError, match=r"camera ids \[77\]"):
            tracker.solve([bad])

    def test_unknown_marker_rejected(self):
        tracker, dets, _, _ = self._frame_setup(45)
        bad = [*dets, Detection(0, dets[0].cam, 77, dets[0].corners),
               Detection(0, dets[0].cam, 78, dets[0].corners)]
        for solve in (tracker.solve, tracker.cold_start):
            with pytest.raises(ValidationError, match=r"marker ids \[77, 78\] not held by the calibration"):
                solve(bad)

    def test_camera_without_intrinsics_rejected(self):
        rng = np.random.default_rng(45)
        cams, markers, _, dets, intr, template = _make_scene(rng, n_cams=5, n_markers=4, n_frames=1)
        cam = dets[-1].cam
        tracker = FrameTracker(cams, markers, {c: i for c, i in intr.items() if c != cam}, template)
        for solve in (tracker.solve, tracker.cold_start):
            with pytest.raises(MissingIntrinsics) as e:
                solve(dets)
            assert e.value.cam == cam

    def test_detections_of_several_frames_rejected(self):
        # frame 3 of the tiny track scene plus the detections of frame 10
        # whose (cam, marker) frame 3 lacks: no repeated pair, but two frames
        spec = SceneSpec(
            n_cameras=5, circle_radius=0.7, object="cube", marker_side=0.04, n_frames=20,
            trajectory="fast", noise_sigma=0.2, seed=0,
        )
        gt, dets, intr = generate(spec)
        cams, markers = gt.cams_gt.poses, gt.markers_gt.poses
        template = MarkerTemplate(spec.marker_side)
        frame3 = [d for d in dets if d.t == 3]
        pairs = {(d.cam, d.marker) for d in frame3}
        mixed = frame3 + [d for d in dets if d.t == 10 and (d.cam, d.marker) not in pairs]
        assert len(mixed) > len(frame3)
        tracker = FrameTracker(cams, markers, intr, template)
        for solve in (lambda: track_frame(mixed, cams, markers, intr, template),
                      lambda: tracker.solve(mixed, warm=gt.traj_gt.frames[3].pose),
                      lambda: tracker.cold_start(mixed)):
            with pytest.raises(ValidationError, match=r"frames \[3, 10\]"):
                solve()

    def test_one_shot_wrapper_matches_tracker(self):
        rng = np.random.default_rng(46)
        cams, markers, frames, dets, intr, template = _make_scene(
            rng, n_cams=5, n_markers=4, n_frames=1, noise=0.2
        )
        tracker = FrameTracker(cams, markers, intr, template)
        a, rms_a = tracker.solve(dets, warm=frames[0])
        b, rms_b = track_frame(dets, cams, markers, intr, template, warm=frames[0])
        np.testing.assert_allclose(a.as_matrix(), b.as_matrix(), atol=1e-12)
        assert math.isclose(rms_a, rms_b, rel_tol=1e-12)

    def test_cold_start_returns_first_cheapest_proposal(self):
        # criterion-5 geometry, where most detections keep both planar poses.
        # The oracle scores each proposal G = C * T * M^-1 on its own, with
        # the refinement's residual builder, and keeps the first minimum
        spec = SceneSpec(
            n_cameras=5, circle_radius=0.20, camera_height=2.0,
            intrinsics=CameraIntrinsics(
                fx=1800.0, fy=1800.0, cx=640.0, cy=480.0, width=1280, height=960
            ),
            object="flat-grid", marker_side=0.06, n_frames=4, trajectory="orbit",
            noise_sigma=0.5, ambiguity_stress=True, seed=3,
        )
        gt, dets, intr = generate(spec)
        cams, markers = gt.cams_gt.poses, gt.markers_gt.poses
        template = MarkerTemplate(spec.marker_side)
        tracker = FrameTracker(cams, markers, intr, template)
        by_frame = {}
        for d in dets:
            by_frame.setdefault(d.t, []).append(d)
        ambiguous = 0
        for t, frame_dets in sorted(by_frame.items()):
            layout = ParamLayout.build(
                cams, markers, [t], gt.cams_gt.reference, gt.markers_gt.reference
            )
            builder = ResidualBuilder(frame_dets, intr, template, layout)
            best_cost, best = math.inf, None
            for d in sorted(frame_dets, key=lambda d: d.key):
                poses = planar_poses(*corner_arrays([d], {d.cam: intr[d.cam]}), template)
                assert poses.status[0] == POSE_OK
                ambiguous += poses.ratios[0] < 2.0
                for rot, tvec in zip(poses.rotations[0], poses.translations[0]):
                    t_mc = RigidTransform(rot, tvec)
                    g = compose(compose(cams[d.cam], t_mc), invert(markers[d.marker]))
                    r = builder.residuals(pack_params(cams, markers, {t: g}, layout))
                    if float(r @ r) < best_cost:
                        best_cost, best = float(r @ r), g
            got = tracker.cold_start(frame_dets)
            assert np.array_equal(got.rotation, best.rotation), t
            assert np.array_equal(got.translation, best.translation), t
        assert ambiguous > len(dets) // 2

    def test_cold_start_ignores_a_degenerate_detection(self):
        # the degenerate detection takes the place of a dropped one, so its
        # garbage corners would otherwise weigh on every proposal's cost
        tracker, dets, _, _ = self._frame_setup(51, noise=0.5)
        kept = [d for d in dets if (d.cam, d.marker) != (1, 2)]
        line = np.array([[300.0, 200.0], [310.0, 210.0], [320.0, 220.0], [330.0, 230.0]])
        with_bad = [Detection(0, 1, 2, line)] + kept
        plain = tracker.cold_start(kept)
        got = tracker.cold_start(with_bad)
        assert np.array_equal(got.rotation, plain.rotation)
        assert np.array_equal(got.translation, plain.translation)

    def test_cold_start_without_usable_detection_raises(self):
        tracker, dets, _, _ = self._frame_setup(50)
        line = np.array([[300.0, 200.0], [310.0, 210.0], [320.0, 220.0], [330.0, 230.0]])
        degenerate = [Detection(d.t, d.cam, d.marker, line) for d in dets]
        with pytest.raises(NoValidPose):
            tracker.cold_start(degenerate)
        with pytest.raises(NoValidPose):
            tracker.solve(degenerate)


class TestViewSetCache:
    """FrameTracker keeps the arrays of the last frame's ordered (cam,
    marker) views; every frame solves as it would on a fresh tracker."""

    INTR = TestPerCameraIntrinsics.INTR

    def _scene(self):
        rng = np.random.default_rng(71)
        cams, markers, frames, _, _, template = _make_scene(rng, n_cams=3, n_markers=3, n_frames=4)
        dets = _observe(cams, markers, frames, self.INTR, template, rng, noise=0.3)
        by_frame = {t: [d for d in dets if d.t == t] for t in frames}
        return cams, markers, frames, by_frame, template

    def _tracker(self, cams, markers, template):
        return FrameTracker(cams, markers, self.INTR, template)

    @staticmethod
    def _assert_same_arrays(got, expected):
        # every field; the arrays of the cold start's rows once both hold them
        for name, a, b in zip(FrameArrays._fields, got, expected):
            if name == "cold":
                a, b = (a[0], b[0]) if a and b else ((), ())
            else:
                a, b = [a], [b]
            for x, z in zip(a, b):
                assert x.dtype == z.dtype and x.shape == z.shape, name
                assert x.tobytes() == z.tobytes(), name

    def test_view_sets_a_b_a_a_match_fresh_trackers(self):
        cams, markers, frames, by_frame, template = self._scene()
        # A: every view in key order; B: the same views in reverse order
        views = [by_frame[0], by_frame[1][::-1], by_frame[2], by_frame[3]]
        tracker = self._tracker(cams, markers, template)
        held = []
        for t, dets in enumerate(views):
            got = tracker._frame_arrays(dets)
            fresh = self._tracker(cams, markers, template)
            expected = fresh._frame_arrays(dets)
            self._assert_same_arrays(got, expected)
            x = _twist(_perturb(frames[t], np.random.default_rng(t), 1.0, 0.01))
            got_system = _FrameSystem(got).system(x)
            expected_system = _FrameSystem(expected).system(x)
            assert got_system.residuals.tobytes() == expected_system.residuals.tobytes()
            assert got_system.jacobian.tobytes() == expected_system.jacobian.tobytes()
            cold = list(got.cold)  # the rows held before this frame's cold start
            pose, expected_pose = tracker.cold_start(dets, got), fresh.cold_start(dets, expected)
            assert pose.as_matrix().tobytes() == expected_pose.as_matrix().tobytes()
            assert len(got.cold) == len(expected.cold) == 1
            self._assert_same_arrays(got, expected)
            held.append((got, cold))
        # B reversed A's order: its record, rows and all, is its own
        assert held[1][1] == [] and held[2][1] == []
        # frames 2 and 3 show A again: only obs is new, and frame 3's cold
        # start took the rows that frame 2's formed
        (a2, _), (a3, cold3) = held[2], held[3]
        assert a3.y is a2.y and a3.k is a2.k and a3.y8 is a2.y8 and a3.cold is a2.cold
        assert a3.obs is not a2.obs
        assert len(a3.cold) == 1 and a3.cold[0] is cold3[0]

    def test_mixed_frames_rejected_with_the_held_views(self):
        cams, markers, _, by_frame, template = self._scene()
        tracker = self._tracker(cams, markers, template)
        tracker._frame_arrays(by_frame[0])
        # frame 0's views in frame 0's order, the last one from frame 1
        mixed = by_frame[0][:-1] + by_frame[1][-1:]
        assert [(d.cam, d.marker) for d in mixed] == [(d.cam, d.marker) for d in by_frame[0]]
        with pytest.raises(ValidationError, match=r"frames \[0, 1\]"):
            tracker.solve(mixed, warm=RigidTransform.identity())

    @pytest.mark.parametrize("case", ["duplicate pair", "unknown marker", "missing intrinsics"])
    def test_bad_view_set_raises_on_every_call(self, case):
        cams, markers, frames, by_frame, template = self._scene()
        good, bad = by_frame[0], list(by_frame[1])
        if case == "duplicate pair":
            bad.append(bad[0])
            error, match = ValidationError, "duplicate detection"
        elif case == "unknown marker":
            bad.append(Detection(1, 0, 77, bad[0].corners))
            error, match = ValidationError, r"marker ids \[77\]"
        else:
            # camera 9 is calibrated, but has no intrinsics
            cams = {**cams, 9: cams[2]}
            bad.append(Detection(1, 9, 0, bad[0].corners))
            error, match = MissingIntrinsics, "camera 9"
        warm = _perturb(frames[0], np.random.default_rng(5), 1.0, 0.01)
        expected, expected_rms = self._tracker(cams, markers, template).solve(good, warm=warm)
        tracker = self._tracker(cams, markers, template)
        for _ in range(2):
            with pytest.raises(error, match=match):
                tracker.solve(bad, warm=frames[1])
        # after the failures the good frame solves as on a fresh tracker, and
        # the bad frame still fails after it, twice
        for _ in range(2):
            pose, rms = tracker.solve(good, warm=warm)
            assert pose.as_matrix().tobytes() == expected.as_matrix().tobytes()
            assert rms == expected_rms
            for _ in range(2):
                with pytest.raises(error, match=match):
                    tracker.solve(bad, warm=frames[1])


def _cold_start_oracle(cams, markers, intr, template, dets):
    """The cold start built from PoseStacks: G = C T M^-1 composed over the
    gathered camera, planar and marker rows of the usable detections in key
    order, every proposal scored against the observed corners and the
    intrinsics tiled once per proposal, and the unusable detections' columns
    gathered out of the residuals."""
    arrays = FrameTracker(cams, markers, intr, template)._frame_arrays(dets)
    poses = planar_poses(arrays.obs, arrays.k, template)
    usable = poses.status == POSE_OK
    flags = usable.tolist()
    rows = [i for _, i in sorted((d.key, i) for i, d in enumerate(dets)) if flags[i]]
    if not rows:
        raise NoValidPose("no usable cold-start candidate in frame")
    views = np.repeat(rows, 2)
    proposals = compose_many(
        compose_many(
            PoseStack(arrays.rc[views], arrays.tc[views]),
            PoseStack(poses.rotations[rows], poses.translations[rows]),
        ),
        invert_many(IndexedPoses.of(markers).poses[arrays.markers[views]]),
    )
    n = len(proposals)
    rg, tg = proposals.rotations[:, None], proposals.translations[:, None]
    a = np.matmul(arrays.y, rg.swapaxes(-1, -2)) + tg[..., None, :] - arrays.tc[..., None, :]
    proj = geometry.project_arrays(np.matmul(a, arrays.rc).reshape(-1, 3), np.tile(arrays.k, n))
    r = proj.pix - np.tile(arrays.obs, (n, 1))
    r[~proj.front] = BEHIND_RESIDUAL
    r = r.reshape(n, len(dets), 8)[:, usable].reshape(n, -1)
    cost = np.einsum("pi,pi->p", r, r)
    finite = np.isfinite(cost)
    if not finite.any():
        raise NoValidPose("no finite-cost cold-start candidate in frame")
    return proposals[int(np.argmin(np.where(finite, cost, np.inf)))]


_LINE = np.array([[300.0, 200.0], [310.0, 210.0], [320.0, 220.0], [330.0, 230.0]])


class TestColdStartOracle:
    """cold_start gives the PoseStack cold start's pose bit for bit."""

    def _scene(self, seed, dist=None, n_frames=1):
        rng = np.random.default_rng(seed)
        cams, markers, frames, dets, intr, template = _make_scene(
            rng, n_cams=5, n_markers=4, n_frames=n_frames, noise=0.4, dist=dist
        )
        by_frame = {t: [d for d in dets if d.t == t] for t in frames}
        return cams, markers, intr, template, by_frame, rng

    @staticmethod
    def _check(tracker, calibration, dets):
        got = tracker.cold_start(dets)
        expected = _cold_start_oracle(*calibration, dets)
        assert np.array_equal(got.rotation, expected.rotation)
        assert np.array_equal(got.translation, expected.translation)

    @pytest.mark.parametrize("seed", [61, 62, 63])
    @pytest.mark.parametrize("dist", [None, DIST])
    def test_every_detection_usable(self, seed, dist):
        cams, markers, intr, template, by_frame, _ = self._scene(seed, dist)
        calibration = (cams, markers, intr, template)
        self._check(FrameTracker(*calibration), calibration, by_frame[0])

    def test_ambiguous_frames(self):
        # criterion-5 geometry: most detections keep both planar poses
        spec = SceneSpec(
            n_cameras=5, circle_radius=0.20, camera_height=2.0,
            intrinsics=CameraIntrinsics(
                fx=1800.0, fy=1800.0, cx=640.0, cy=480.0, width=1280, height=960
            ),
            object="flat-grid", marker_side=0.06, n_frames=4, trajectory="orbit",
            noise_sigma=0.5, ambiguity_stress=True, seed=5,
        )
        gt, dets, intr = generate(spec)
        calibration = (gt.cams_gt.poses, gt.markers_gt.poses, intr, MarkerTemplate(spec.marker_side))
        tracker = FrameTracker(*calibration)
        for t in range(spec.n_frames):
            self._check(tracker, calibration, [d for d in dets if d.t == t])

    @pytest.mark.parametrize("dist", [None, DIST])
    def test_one_degenerate_quad(self, dist):
        cams, markers, intr, template, by_frame, _ = self._scene(64, dist)
        dets = list(by_frame[0])
        dets[3] = Detection(0, dets[3].cam, dets[3].marker, _LINE)
        calibration = (cams, markers, intr, template)
        self._check(FrameTracker(*calibration), calibration, dets)

    def test_one_detection_behind_the_camera(self):
        # camera 9 sits on camera 2 but looks the other way, so the object
        # is behind it; its detection has camera 2's corners of marker 1
        cams, markers, intr, template, by_frame, _ = self._scene(65)
        turn = RigidTransform(rotation_from_rvec(np.array([0.0, math.pi, 0.0])), np.zeros(3))
        cams = {**cams, 9: compose(cams[2], turn)}
        intr = {**intr, 9: intr[2]}
        seen = next(d for d in by_frame[0] if (d.cam, d.marker) == (2, 1))
        dets = [*by_frame[0], Detection(0, 9, 1, seen.corners)]
        calibration = (cams, markers, intr, template)
        tracker = FrameTracker(*calibration)
        arrays = tracker._frame_arrays(dets)
        truth_pose = tracker.solve(dets)[0]
        r = optimizer._corner_residuals(
            arrays.y, truth_pose.rotation[None], truth_pose.translation[None],
            arrays.rc, arrays.tc, arrays.obs, arrays.k,
        )[0]
        assert (r.reshape(len(dets), 8)[-1] == BEHIND_RESIDUAL).all()
        self._check(tracker, calibration, dets)

    def test_shuffled_detection_order(self):
        cams, markers, intr, template, by_frame, rng = self._scene(66)
        calibration = (cams, markers, intr, template)
        tracker = FrameTracker(*calibration)
        for _ in range(3):
            dets = list(by_frame[0])
            rng.shuffle(dets)
            self._check(tracker, calibration, dets)

    @pytest.mark.parametrize("dist", [None, DIST])
    def test_repeated_and_changed_view_sets(self, dist):
        # frames 0-2 show every view in key order (A), frame 3 drops two (B);
        # then A again, and A with a degenerate quad, which takes the usable
        # rows of those held for A
        cams, markers, intr, template, by_frame, _ = self._scene(67, dist, n_frames=4)
        calibration = (cams, markers, intr, template)
        tracker = FrameTracker(*calibration)
        b = by_frame[3][1:-1]
        degenerate = list(by_frame[2])
        degenerate[5] = Detection(2, degenerate[5].cam, degenerate[5].marker, _LINE)
        formed = []
        for dets in (by_frame[0], by_frame[1], b, by_frame[2], degenerate, by_frame[0]):
            self._check(tracker, calibration, dets)
            cold = tracker._view_set[1][-1]
            assert len(cold) == 1
            formed.append(cold[0])
        # the rows are formed once per view set: A, B, then A again
        a, b, a_again = formed[0], formed[2], formed[3]
        assert formed[1] is a and formed[4] is a_again and formed[5] is a_again
        assert len({id(a), id(b), id(a_again)}) == 3

    @pytest.mark.parametrize("dist", [None, DIST])
    def test_one_view_set_over_four_frames(self, dist):
        # one view set whose usable detections change from frame to frame:
        # one degenerate quad, then none, then another one, then all
        cams, markers, intr, template, by_frame, _ = self._scene(68, dist, n_frames=4)
        calibration = (cams, markers, intr, template)
        views = [(d.cam, d.marker) for d in by_frame[0]]
        frames = []
        for t in range(4):
            dets = {(d.cam, d.marker): d for d in by_frame[t]}
            frames.append([dets[v] for v in views])
        frames[0][2] = Detection(0, *views[2], _LINE)
        frames[2][4] = Detection(2, *views[4], _LINE)
        frames[3] = [Detection(3, *v, _LINE) for v in views]
        tracker = FrameTracker(*calibration)
        for dets in frames[:3]:
            self._check(tracker, calibration, dets)
        cold = tracker._view_set[1][-1]
        with pytest.raises(NoValidPose, match="no usable"):
            tracker.cold_start(frames[3])
        with pytest.raises(NoValidPose, match="no usable"):
            _cold_start_oracle(*calibration, frames[3])
        # the first frame formed the rows of all proposals; the rest took them
        assert tracker._view_set[1][-1] is cold and len(cold) == 1
        assert len(cold[0][0]) == 2 * len(views)


class TestTrackFrameMemo:
    """track_frame reuses its tracker while the calibration is the same, and
    every call returns what a new FrameTracker's solve returns."""

    @pytest.fixture(autouse=True)
    def _no_memo(self, monkeypatch):
        monkeypatch.setattr(optimizer, "_last_tracker", None)

    def _scene(self, seed=81):
        rng = np.random.default_rng(seed)
        cams, markers, frames, dets, intr, template = _make_scene(
            rng, n_cams=5, n_markers=4, n_frames=8, noise=0.3
        )
        by_frame = {t: [d for d in dets if d.t == t] for t in frames}
        return cams, markers, intr, template, by_frame, rng

    @staticmethod
    def _solve_both(dets, cams, markers, intr, template, warm=None):
        got, got_rms = track_frame(dets, cams, markers, intr, template, warm=warm)
        expected, rms = FrameTracker(cams, markers, intr, template).solve(dets, warm=warm)
        assert got.as_matrix().tobytes() == expected.as_matrix().tobytes()
        assert got_rms == rms
        return got

    def test_changing_view_sets_match_new_trackers(self):
        cams, markers, intr, template, by_frame, rng = self._scene()
        for t, dets in sorted(by_frame.items()):
            # frames 0-1 every view; later frames drop some and shuffle
            dets = list(dets)
            if t >= 2:
                keep = rng.random(len(dets)) < 0.7
                dets = [d for d, k in zip(dets, keep) if k]
            if t % 3 == 2:
                rng.shuffle(dets)
            for _ in range(2):
                self._solve_both(dets, cams, markers, intr, template)
        tracker = optimizer._last_tracker[4]
        track_frame(by_frame[0], cams, markers, intr, template)
        assert optimizer._last_tracker[4] is tracker

    @pytest.mark.parametrize("change", ["pose replaced in place", "new pose dict",
                                        "new intrinsics dict", "marker side"])
    def test_changed_calibration_gives_the_new_trackers_result(self, change):
        cams, markers, intr, template, by_frame, rng = self._scene()
        dets = by_frame[0]
        before = self._solve_both(dets, cams, markers, intr, template)
        tracker = optimizer._last_tracker[4]
        moved = _perturb(markers[2], rng, 2.0, 0.005)
        if change == "pose replaced in place":
            markers[2] = moved
        elif change == "new pose dict":
            markers = {**markers, 2: moved}
        elif change == "new intrinsics dict":
            intr = {c: dataclasses.replace(i, fx=i.fx * 1.01) for c, i in intr.items()}
        else:
            template = MarkerTemplate(template.side * 1.01)
        after = self._solve_both(dets, cams, markers, intr, template)
        assert optimizer._last_tracker[4] is not tracker
        assert after.as_matrix().tobytes() != before.as_matrix().tobytes()

    def test_equal_side_and_entries_reuse_the_tracker(self):
        cams, markers, intr, template, by_frame, _ = self._scene()
        self._solve_both(by_frame[0], cams, markers, intr, template)
        tracker = optimizer._last_tracker[4]
        self._solve_both(by_frame[1], dict(cams), dict(markers), dict(intr),
                         MarkerTemplate(template.side))
        assert optimizer._last_tracker[4] is tracker

    def test_alternating_calibrations(self):
        cams, markers, intr, template, by_frame, rng = self._scene()
        other = {c: (p if c == 0 else _perturb(p, rng, 1.0, 0.003)) for c, p in cams.items()}
        results = {}
        for _ in range(2):
            for name, calibration in (("a", cams), ("b", other)):
                for t in (0, 1):
                    pose = self._solve_both(by_frame[t], calibration, markers, intr, template)
                    results.setdefault((name, t), pose.as_matrix().tobytes())
                    assert results[(name, t)] == pose.as_matrix().tobytes()
        assert results[("a", 0)] != results[("b", 0)]

    def test_concurrent_calls_match_new_trackers(self):
        # four threads on two cores, switching every microsecond, over two
        # calibrations and view sets that change from call to call
        cams, markers, intr, template, by_frame, rng = self._scene()
        other = {c: (p if c == 0 else _perturb(p, rng, 1.0, 0.003)) for c, p in cams.items()}
        calls = []
        for t, dets in sorted(by_frame.items()):
            for calibration in (cams, other):
                calls += [(dets, calibration), (dets[t % 3 :], calibration)]
        expected = []
        for dets, calibration in calls:
            pose, rms = FrameTracker(calibration, markers, intr, template).solve(dets)
            expected.append((pose.as_matrix().tobytes(), rms))

        def solve(call):
            pose, rms = track_frame(call[0], call[1], markers, intr, template)
            return pose.as_matrix().tobytes(), rms

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                got = list(pool.map(solve, calls * 4, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == expected * 4

    def test_bad_input_raises_with_a_held_tracker(self):
        cams, markers, intr, template, by_frame, _ = self._scene()
        dets = by_frame[0]
        track_frame(dets, cams, markers, intr, template)
        cam = dets[-1].cam
        no_intr = {c: i for c, i in intr.items() if c != cam}
        for _ in range(2):
            with pytest.raises(MissingIntrinsics) as e:
                track_frame(dets, cams, markers, no_intr, template)
            assert e.value.cam == cam
            with pytest.raises(ValidationError, match=r"camera ids \[77\]"):
                track_frame([*dets, Detection(0, 77, 0, dets[0].corners)],
                            cams, markers, intr, template)
        self._solve_both(dets, cams, markers, intr, template)
