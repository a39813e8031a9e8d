"""Tests for rigid transforms, Rodrigues vectors and the projection model."""

from __future__ import annotations

import math

import numpy as np
import pytest

from markercal.errors import PointBehindCamera
from markercal.geometry import (
    CameraIntrinsics,
    IndexedPoses,
    MarkerTemplate,
    PoseStack,
    RigidTransform,
    compose,
    compose_many,
    cross,
    invert,
    invert_many,
    project,
    project_arrays,
    projection_jacobian,
    rotation_angle,
    rotation_from_rvec,
    rotation_jacobian_factor,
    rotation_jacobian_factors,
    rotation_to_quaternion,
    rotations_from_rvecs,
    rvec_from_rotation,
    undistort_arrays,
)

# ---------------------------------------------------------------------------
# Independent oracles. Written against the textbook formulas, not the package
# implementation, so agreement is evidence and not tautology.
# ---------------------------------------------------------------------------


def _quat_exp_rotation(rvec) -> np.ndarray:
    """Rotation matrix via the quaternion exponential q = (cos t/2, sin t/2 * n)."""
    v = np.asarray(rvec, dtype=float)
    theta = float(np.linalg.norm(v))
    if theta < 1e-14:
        w, x, y, z = 1.0, 0.0, 0.0, 0.0
    else:
        n = v / theta
        w = math.cos(theta / 2.0)
        x, y, z = math.sin(theta / 2.0) * n
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _k(intr: CameraIntrinsics) -> np.ndarray:
    """The (9,) intrinsics array of one camera: fx, fy, cx, cy, then dist."""
    return np.array([intr.fx, intr.fy, intr.cx, intr.cy, *intr.dist])


def _pinhole_oracle(point, fx, fy, cx, cy, dist):
    """Scalar Brown-Conrady projection, coded independently."""
    px, py, pz = point
    a, b = px / pz, py / pz
    k1, k2, p1, p2, k3 = dist
    r2 = a * a + b * b
    rad = 1.0 + k1 * r2 + k2 * r2 ** 2 + k3 * r2 ** 3
    xd = a * rad + 2 * p1 * a * b + p2 * (r2 + 2 * a * a)
    yd = b * rad + p1 * (r2 + 2 * b * b) + 2 * p2 * a * b
    return np.array([fx * xd + cx, fy * yd + cy])


def _random_transform(rng) -> RigidTransform:
    rvec = rng.uniform(-1, 1, 3)
    rvec *= rng.uniform(0, math.pi - 1e-3) / np.linalg.norm(rvec)
    return RigidTransform(rotation_from_rvec(rvec), rng.uniform(-2, 2, 3))


def _rot_z(deg: float) -> np.ndarray:
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _skew(p):
    return np.array(
        [[0.0, -p[2], p[1]], [p[2], 0.0, -p[0]], [-p[1], p[0], 0.0]]
    )


DEFAULT_INTR = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0)


class TestRigidTransform:
    def test_identity(self):
        t = RigidTransform.identity()
        np.testing.assert_array_equal(t.rotation, np.eye(3))
        np.testing.assert_array_equal(t.translation, np.zeros(3))

    def test_invariants_on_random_transforms(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            t = _random_transform(rng)
            np.testing.assert_allclose(t.rotation.T @ t.rotation, np.eye(3), atol=1e-9)
            assert abs(np.linalg.det(t.rotation) - 1.0) < 1e-9
            back = compose(t, invert(t))
            np.testing.assert_allclose(back.as_matrix(), np.eye(4), atol=1e-9)

    def test_apply_batch_matches_single(self):
        rng = np.random.default_rng(3)
        t = _random_transform(rng)
        pts = rng.uniform(-1, 1, (10, 3))
        batch = t.apply(pts)
        for i in range(10):
            np.testing.assert_allclose(batch[i], t.apply(pts[i]))


class TestCompose:
    def test_identity_neutral(self):
        rng = np.random.default_rng(5)
        t = _random_transform(rng)
        for combined in (compose(RigidTransform.identity(), t), compose(t, RigidTransform.identity())):
            np.testing.assert_allclose(combined.as_matrix(), t.as_matrix(), atol=1e-15)

    def test_rotation_group(self):
        quarter = RigidTransform(_rot_z(90.0), np.zeros(3))
        half = compose(quarter, quarter)
        np.testing.assert_allclose(half.rotation, _rot_z(180.0), atol=1e-12)

    def test_associative(self):
        rng = np.random.default_rng(13)
        a, b, c = (_random_transform(rng) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        np.testing.assert_allclose(left.as_matrix(), right.as_matrix(), atol=1e-9)

    def test_applies_right_operand_first(self):
        rng = np.random.default_rng(17)
        a, b = _random_transform(rng), _random_transform(rng)
        p = rng.uniform(-1, 1, 3)
        np.testing.assert_allclose(compose(a, b).apply(p), a.apply(b.apply(p)), atol=1e-12)


class TestInvert:
    def test_identity(self):
        t = invert(RigidTransform.identity())
        np.testing.assert_array_equal(t.as_matrix(), np.eye(4))

    def test_pure_translation(self):
        t = invert(RigidTransform(np.eye(3), [1.0, 2.0, 3.0]))
        np.testing.assert_allclose(t.translation, [-1.0, -2.0, -3.0])
        np.testing.assert_array_equal(t.rotation, np.eye(3))

    def test_involution(self):
        rng = np.random.default_rng(19)
        t = _random_transform(rng)
        np.testing.assert_allclose(invert(invert(t)).as_matrix(), t.as_matrix(), atol=1e-12)


class TestPoseStack:
    def test_rows_and_indexing(self):
        rng = np.random.default_rng(23)
        transforms = [_random_transform(rng) for _ in range(5)]
        stack = PoseStack.of(transforms)
        assert len(stack) == 5
        assert stack.rotations.shape == (5, 3, 3) and stack.translations.shape == (5, 3)
        row = stack[3]
        assert isinstance(row, RigidTransform)
        np.testing.assert_array_equal(row.as_matrix(), transforms[3].as_matrix())
        sub = stack[np.array([4, 0])]
        assert isinstance(sub, PoseStack) and len(sub) == 2
        np.testing.assert_array_equal(sub.translations[0], transforms[4].translation)
        assert not stack.rotations.flags.writeable
        empty = PoseStack.of(())
        assert len(empty) == 0
        assert len(compose_many(empty, invert_many(empty))) == 0

    def test_matches_matrix_products_bit_for_bit(self):
        # rows against the 3x3 products written out with @
        rng = np.random.default_rng(29)
        a = [_random_transform(rng) for _ in range(200)]
        b = [_random_transform(rng) for _ in range(200)]
        ab = compose_many(PoseStack.of(a), PoseStack.of(b))
        inv = invert_many(PoseStack.of(b))
        for i in range(200):
            ra, rb = a[i].rotation, b[i].rotation
            np.testing.assert_array_equal(ab.rotations[i], ra @ rb)
            np.testing.assert_array_equal(
                ab.translations[i], ra @ b[i].translation + a[i].translation
            )
            np.testing.assert_array_equal(inv.rotations[i], rb.T)
            np.testing.assert_array_equal(inv.translations[i], -(rb.T @ b[i].translation))

    def test_long_chains_stay_orthonormal(self):
        # composition does not repair rotations, so the program relies on
        # products and inverses of rotations staying on SO(3): 64 chains of
        # 1000 compose_many/invert_many steps
        rng = np.random.default_rng(41)
        acc = PoseStack(rotations_from_rvecs(rng.uniform(-3, 3, (64, 3))), np.zeros((64, 3)))
        for _ in range(1000):
            step = PoseStack(rotations_from_rvecs(rng.uniform(-3, 3, (64, 3))),
                             rng.uniform(-1, 1, (64, 3)))
            acc = invert_many(compose_many(acc, step))
        r = acc.rotations
        assert np.abs(np.swapaxes(r, -1, -2) @ r - np.eye(3)).max() < 1e-12
        assert np.all(np.linalg.det(r) > 0)

    def test_results_do_not_depend_on_the_input_layout(self):
        # stacked matmul rounds column-major 3x3 blocks differently from
        # row-major ones, so a stack that kept the layout it was given (an
        # inverse's swapped axes, say) would pass that layout into the bits
        # of every product formed from it
        rng = np.random.default_rng(43)
        rot = rotations_from_rvecs(rng.uniform(-3, 3, (2000, 3)))
        tvec = rng.uniform(-1, 1, (2000, 3))
        col_major = np.swapaxes(np.swapaxes(rot, -1, -2).copy(), -1, -2)
        f, c = PoseStack(col_major, tvec), PoseStack(rot, tvec)
        a = PoseStack(rotations_from_rvecs(rng.uniform(-3, 3, (2000, 3))),
                      rng.uniform(-1, 1, (2000, 3)))
        for x, y in ((compose_many(f, a), compose_many(c, a)), (invert_many(f), invert_many(c))):
            assert x.rotations.flags.c_contiguous
            np.testing.assert_array_equal(x.rotations, y.rotations)
            np.testing.assert_array_equal(x.translations, y.translations)


class TestCross:
    @pytest.mark.parametrize("shape", [(9, 3), (9, 2, 3), (3000, 2, 3), (50000, 3)])
    def test_bit_equal_to_numpy(self, shape):
        rng = np.random.default_rng(43)
        u, v = rng.normal(size=shape), rng.normal(size=shape)
        np.testing.assert_array_equal(cross(u, v), np.cross(u, v))

    def test_broadcast_one_row_against_many(self):
        rng = np.random.default_rng(44)
        u, v = rng.normal(size=(1, 3)), rng.normal(size=(9, 3))
        for got, want in ((cross(u, v), np.cross(u, v)), (cross(v, u), np.cross(v, u))):
            assert got.shape == (9, 3)
            np.testing.assert_array_equal(got, want)

    def test_non_contiguous_views(self):
        # every other row of a (9,16,3) stack, and its reversed twin
        rng = np.random.default_rng(45)
        base = rng.normal(size=(9, 16, 3))
        u, v = base[:, ::2], base[:, 1::2][:, ::-1]
        assert u.shape == (9, 8, 3) and not u.flags.c_contiguous
        np.testing.assert_array_equal(cross(u, v), np.cross(u, v))

    @pytest.mark.parametrize("n", [1, 8, 3000])
    def test_column_slices_of_rotation_stacks(self, n):
        # the columns of (N,2,3,3) two-solution stacks, and the rolled
        # column pairs of the polar step's cofactors
        rng = np.random.default_rng(46)
        m = rng.normal(size=(n, 2, 3, 3))
        np.testing.assert_array_equal(cross(m[..., 0], m[..., 1]), np.cross(m[..., 0], m[..., 1]))
        rows = np.swapaxes(m, -1, -2)
        u, v = rows[..., [1, 2, 0], :], rows[..., [2, 0, 1], :]
        np.testing.assert_array_equal(cross(u, v), np.cross(u, v))


# rotation angles on each side of every branch edge of the Rodrigues
# routines: theta = 1e-8, theta^2 = 1e-6 and pi
BRANCH_EDGE_ANGLES = [0.0, 1e-9, 1e-8 * (1 - 1e-6), 1e-8 * (1 + 1e-6), 1e-3 * (1 - 1e-6),
                      1e-3 * (1 + 1e-6), 0.3, math.pi - 1e-3, math.pi, 4.0]


class TestTwist:
    def test_zero_twist_is_identity(self):
        np.testing.assert_allclose(rotation_from_rvec(np.zeros(3)), np.eye(3), atol=1e-15)

    def test_half_turn_about_x(self):
        rot = rotation_from_rvec([math.pi, 0.0, 0.0])
        np.testing.assert_allclose(rot, np.diag([1.0, -1.0, -1.0]), atol=1e-12)

    def test_round_trip_1000_random_twists(self):
        # oracle: the quaternion exponential, coded independently above
        rng = np.random.default_rng(23)
        for _ in range(1000):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            rvec = axis * rng.uniform(1e-8, math.pi - 1e-6)
            rot = rotation_from_rvec(rvec)
            np.testing.assert_allclose(rot, _quat_exp_rotation(rvec), atol=1e-12)
            np.testing.assert_allclose(rvec_from_rotation(rot), rvec, atol=1e-9)

    def test_round_trip_preserves_rotation_action(self):
        rng = np.random.default_rng(29)
        t = _random_transform(rng)
        again = rotation_from_rvec(rvec_from_rotation(t.rotation))
        vecs = rng.normal(size=(100, 3))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        np.testing.assert_allclose(vecs @ again.T, vecs @ t.rotation.T, atol=1e-9)

    def test_angle_pi_sign_canonicalization(self):
        # first nonzero rvec component comes out positive at a half turn,
        # whichever sign of the axis the rotation was made from
        for axis in ([1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [-0.6, 0.8, 0.0],
                     [-0.36, 0.48, 0.8]):
            axis = np.asarray(axis) * math.pi
            for r in (_quat_exp_rotation(axis), rotation_from_rvec(axis), rotation_from_rvec(-axis)):
                rvec = rvec_from_rotation(r)
                assert abs(np.linalg.norm(rvec) - math.pi) < 1e-9
                nz = rvec[np.abs(rvec) > 1e-12]
                assert nz[0] > 0
                np.testing.assert_allclose(rotation_from_rvec(rvec), r, atol=1e-9)

    def test_round_trip_at_branch_edges(self):
        rng = np.random.default_rng(37)
        for angle in BRANCH_EDGE_ANGLES:
            axis = rng.normal(size=3)
            rvec = axis / np.linalg.norm(axis) * angle
            got = rvec_from_rotation(rotation_from_rvec(rvec))
            if angle < math.pi:
                np.testing.assert_allclose(got, rvec, rtol=0, atol=1e-12)
            else:  # the same rotation, by an angle in [0, pi]
                assert np.linalg.norm(got) <= math.pi + 1e-12
                np.testing.assert_allclose(
                    rotation_from_rvec(got), rotation_from_rvec(rvec), rtol=0, atol=1e-12
                )

    def test_tiny_angles(self):
        for scale in (1e-12, 1e-9, 1e-6):
            rvec = np.array([0.3, -0.4, 0.5]) * scale
            r = rotation_from_rvec(rvec)
            np.testing.assert_allclose(r, _quat_exp_rotation(rvec), atol=1e-15)
            np.testing.assert_allclose(rvec_from_rotation(r), rvec, atol=1e-15)


class TestQuaternion:
    def test_known_rotations(self):
        np.testing.assert_allclose(
            rotation_to_quaternion(np.eye(3)), [1.0, 0.0, 0.0, 0.0], atol=1e-12
        )
        half_x = rotation_from_rvec([math.pi / 2, 0.0, 0.0])
        s = math.sqrt(0.5)
        np.testing.assert_allclose(rotation_to_quaternion(half_x), [s, s, 0.0, 0.0], atol=1e-12)

    def test_scalar_part_nonnegative(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            q = rotation_to_quaternion(_random_transform(rng).rotation)
            assert q[0] >= 0.0
            assert abs(np.linalg.norm(q) - 1.0) < 1e-12

    def test_rotation_angle(self):
        assert rotation_angle(np.eye(3)) == 0.0
        assert abs(rotation_angle(_rot_z(90.0)) - math.pi / 2) < 1e-12
        assert abs(rotation_angle(np.diag([1.0, -1.0, -1.0])) - math.pi) < 1e-12


class TestIntrinsics:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=-1.0, fy=600.0, cx=320.0, cy=240.0)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=0)

    @pytest.mark.parametrize("bad", [
        {"fx": float("nan")}, {"fy": float("inf")}, {"cx": float("nan")},
        {"cy": -float("inf")}, {"dist": [0.0, 0.0, float("nan"), 0.0, 0.0]},
    ])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CameraIntrinsics(**{"fx": 600.0, "fy": 600.0, "cx": 320.0, "cy": 240.0, **bad})

    def test_pre_undistorted_forces_zero_dist(self):
        intr = CameraIntrinsics(
            fx=600.0, fy=600.0, cx=320.0, cy=240.0,
            dist=[-0.1, 0.01, 0.001, -0.001, 0.0], pre_undistorted=True,
        )
        np.testing.assert_array_equal(intr.dist, np.zeros(5))


class TestMarkerTemplate:
    def test_corner_layout(self):
        tpl = MarkerTemplate(side=0.04)
        expected = np.array(
            [[0.02, -0.02, 0.0], [0.02, 0.02, 0.0], [-0.02, 0.02, 0.0], [-0.02, -0.02, 0.0]]
        )
        np.testing.assert_array_equal(tpl.corners, expected)
        np.testing.assert_array_equal(tpl.corners[:, 2], np.zeros(4))
        np.testing.assert_allclose(tpl.corners.mean(axis=0), np.zeros(3), atol=1e-18)

    def test_rejects_nonpositive_side(self):
        for side in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="marker side"):
                MarkerTemplate(side=side)


class TestProject:
    def test_principal_point(self):
        np.testing.assert_allclose(project([0.0, 0.0, 1.0], DEFAULT_INTR), [320.0, 240.0])

    def test_unit_offset(self):
        np.testing.assert_allclose(project([0.1, 0.0, 1.0], DEFAULT_INTR), [380.0, 240.0])

    def test_distortion_matches_independent_oracle(self):
        intr = CameraIntrinsics(
            fx=610.0, fy=605.0, cx=320.0, cy=240.0, dist=[-0.1, 0.0, 0.0, 0.0, 0.0]
        )
        point = [0.1, 0.05, 0.8]
        got = project(point, intr)
        oracle = _pinhole_oracle(point, 610.0, 605.0, 320.0, 240.0, intr.dist)
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-12)
        # frozen oracle output, exact in binary64
        np.testing.assert_array_equal(got, [396.10107421875, 277.7386474609375])

    def test_full_distortion_vector_matches_oracle(self):
        rng = np.random.default_rng(37)
        intr = CameraIntrinsics(
            fx=640.0, fy=635.0, cx=310.0, cy=250.0,
            dist=[-0.21, 0.07, 0.0013, -0.0008, 0.02],
        )
        for _ in range(50):
            p = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), rng.uniform(0.5, 3.0)])
            np.testing.assert_allclose(
                project(p, intr),
                _pinhole_oracle(p, intr.fx, intr.fy, intr.cx, intr.cy, intr.dist),
                atol=1e-10,
            )

    def test_behind_camera_raises(self):
        for z in (0.0, -1.0, 1e-10):
            with pytest.raises(PointBehindCamera):
                project([0.0, 0.0, z], DEFAULT_INTR)
        with pytest.raises(PointBehindCamera):
            project([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], DEFAULT_INTR)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(41)
        pts = np.column_stack(
            [rng.uniform(-0.5, 0.5, 8), rng.uniform(-0.5, 0.5, 8), rng.uniform(0.5, 2.0, 8)]
        )
        batch = project(pts, DEFAULT_INTR)
        for i in range(8):
            np.testing.assert_allclose(batch[i], project(pts[i], DEFAULT_INTR))


class TestUndistort:
    def test_round_trip(self):
        rng = np.random.default_rng(43)
        intr = CameraIntrinsics(
            fx=600.0, fy=600.0, cx=320.0, cy=240.0,
            dist=[-0.2, 0.05, 0.001, -0.002, 0.01],
        )
        pts = np.column_stack(
            [rng.uniform(-0.3, 0.3, 20), rng.uniform(-0.3, 0.3, 20), np.ones(20)]
        )
        pix = project(pts, intr)
        normalized = undistort_arrays(pix[None], _k(intr)[:, None, None])
        np.testing.assert_allclose(normalized[0], pts[:, :2], atol=1e-10)

    def test_no_distortion_is_linear(self):
        normalized = undistort_arrays([[[380.0, 240.0]]], _k(DEFAULT_INTR)[:, None, None])
        np.testing.assert_allclose(normalized[0], [[0.1, 0.0]], atol=1e-15)


class TestProjectJacobian:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(47)
        intr = CameraIntrinsics(
            fx=610.0, fy=605.0, cx=320.0, cy=240.0,
            dist=[-0.15, 0.04, 0.001, -0.001, 0.005],
        )
        pts = np.column_stack(
            [rng.uniform(-0.4, 0.4, 10), rng.uniform(-0.4, 0.4, 10), rng.uniform(0.5, 2.5, 10)]
        )
        proj = project_arrays(pts, _k(intr))
        pix, front, jac = proj.pix, proj.front, projection_jacobian(proj)
        assert front.all()
        np.testing.assert_allclose(pix, project(pts, intr))
        h = 1e-6
        for i in range(len(pts)):
            fd = np.empty((2, 3))
            for axis in range(3):
                d = np.zeros(3)
                d[axis] = h
                fd[:, axis] = (project(pts[i] + d, intr) - project(pts[i] - d, intr)) / (2 * h)
            np.testing.assert_allclose(jac[i], fd, rtol=1e-4, atol=1e-6)


class TestRotationJacobianFactor:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(53)
        # spans the series branch (tiny angles) and the closed form up to near pi
        magnitudes = [1e-8, 1e-5, 5e-4, 2e-3, 0.3, 1.5, math.pi - 1e-3]
        for mag in magnitudes:
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            rvec = axis * mag
            p = rng.uniform(-1, 1, 3)
            rot = rotation_from_rvec(rvec)
            analytic = -rot @ _skew(p) @ rotation_jacobian_factor(rvec, rot)
            h = 1e-7
            fd = np.empty((3, 3))
            for axis_i in range(3):
                d = np.zeros(3)
                d[axis_i] = h
                fd[:, axis_i] = (
                    rotation_from_rvec(rvec + d) @ p - rotation_from_rvec(rvec - d) @ p
                ) / (2 * h)
            np.testing.assert_allclose(analytic, fd, rtol=2e-4, atol=1e-6)


class TestBatchedRotations:
    def test_match_one_vector_forms(self):
        # every branch, on each side of its edge: the Rodrigues series below
        # theta = 1e-8, the factor's series below theta^2 = 1e-6, and angles
        # up to and past pi; and a few angles between the edges
        rng = np.random.default_rng(59)
        axes = rng.normal(size=(16, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        angles = np.array(BRANCH_EDGE_ANGLES + [1e-5, 5e-4, 2e-3, 1.5])
        rvecs = (axes[None] * angles[:, None, None]).reshape(-1, 3)
        rots = rotations_from_rvecs(rvecs)
        factors = rotation_jacobian_factors(rvecs, rots)
        for v, rot, s in zip(rvecs, rots, factors):
            np.testing.assert_allclose(rotation_from_rvec(v), rot, rtol=0, atol=1e-15)
            np.testing.assert_allclose(rotation_jacobian_factor(v, rot), s, rtol=0, atol=1e-15)


class TestIndexedPoses:
    def test_rows_by_id_and_unknown_id(self):
        poses = {7: _random_transform(np.random.default_rng(61)), 2: RigidTransform.identity()}
        stacked = IndexedPoses.of(poses)
        rows = stacked.rows([7, 2, 7])
        for i, row in zip([7, 2, 7], rows):
            np.testing.assert_array_equal(stacked.poses[int(row)].as_matrix(), poses[i].as_matrix())
        assert len(stacked.rows([])) == 0
        with pytest.raises(KeyError):
            stacked.rows([2, 5])


class TestProjectMarkerCorner:
    def test_marker_one_meter_ahead(self):
        # a marker 1 m ahead, facing the camera with its +x to the right:
        # the template corners land bottom-right, top-right, top-left,
        # bottom-left (counter-clockwise in the image), so a detector that
        # reports top-left, top-right, bottom-right, bottom-left must be
        # re-indexed [2, 1, 0, 3]
        tpl = MarkerTemplate(side=0.04)
        facing = RigidTransform(np.diag([1.0, -1.0, -1.0]), [0.0, 0.0, 1.0])
        pix = project(facing.apply(tpl.corners), DEFAULT_INTR)
        np.testing.assert_allclose(
            pix, [[332.0, 252.0], [332.0, 228.0], [308.0, 228.0], [308.0, 252.0]]
        )
        top_left_first = np.array(
            [[308.0, 228.0], [332.0, 228.0], [332.0, 252.0], [308.0, 252.0]]
        )
        np.testing.assert_allclose(top_left_first[[2, 1, 0, 3]], pix)
