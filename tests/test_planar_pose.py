"""Tests for the two-solution planar pose estimator and candidate sets."""

from __future__ import annotations

import math

import numpy as np
import pytest

from markercal.geometry import (
    CameraIntrinsics,
    MarkerTemplate,
    PoseStack,
    RigidTransform,
    invert,
    compose,
    project,
    project_arrays,
    rotation_angle,
    rotation_from_rvec,
    rotations_from_rvecs,
    undistort_arrays,
)
from markercal import planar_pose
from markercal.errors import MissingIntrinsics
from markercal.planar_pose import (
    DEGENERATE_QUAD,
    NO_VALID_POSE,
    POSE_OK,
    CandidateSet,
    Detection,
    PlanarPoses,
    SINGLE_SOLUTION_RATIO,
    ambiguity_ratio,
    candidate_set,
    corner_arrays,
    planar_poses,
)

INTR = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0)
TPL = MarkerTemplate(side=0.04)


def _detect(pose: RigidTransform, intr: CameraIntrinsics = INTR, tpl: MarkerTemplate = TPL,
            noise_sigma: float = 0.0, rng=None, t: int = 0) -> Detection:
    """Synthesize a detection by projecting the template at a known pose."""
    pix = project(pose.apply(tpl.corners), intr)
    if noise_sigma > 0.0:
        pix = pix + rng.normal(0.0, noise_sigma, pix.shape)
    return Detection(t=t, cam=0, marker=0, corners=pix)


def _tilted_pose(rng, tilt_lo=0.25, tilt_hi=1.0) -> RigidTransform:
    """A pose with clear tilt (unambiguous) and the marker well inside view."""
    axis = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0])
    axis /= np.linalg.norm(axis)
    rvec = axis * rng.uniform(tilt_lo, tilt_hi)
    rot = rotation_from_rvec(rvec) @ rotation_from_rvec([0.0, 0.0, rng.uniform(-math.pi, math.pi)])
    z = rng.uniform(0.3, 1.5)
    t = np.array([rng.uniform(-0.2, 0.2) * z, rng.uniform(-0.15, 0.15) * z, z])
    return RigidTransform(rot, t)


def _one(d: Detection, intr: CameraIntrinsics = INTR) -> PlanarPoses:
    """planar_poses of the one detection d: its row 0 holds both poses."""
    return planar_poses(*corner_arrays([d], {d.cam: intr}), TPL)


def _best(p: PlanarPoses) -> RigidTransform:
    return RigidTransform(p.rotations[0, 0], p.translations[0, 0])


class TestEstimateTwoPoses:
    """One detection at a time, through one-row planar_poses calls."""

    def test_recovers_known_pose_zero_noise(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            pose = _tilted_pose(rng)
            best = _best(_one(_detect(pose)))
            rot_err = rotation_angle(best.rotation.T @ pose.rotation)
            assert rot_err < 1e-6
            assert np.linalg.norm(best.translation - pose.translation) < 1e-7

    def test_truth_always_among_the_two_solutions(self):
        # holds even for nearly fronto-parallel poses where best may be the
        # reflected solution in borderline cases
        rng = np.random.default_rng(67)
        for _ in range(50):
            pose = _tilted_pose(rng, tilt_lo=0.0, tilt_hi=0.6)
            p = _one(_detect(pose))
            errs = []
            for rot, tvec in zip(p.rotations[0], p.translations[0]):
                errs.append(
                    rotation_angle(rot.T @ pose.rotation)
                    + np.linalg.norm(tvec - pose.translation)
                )
            assert min(errs) < 1e-6

    def test_recovery_through_distortion(self):
        intr = CameraIntrinsics(
            fx=620.0, fy=615.0, cx=315.0, cy=245.0,
            dist=[-0.15, 0.03, 0.0012, -0.0009, 0.004],
        )
        rng = np.random.default_rng(71)
        for _ in range(20):
            pose = _tilted_pose(rng)
            best = _best(_one(_detect(pose, intr=intr), intr))
            assert rotation_angle(best.rotation.T @ pose.rotation) < 1e-6
            assert np.linalg.norm(best.translation - pose.translation) < 1e-7

    def test_fronto_parallel_is_ambiguous(self):
        # centered: the two solutions coincide, errors are both ~0
        pose = RigidTransform(np.eye(3), [0.0, 0.0, 1.0])
        p = _one(_detect(pose))
        assert p.ratios[0] < 1.1
        assert p.errors[0, 0] <= p.errors[0, 1]

    def test_noisy_fronto_parallel_stays_ambiguous(self):
        # with realistic noise the mirror solution explains the corners about
        # as well as the true one, so the ratio hovers near 1
        rng = np.random.default_rng(83)
        pose = RigidTransform(np.eye(3), [0.05, 0.03, 1.0])
        ratios = [
            _one(_detect(pose, noise_sigma=0.3, rng=rng)).ratios[0]
            for _ in range(50)
        ]
        assert float(np.median(ratios)) < 1.5

    def test_mirror_relation_of_the_two_solutions(self):
        # normals of the two solutions agree along the center viewing ray and
        # are opposite in the orthogonal complement
        pose = RigidTransform(np.eye(3), [0.08, 0.05, 1.0])
        p = _one(_detect(pose))
        d = p.translations[0, 0] / np.linalg.norm(p.translations[0, 0])
        n1, n2 = p.rotations[0, 0, :, 2], p.rotations[0, 1, :, 2]
        assert abs(float(n1 @ d) - float(n2 @ d)) < 1e-6
        np.testing.assert_allclose(
            n1 - (n1 @ d) * d, -(n2 - (n2 @ d) * d), atol=1e-6
        )

    def test_tilted_40_degrees_is_unambiguous(self):
        pose = RigidTransform(
            rotation_from_rvec([0.0, math.radians(40.0), 0.0]), [0.0, 0.0, 0.5]
        )
        assert _one(_detect(pose)).ratios[0] > 2.0

    def test_reprojection_error_consistency(self):
        rng = np.random.default_rng(73)
        pose = _tilted_pose(rng)
        det = _detect(pose, noise_sigma=0.4, rng=rng)
        p = _one(det)
        assert p.errors[0, 0] <= p.errors[0, 1]
        pix = project(_best(p).apply(TPL.corners), INTR)
        rms = math.sqrt(float(np.sum((pix - det.corners) ** 2)) / 4.0)
        assert abs(rms - p.errors[0, 0]) < 1e-9

    def test_error_grows_with_noise(self):
        rng = np.random.default_rng(79)
        pose = RigidTransform(
            rotation_from_rvec([0.3, 0.4, 0.1]), [0.02, -0.01, 0.8]
        )
        means = []
        for sigma in (0.0, 0.25, 0.5, 1.0):
            errs = []
            for _ in range(120):
                det = _detect(pose, noise_sigma=sigma, rng=rng)
                errs.append(_one(det).errors[0, 0])
            means.append(float(np.mean(errs)))
        assert all(means[i] <= means[i + 1] for i in range(len(means) - 1))

    def test_degenerate_quads_rejected(self):
        base = np.array([[100.0, 100.0], [200.0, 100.0], [200.0, 200.0], [100.0, 200.0]])
        dup = base.copy()
        dup[1] = dup[0]
        collinear = np.array([[0.0, 0.0], [100.0, 0.001], [200.0, 0.0], [300.0, 0.001]])
        tiny = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
        for quad in (dup, collinear, tiny):
            assert _one(Detection(0, 0, 0, quad)).status[0] == DEGENERATE_QUAD

    def test_non_convex_quads_rejected(self):
        # no square in front of a pinhole camera images to a non-convex quad;
        # a homography still fits this one exactly, with poses whose RMS
        # errors are about 185 px; every rotation of the corner order, either
        # winding
        dart = np.array([[100.0, 100.0], [200.0, 100.0], [130.0, 130.0], [100.0, 200.0]])
        for quad in (dart, dart[::-1]):
            for k in range(4):
                poses = _one(Detection(0, 0, 0, np.roll(quad, k, axis=0)))
                assert poses.status.tolist() == [DEGENERATE_QUAD]


DISTORTED = CameraIntrinsics(
    fx=620.0, fy=615.0, cx=315.0, cy=245.0, dist=[-0.15, 0.03, 0.0012, -0.0009, 0.004],
)


def _batch(dets, intrinsics):
    return planar_poses(*corner_arrays(dets, intrinsics), TPL)


def _assert_row_is_own_call(poses, i, d, intr):
    """Row i of a batch carries exactly what the one-row call gives d, and
    NaN poses, errors and ratio unless its status is POSE_OK."""
    own = _one(d, intr)
    assert poses.status[i] == own.status[0]
    for name in ("rotations", "translations", "errors", "ratios"):
        got = getattr(poses, name)[i]
        assert np.array_equal(got, getattr(own, name)[0], equal_nan=True), name
        assert poses.status[i] == POSE_OK or np.isnan(got).all(), name


class TestPlanarPosesBatch:
    def test_batch_equals_one_at_a_time_and_truth(self):
        # cameras 0 (pinhole) and 1 (distorted) interleaved in one batch
        rng = np.random.default_rng(89)
        intrinsics = {0: INTR, 1: DISTORTED}
        truth, dets = [], []
        for k in range(60):
            pose = _tilted_pose(rng)
            cam = k % 2
            truth.append(pose)
            dets.append(Detection(0, cam, k, _detect(pose, intr=intrinsics[cam]).corners))
        poses = _batch(dets, intrinsics)
        assert poses.rotations.shape == (60, 2, 3, 3)
        assert poses.translations.shape == (60, 2, 3)
        assert poses.errors.shape == (60, 2)
        assert (poses.status == POSE_OK).all()
        for i, (d, pose) in enumerate(zip(dets, truth)):
            _assert_row_is_own_call(poses, i, d, intrinsics[d.cam])
            assert rotation_angle(poses.rotations[i, 0].T @ pose.rotation) < 1e-6
            assert np.linalg.norm(poses.translations[i, 0] - pose.translation) < 1e-7

    def test_one_bad_row_cannot_poison_the_batch(self):
        rng = np.random.default_rng(97)
        base = np.array([[100.0, 100.0], [200.0, 100.0], [200.0, 200.0], [100.0, 200.0]])
        coincident = base.copy()
        coincident[1] = coincident[0]
        collinear = np.array([[0.0, 0.0], [100.0, 0.001], [200.0, 0.0], [300.0, 0.001]])
        tiny = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
        # not convex, so degenerate
        behind = np.array([[407.7, 172.7], [26.2, 10.6], [520.5, 584.2], [388.2, 466.9]])
        # convex, but no solution puts all four corners in front of the camera
        convex_behind = np.array(
            [[629.0, -519.4], [733.8, -445.6], [-198.6, 2095.3], [-955.1, 866.7]]
        )
        not_finite = base.copy()
        not_finite[2, 0] = np.nan
        bad = [coincident, collinear, tiny, behind, not_finite, convex_behind]
        corners = []
        for k in range(12):
            corners.append(_detect(_tilted_pose(rng)).corners)
            if k < len(bad):
                corners.append(bad[k])
        dets = [Detection(0, 0, m, c) for m, c in enumerate(corners)]
        poses = _batch(dets, {0: INTR})
        assert np.bincount(poses.status, minlength=3).tolist() == [12, 5, 1]
        for i, d in enumerate(dets):
            _assert_row_is_own_call(poses, i, d, INTR)

    def test_empty_batch(self):
        poses = _batch([], {0: INTR})
        assert poses.rotations.shape == (0, 2, 3, 3) and poses.status.shape == (0,)


class TestCornerArrays:
    def test_per_camera_gather_equals_per_detection_rows(self):
        # cameras shown out of order and repeated: every detection's columns
        # carry its own camera's row, as stacking one row per detection does
        rng = np.random.default_rng(101)
        intrinsics = {0: INTR, 1: DISTORTED, 7: DISTORTED, 4: INTR}
        cams = [7, 0, 7, 4, 1, 0, 0, 4]
        dets = [Detection(0, c, m, rng.uniform(0.0, 600.0, (4, 2))) for m, c in enumerate(cams)]
        obs, k = corner_arrays(dets, intrinsics)
        rows = [(i.fx, i.fy, i.cx, i.cy, *i.dist.tolist()) for i in (intrinsics[c] for c in cams)]
        assert k.tobytes() == np.repeat(np.array(rows).T, 4, axis=1).tobytes()
        assert obs.tobytes() == np.array([d.corners for d in dets]).reshape(-1, 2).tobytes()
        obs, k = corner_arrays([], intrinsics)
        assert obs.shape == (0, 2) and k.shape == (9, 0)

    def test_missing_intrinsics_names_the_first_detections_camera(self):
        # cameras 3 and 5 lack intrinsics; camera 5's detection comes first
        corners = _detect(RigidTransform(np.eye(3), np.array([0.0, 0.0, 1.0]))).corners
        dets = [Detection(0, c, m, corners) for m, c in enumerate([0, 5, 3, 5])]
        with pytest.raises(MissingIntrinsics) as e:
            corner_arrays(dets, {0: INTR})
        assert e.value.cam == 5


def _status_quads(n: int, seed: int = 2027):
    """3n seeded quads, cameras alternating pinhole and distorted, and their
    per-corner intrinsics: n near-squares (the template at random poses up to
    grazing tilt, plus up to 2 px noise), n random quads over and beyond the
    image at sizes from 0.3 to 500 px, and n near-squares with one corner
    moved onto a neighbour or onto the line through its two neighbours,
    exactly or within 1e-13 to 1e-7 px."""
    rng = np.random.default_rng(seed)
    cams = (INTR, DISTORTED)
    which = np.arange(3 * n) % 2
    k = np.array([[c.fx, c.fy, c.cx, c.cy, *c.dist] for c in cams])[which].T

    axis = rng.normal(size=(n, 3))
    axis[:, 2] = 0.0
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    spin = np.zeros((n, 3))
    spin[:, 2] = rng.uniform(-math.pi, math.pi, n)
    rot = rotations_from_rvecs(axis * rng.uniform(0.0, 1.55, (n, 1))) @ rotations_from_rvecs(spin)
    z = rng.uniform(0.08, 4.0, n)
    tvec = np.stack([rng.uniform(-0.6, 0.6, n) * z, rng.uniform(-0.45, 0.45, n) * z, z], 1)
    pts = np.einsum("nij,kj->nki", rot, TPL.corners) + tvec[:, None]
    pix = project_arrays(pts.reshape(-1, 3), np.repeat(k[:, :n], 4, axis=1)).pix
    squares = pix.reshape(n, 4, 2) + rng.normal(size=(n, 4, 2)) * rng.uniform(0.0, 2.0, (n, 1, 1))

    centre = rng.uniform([-300, -250], [940, 730], (n, 1, 2))
    random = centre + rng.normal(size=(n, 4, 2)) * 10.0 ** rng.uniform(-0.5, 2.7, (n, 1, 1))

    base = squares[rng.permutation(n)]
    bad = base.copy()
    rows, i = np.arange(n), rng.integers(0, 4, n)
    scale = np.where(rng.random(n) < 0.5, 0.0, 10.0 ** rng.uniform(-13, -7, n))
    jitter = rng.normal(size=(n, 2)) * scale[:, None]
    p, q = base[rows, (i + 1) % 4], base[rows, (i + 3) % 4]
    onto_line = p + rng.uniform(-0.5, 1.5, (n, 1)) * (q - p)
    bad[rows, i] = np.where((rows < n // 2)[:, None], p, onto_line) + jitter

    corners = np.concatenate([squares, random, bad])
    return corners, np.repeat(k, 4, axis=1)


class TestPinnedStatuses:
    N = 6000  # per kind, 18,000 quads in all

    @pytest.fixture(scope="class")
    def batch(self):
        corners, k = _status_quads(self.N)
        return corners, k, planar_poses(corners, k, TPL)

    def test_status_counts_per_kind(self, batch):
        # the counts of a normalized-DLT homography with an SVD projection
        # onto SO(3), row for row the same statuses; rows: near-squares,
        # random quads, coincident or collinear corners; columns: POSE_OK,
        # DEGENERATE_QUAD, NO_VALID_POSE
        _, _, poses = batch
        counts = [np.bincount(s, minlength=3).tolist() for s in poses.status.reshape(3, self.N)]
        assert counts == [[5630, 370, 0], [1153, 4839, 8], [388, 5612, 0]]

    def test_rotations_are_orthonormal(self, batch):
        _, _, poses = batch
        r = poses.rotations[poses.status == POSE_OK].reshape(-1, 3, 3)
        assert len(r) > 10000
        assert np.abs(np.matmul(r.transpose(0, 2, 1), r) - np.eye(3)).max() <= 1e-12
        assert np.abs(np.linalg.det(r) - 1.0).max() <= 1e-12

    def test_homography_maps_template_onto_the_quad(self, batch):
        # relative to the largest normalized coordinate; the near-collinear
        # third kind leaves the mapping ill-conditioned (the normalized DLT
        # missed those corners by up to 9e-4 relative too)
        corners, k, poses = batch
        n = 2 * self.N
        quad = undistort_arrays(corners[:n], k[:, :4 * n].reshape(9, n, 4))
        quad = quad[poses.status[:n] == POSE_OK]
        h = planar_pose._homographies(TPL, quad)
        mapped = np.einsum("nij,kj->nki", h, np.c_[TPL.corners[:, :2], np.ones(4)])
        mapped = mapped[..., :2] / mapped[..., 2:]
        err = np.abs(mapped - quad).max(axis=(1, 2))
        assert (err <= 1e-12 * np.abs(quad).max(axis=(1, 2))).all()

    def test_no_lapack_call(self, batch, monkeypatch):
        corners, k, poses = batch

        class NoLinalg:
            def __getattr__(self, name):
                raise AssertionError(f"planar_poses called np.linalg.{name}")

        monkeypatch.setattr(np, "linalg", NoLinalg())
        again = planar_poses(corners[:200], k[:, :800], TPL)
        np.testing.assert_array_equal(again.status, poses.status[:200])


class TestAmbiguityRatio:
    def test_equal_errors(self):
        assert ambiguity_ratio(0.5, 0.5) == 1.0

    def test_double(self):
        assert ambiguity_ratio(0.5, 1.0) == 2.0

    def test_clamped_denominator(self):
        assert ambiguity_ratio(0.0, 0.3) == pytest.approx(3e11)

    def test_never_below_one(self):
        assert ambiguity_ratio(0.0, 1e-13) == 1.0


class TestCandidateSet:
    def test_unambiguous_keeps_best_only(self):
        xi = _one_row(2.5, tau_e=2.0)
        assert xi.counts.tolist() == [1] and len(xi.poses) == 1
        assert _same(xi.poses[0], _pair(0)[0])
        assert xi.ratios[0] == 2.5

    def test_ambiguous_keeps_both(self):
        xi = _one_row(1.3, tau_e=2.0)
        best, alt = _pair(0)
        assert xi.counts.tolist() == [2] and len(xi.poses) == 2
        assert _same(xi.poses[0], best) and _same(xi.poses[1], alt)

    def test_no_detection_gives_empty_set(self):
        xi = _one_row(None, tau_e=2.0)
        assert xi.counts.tolist() == [0] and len(xi.poses) == 0
        assert np.isnan(xi.ratios[0])

    def test_cardinality_rule_grid(self):
        for ratio in (1.0, 1.5, 1.999, 2.0, 2.5, 10.0, SINGLE_SOLUTION_RATIO):
            for tau in (1.0, 1.5, 2.0, 5.0):
                n = len(_one_row(ratio, tau).poses)
                assert n == (1 if ratio >= tau else 2)

    def test_infinite_threshold_keeps_both_of_every_usable_row(self):
        rows = _planar([2.5, None, SINGLE_SOLUTION_RATIO])
        xi = candidate_set(rows, [(0, 0, m) for m in range(3)], math.inf)
        assert xi.counts.tolist() == [2, 0, 2]

    def test_rejects_tau_below_one(self):
        with pytest.raises(ValueError):
            _one_row(None, tau_e=0.5)

    def test_rows_sorted_by_key_with_their_poses(self):
        keys = [(1, 0, 0), (0, 2, 1), (0, 2, 0), (0, 0, 5)]
        xi = candidate_set(_planar([1.2, 3.0, 1.5, 4.0]), keys, 2.0)
        assert xi.keys.tolist() == sorted(map(list, keys))
        assert xi.counts.tolist() == [1, 2, 1, 2]
        assert xi.ratios.tolist() == [4.0, 1.5, 3.0, 1.2]
        kept = [_pair(3)[0], *_pair(2), _pair(1)[0], *_pair(0)]
        assert all(_same(xi.poses[i], t) for i, t in enumerate(kept))
        assert xi.offsets.tolist() == [0, 1, 3, 4, 6]

    def test_at_most_two_transforms(self):
        t = PoseStack.of([RigidTransform.identity()] * 3)
        with pytest.raises(ValueError, match="count"):
            CandidateSet([(0, 0, 0)], [3], [1.0], t)

    def test_rejects_unsorted_keys(self):
        t = PoseStack.of([RigidTransform.identity()] * 2)
        with pytest.raises(ValueError, match="sorted"):
            CandidateSet([(0, 1, 0), (0, 0, 5)], [1, 1], [3.0, 3.0], t)
        with pytest.raises(ValueError, match="sorted"):
            CandidateSet([(1, 0, 0), (0, 9, 9)], [1, 1], [3.0, 3.0], t)
        with pytest.raises(ValueError, match="sorted"):
            CandidateSet([(0, 0, 5), (0, 0, 2)], [1, 1], [3.0, 3.0], t)

    def test_order_check_accepts_what_a_stable_sort_keeps(self):
        # repeated keys are accepted, as a stable lexsort leaves them in place
        rng = np.random.default_rng(5)
        t = PoseStack.of([RigidTransform.identity()] * 3)
        for _ in range(300):
            keys = rng.integers(0, 2, size=(3, 3))
            in_order = (np.lexsort(keys.T[::-1]) == np.arange(3)).all()
            try:
                CandidateSet(keys, [1, 1, 1], [3.0] * 3, t)
            except ValueError:
                assert not in_order
            else:
                assert in_order
        assert len(CandidateSet(np.empty((0, 3)), [], [], t[:0])) == 0

    def test_rejects_counts_not_matching_poses(self):
        t = PoseStack.of([RigidTransform.identity()] * 2)
        with pytest.raises(ValueError, match="sum"):
            CandidateSet([(0, 0, 0), (0, 0, 1)], [1, 2], [3.0, 1.1], t)
        with pytest.raises(ValueError, match="sum"):
            CandidateSet([(0, 0, 0)], [1], [3.0], t)
        with pytest.raises(ValueError, match="count"):
            CandidateSet([(0, 0, 0)], [1, 1], [3.0], t)


def _pair(i: int) -> tuple[RigidTransform, RigidTransform]:
    """The best and alt pose that _planar gives row i; no two rows share one."""
    tvec = [0.0, 0.0, 1.0 + i]
    alt = RigidTransform(rotation_from_rvec([0.2, 0.0, 0.0]), tvec)
    return RigidTransform(np.eye(3), tvec), alt


def _planar(ratios: list) -> PlanarPoses:
    """PlanarPoses whose row i holds _pair(i) with errors 0.5 and 0.5 * ratios[i];
    a None ratio makes a failed row."""
    failed = np.array([r is None for r in ratios])
    ratio = np.array([np.nan if r is None else r for r in ratios])
    mats = np.array([[p.as_matrix() for p in _pair(i)] for i in range(len(ratios))])
    mats[failed] = np.nan
    return PlanarPoses(
        mats[:, :, :3, :3], mats[:, :, :3, 3],
        np.stack([np.where(failed, np.nan, 0.5), 0.5 * ratio], axis=1),
        ratio,
        np.where(failed, DEGENERATE_QUAD, POSE_OK),
    )


def _one_row(ratio: float | None, tau_e: float) -> CandidateSet:
    return candidate_set(_planar([ratio]), [(0, 0, 0)], tau_e)


def _same(a: RigidTransform, b: RigidTransform) -> bool:
    return np.array_equal(a.rotation, b.rotation) and np.array_equal(
        a.translation, b.translation
    )


class TestDetection:
    def test_key(self):
        d = Detection(3, 1, 7, np.zeros((4, 2)))
        assert d.key == (3, 1, 7)

    def test_corners_frozen(self):
        d = Detection(0, 0, 0, np.zeros((4, 2)))
        with pytest.raises(ValueError):
            d.corners[0, 0] = 1.0
