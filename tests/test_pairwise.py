"""Tests for pairwise transform sampling and optimal-sample selection."""

from __future__ import annotations

import math

import numpy as np
import pytest

from markercal.errors import EmptyCandidateSet
from markercal.frame_init import FrameCandidate, FramePoseCandidates, select_frame_pose
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
from markercal.pairwise import (
    CAMERA_PAIR,
    MARKER_PAIR,
    PairAccumulator,
    PairKey,
    TransformSample,
    camera_pair_samples,
    collect_camera_pairs,
    collect_marker_pairs,
    marker_pair_samples,
    probe_points,
    select_optimal,
    transform_distance,
)
from markercal.planar_pose import CandidateSet, Detection, candidate_set, estimate_two_poses

INTR = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0)
TPL = MarkerTemplate(side=0.04)
PROBE = probe_points(0.04)


def _random_transform(rng, t_scale=1.0) -> RigidTransform:
    rvec = rng.normal(size=3)
    rvec *= rng.uniform(0, math.pi - 0.1) / np.linalg.norm(rvec)
    return RigidTransform(rotation_from_rvec(rvec), rng.uniform(-t_scale, t_scale, 3))


def _xi(*transforms, ratio=None) -> CandidateSet:
    return CandidateSet(tuple(transforms), ratio)


def _detect_in_camera(world_from_marker, cam_from_world, t=0, cam=0, marker=0) -> Detection:
    marker_in_cam = compose(cam_from_world, world_from_marker)
    pix = project(marker_in_cam.apply(TPL.corners), INTR)
    return Detection(t=t, cam=cam, marker=marker, corners=pix)


def _estimated_xi(world_from_marker, cam_from_world, tau=2.0, **kw) -> CandidateSet:
    det = _detect_in_camera(world_from_marker, cam_from_world, **kw)
    return candidate_set(estimate_two_poses(det, INTR, TPL), tau)


class TestPairKey:
    def test_requires_ordered_ids(self):
        with pytest.raises(ValueError):
            PairKey(2, 1)
        with pytest.raises(ValueError):
            PairKey(1, 1)

    def test_lexicographic_order(self):
        assert PairKey(0, 1) < PairKey(0, 2) < PairKey(1, 2)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            PairKey(0, 1, "object")


class TestTransformDistance:
    def test_identical_transforms(self):
        rng = np.random.default_rng(89)
        t = _random_transform(rng)
        assert transform_distance(t, t, PROBE) == 0.0

    def test_pure_translation(self):
        a = RigidTransform.identity()
        b = RigidTransform(np.eye(3), [0.1, 0.0, 0.0])
        assert transform_distance(a, b, PROBE) == pytest.approx(0.03, abs=1e-15)

    def test_matches_brute_force_formula(self):
        # oracle: literal per-point re-evaluation of the defining sum
        rng = np.random.default_rng(97)
        for _ in range(20):
            a, b = _random_transform(rng), _random_transform(rng)
            probe = rng.uniform(0.05, 0.5, (3, 3))
            expected = 0.0
            for v in probe:
                expected += float(
                    np.linalg.norm(
                        (a.rotation @ v + a.translation) - (b.rotation @ v + b.translation)
                    )
                    ** 2
                )
            assert transform_distance(a, b, probe) == pytest.approx(expected, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(101)
        a, b = _random_transform(rng), _random_transform(rng)
        assert transform_distance(a, b, PROBE) == transform_distance(b, a, PROBE)

    def test_rejects_bad_probes(self):
        t = RigidTransform.identity()
        with pytest.raises(ValueError):
            transform_distance(t, t, np.zeros((3, 3)))
        collinear = np.array([[1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
        with pytest.raises(ValueError):
            transform_distance(t, t, collinear)


class TestCameraPairSamples:
    def test_product_sizes(self):
        rng = np.random.default_rng(103)
        t1, t2, t3, t4 = (_random_transform(rng) for _ in range(4))
        assert len(camera_pair_samples(_xi(t1), _xi(t2))) == 1
        assert len(camera_pair_samples(_xi(t1, t2), _xi(t3, t4))) == 4
        assert len(camera_pair_samples(_xi(), _xi(t1))) == 0
        assert all(s.from_ambiguous for s in camera_pair_samples(_xi(t1, t2), _xi(t3)))

    def test_recovers_ground_truth_relative_pose(self):
        # two cameras a meter apart, a marker tilted enough for both views to
        # be unambiguous; the full chain detection -> pose -> pair sample
        # must reproduce the known camera-to-camera transform
        cam0 = RigidTransform(rotation_from_rvec([0.0, 0.25, 0.0]), [0.0, 0.0, 1.2])
        cam1 = RigidTransform(rotation_from_rvec([-0.1, -0.3, 0.05]), [-0.3, 0.05, 1.1])
        marker = RigidTransform(rotation_from_rvec([0.45, 0.2, 0.1]), [0.02, -0.03, 0.0])
        xi0 = _estimated_xi(marker, cam0, cam=0)
        xi1 = _estimated_xi(marker, cam1, cam=1)
        assert len(xi0) == 1 and len(xi1) == 1
        samples = camera_pair_samples(xi0, xi1, source=(0, 0))
        assert len(samples) == 1
        truth = compose(cam0, invert(cam1))  # camera-1 coords -> camera-0 coords
        got = samples[0].transform
        assert rotation_angle(got.rotation.T @ truth.rotation) < 1e-6
        assert np.linalg.norm(got.translation - truth.translation) < 1e-6


class TestMarkerPairSamples:
    def test_recovers_ground_truth_relative_pose(self):
        cam = RigidTransform(rotation_from_rvec([0.0, 0.2, 0.0]), [0.0, 0.0, 1.0])
        m0 = RigidTransform(rotation_from_rvec([0.5, 0.1, 0.0]), [-0.05, 0.0, 0.0])
        m1 = RigidTransform(rotation_from_rvec([-0.4, 0.3, 0.1]), [0.06, 0.01, 0.02])
        xi0 = _estimated_xi(m0, cam, marker=0)
        xi1 = _estimated_xi(m1, cam, marker=1)
        assert len(xi0) == 1 and len(xi1) == 1
        samples = marker_pair_samples(xi0, xi1, source=(0, 0))
        assert len(samples) == 1
        truth = compose(invert(m1), m0)  # marker-0 coords -> marker-1 coords
        got = samples[0].transform
        assert rotation_angle(got.rotation.T @ truth.rotation) < 1e-6
        assert np.linalg.norm(got.translation - truth.translation) < 1e-6

    def test_ambiguous_pair_contains_truth(self):
        # both markers face the camera head-on: four samples, one of which
        # pairs the two true poses
        cam = RigidTransform(np.eye(3), [0.0, 0.0, 0.0])
        m0 = RigidTransform(np.eye(3), [-0.05, 0.0, 1.0])
        m1 = RigidTransform(np.eye(3), [0.06, 0.01, 1.0])
        xi0 = _estimated_xi(m0, cam, marker=0, tau=1e14)
        xi1 = _estimated_xi(m1, cam, marker=1, tau=1e14)
        assert len(xi0) == 2 and len(xi1) == 2
        samples = marker_pair_samples(xi0, xi1)
        assert len(samples) == 4
        truth = compose(invert(m1), m0)
        best = min(
            rotation_angle(s.transform.rotation.T @ truth.rotation)
            + np.linalg.norm(s.transform.translation - truth.translation)
            for s in samples
        )
        assert best < 1e-6


class TestSelectOptimal:
    def test_singleton(self):
        rng = np.random.default_rng(107)
        t = _random_transform(rng)
        acc = PairAccumulator(PairKey(0, 1), [TransformSample(t)])
        best, d_total = select_optimal(acc, PROBE)
        assert best is t
        assert d_total == 0.0
        assert acc.selected.index == 0

    def test_majority_wins_with_index_tiebreak(self):
        eye = RigidTransform.identity()
        outlier = RigidTransform(rotation_from_rvec([0.0, 0.0, 2.0]), [0.5, 0.0, 0.0])
        acc = PairAccumulator(
            PairKey(0, 1),
            [TransformSample(eye), TransformSample(eye), TransformSample(eye),
             TransformSample(outlier)],
        )
        best, _ = select_optimal(acc, PROBE)
        assert best is eye
        assert acc.selected.index == 0

    def test_empty_raises(self):
        with pytest.raises(EmptyCandidateSet):
            select_optimal(PairAccumulator(PairKey(0, 1)), PROBE)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(109)
        for _ in range(10):
            samples = [TransformSample(_random_transform(rng)) for _ in range(50)]
            acc = PairAccumulator(PairKey(0, 1), list(samples))
            best, d_total = select_optimal(acc, PROBE)
            idx, oracle_total = _brute_force_argmin(samples, PROBE)
            assert acc.selected.index == idx
            assert d_total == pytest.approx(oracle_total, rel=1e-12)

    def test_large_set_path_matches_oracle(self):
        # three times the largest set of criterion 4, against the O(n^2) oracle
        rng = np.random.default_rng(113)
        samples = [TransformSample(_random_transform(rng)) for _ in range(150)]
        acc = PairAccumulator(PairKey(0, 1), list(samples))
        select_optimal(acc, PROBE)
        idx, oracle_total = _brute_force_argmin(samples, PROBE)
        assert acc.selected.index == idx
        assert acc.selected.d_total == pytest.approx(oracle_total, rel=1e-9)

    def test_permutation_invariant_for_distinct_distances(self):
        rng = np.random.default_rng(127)
        samples = [TransformSample(_random_transform(rng)) for _ in range(12)]
        acc = PairAccumulator(PairKey(0, 1), list(samples))
        best, _ = select_optimal(acc, PROBE)
        perm = list(rng.permutation(12))
        acc2 = PairAccumulator(PairKey(0, 1), [samples[i] for i in perm])
        best2, _ = select_optimal(acc2, PROBE)
        assert best2 is best

    def test_selection_invariants(self):
        rng = np.random.default_rng(131)
        samples = [TransformSample(_random_transform(rng)) for _ in range(9)]
        acc = PairAccumulator(PairKey(0, 1), list(samples))
        best, d_total = select_optimal(acc, PROBE)
        assert any(s.transform is best for s in acc.samples)
        recomputed = sum(
            transform_distance(best, s.transform, PROBE) for s in acc.samples
        )
        assert abs(recomputed - d_total) < 1e-12

    def test_tight_clusters_match_oracle_totals(self):
        # near-identical samples about 2 m away: the closed form centres probe
        # images of ~2 m magnitude, so its totals must still track the O(n^2)
        # sums of tiny pairwise distances
        rng = np.random.default_rng(139)
        for _ in range(40):
            n = int(rng.integers(2, 301))
            spread = 10.0 ** rng.uniform(-6, -2)
            rot = _random_transform(rng).rotation
            center = RigidTransform(rot, rot @ [0.0, 0.0, 2.0])
            samples = []
            for _ in range(n):
                jitter = RigidTransform(
                    rotation_from_rvec(rng.normal(scale=spread, size=3)),
                    rng.normal(scale=spread, size=3),
                )
                samples.append(TransformSample(compose(center, jitter)))
            acc = PairAccumulator(PairKey(0, 1), samples)
            _, d_total = select_optimal(acc, PROBE)
            totals = _brute_force_totals([s.transform for s in samples], PROBE)
            chosen = totals[acc.selected.index]
            assert chosen == pytest.approx(totals.min(), rel=1e-8)
            assert d_total == pytest.approx(chosen, rel=1e-8)

    @pytest.mark.parametrize("n", [65, 130, 257])
    def test_exact_duplicate_ties_go_to_lowest_index(self, n):
        # a copy of the winner, inserted at or before it, ties with it exactly
        # (every total rises by the distance to the copy, which is zero for
        # both), so both selectors must return the copy's earlier position
        rng = np.random.default_rng(n)
        transforms = [_random_transform(rng) for _ in range(n)]
        winner = int(np.argmin(_brute_force_totals(transforms, PROBE)))
        pos = int(rng.integers(0, winner + 1))
        twin = transforms[winner]
        copy = RigidTransform(twin.rotation.copy(), twin.translation.copy())
        transforms.insert(pos, copy)

        acc = PairAccumulator(PairKey(0, 1), [TransformSample(t) for t in transforms])
        best, _ = select_optimal(acc, PROBE)
        assert acc.selected.index == pos
        assert best is copy

        cands = FramePoseCandidates(
            t=0,
            candidates=tuple(
                FrameCandidate(t, cam=0, marker=i, ratio=1.0)
                for i, t in enumerate(transforms)
            ),
        )
        assert select_frame_pose(cands, PROBE) is copy


def _brute_force_totals(transforms, probe) -> np.ndarray:
    """Summed distance of each transform to all, as an explicit n x n sum."""
    images = np.stack([t.apply(probe) for t in transforms])
    diff = images[:, None, :, :] - images[None, :, :, :]
    return (diff ** 2).sum(axis=(2, 3)).sum(axis=1)


def _brute_force_argmin(samples, probe):
    """Independent O(n^2) evaluation of the selection rule."""
    totals = []
    for k in range(len(samples)):
        tk = samples[k].transform
        total = 0.0
        for s in samples:
            diff = tk.apply(probe) - s.transform.apply(probe)
            total += float((diff ** 2).sum())
        totals.append(total)
    best = min(range(len(totals)), key=lambda i: (totals[i], i))
    return best, totals[best]


class TestCollectors:
    def _scene_candidate_sets(self):
        rng = np.random.default_rng(137)
        cams = {
            0: RigidTransform(rotation_from_rvec([0.0, 0.3, 0.0]), [0.0, 0.0, 1.2]),
            1: RigidTransform(rotation_from_rvec([0.0, -0.3, 0.1]), [-0.25, 0.0, 1.15]),
            2: RigidTransform(rotation_from_rvec([0.15, 0.0, -0.1]), [0.2, 0.1, 1.25]),
        }
        markers = {
            0: RigidTransform(rotation_from_rvec([0.4, 0.1, 0.0]), [-0.04, 0.0, 0.0]),
            1: RigidTransform(rotation_from_rvec([-0.35, 0.25, 0.05]), [0.05, 0.01, 0.0]),
        }
        xi = {}
        for t in range(3):
            wobble = RigidTransform(rotation_from_rvec([0.05 * t, 0.0, 0.02 * t]), [0.0, 0.002 * t, 0.0])
            for c, cam in cams.items():
                for m, marker in markers.items():
                    world_from_marker = compose(wobble, marker)
                    xi[(t, c, m)] = _estimated_xi(world_from_marker, cam, t=t, cam=c, marker=m)
        return xi, cams, markers

    def test_camera_pairs_cover_all_pairs(self):
        xi, cams, markers = self._scene_candidate_sets()
        accs = collect_camera_pairs(xi)
        assert set(accs) == {PairKey(0, 1), PairKey(0, 2), PairKey(1, 2)}
        for key, acc in accs.items():
            assert acc.key.kind == CAMERA_PAIR
            # 3 frames x 2 markers bridges, possibly more if ambiguous
            assert len(acc.samples) >= 6
            sort_keys = [(s.source, s.product_index) for s in acc.samples]
            assert sort_keys == sorted(sort_keys)
            best, _ = select_optimal(acc, PROBE)
            truth = compose(cams[key.a], invert(cams[key.b]))
            assert rotation_angle(best.rotation.T @ truth.rotation) < 1e-5
            assert np.linalg.norm(best.translation - truth.translation) < 1e-5

    def test_marker_pairs_store_b_to_a(self):
        xi, cams, markers = self._scene_candidate_sets()
        accs = collect_marker_pairs(xi)
        assert set(accs) == {PairKey(0, 1, MARKER_PAIR)}
        acc = accs[PairKey(0, 1, MARKER_PAIR)]
        assert len(acc.samples) >= 9  # 3 frames x 3 cameras
        best, _ = select_optimal(acc, PROBE)
        truth = compose(invert(markers[0]), markers[1])  # marker-1 -> marker-0
        assert rotation_angle(best.rotation.T @ truth.rotation) < 1e-5
        assert np.linalg.norm(best.translation - truth.translation) < 1e-5
