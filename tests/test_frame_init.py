"""Tests for per-frame object pose initialization."""

from __future__ import annotations

import math

import numpy as np
import pytest

from markercal.frame_init import (
    FramePoseCandidates,
    SOURCE_INIT,
    build_trajectory,
    frame_candidates,
)
from markercal.geometry import (
    CameraIntrinsics,
    MarkerTemplate,
    PoseStack,
    RigidTransform,
    compose,
    invert,
    project,
    rotation_angle,
    rotation_from_rvec,
)
from markercal.pairwise import AXIS_TIPS, PairKey
from markercal.planar_pose import (
    CandidateSet,
    Detection,
    candidate_set,
    corner_arrays,
    planar_poses,
)
from markercal.structure_init import StructureEstimate

INTR = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0)
TPL = MarkerTemplate(side=0.04)


def _structure(poses: dict[int, RigidTransform], reference: int) -> StructureEstimate:
    return StructureEstimate(reference, poses, ())


def _same(a: RigidTransform, b: RigidTransform) -> bool:
    return np.array_equal(a.rotation, b.rotation) and np.array_equal(
        a.translation, b.translation
    )


def _table(sets: dict) -> CandidateSet:
    """The candidate table of {(t, cam, marker): (kept transforms, ...)}."""
    keys = sorted(sets)
    poses = PoseStack.of([p for key in keys for p in sets[key]])
    return CandidateSet(keys, [len(sets[key]) for key in keys], np.full(len(keys), np.nan), poses)


def _frame_pose(stack: PoseStack) -> RigidTransform:
    """The pose build_trajectory selects from one frame's proposals."""
    proposals = FramePoseCandidates(np.zeros(len(stack), dtype=np.int64), stack)
    return build_trajectory(proposals, 1).frames[0].pose


def _random_transform(rng, t_scale=0.5) -> RigidTransform:
    rvec = rng.normal(size=3)
    rvec *= rng.uniform(0.1, math.pi - 0.2) / np.linalg.norm(rvec)
    return RigidTransform(rotation_from_rvec(rvec), rng.uniform(-t_scale, t_scale, 3))


class TestFrameCandidates:
    def test_reference_chain_collapses(self):
        rng = np.random.default_rng(163)
        t_pose = _random_transform(rng)
        xi = _table({(0, 0, 0): (t_pose,)})
        cams = _structure({0: RigidTransform.identity()}, 0)
        markers = _structure({0: RigidTransform.identity()}, 0)
        fc = frame_candidates(xi, cams, markers)
        assert len(fc.candidates) == 1
        np.testing.assert_allclose(
            fc.candidates[0].as_matrix(), t_pose.as_matrix(), atol=1e-15
        )

    def test_cardinality_three_cameras_two_markers(self):
        rng = np.random.default_rng(167)
        xi = _table({
            (0, c, m): (_random_transform(rng),)
            for c in range(3)
            for m in range(2)
        })
        cams = _structure({c: _random_transform(rng) for c in range(3)}, 0)
        markers = _structure({m: _random_transform(rng) for m in range(2)}, 0)
        fc = frame_candidates(xi, cams, markers)
        assert len(fc.candidates) == 6

    def test_ambiguous_detections_contribute_both(self):
        rng = np.random.default_rng(173)
        xi = _table({(0, 0, 0): (_random_transform(rng), _random_transform(rng))})
        cams = _structure({0: RigidTransform.identity()}, 0)
        markers = _structure({0: RigidTransform.identity()}, 0)
        fc = frame_candidates(xi, cams, markers)
        assert len(fc.candidates) == 2

    def test_zero_noise_candidates_match_ground_truth(self):
        # full chain: project detections from known (C, M, G), re-estimate the
        # marker poses, and check every proposal reproduces G
        cams = {
            0: RigidTransform.identity(),
            1: RigidTransform(rotation_from_rvec([0.0, 0.35, 0.0]), [0.25, 0.0, 0.05]),
        }
        markers = {
            0: RigidTransform.identity(),
            1: RigidTransform(rotation_from_rvec([0.0, 0.9, 0.1]), [0.05, 0.0, 0.01]),
        }
        g_t = RigidTransform(rotation_from_rvec([0.3, -0.2, 0.1]), [0.02, 0.01, 0.9])
        dets = []
        for c, cam_pose in cams.items():
            for m, marker_pose in markers.items():
                t_mc = compose(compose(invert(cam_pose), g_t), marker_pose)
                pix = project(t_mc.apply(TPL.corners), INTR)
                dets.append(Detection(0, c, m, pix))
        poses = planar_poses(*corner_arrays(dets, {c: INTR for c in cams}), TPL)
        xi = candidate_set(poses, [d.key for d in dets], 2.0)
        fc = frame_candidates(xi, _structure(cams, 0), _structure(markers, 0))
        assert len(fc.candidates) >= 4

        def reproduces_truth(g):
            return (
                rotation_angle(g.rotation.T @ g_t.rotation) < 1e-6
                and np.linalg.norm(g.translation - g_t.translation) < 1e-6
            )

        # proposals come per detection in sorted key order; an unambiguous
        # detection's proposal is G, and an ambiguous one may carry the
        # mirror pose beside it
        row = 0
        for key, n in zip(xi.keys.tolist(), xi.counts.tolist()):
            hits = [reproduces_truth(fc.candidates[row + k]) for k in range(n)]
            assert all(hits) if n == 1 else any(hits), key
            row += n
        assert row == len(fc.candidates)

    def test_takes_only_its_own_frame_from_the_table(self):
        # frames 0 and 2 in one table, frame 1 absent: each frame's proposals
        # equal those of a table holding that frame alone, and carry its frame
        rng = np.random.default_rng(181)
        sets = {
            (t, c, m): tuple(_random_transform(rng) for _ in range(1 + (c + m + t) % 2))
            for t in (0, 2)
            for c in range(2)
            for m in range(2)
        }
        cams = _structure({c: _random_transform(rng) for c in range(2)}, 0)
        markers = _structure({m: _random_transform(rng) for m in range(2)}, 0)
        fc = frame_candidates(_table(sets), cams, markers)
        assert set(fc.t.tolist()) == {0, 2}
        assert np.all(np.diff(fc.t) >= 0)
        for t in (0, 2):
            own = _table({k: v for k, v in sets.items() if k[0] == t})
            got = fc.candidates[fc.t == t]
            expect = frame_candidates(own, cams, markers).candidates
            assert len(got) == sum(len(v) for k, v in sets.items() if k[0] == t)
            np.testing.assert_array_equal(got.rotations, expect.rotations)
            np.testing.assert_array_equal(got.translations, expect.translations)

    def test_unknown_camera_rejected(self):
        xi = _table({(0, 9, 0): (RigidTransform.identity(),)})
        cams = _structure({0: RigidTransform.identity()}, 0)
        markers = _structure({0: RigidTransform.identity()}, 0)
        with pytest.raises(ValueError):
            frame_candidates(xi, cams, markers)


class TestSelectFramePose:
    def test_single_candidate(self):
        rng = np.random.default_rng(179)
        g = _random_transform(rng)
        assert _same(_frame_pose(PoseStack.of([g])), g)

    def test_majority_wins(self):
        g = RigidTransform(rotation_from_rvec([0.1, 0.0, 0.0]), [0.0, 0.0, 1.0])
        outlier = RigidTransform(rotation_from_rvec([0.0, 0.0, 2.5]), [0.4, 0.0, 1.0])
        assert _same(_frame_pose(PoseStack.of([g, g, outlier])), g)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(181)
        for _ in range(5):
            cands = [_random_transform(rng) for _ in range(20)]
            got = _frame_pose(PoseStack.of(cands))
            assert _same(got, cands[_brute_force_index(cands)])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(191)
        cands = [_random_transform(rng) for _ in range(9)]
        chosen = _frame_pose(PoseStack.of(cands))
        perm = [cands[i] for i in rng.permutation(9)]
        got = _frame_pose(PoseStack.of(perm))
        assert _same(got, chosen)


def _brute_force_index(cands) -> int:
    """First minimum of the summed axis-tip distance, as an explicit double loop."""
    totals = []
    for k in range(len(cands)):
        total = 0.0
        for other in cands:
            diff = cands[k].apply(AXIS_TIPS) - other.apply(AXIS_TIPS)
            total += float((diff ** 2).sum())
        totals.append(total)
    return min(range(len(totals)), key=lambda i: (totals[i], i))


class TestBuildTrajectory:
    def test_empty_sequence(self):
        traj = build_trajectory(FramePoseCandidates(np.zeros(0, dtype=np.int64), PoseStack.of(())), 0)
        assert len(traj) == 0
        assert traj.tracked_items() == []

    def test_empty_frame_is_untracked(self):
        rng = np.random.default_rng(193)
        g = _random_transform(rng)
        proposals = FramePoseCandidates(np.array([0, 2]), PoseStack.of([g, g]))
        traj = build_trajectory(proposals, 3)
        assert len(traj) == 3
        assert traj.frames[1].pose is None
        assert traj.frames[1].source == SOURCE_INIT
        assert [t for t, _ in traj.tracked_items()] == [0, 2]

    def test_batched_frames_match_per_frame_pick(self):
        # frames 0, 1, 3 and 4 seen, frame 2 a gap, frames 5 and 6 trailing
        # without detections: one batched call picks, in every seen frame,
        # the pose a brute-force search over that frame alone picks
        rng = np.random.default_rng(197)
        cams = _structure({c: _random_transform(rng) for c in range(3)}, 0)
        markers = _structure({m: _random_transform(rng) for m in range(3)}, 0)
        sets = {
            (t, c, m): tuple(_random_transform(rng, 0.05) for _ in range(1 + (t + c * m) % 2))
            for t in (0, 1, 3, 4)
            for c in range(3)
            for m in range(3)
            if (t + c + m) % 4
        }
        table = _table(sets)
        traj = build_trajectory(frame_candidates(table, cams, markers), 7)
        assert sorted(traj.frames) == list(range(7))
        assert [t for t, _ in traj.tracked_items()] == [0, 1, 3, 4]
        for t in (2, 5, 6):
            assert traj.frames[t].pose is None
        for t in (0, 1, 3, 4):
            own = frame_candidates(_table({k: v for k, v in sets.items() if k[0] == t}), cams, markers)
            cands = [own.candidates[i] for i in range(len(own.candidates))]
            assert _same(traj.frames[t].pose, cands[_brute_force_index(cands)]), t

    def test_detection_outside_structure_rejected(self):
        rng = np.random.default_rng(199)
        cams = _structure({0: RigidTransform.identity(), 1: _random_transform(rng)}, 0)
        markers = _structure({0: RigidTransform.identity()}, 0)
        table = _table({
            (0, 0, 0): (_random_transform(rng),),
            (2, 1, 0): (_random_transform(rng),),
            (2, 1, 5): (_random_transform(rng),),
        })
        with pytest.raises(ValueError, match="t=2, cam=1, marker=5"):
            frame_candidates(table, cams, markers)
