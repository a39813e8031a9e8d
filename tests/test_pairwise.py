"""Tests for pairwise transform sampling and optimal-sample selection."""

from __future__ import annotations

import math
from itertools import combinations, product

import numpy as np
import pytest

from markercal.errors import EmptyCandidateSet
from markercal.geometry import (
    CameraIntrinsics,
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
    rotations_from_rvecs,
)
from markercal.pairwise import (
    AXIS_TIPS,
    CAMERA_PAIR,
    MARKER_PAIR,
    PairAccumulator,
    PairKey,
    argmin_summed_distance,
    collect_camera_pairs,
    collect_marker_pairs,
    select_optimal,
    transform_distance,
)
from markercal.planar_pose import (
    CandidateSet,
    Detection,
    candidate_set,
    corner_arrays,
    planar_poses,
)

INTR = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0)
TPL = MarkerTemplate(side=0.04)


def _random_transform(rng, t_scale=1.0) -> RigidTransform:
    rvec = rng.normal(size=3)
    rvec *= rng.uniform(0, math.pi - 0.1) / np.linalg.norm(rvec)
    return RigidTransform(rotation_from_rvec(rvec), rng.uniform(-t_scale, t_scale, 3))


def _table(sets: dict) -> CandidateSet:
    """The candidate table of {(t, cam, marker): (kept transforms, ...)}."""
    keys = sorted(sets)
    poses = PoseStack.of([p for key in keys for p in sets[key]])
    return CandidateSet(keys, [len(sets[key]) for key in keys], np.full(len(keys), np.nan), poses)


def _detect_in_camera(world_from_marker, cam_from_world, t=0, cam=0, marker=0) -> Detection:
    marker_in_cam = compose(cam_from_world, world_from_marker)
    pix = project(marker_in_cam.apply(TPL.corners), INTR)
    return Detection(t=t, cam=cam, marker=marker, corners=pix)


def _estimated(world_from_marker, cam_from_world, tau=2.0, **kw) -> tuple[RigidTransform, ...]:
    det = _detect_in_camera(world_from_marker, cam_from_world, **kw)
    poses = planar_poses(*corner_arrays([det], {det.cam: INTR}), TPL)
    table = candidate_set(poses, [det.key], tau)
    return tuple(table.poses[i] for i in range(len(table.poses)))


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
        assert transform_distance(t, t) == 0.0

    def test_pure_translation(self):
        # each of the three tips moves by 0.1 m: 3 * 0.1^2
        a = RigidTransform.identity()
        b = RigidTransform(np.eye(3), [0.1, 0.0, 0.0])
        assert transform_distance(a, b) == pytest.approx(0.03, abs=1e-15)

    def test_quarter_turn(self):
        # a quarter turn about z carries the x tip (1,0,0) to (0,1,0) and the
        # y tip (0,1,0) to (-1,0,0), each 2 m^2 away, and keeps the z tip
        a = RigidTransform.identity()
        b = RigidTransform(rotation_from_rvec([0.0, 0.0, math.pi / 2]), [0.0, 0.0, 0.0])
        assert transform_distance(a, b) == pytest.approx(4.0, abs=1e-12)

    def test_matches_brute_force_formula(self):
        # oracle: literal per-point re-evaluation of the defining sum
        rng = np.random.default_rng(97)
        for _ in range(20):
            a, b = _random_transform(rng), _random_transform(rng)
            expected = 0.0
            for v in AXIS_TIPS:
                expected += float(
                    np.linalg.norm(
                        (a.rotation @ v + a.translation) - (b.rotation @ v + b.translation)
                    )
                    ** 2
                )
            assert transform_distance(a, b) == pytest.approx(expected, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(101)
        a, b = _random_transform(rng), _random_transform(rng)
        assert transform_distance(a, b) == transform_distance(b, a)


def _only_samples(accs, key) -> list[RigidTransform]:
    assert set(accs) == {key}
    samples = accs[key].samples
    return [samples[i] for i in range(len(samples))]


def _same(a: RigidTransform, b: RigidTransform) -> bool:
    return np.array_equal(a.rotation, b.rotation) and np.array_equal(
        a.translation, b.translation
    )


class TestCameraPairSamples:
    def test_product_sizes(self):
        rng = np.random.default_rng(103)
        t1, t2, t3, t4 = (_random_transform(rng) for _ in range(4))

        def n_samples(xi_0, xi_1):
            accs = collect_camera_pairs(_table({(0, 0, 0): xi_0, (0, 1, 0): xi_1}))
            return len(_only_samples(accs, PairKey(0, 1)))

        assert n_samples((t1,), (t2,)) == 1
        assert n_samples((t1, t2), (t3, t4)) == 4
        assert n_samples((t1, t2), (t3,)) == 2
        # an empty set bridges nothing
        assert collect_camera_pairs(_table({(0, 0, 0): (), (0, 1, 0): (t1,)})) == {}

    def test_recovers_ground_truth_relative_pose(self):
        # two cameras a meter apart, a marker tilted enough for both views to
        # be unambiguous; the full chain detection -> pose -> pair sample
        # must reproduce the known camera-to-camera transform
        cam0 = RigidTransform(rotation_from_rvec([0.0, 0.25, 0.0]), [0.0, 0.0, 1.2])
        cam1 = RigidTransform(rotation_from_rvec([-0.1, -0.3, 0.05]), [-0.3, 0.05, 1.1])
        marker = RigidTransform(rotation_from_rvec([0.45, 0.2, 0.1]), [0.02, -0.03, 0.0])
        xi0 = _estimated(marker, cam0, cam=0)
        xi1 = _estimated(marker, cam1, cam=1)
        assert len(xi0) == 1 and len(xi1) == 1
        accs = collect_camera_pairs(_table({(0, 0, 0): xi0, (0, 1, 0): xi1}))
        samples = _only_samples(accs, PairKey(0, 1))
        assert len(samples) == 1
        truth = compose(cam0, invert(cam1))  # camera-1 coords -> camera-0 coords
        got = samples[0]
        assert rotation_angle(got.rotation.T @ truth.rotation) < 1e-6
        assert np.linalg.norm(got.translation - truth.translation) < 1e-6


class TestMarkerPairSamples:
    KEY = PairKey(0, 1, MARKER_PAIR)

    def test_recovers_ground_truth_relative_pose(self):
        cam = RigidTransform(rotation_from_rvec([0.0, 0.2, 0.0]), [0.0, 0.0, 1.0])
        m0 = RigidTransform(rotation_from_rvec([0.5, 0.1, 0.0]), [-0.05, 0.0, 0.0])
        m1 = RigidTransform(rotation_from_rvec([-0.4, 0.3, 0.1]), [0.06, 0.01, 0.02])
        xi0 = _estimated(m0, cam, marker=0)
        xi1 = _estimated(m1, cam, marker=1)
        assert len(xi0) == 1 and len(xi1) == 1
        accs = collect_marker_pairs(_table({(0, 0, 0): xi0, (0, 0, 1): xi1}))
        samples = _only_samples(accs, self.KEY)
        assert len(samples) == 1
        truth = compose(invert(m0), m1)  # marker-1 coords -> marker-0 coords
        got = samples[0]
        assert rotation_angle(got.rotation.T @ truth.rotation) < 1e-6
        assert np.linalg.norm(got.translation - truth.translation) < 1e-6

    def test_ambiguous_pair_contains_truth(self):
        # both markers face the camera head-on: four samples, one of which
        # pairs the two true poses
        cam = RigidTransform(np.eye(3), [0.0, 0.0, 0.0])
        m0 = RigidTransform(np.eye(3), [-0.05, 0.0, 1.0])
        m1 = RigidTransform(np.eye(3), [0.06, 0.01, 1.0])
        xi0 = _estimated(m0, cam, marker=0, tau=1e14)
        xi1 = _estimated(m1, cam, marker=1, tau=1e14)
        assert len(xi0) == 2 and len(xi1) == 2
        accs = collect_marker_pairs(_table({(0, 0, 0): xi0, (0, 0, 1): xi1}))
        samples = _only_samples(accs, self.KEY)
        assert len(samples) == 4
        truth = compose(invert(m0), m1)
        best = min(
            rotation_angle(s.rotation.T @ truth.rotation)
            + np.linalg.norm(s.translation - truth.translation)
            for s in samples
        )
        assert best < 1e-6


class TestSelectOptimal:
    def test_singleton(self):
        rng = np.random.default_rng(107)
        t = _random_transform(rng)
        acc = PairAccumulator(PairKey(0, 1), PoseStack.of([t]))
        best, d_total = select_optimal(acc)
        assert _same(best, t)
        assert d_total == 0.0
        assert acc.selected.index == 0

    def test_majority_wins_with_index_tiebreak(self):
        eye = RigidTransform.identity()
        outlier = RigidTransform(rotation_from_rvec([0.0, 0.0, 2.0]), [0.5, 0.0, 0.0])
        acc = PairAccumulator(PairKey(0, 1), PoseStack.of([eye, eye, eye, outlier]))
        best, _ = select_optimal(acc)
        assert _same(best, eye)
        assert acc.selected.index == 0

    def test_empty_raises(self):
        with pytest.raises(EmptyCandidateSet):
            select_optimal(PairAccumulator(PairKey(0, 1)))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(109)
        for _ in range(10):
            samples = [_random_transform(rng) for _ in range(50)]
            acc = PairAccumulator(PairKey(0, 1), PoseStack.of(samples))
            best, d_total = select_optimal(acc)
            idx, oracle_total = _brute_force_argmin(samples)
            assert acc.selected.index == idx
            assert d_total == pytest.approx(oracle_total, rel=1e-12)

    def test_large_set_path_matches_oracle(self):
        # three times the largest set of criterion 4, against the O(n^2) oracle
        rng = np.random.default_rng(113)
        samples = [_random_transform(rng) for _ in range(150)]
        acc = PairAccumulator(PairKey(0, 1), PoseStack.of(samples))
        select_optimal(acc)
        idx, oracle_total = _brute_force_argmin(samples)
        assert acc.selected.index == idx
        assert acc.selected.d_total == pytest.approx(oracle_total, rel=1e-9)

    def test_permutation_invariant_for_distinct_distances(self):
        rng = np.random.default_rng(127)
        samples = [_random_transform(rng) for _ in range(12)]
        acc = PairAccumulator(PairKey(0, 1), PoseStack.of(samples))
        best, _ = select_optimal(acc)
        perm = list(rng.permutation(12))
        acc2 = PairAccumulator(PairKey(0, 1), PoseStack.of([samples[i] for i in perm]))
        best2, _ = select_optimal(acc2)
        assert _same(best2, best)

    def test_selection_invariants(self):
        rng = np.random.default_rng(131)
        samples = [_random_transform(rng) for _ in range(9)]
        acc = PairAccumulator(PairKey(0, 1), PoseStack.of(samples))
        best, d_total = select_optimal(acc)
        assert any(_same(s, best) for s in samples)
        recomputed = sum(transform_distance(best, s) for s in samples)
        assert abs(recomputed - d_total) < 1e-12

    def test_tight_clusters_match_oracle_totals(self):
        # near-identical samples about 2 m away: the closed form centres
        # axis-tip images of ~2 m magnitude, so its totals must still track
        # the O(n^2) sums of tiny pairwise distances
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
                samples.append(compose(center, jitter))
            acc = PairAccumulator(PairKey(0, 1), PoseStack.of(samples))
            _, d_total = select_optimal(acc)
            totals = _brute_force_totals(samples)
            chosen = totals[acc.selected.index]
            assert chosen == pytest.approx(totals.min(), rel=1e-8)
            assert d_total == pytest.approx(chosen, rel=1e-8)

    @pytest.mark.parametrize("n", [65, 130, 257])
    def test_exact_duplicate_ties_go_to_lowest_index(self, n):
        # a copy of the winner, inserted at or before it, ties with it exactly
        # (every total rises by the distance to the copy, which is zero for
        # both), so both selectors must pick the copy's earlier position
        rng = np.random.default_rng(n)
        transforms = [_random_transform(rng) for _ in range(n)]
        winner = int(np.argmin(_brute_force_totals(transforms)))
        pos = int(rng.integers(0, winner + 1))
        twin = transforms[winner]
        copy = RigidTransform(twin.rotation.copy(), twin.translation.copy())
        transforms.insert(pos, copy)

        stack = PoseStack.of(transforms)
        acc = PairAccumulator(PairKey(0, 1), stack)
        best, _ = select_optimal(acc)
        assert acc.selected.index == pos
        assert _same(best, copy)

        # frame selection runs the same kernel, one segment per frame
        rows, _ = argmin_summed_distance(stack, [0])
        assert rows.tolist() == [pos]


def _brute_force_totals(transforms) -> np.ndarray:
    """Summed distance of each transform to all, as an explicit n x n sum."""
    images = np.stack([t.apply(AXIS_TIPS) for t in transforms])
    diff = images[:, None, :, :] - images[None, :, :, :]
    return (diff ** 2).sum(axis=(2, 3)).sum(axis=1)


def _brute_force_argmin(samples):
    """Independent O(n^2) evaluation of the selection rule."""
    totals = []
    for k in range(len(samples)):
        tk = samples[k]
        total = 0.0
        for s in samples:
            diff = tk.apply(AXIS_TIPS) - s.apply(AXIS_TIPS)
            total += float((diff ** 2).sum())
        totals.append(total)
    best = min(range(len(totals)), key=lambda i: (totals[i], i))
    return best, totals[best]


def _first_min(totals) -> int:
    best = 0
    for k in range(1, len(totals)):
        if totals[k] < totals[best]:
            best = k
    return best


def _argmin_identity_product(poses, starts):
    """argmin_summed_distance with the axis-tip images formed as one
    (3n,3) x (3,3) product with the identity: the reference the kernel's
    images read from R's columns must match byte for byte."""
    n = len(poses)
    starts = np.asarray(starts, dtype=np.int64).reshape(-1)
    sizes = np.diff(starts, append=n)
    seg = np.repeat(np.arange(len(starts)), sizes)
    images = (poses.rotations.reshape(-1, 3) @ np.eye(3)).reshape(n, 3, 3).transpose(0, 2, 1)
    images = (images + poses.translations[:, None, :]).reshape(n, 9)
    sums = np.bincount((9 * seg[:, None] + np.arange(9)).ravel(), images.ravel(), 9 * len(starts))
    centred = images - (sums.reshape(-1, 9) / sizes[:, None])[seg]
    spread = np.sum(centred * centred, axis=1)
    totals = sizes[seg] * spread + np.bincount(seg, spread)[seg]
    first = (totals == np.minimum.reduceat(totals, starts)[seg]) | np.isnan(totals)
    best = np.minimum.reduceat(np.where(first, np.arange(n), n), starts)
    return best, totals[best]


class TestSegmentedArgmin:
    def test_one_call_matches_brute_force_per_segment(self):
        rng = np.random.default_rng(211)
        segments = []
        for k in range(200):
            n = 1 if k % 10 == 0 else int(rng.integers(1, 51))
            seg = [_random_transform(rng) for _ in range(n)]
            if k % 3 == 0 and n >= 2:
                # a copy of the winner, at or before it, ties with it exactly
                win = _first_min(_brute_force_totals(seg))
                twin = seg[win]
                seg.insert(int(rng.integers(0, win + 1)),
                           RigidTransform(twin.rotation.copy(), twin.translation.copy()))
            if k % 4 == 1:
                # the previous segment's last row opens this one: exact
                # duplicates on both sides of a segment boundary
                seg.insert(0, segments[-1][-1])
            segments.append(seg)
        sizes = [len(seg) for seg in segments]
        assert min(sizes) == 1 and max(sizes) >= 50
        starts = np.cumsum([0] + sizes[:-1])
        stack = PoseStack.of([t for seg in segments for t in seg])
        rows, totals = argmin_summed_distance(stack, starts)
        assert rows.shape == totals.shape == (200,)
        for k, seg in enumerate(segments):
            oracle = _brute_force_totals(seg)
            expect = _first_min(oracle)
            # distinct rows whose oracle totals are bit-equal (the two rows of
            # a two-row segment: a0 - a1 and a1 - a0 square to the same sum)
            # may resolve either way; any other minimum must be picked
            # exactly, and of exact duplicates always the lowest row
            tied = np.flatnonzero(oracle == oracle[expect])
            got = int(rows[k] - starts[k])
            if len(tied) == 1:
                assert got == expect, k
            else:
                assert got in tied, k
            assert not any(_same(seg[j], seg[got]) for j in range(got)), k
            assert totals[k] == pytest.approx(oracle[expect], rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("segmented", [False, True], ids=["one segment", "segmented"])
    def test_axis_tip_images_match_identity_product_bytes(self, segmented):
        # the images R e_j + t read straight from R's columns round nothing
        # that a product with the identity's exact 1s and 0s rounds, and a
        # zero's sign squares away: the same rows and the same total bytes,
        # identity rotations, zero translations and exact duplicates included
        rng = np.random.default_rng(229 + segmented)
        for n in (1, 2, 7, 500, 4096):
            rotations = rotations_from_rvecs(rng.normal(size=(n, 3)))
            translations = rng.uniform(-1.0, 1.0, (n, 3))
            rotations[rng.random(n) < 0.1] = np.eye(3)
            translations[rng.random(n) < 0.1] = 0.0
            dup = rng.random(n) < 0.1
            dup[0] = False
            rotations[dup] = rotations[np.flatnonzero(dup) - 1]
            translations[dup] = translations[np.flatnonzero(dup) - 1]
            stack = PoseStack(rotations, translations)
            starts = [0]
            if segmented and n > 1:
                cuts = rng.choice(np.arange(1, n), size=min(n - 1, n // 5 + 1), replace=False)
                starts = np.sort(np.append(cuts, 0))
            rows, totals = argmin_summed_distance(stack, starts)
            ref_rows, ref_totals = _argmin_identity_product(stack, starts)
            np.testing.assert_array_equal(rows, ref_rows)
            assert totals.tobytes() == ref_totals.tobytes()

    @pytest.mark.parametrize("starts", [[], [1, 3], [0, 3, 2], [0, 2, 2], [0, 5], [-1, 2]])
    def test_bad_starts_raise(self, starts):
        rng = np.random.default_rng(223)
        stack = PoseStack.of([_random_transform(rng) for _ in range(5)])
        with pytest.raises(ValueError):
            argmin_summed_distance(stack, starts)


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
                    xi[(t, c, m)] = _estimated(world_from_marker, cam, t=t, cam=c, marker=m)
        return xi, cams, markers

    def test_camera_pairs_cover_all_pairs(self):
        xi, cams, markers = self._scene_candidate_sets()
        accs = collect_camera_pairs(_table(xi))
        assert set(accs) == {PairKey(0, 1), PairKey(0, 2), PairKey(1, 2)}
        for key, acc in accs.items():
            assert acc.key.kind == CAMERA_PAIR
            # 3 frames x 2 markers bridges, possibly more if ambiguous
            assert len(acc.samples) >= 6
            best, _ = select_optimal(acc)
            truth = compose(cams[key.a], invert(cams[key.b]))
            assert rotation_angle(best.rotation.T @ truth.rotation) < 1e-5
            assert np.linalg.norm(best.translation - truth.translation) < 1e-5

    def test_marker_pairs_store_b_to_a(self):
        xi, cams, markers = self._scene_candidate_sets()
        accs = collect_marker_pairs(_table(xi))
        assert set(accs) == {PairKey(0, 1, MARKER_PAIR)}
        acc = accs[PairKey(0, 1, MARKER_PAIR)]
        assert len(acc.samples) >= 9  # 3 frames x 3 cameras
        best, _ = select_optimal(acc)
        truth = compose(invert(markers[0]), markers[1])  # marker-1 -> marker-0
        assert rotation_angle(best.rotation.T @ truth.rotation) < 1e-5
        assert np.linalg.norm(best.translation - truth.translation) < 1e-5

    def _with_ambiguous_sets(self):
        # every third detection keeps both planar poses, and one is unusable
        xi, _, _ = self._scene_candidate_sets()
        rng = np.random.default_rng(149)
        for n, key in enumerate(sorted(xi)):
            if n % 3 == 0:
                xi[key] = (*xi[key], _random_transform(rng))
        xi[(1, 2, 0)] = ()
        return xi

    @pytest.mark.parametrize("collect, slot", [(collect_camera_pairs, 1), (collect_marker_pairs, 2)])
    def test_batched_samples_match_per_pairing_reference(self, collect, slot):
        xi = self._with_ambiguous_sets()
        accs = collect(_table(xi))
        ref = _reference_pairs(xi, slot)
        assert list(accs) == list(ref)
        for key, samples in ref.items():
            got = accs[key].samples
            assert len(got) == len(samples)
            for i, expect in enumerate(samples):
                assert _same(got[i], expect), (key, i)
        assert any(len(s) > 6 for s in ref.values())  # ambiguous products present

    @pytest.mark.parametrize("collect, slot", [(collect_camera_pairs, 1), (collect_marker_pairs, 2)])
    def test_array_listing_matches_per_bridge_loop(self, collect, slot):
        # random tables: counts 0, 1 and 2, bridges of 1 to 5 members, gaps
        # in the frame and id sequences, and a few keys given twice
        sizes = set()
        for seed in range(12):
            table = _random_table(np.random.default_rng(300 + seed))
            ref = _listing_oracle(table, slot)
            accs = collect(table)
            assert list(accs) == list(ref)
            for key, samples in ref.items():
                assert accs[key].key == key
                np.testing.assert_array_equal(accs[key].samples.rotations, samples.rotations)
                np.testing.assert_array_equal(accs[key].samples.translations, samples.translations)
            posed = table.keys[table.counts > 0]
            _, per_bridge = np.unique(posed[:, [0, 3 - slot]], axis=0, return_counts=True)
            sizes.update(per_bridge.tolist())
        assert {1, 2, 3, 4, 5} <= sizes

    def test_empty_table_has_no_pairs(self):
        table = _table({})
        assert collect_camera_pairs(table) == {} and collect_marker_pairs(table) == {}


def _random_table(rng) -> CandidateSet:
    """A candidate table over sparse frames, cameras and markers, with random
    poses and counts of 0, 1 or 2, and some keys repeated."""
    keys = [
        (t, c, m)
        for t in sorted(rng.choice(40, 6, replace=False).tolist())
        for c in (0, 2, 3, 5, 9)
        for m in (1, 4, 6, 7, 11)
        if rng.random() < 0.6
    ]
    keys += [keys[i] for i in rng.choice(len(keys), 3, replace=False)]
    keys.sort()
    counts = rng.integers(0, 3, len(keys))
    n = int(counts.sum())
    poses = PoseStack(rotations_from_rvecs(rng.normal(size=(n, 3))), rng.uniform(-1, 1, (n, 3)))
    return CandidateSet(keys, counts, np.full(len(keys), np.nan), poses)


def _listing_oracle(table: CandidateSet, member_slot: int) -> dict[PairKey, PoseStack]:
    """Pair samples listed by a loop over bridges: the index pairs of every
    (bridge, a < b, product) pairing, composed in one batch and split by pair
    in first-appearance order. A key given twice keeps its last row."""
    kind = CAMERA_PAIR if member_slot == 1 else MARKER_PAIR
    by_bridge: dict[tuple[int, int], dict[int, range]] = {}
    offsets = table.offsets.tolist()
    for key, lo, hi in zip(table.keys.tolist(), offsets, offsets[1:]):
        if hi > lo:
            members = by_bridge.setdefault((key[0], key[3 - member_slot]), {})
            members[key[member_slot]] = range(lo, hi)
    keys: dict[PairKey, int] = {}
    pairings, owner = [], []
    for bridge in sorted(by_bridge):
        members = by_bridge[bridge]
        for a, b in combinations(sorted(members), 2):
            outer, inner = (members[a], members[b]) if kind == CAMERA_PAIR else (members[b], members[a])
            pairings += product(outer, inner)
            owner += [keys.setdefault(PairKey(a, b, kind), len(keys))] * (len(outer) * len(inner))
    outer, inner = np.array(pairings, dtype=np.int64).reshape(-1, 2).T
    poses = table.poses
    if kind == CAMERA_PAIR:
        samples = compose_many(poses[outer], invert_many(poses[inner]))
    else:
        samples = compose_many(invert_many(poses[inner]), poses[outer])
    owner = np.array(owner, dtype=np.int64)
    return {key: samples[np.flatnonzero(owner == j)] for key, j in keys.items()}


def _reference_pairs(xi, member_slot) -> dict[PairKey, list[RigidTransform]]:
    """Pair samples built one at a time with compose/invert, in (bridge, a<b,
    product) order: T_a * T_b^-1 for cameras, T_a^-1 * T_b for markers."""
    kind = CAMERA_PAIR if member_slot == 1 else MARKER_PAIR
    by_bridge = {}
    for key, cset in xi.items():
        if len(cset):
            by_bridge.setdefault((key[0], key[3 - member_slot]), {})[key[member_slot]] = cset
    ref = {}
    for bridge in sorted(by_bridge):
        members = by_bridge[bridge]
        for a, b in combinations(sorted(members), 2):
            xa, xb = members[a], members[b]
            if kind == CAMERA_PAIR:
                samples = [compose(ta, invert(tb)) for ta, tb in product(xa, xb)]
            else:
                samples = [compose(invert(ta), tb) for tb, ta in product(xb, xa)]
            ref.setdefault(PairKey(a, b, kind), []).extend(samples)
    return ref
