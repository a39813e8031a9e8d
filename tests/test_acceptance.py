"""Release gates: accuracy, robustness and speed of the full toolkit.

Each test states its tolerance inline and prints the measured numbers, so a
verbose run reads as one pass/fail line per gate. Scenes are generated with
fixed seeds; every expected value is either exact ground truth from the
generator or checked against an independent oracle computed here.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from scipy.sparse.csgraph import minimum_spanning_tree as scipy_mst
from scipy.sparse import csr_matrix

from markercal.dataset import Dataset
from markercal.frame_init import (
    FramePoseCandidates,
    FrameState,
    SOURCE_INIT,
    Trajectory,
    select_frame_pose,
)
from markercal.geometry import (
    CameraIntrinsics,
    MarkerTemplate,
    PoseStack,
    RigidTransform,
    compose,
    invert,
    rotation_angle,
    rotation_from_rvec,
)
from markercal.optimizer import (
    ParamLayout,
    ResidualBuilder,
    SolverOptions,
    lm_minimize,
    pack_params,
    track_frame,
)
from markercal.pairwise import (
    PairAccumulator,
    PairKey,
    probe_points,
    select_optimal,
    transform_distance,
)
from markercal.pipeline import (
    CalibrationConfig,
    calibrate,
    detection_candidates,
    track_sequence,
)
from markercal.structure_init import (
    GraphEdge,
    PoseGraph,
    StructureEstimate,
    edge_weight,
    minimum_spanning_tree,
)
from markercal.synthetic import (
    GroundTruth,
    SceneSpec,
    evaluate,
    generate,
    result_from_ground_truth,
)


def _random_transform(rng) -> RigidTransform:
    return RigidTransform(
        rotation_from_rvec(rng.normal(0.0, 1.0, 3)), rng.normal(0.0, 0.5, 3)
    )


def _calibrate_scene(spec: SceneSpec, config: CalibrationConfig = CalibrationConfig()):
    gt, dets, intr = generate(spec)
    ds = Dataset(dets, intr, spec.marker_side, spec.n_frames)
    result, artifacts = calibrate(ds, config)
    return gt, ds, result, artifacts


def test_criterion_1_exact_recovery():
    """Zero-noise scene: structure, extrinsics and all frame poses to 1e-6,
    final rms < 1e-8 px, runtime < 120 s."""
    spec = SceneSpec(
        n_cameras=5,
        circle_radius=1.0,
        object="cube",
        marker_side=0.04,
        n_frames=200,
        trajectory="orbit",
        noise_sigma=0.0,
        seed=0,
    )
    start = time.perf_counter()
    gt, ds, result, _ = _calibrate_scene(spec)
    elapsed = time.perf_counter() - start

    worst_rot = 0.0
    worst_trans = 0.0
    for est_side, gt_side in (
        (result.cams, gt.cams_gt),
        (result.markers, gt.markers_gt),
    ):
        assert set(est_side.poses) == set(gt_side.poses)
        for key, pose in est_side.poses.items():
            ref = gt_side.poses[key]
            worst_rot = max(worst_rot, rotation_angle(pose.rotation @ ref.rotation.T))
            worst_trans = max(
                worst_trans, float(np.linalg.norm(pose.translation - ref.translation))
            )
    est_frames = dict(result.traj.tracked_items())
    gt_frames = dict(gt.traj_gt.tracked_items())
    assert set(est_frames) == set(gt_frames)
    for t, pose in est_frames.items():
        ref = gt_frames[t]
        worst_rot = max(worst_rot, rotation_angle(pose.rotation @ ref.rotation.T))
        worst_trans = max(
            worst_trans, float(np.linalg.norm(pose.translation - ref.translation))
        )

    print(
        f"\nexact recovery: rot {worst_rot:.3e} rad, trans {worst_trans:.3e} m, "
        f"rms {result.report.final_rms:.3e} px, {elapsed:.1f} s"
    )
    assert worst_rot < 1e-6
    assert worst_trans < 1e-6
    assert result.report.final_rms < 1e-8
    assert elapsed < 120.0


def test_criterion_2_noise_accuracy():
    """sigma = 0.3 px, radius 0.7 m, 5 seeds: mean errors below
    2 mm / 3 deg / 10 mm / 1.5 mm (object / rotation / camera / structure)."""
    reports = []
    for seed in range(5):
        spec = SceneSpec(
            n_cameras=5,
            circle_radius=0.7,
            object="cube",
            marker_side=0.04,
            n_frames=200,
            trajectory="orbit",
            noise_sigma=0.3,
            seed=seed,
        )
        gt, ds, result, _ = _calibrate_scene(spec)
        reports.append(evaluate(result, gt))
    obj = np.mean([r.obj_trans_err for r in reports])
    rot = np.mean([r.obj_rot_err for r in reports])
    cam = np.mean([r.cam_trans_err for r in reports])
    cfg = np.mean([r.marker_config_err for r in reports])
    print(
        f"\nnoise accuracy (5-seed means): obj {obj:.3f} mm, rot {rot:.3f} deg, "
        f"cam {cam:.3f} mm, config {cfg:.3f} mm"
    )
    assert obj < 2.0
    assert rot < 3.0
    assert cam < 10.0
    assert cfg < 1.5


def test_criterion_3_jacobian_and_descent():
    """Analytic Jacobian vs central differences on 20 random configurations
    (max relative error < 1e-4); every optimizer run strictly decreases the
    accepted-step cost."""
    worst = 0.0
    for k in range(20):
        rng = np.random.default_rng(300 + k)
        spec = SceneSpec(
            n_cameras=3,
            circle_radius=0.7,
            object="cube",
            marker_side=0.05,
            n_frames=3,
            trajectory="orbit",
            noise_sigma=0.2,
            seed=300 + k,
        )
        gt, dets, intr = generate(spec)
        truth = result_from_ground_truth(gt, spec.marker_side)
        frames = {t: pose for t, pose in truth.traj.tracked_items()}
        layout = ParamLayout.build(
            truth.cams.poses,
            truth.markers.poses,
            frames,
            truth.cams.reference,
            truth.markers.reference,
        )
        builder = ResidualBuilder(dets, intr, MarkerTemplate(spec.marker_side), layout)
        x = pack_params(truth.cams.poses, truth.markers.poses, frames, layout)
        x = x + rng.normal(0.0, 0.03, x.shape)

        analytic = builder.system(x).jacobian.toarray()
        h = 1e-6
        numeric = np.empty_like(analytic)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = h
            numeric[:, i] = (builder.residuals(x + e) - builder.residuals(x - e)) / (
                2.0 * h
            )
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1.0)
        worst = max(worst, float(rel.max()))

        _, report = lm_minimize(x, builder, SolverOptions(max_iters=40))
        history = np.array(report.cost_history)
        assert history.size > 0
        assert np.all(np.diff(history) < 0.0), "cost must strictly decrease"
        assert report.final_rms <= report.initial_rms
    print(f"\njacobian check: worst relative error {worst:.3e}")
    assert worst < 1e-4


def test_criterion_4_selection_matches_brute_force():
    """Pair-sample and frame-pose selection equal an independent O(n^2)
    brute-force argmin on 100 random candidate sets (exact index, ties to
    the lowest index)."""
    rng = np.random.default_rng(4)
    probe = probe_points(1.0)

    def brute_force(transforms) -> int:
        totals = [
            sum(transform_distance(transforms[k], t, probe) for t in transforms)
            for k in range(len(transforms))
        ]
        best = 0
        for k in range(1, len(totals)):
            if totals[k] < totals[best]:
                best = k
        return best

    for case in range(100):
        n = int(rng.integers(1, 51))
        transforms = [_random_transform(rng) for _ in range(n)]
        if case % 5 == 0 and n >= 2:
            # exact duplicates force the documented lowest-index tie-break
            dup_src = int(rng.integers(0, n - 1))
            transforms[dup_src + 1] = transforms[dup_src]
        expect = brute_force(transforms)

        if case % 2 == 0:
            acc = PairAccumulator(PairKey(0, 1, "camera"))
            acc.samples = PoseStack.of(transforms)
            select_optimal(acc, probe)
            assert acc.selected.index == expect
        else:
            cands = FramePoseCandidates(t=case, candidates=PoseStack.of(transforms))
            chosen = select_frame_pose(cands, probe)
            assert np.array_equal(chosen.rotation, transforms[expect].rotation)
            assert np.array_equal(chosen.translation, transforms[expect].translation)
    print("\nselection oracle: 100/100 candidate sets matched exactly")


def test_criterion_5_ambiguity_handling():
    """Chronic fronto-parallel scene at 2 m, sigma = 0.5 px: >= 50% of the
    detections carry both planar solutions, the full pipeline stays within
    the noise-accuracy tolerances, and best-solution-only runs produce a
    strictly worse median camera translation error over 5 seeds."""
    zoom = CameraIntrinsics(
        fx=1800.0, fy=1800.0, cx=640.0, cy=480.0, width=1280, height=960
    )
    full_reports = []
    full_cam = []
    abl_cam = []
    for seed in range(5):
        spec = SceneSpec(
            n_cameras=5,
            circle_radius=0.20,
            camera_height=2.0,
            intrinsics=zoom,
            object="flat-grid",
            marker_side=0.06,
            n_frames=100,
            trajectory="orbit",
            noise_sigma=0.5,
            ambiguity_stress=True,
            seed=seed,
        )
        gt, dets, intr = generate(spec)
        ds = Dataset(dets, intr, spec.marker_side, spec.n_frames)

        sets = detection_candidates(ds, CalibrationConfig())
        two = int(np.sum(sets.counts == 2))
        frac = two / len(sets)
        assert frac >= 0.5, f"seed {seed}: only {frac:.2f} ambiguous detections"

        result, _ = calibrate(ds, CalibrationConfig())
        full_reports.append(evaluate(result, gt))
        full_cam.append(full_reports[-1].cam_trans_err)

        ablated, _ = calibrate(ds, CalibrationConfig(tau_ratio=1.0))
        abl_cam.append(evaluate(ablated, gt).cam_trans_err)

    obj = np.mean([r.obj_trans_err for r in full_reports])
    rot = np.mean([r.obj_rot_err for r in full_reports])
    cam = np.mean([r.cam_trans_err for r in full_reports])
    cfg = np.mean([r.marker_config_err for r in full_reports])
    med_full = float(np.median(full_cam))
    med_abl = float(np.median(abl_cam))
    print(
        f"\nambiguity handling: full means obj {obj:.3f} mm rot {rot:.3f} deg "
        f"cam {cam:.3f} mm config {cfg:.3f} mm; median cam error "
        f"full {med_full:.6f} mm vs best-only {med_abl:.6f} mm"
    )
    assert obj < 2.0 and rot < 3.0 and cam < 10.0 and cfg < 1.5
    assert med_abl > med_full, (
        f"best-only median {med_abl:.6f} mm should exceed full {med_full:.6f} mm"
    )


def test_criterion_6_mst_weight_oracle():
    """Authored MST total weight equals an independent algorithm on 50 random
    connected graphs; the edge-weight formula gives exactly 2 at
    (d_mean=1, s=5, tau_n=10)."""
    assert edge_weight(1.0, 5, 10.0) == 2.0

    rng = np.random.default_rng(6)
    identity = RigidTransform.identity()
    for _ in range(50):
        n = int(rng.integers(4, 13))
        edges = {}
        for v in range(1, n):  # random spanning tree keeps the graph connected
            u = int(rng.integers(0, v))
            edges[PairKey(min(u, v), max(u, v), "camera")] = None
        for _ in range(int(rng.integers(0, n))):
            u, v = rng.choice(n, size=2, replace=False)
            edges[PairKey(int(min(u, v)), int(max(u, v)), "camera")] = None
        dense = np.zeros((n, n))
        for key in edges:
            w = float(rng.uniform(0.1, 10.0))
            edges[key] = GraphEdge(w, w, 1, identity)
            dense[key.a, key.b] = w
        g = PoseGraph("camera", set(range(n)), edges)

        tree = minimum_spanning_tree(g)
        mine = sum(g.edges[k].weight for k in tree)
        oracle = float(scipy_mst(csr_matrix(dense)).sum())
        assert len(tree) == n - 1
        assert mine == pytest.approx(oracle, abs=1e-9)
    print("\nmst oracle: 50/50 total weights matched")


def test_criterion_7_tracking_speed():
    """Warm-started frame solve <= 5 ms for a 5-camera multi-marker frame;
    a 735-frame sequence tracks at >= 200 poses/s."""
    spec = SceneSpec(
        n_cameras=5,
        circle_radius=0.7,
        object="cube",
        marker_side=0.04,
        n_frames=735,
        trajectory="fast",
        noise_sigma=0.2,
        seed=7,
    )
    gt, dets, intr = generate(spec)
    result = result_from_ground_truth(gt, spec.marker_side)

    by_frame: dict[int, list] = {}
    for d in dets:
        by_frame.setdefault(d.t, []).append(d)
    t_big = max(by_frame, key=lambda t: len(by_frame[t]))
    frame = by_frame[t_big]
    assert len({d.cam for d in frame}) == 5
    warm = dict(gt.traj_gt.tracked_items())[t_big]
    template = MarkerTemplate(spec.marker_side)

    times = []
    for _ in range(30):
        start = time.perf_counter()
        pose, rms = track_frame(
            frame, result.cams.poses, result.markers.poses, intr, template, warm=warm
        )
        times.append(time.perf_counter() - start)
    assert pose is not None and rms is not None
    per_frame_ms = 1000.0 * float(np.median(times))

    start = time.perf_counter()
    traj, rms_by_frame, _ = track_sequence(result, dets, intr)
    wall = time.perf_counter() - start
    tracked = sum(1 for _ in traj.tracked_items())
    rate = tracked / wall
    print(
        f"\ntracking speed: {per_frame_ms:.3f} ms median frame solve, "
        f"{tracked} poses in {wall:.2f} s = {rate:.0f} poses/s"
    )
    assert per_frame_ms <= 5.0
    assert tracked == spec.n_frames
    assert rate >= 200.0


def _subset_ground_truth(gt: GroundTruth, cams: list[int], markers: list[int]):
    """Ground truth re-gauged to the lowest retained camera and marker."""
    ref_c = min(cams)
    ref_m = min(markers)
    base = invert(gt.cams_gt.poses[ref_c])
    m_base = gt.markers_gt.poses[ref_m]
    cam_poses = {c: compose(base, gt.cams_gt.poses[c]) for c in cams}
    marker_poses = {
        m: compose(invert(m_base), gt.markers_gt.poses[m]) for m in markers
    }
    traj = Trajectory()
    for t, pose in gt.traj_gt.tracked_items():
        traj.frames[t] = FrameState(compose(compose(base, pose), m_base), SOURCE_INIT)
    return GroundTruth(
        StructureEstimate(ref_c, cam_poses, ()),
        StructureEstimate(ref_m, marker_poses, ()),
        traj,
    )


def test_criterion_8_three_camera_robustness():
    """3-of-5 camera subsets, sigma = 0.3 px, 20 random subset/seed combos:
    >= 80% within doubled noise tolerances; every failure shows up as an
    elevated final rms instead of silently bad output."""
    rng = np.random.default_rng(8)
    results = []
    for trial in range(20):
        seed = int(rng.integers(0, 100000))
        cams = sorted(int(c) for c in rng.choice(5, size=3, replace=False))
        spec = SceneSpec(
            n_cameras=5,
            circle_radius=0.7,
            object="cube",
            marker_side=0.04,
            n_frames=200,
            trajectory="orbit",
            noise_sigma=0.3,
            seed=seed,
        )
        gt, dets, intr = generate(spec)
        sub = [d for d in dets if d.cam in cams]
        ds = Dataset(
            sub, {c: intr[c] for c in cams}, spec.marker_side, spec.n_frames
        )
        result, _ = calibrate(ds, CalibrationConfig())
        markers = sorted(result.markers.poses)
        rep = evaluate(result, _subset_ground_truth(gt, cams, markers))
        good = (
            rep.obj_trans_err < 4.0
            and rep.obj_rot_err < 6.0
            and rep.cam_trans_err < 20.0
            and rep.marker_config_err < 3.0
        )
        results.append((good, result.report.final_rms, cams, seed))

    passed = sum(1 for good, _, _, _ in results if good)
    print(f"\nthree-camera robustness: {passed}/20 subsets within tolerance")
    for good, rms, cams, seed in results:
        if not good:
            print(f"  diagnosed failure: cams {cams} seed {seed} rms {rms:.2f} px")
            assert rms > 1.0, "failed run must be diagnosable by its rms"
    assert passed >= 16
