"""Sparse Levenberg-Marquardt refinement and the per-frame tracking solver.

The refinement minimizes the squared reprojection error of every observed
corner over all camera poses, marker poses and frame poses at once. Each
transform is parameterized by a 6-vector (Rodrigues rotation plus
translation); the reference camera and reference marker are pinned to the
identity so the problem has no free gauge directions. The Jacobian is
analytic and sparse: a residual row only touches the parameter blocks of its
own camera, marker and frame. Its CSR sparsity pattern is fixed by the
detections and built once. Tracking runs the same LM loop over one frame's
six parameters with a dense Jacobian; both evaluate residuals and Jacobians
through one reprojection kernel (`_reproject`, `_pose_block`, `_frame_block`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .errors import NoValidPose, NumericalFailure
from .frame_init import SOURCE_REFINED, FrameState, Trajectory, object_poses
from .geometry import (
    CameraIntrinsics,
    MarkerTemplate,
    PoseStack,
    RigidTransform,
    project_arrays,
    rotation_from_rvec,
    rotation_jacobian_factor,
    rvec_from_rotation,
    skew_many,
)
from .planar_pose import (
    POSE_OK,
    Detection,
    candidate_set,
    corner_arrays,
    estimate_two_poses,  # noqa: F401  bound by name for perfbench/tracing.py
    planar_poses,
)
from .structure_init import StructureEstimate

BEHIND_RESIDUAL = 1e6  # px, replaces residuals of points behind the camera

# below this mean absolute residual (px) the fit counts as numerically exact
_ZERO_RESIDUAL_FLOOR = 1e-12

REASON_MAX_ITERS = "max_iters"
REASON_MIN_IMPROVE = "min_improve"
REASON_LAMBDA_LIMIT = "lambda_limit"
REASON_ZERO_RESIDUAL = "zero_residual"

# LM damping: initial value, factors on reject and accept, and the limit
LAMBDA_INIT = 1e-3
LAMBDA_UP = 10.0
LAMBDA_DOWN = 0.5
MAX_LAMBDA = 1e10


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 10000
    min_improve: float = 1e-4  # px, mean absolute residual improvement

    def __post_init__(self):
        for name in ("max_iters", "min_improve"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class LmReport:
    iterations: int  # linear-solve attempts
    accepted_steps: int
    initial_rms: float  # px, per corner
    final_rms: float
    reason: str
    cost_history: tuple[float, ...]  # sse after each accepted step


@dataclass(frozen=True)
class FitReport:
    initial_rms: float
    final_rms: float
    iterations: int
    per_frame_rms: dict[int, float]
    reason: str = ""
    left_out: int = 0  # detections outside the estimate, kept out of the cost


@dataclass(frozen=True)
class CalibrationResult:
    """Estimated camera set, marker structure and object trajectory."""

    cams: StructureEstimate
    markers: StructureEstimate
    traj: Trajectory
    marker_side: float
    report: FitReport | None = None


@dataclass(frozen=True)
class ParamLayout:
    """Offsets of the 6-parameter blocks; reference entities own none."""

    ref_camera: int
    ref_marker: int
    camera_ids: tuple[int, ...]  # non-reference, sorted
    marker_ids: tuple[int, ...]
    frame_ids: tuple[int, ...]
    camera_offsets: dict[int, int]
    marker_offsets: dict[int, int]
    frame_offsets: dict[int, int]
    total: int

    @staticmethod
    def build(cameras, markers, frames, ref_camera: int, ref_marker: int) -> ParamLayout:
        cam_set, marker_set = set(cameras), set(markers)
        if ref_camera not in cam_set:
            raise ValueError(f"reference camera {ref_camera} not in {sorted(cam_set)}")
        if ref_marker not in marker_set:
            raise ValueError(f"reference marker {ref_marker} not in {sorted(marker_set)}")
        cam_ids = tuple(sorted(cam_set - {ref_camera}))
        marker_ids = tuple(sorted(marker_set - {ref_marker}))
        frame_ids = tuple(sorted(frames))
        cam_off = {c: 6 * i for i, c in enumerate(cam_ids)}
        base = 6 * len(cam_ids)
        marker_off = {m: base + 6 * i for i, m in enumerate(marker_ids)}
        base += 6 * len(marker_ids)
        frame_off = {t: base + 6 * i for i, t in enumerate(frame_ids)}
        total = base + 6 * len(frame_ids)
        return ParamLayout(
            ref_camera, ref_marker, cam_ids, marker_ids, frame_ids,
            cam_off, marker_off, frame_off, total,
        )


def _put_twist(x: np.ndarray, offset: int, pose: RigidTransform) -> None:
    x[offset : offset + 3] = rvec_from_rotation(pose.rotation)
    x[offset + 3 : offset + 6] = pose.translation


def _get_twist(x: np.ndarray, offset: int) -> RigidTransform:
    return RigidTransform(rotation_from_rvec(x[offset : offset + 3]), x[offset + 3 : offset + 6])


def pack_params(
    cams: dict[int, RigidTransform],
    markers: dict[int, RigidTransform],
    frames: dict[int, RigidTransform],
    layout: ParamLayout,
) -> np.ndarray:
    x = np.zeros(layout.total)
    for c, off in layout.camera_offsets.items():
        _put_twist(x, off, cams[c])
    for m, off in layout.marker_offsets.items():
        _put_twist(x, off, markers[m])
    for t, off in layout.frame_offsets.items():
        _put_twist(x, off, frames[t])
    return x


def unpack_params(x: np.ndarray, layout: ParamLayout):
    """Pose dicts (references included as exact identity) from a flat vector."""
    cams = {layout.ref_camera: RigidTransform.identity()}
    for c, off in layout.camera_offsets.items():
        cams[c] = _get_twist(x, off)
    markers = {layout.ref_marker: RigidTransform.identity()}
    for m, off in layout.marker_offsets.items():
        markers[m] = _get_twist(x, off)
    frames = {t: _get_twist(x, off) for t, off in layout.frame_offsets.items()}
    return cams, markers, frames


@dataclass(frozen=True)
class ResidualSystem:
    residuals: np.ndarray  # (8 * n_obs,) predicted - observed, px
    jacobian: sparse.csr_matrix | np.ndarray  # sparse or dense; rows align with residuals


def _reproject(p_cam: np.ndarray, obs: np.ndarray, cam: tuple, want_jacobian: bool):
    """(8N,) residuals of (N,4,3) camera-frame corners, and their (N,4,2,3)
    pixel Jacobian when asked for (else None).

    The model's only projection: a corner behind the camera gets
    BEHIND_RESIDUAL in both coordinates and an all-zero Jacobian.
    """
    pix, pixjac, front = project_arrays(
        p_cam.reshape(-1, 3), *cam, want_jacobian=want_jacobian
    )
    res = pix - obs
    res[~front] = BEHIND_RESIDUAL
    if not want_jacobian:
        return res.reshape(-1), None
    return res.reshape(-1), np.where(front[:, None, None], pixjac, 0.0).reshape(-1, 4, 2, 3)


def _pose_block(pj: np.ndarray, rot_part: np.ndarray, trans_part: np.ndarray) -> np.ndarray:
    """(K,4,2,6) residual derivative of a pose twist from d p_cam / d (rvec, tvec)."""
    return np.concatenate([np.matmul(pj, rot_part), np.matmul(pj, trans_part)], axis=-1)


def _frame_block(pj, rct, rct_rg, sk_y, s_frame) -> np.ndarray:
    """(K,4,2,6) derivative for the frame pose; s_frame is (K,3,3) or (1,3,3)."""
    rot_part = -np.matmul(np.matmul(rct_rg[:, None], sk_y), s_frame[:, None])
    return _pose_block(pj, rot_part, np.broadcast_to(rct[:, None], sk_y.shape))


class ResidualBuilder:
    """Vectorized residual and sparse-Jacobian assembly over all detections.

    Observation order is fixed to sorted (t, cam, marker); each observation
    contributes 8 consecutive residual scalars (x and y of 4 corners).
    """

    def __init__(
        self,
        detections: list[Detection],
        intrinsics: dict[int, CameraIntrinsics],
        template: MarkerTemplate,
        layout: ParamLayout | None = None,
    ):
        dets = sorted(detections, key=lambda d: d.key)
        self.layout = layout
        self.template = template
        self.cam_ids = sorted({d.cam for d in dets})
        self.marker_ids = sorted({d.marker for d in dets})
        self.frame_ids = sorted({d.t for d in dets})
        cam_pos = {c: i for i, c in enumerate(self.cam_ids)}
        marker_pos = {m: i for i, m in enumerate(self.marker_ids)}
        frame_pos = {t: i for i, t in enumerate(self.frame_ids)}

        self.n_obs = len(dets)
        self.obs_t = np.array([d.t for d in dets], dtype=np.int64)
        self.i_cam = np.array([cam_pos[d.cam] for d in dets], dtype=np.int64)
        self.i_marker = np.array([marker_pos[d.marker] for d in dets], dtype=np.int64)
        self.i_frame = np.array([frame_pos[d.t] for d in dets], dtype=np.int64)

        if layout is not None:
            known_cams = {layout.ref_camera, *layout.camera_ids}
            known_markers = {layout.ref_marker, *layout.marker_ids}
            for d in dets:
                if d.cam not in known_cams:
                    raise ValueError(f"detection for camera {d.cam} outside the layout")
                if d.marker not in known_markers:
                    raise ValueError(f"detection for marker {d.marker} outside the layout")
                if d.t not in layout.frame_offsets:
                    raise ValueError(f"detection at frame {d.t} outside the layout")
            # CSR pattern of the (N,4,2,18) camera|marker|frame blocks: each
            # row keeps the columns of its non-reference entities and of its
            # frame, in ascending (layout) order
            offsets = np.array(
                [
                    (layout.camera_offsets.get(d.cam, -1),
                     layout.marker_offsets.get(d.marker, -1),
                     layout.frame_offsets[d.t])
                    for d in dets
                ],
                dtype=np.int64,
            ).reshape(-1, 3)
            shape = (self.n_obs, 4, 2, 18)
            cols = np.repeat(offsets, 6, axis=1) + np.tile(np.arange(6), 3)  # (N,18)
            keep = np.broadcast_to(np.repeat(offsets >= 0, 6, axis=1)[:, None, None], shape)
            self._jac_keep = keep = keep.copy()
            indices = np.broadcast_to(cols[:, None, None], shape)[keep]
            indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=-1))))
            # one construction up front lets scipy pick the index dtype once
            pattern = sparse.csr_matrix(
                (np.zeros(indices.size), indices, indptr), shape=(8 * self.n_obs, layout.total)
            )
            self._jac_indices, self._jac_indptr = pattern.indices, pattern.indptr
        self.obs_pix, self._cam4 = corner_arrays(dets, intrinsics)
        self._sk_u = skew_many(template.corners)  # (4,3,3)

    def residuals_from_poses(
        self,
        cams: dict[int, RigidTransform],
        markers: dict[int, RigidTransform],
        frames: dict[int, RigidTransform],
    ) -> np.ndarray:
        r, *_ = self._assemble_core(cams, markers, frames, want_jacobian=False)
        return r

    def residuals(self, x: np.ndarray) -> np.ndarray:
        cams, markers, frames = unpack_params(x, self._require_layout())
        return self.residuals_from_poses(cams, markers, frames)

    def _require_layout(self) -> ParamLayout:
        if self.layout is None:
            raise ValueError("builder constructed without a parameter layout")
        return self.layout

    # -- assembly -----------------------------------------------------------

    def _assemble_core(self, cams, markers, frames, want_jacobian: bool):
        # one row per observation
        cam = PoseStack.of([cams[c] for c in self.cam_ids])[self.i_cam]
        marker = PoseStack.of([markers[m] for m in self.marker_ids])[self.i_marker]
        frame = PoseStack.of([frames[t] for t in self.frame_ids])[self.i_frame]
        rc, tc = cam.rotations, cam.translations  # (N,3,3), (N,3)
        rm, tm = marker.rotations, marker.translations
        rg, tg = frame.rotations, frame.translations

        u = self.template.corners  # (4,3)
        y = np.einsum("nij,lj->nli", rm, u) + tm[:, None, :]  # (N,4,3) marker pts in ref-marker frame
        w = np.einsum("nij,nlj->nli", rg, y) + tg[:, None, :]  # in ref-camera frame
        a = w - tc[:, None, :]
        p_cam = np.einsum("nji,nlj->nli", rc, a)  # R_c^T (w - t_c)

        r, pj = _reproject(p_cam, self.obs_pix, self._cam4, want_jacobian)
        return r, (rc, rg, rm, y, a, pj)

    def system(self, x: np.ndarray) -> ResidualSystem:
        layout = self._require_layout()
        cams, markers, frames = unpack_params(x, layout)
        r, (rc, rg, rm, y, a, pj) = self._assemble_core(
            cams, markers, frames, want_jacobian=True
        )
        n = self.n_obs

        # per-entity Rodrigues derivative factors, gathered per observation
        s_cam = self._factor_table(x, layout.camera_offsets, self.cam_ids, self.i_cam, negate=True)
        s_marker = self._factor_table(x, layout.marker_offsets, self.marker_ids, self.i_marker, negate=False)
        s_frame = self._factor_table(x, layout.frame_offsets, self.frame_ids, self.i_frame, negate=False)

        rct = rc.transpose(0, 2, 1)
        rct_rg = np.matmul(rct, rg)
        rct_rg_rm = np.matmul(rct_rg, rm)
        sk_a = skew_many(a)  # (N,4,3,3)

        # d p_cam / d (rvec, tvec) per block, chained with the pixel jacobian;
        # camera block: p_cam = R(-r_c) a, so the sign works out positive
        cam_block = _pose_block(
            pj,
            np.matmul(np.matmul(rct[:, None], sk_a), s_cam[:, None]),
            np.broadcast_to(-rct[:, None], sk_a.shape),
        )
        marker_block = _pose_block(
            pj,
            -np.matmul(np.matmul(rct_rg_rm[:, None], self._sk_u[None]), s_marker[:, None]),
            np.broadcast_to(rct_rg[:, None], (n, 4, 3, 3)),
        )
        frame_block = _frame_block(pj, rct, rct_rg, skew_many(y), s_frame)
        data = np.concatenate([cam_block, marker_block, frame_block], axis=-1)[self._jac_keep]
        # shares the pattern arrays, so callers must not modify it in place
        jac = sparse.csr_matrix(
            (data, self._jac_indices, self._jac_indptr), shape=(8 * n, layout.total)
        )
        return ResidualSystem(r, jac)

    def _factor_table(self, x, offsets, ids, idx, negate: bool):
        """(N,3,3) gathered S factors; zero rows for reference entities.

        Zero reference rows only ever multiply blocks that the keep mask
        discards, so they never reach the Jacobian.
        """
        table = np.zeros((len(ids), 3, 3))
        for k, i in enumerate(ids):
            if i in offsets:
                rvec = x[offsets[i] : offsets[i] + 3]
                table[k] = rotation_jacobian_factor(-rvec if negate else rvec)
        return table[idx]

    def per_frame_rms(self, residuals: np.ndarray) -> dict[int, float]:
        sq = (residuals.reshape(self.n_obs, 8) ** 2).sum(axis=1)
        out: dict[int, float] = {}
        for t in self.frame_ids:
            mask = self.obs_t == t
            count = int(mask.sum())
            if count:
                out[t] = float(np.sqrt(sq[mask].sum() / (4 * count)))
        return out


def global_cost(
    cams: dict[int, RigidTransform],
    markers: dict[int, RigidTransform],
    traj: Trajectory | dict[int, RigidTransform],
    detections: list[Detection],
    intrinsics: dict[int, CameraIntrinsics],
    template: MarkerTemplate,
) -> tuple[float, float]:
    """(sse px^2, per-corner rms px) of the reprojection error over all detections."""
    if isinstance(traj, Trajectory):
        frames = {t: pose for t, pose in traj.tracked_items()}
    else:
        frames = dict(traj)
    builder = ResidualBuilder(detections, intrinsics, template)
    r = builder.residuals_from_poses(cams, markers, frames)
    sse = float(r @ r)
    return sse, math.sqrt(sse / (4 * builder.n_obs))


def _canonical_rotations(x: np.ndarray) -> np.ndarray:
    """Re-map, in place, every rotation block that drifted past pi to [0, pi]."""
    for off in range(0, x.size, 6):
        rvec = x[off : off + 3]
        if float(rvec @ rvec) > math.pi ** 2:
            x[off : off + 3] = rvec_from_rotation(rotation_from_rvec(rvec))
    return x


def _rms(cost: float, n_residuals: int) -> float:
    return math.sqrt(cost / (n_residuals / 2.0)) if n_residuals else 0.0


def lm_minimize(
    initial: np.ndarray, builder, opts: SolverOptions = SolverOptions()
) -> tuple[np.ndarray, LmReport]:
    """Damped normal-equation iteration with strict cost-decrease acceptance.

    `initial` is a vector of 6-blocks (Rodrigues rotation, translation) and
    `builder` provides system(x) -> ResidualSystem and residuals(x). The
    damped solve follows the Jacobian's type: spsolve for a scipy sparse
    matrix, np.linalg.solve for a dense ndarray. A step is accepted only if
    the cost strictly decreases; lambda shrinks on accept and grows on
    reject, and every accepted x has its rotations re-mapped to angles in
    [0, pi]. Terminates on the iteration budget, on mean absolute
    improvement below opts.min_improve, on lambda passing MAX_LAMBDA, or on
    a numerically zero residual.
    """
    x = np.array(initial, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise NumericalFailure("non-finite initial parameters")
    sys0 = builder.system(x)
    r, jac = sys0.residuals, sys0.jacobian
    cost = float(r @ r)
    if not math.isfinite(cost):
        raise NumericalFailure("non-finite initial cost")
    n_res = r.size
    mean_abs = float(np.abs(r).mean()) if n_res else 0.0
    initial_rms = _rms(cost, n_res)
    history = [cost]
    lam = LAMBDA_INIT
    iters = 0
    accepted = 0
    reason = REASON_MAX_ITERS

    if mean_abs < _ZERO_RESIDUAL_FLOOR:
        reason = REASON_ZERO_RESIDUAL
    else:
        dense = isinstance(jac, np.ndarray)
        eye = np.eye(x.size) if dense else sparse.identity(x.size, format="csc")
        done = False
        while not done and iters < opts.max_iters:
            jtj = jac.T @ jac if dense else (jac.T @ jac).tocsc()
            jtr = jac.T @ r
            stepped = False
            while iters < opts.max_iters:
                iters += 1
                step = _solve_damped(jtj, eye, jtr, lam)
                if step is None:
                    if lam >= MAX_LAMBDA:
                        raise NumericalFailure(
                            "singular normal equations at maximum damping"
                        )
                    lam *= LAMBDA_UP
                    continue
                x_try = x + step
                r_try = builder.residuals(x_try)
                cost_try = float(r_try @ r_try)
                if math.isfinite(cost_try) and cost_try < cost:
                    x, r, cost = _canonical_rotations(x_try), r_try, cost_try
                    new_mean = float(np.abs(r).mean())
                    improvement = mean_abs - new_mean
                    mean_abs = new_mean
                    history.append(cost)
                    accepted += 1
                    lam *= LAMBDA_DOWN
                    stepped = True
                    if mean_abs < _ZERO_RESIDUAL_FLOOR:
                        reason, done = REASON_ZERO_RESIDUAL, True
                    elif improvement < opts.min_improve:
                        reason, done = REASON_MIN_IMPROVE, True
                    break
                lam *= LAMBDA_UP
                if lam > MAX_LAMBDA:
                    reason, done = REASON_LAMBDA_LIMIT, True
                    break
            if done:
                break
            if not stepped:
                break  # iteration budget exhausted mid-climb
            jac = builder.system(x).jacobian

    report = LmReport(
        iterations=iters,
        accepted_steps=accepted,
        initial_rms=initial_rms,
        final_rms=_rms(cost, n_res),
        reason=reason,
        cost_history=tuple(history),
    )
    return x, report


def _solve_damped(jtj, eye, jtr, lam):
    solve = np.linalg.solve if isinstance(jtj, np.ndarray) else spsolve
    try:
        step = solve(jtj + lam * eye, -jtr)
    except (RuntimeError, np.linalg.LinAlgError):
        return None
    if not np.all(np.isfinite(step)):
        return None
    return step


def refine_all(
    init: CalibrationResult,
    detections: list[Detection],
    intrinsics: dict[int, CameraIntrinsics],
    opts: SolverOptions = SolverOptions(),
    template: MarkerTemplate | None = None,
) -> CalibrationResult:
    """Jointly refine cameras, markers and all tracked frame poses.

    Reference camera and reference marker stay exactly identity. Untracked
    frames pass through unchanged. Detections of untracked frames, cameras or
    markers outside the estimate stay out of the cost, and the report counts
    them; in calibrate() those are detections with no usable pose candidate.
    """
    tpl = template if template is not None else MarkerTemplate(init.marker_side)
    tracked = {t: pose for t, pose in init.traj.tracked_items()}
    layout = ParamLayout.build(
        init.cams.poses, init.markers.poses, tracked,
        init.cams.reference, init.markers.reference,
    )
    kept = [
        d for d in detections
        if d.t in tracked and d.cam in init.cams.poses and d.marker in init.markers.poses
    ]
    builder = ResidualBuilder(kept, intrinsics, tpl, layout)
    x0 = pack_params(init.cams.poses, init.markers.poses, tracked, layout)
    x_opt, lm = lm_minimize(x0, builder, opts)
    cams, markers, frames = unpack_params(x_opt, layout)

    traj = Trajectory()
    for t, state in init.traj.frames.items():
        if state.pose is None:
            traj.frames[t] = state
        else:
            traj.frames[t] = FrameState(frames[t], SOURCE_REFINED)
    report = FitReport(
        initial_rms=lm.initial_rms,
        final_rms=lm.final_rms,
        iterations=lm.iterations,
        per_frame_rms=builder.per_frame_rms(builder.residuals(x_opt)),
        reason=lm.reason,
        left_out=len(detections) - len(kept),
    )
    return CalibrationResult(
        cams=StructureEstimate(init.cams.reference, cams, init.cams.tree_edges),
        markers=StructureEstimate(init.markers.reference, markers, init.markers.tree_edges),
        traj=traj,
        marker_side=init.marker_side,
        report=report,
    )


# ---------------------------------------------------------------------------
# Per-frame tracking
# ---------------------------------------------------------------------------


class FrameTracker:
    """Six-parameter pose solver over a fixed calibration.

    Splitting construction from solving keeps the per-frame cost low: all
    camera- and marker-dependent quantities are precomputed once.
    """

    def __init__(
        self,
        cams: dict[int, RigidTransform],
        markers: dict[int, RigidTransform],
        intrinsics: dict[int, CameraIntrinsics],
        template: MarkerTemplate,
    ):
        self.cams = cams
        self.markers = markers
        self.intrinsics = intrinsics
        self.template = template
        # per camera: R_c^T and R_c^T t_c; per marker: template corners in the
        # reference-marker frame
        self._rct = {c: p.rotation.T.copy() for c, p in cams.items()}
        self._rct_tc = {c: self._rct[c] @ p.translation for c, p in cams.items()}
        self._y = {m: p.apply(template.corners) for m, p in markers.items()}
        self.last_iterations = 0

    def _frame_arrays(self, dets: list[Detection]):
        rct = np.stack([self._rct[d.cam] for d in dets])  # (K,3,3)
        rct_tc = np.stack([self._rct_tc[d.cam] for d in dets])  # (K,3)
        ypts = np.stack([self._y[d.marker] for d in dets])  # (K,4,3)
        obs, cam = corner_arrays(dets, self.intrinsics)
        return rct, rct_tc, ypts, obs, cam, skew_many(ypts)

    @staticmethod
    def _camera_points(arrays, rot, tv):
        """(...,K,4,3) camera-frame corners under object poses (...,3,3), (...,3)."""
        rct, rct_tc, ypts = arrays[:3]
        w = np.einsum("...ij,klj->...kli", rot, ypts) + tv[..., None, None, :]
        return np.einsum("kij,...klj->...kli", rct, w) - rct_tc[:, None, :]

    def _assemble(self, arrays, rv, tv, want_jac):
        rct, _, _, obs, cam, sk_y = arrays
        rot = rotation_from_rvec(rv)
        r, pj = _reproject(self._camera_points(arrays, rot, tv), obs, cam, want_jac)
        if not want_jac:
            return r, None
        s_g = rotation_jacobian_factor(rv, rot)
        return r, _frame_block(pj, rct, np.matmul(rct, rot), sk_y, s_g[None]).reshape(-1, 6)

    def cold_start(self, dets: list[Detection], arrays=None) -> RigidTransform:
        """Initial pose chosen by whole-frame cost.

        The planar poses of all detections come from one planar_poses call
        over the frame's corners. Its candidate table (tau_e = inf) keeps
        both solutions of every usable detection, best before alt in sorted
        key order, which are mapped into the gauge (frame_init.object_poses)
        and scored in one reprojection of the usable detections' corners
        under every proposal. The first proposal of least finite cost wins;
        raises NoValidPose when there is none. Scoring both solutions keeps
        an ambiguous first view from starting the track in the flipped
        basin. `arrays` are the frame's _frame_arrays, built here when not
        given.
        """
        arrays = arrays if arrays is not None else self._frame_arrays(dets)
        poses = planar_poses(arrays[3], arrays[4], self.template)
        table = candidate_set(poses, [d.key for d in dets], math.inf)
        if not len(table.poses):
            raise NoValidPose("no usable cold-start candidate in frame")
        proposals = object_poses(self.cams, self.markers, table)
        n = len(proposals)
        p_cam = self._camera_points(arrays, proposals.rotations, proposals.translations)
        obs, *cam = (np.concatenate([a] * n) for a in (arrays[3], *arrays[4]))
        r = _reproject(p_cam.reshape(-1, 4, 3), obs, tuple(cam), False)[0]
        r = r.reshape(n, len(dets), 8)[:, poses.status == POSE_OK].reshape(n, -1)
        cost = np.einsum("pi,pi->p", r, r)
        finite = np.isfinite(cost)
        if not finite.any():
            raise NoValidPose("no finite-cost cold-start candidate in frame")
        return proposals[int(np.argmin(np.where(finite, cost, np.inf)))]

    def solve(
        self,
        dets: list[Detection],
        warm: RigidTransform | None = None,
        opts: SolverOptions = SolverOptions(),
    ) -> tuple[RigidTransform | None, float | None]:
        """(pose, per-corner rms) for one frame; (None, None) when empty.

        Runs lm_minimize over the frame's six pose parameters.
        """
        if not dets:
            return None, None
        for d in dets:
            if d.cam not in self.cams or d.marker not in self.markers:
                raise ValueError(
                    f"detection (cam={d.cam}, marker={d.marker}) outside calibration"
                )
        arrays = self._frame_arrays(dets)
        pose = warm if warm is not None else self.cold_start(dets, arrays)
        x0 = np.concatenate([rvec_from_rotation(pose.rotation), pose.translation])
        x, report = lm_minimize(x0, _FrameSystem(self, arrays), opts)
        self.last_iterations = report.iterations
        return _get_twist(x, 0), report.final_rms


@dataclass(frozen=True)
class _FrameSystem:
    """One frame's residuals and dense (8K,6) Jacobian, as lm_minimize takes them."""

    tracker: FrameTracker
    arrays: tuple

    def system(self, x: np.ndarray) -> ResidualSystem:
        return ResidualSystem(*self.tracker._assemble(self.arrays, x[:3], x[3:], True))

    def residuals(self, x: np.ndarray) -> np.ndarray:
        return self.tracker._assemble(self.arrays, x[:3], x[3:], False)[0]


def track_frame(
    dets_t: list[Detection],
    cams: dict[int, RigidTransform],
    markers: dict[int, RigidTransform],
    intrinsics: dict[int, CameraIntrinsics],
    template: MarkerTemplate,
    warm: RigidTransform | None = None,
    opts: SolverOptions = SolverOptions(),
) -> tuple[RigidTransform | None, float | None]:
    """One-shot frame solve; see FrameTracker for the reusable fast path."""
    tracker = FrameTracker(cams, markers, intrinsics, template)
    return tracker.solve(dets_t, warm, opts)
