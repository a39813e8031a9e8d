"""Levenberg-Marquardt refinement by block elimination, and the per-frame
tracking solver.

The refinement minimizes the squared reprojection error of every observed
corner over all camera poses, marker poses and frame poses at once. Each
transform is parameterized by a 6-vector (Rodrigues rotation plus
translation); the reference camera and reference marker are pinned to the
identity so the problem has no free gauge directions. The Jacobian is
analytic and kept as one (8,18) block per observation: a detection's eight
residuals touch only its own camera, marker and frame. The normal equations
are summed from these blocks, and since each frame pose couples only to its
own 6x6 diagonal block, the frames are eliminated (Schur complement, Triggs
et al., "Bundle Adjustment - A Modern Synthesis", 2000, sec. 6.1) and only
the dense camera-and-marker system of size 6 (C + M - 2) is solved.
Tracking runs the same LM loop over one frame's six parameters with a dense
Jacobian; both evaluate residuals and Jacobians through one reprojection
kernel (`_reproject`, `_frame_block`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import spsolve  # noqa: F401  bound by name for perfbench/tracing.py

from .errors import NoValidPose, NumericalFailure
from .frame_init import SOURCE_REFINED, FrameState, Trajectory, object_poses
from .geometry import (
    CameraIntrinsics,
    IndexedPoses,
    MarkerTemplate,
    PoseStack,
    RigidTransform,
    project_arrays,
    rotation_from_rvec,
    rotation_jacobian_factor,
    rotation_jacobian_factors,
    rotations_from_rvecs,
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
_EYE6 = np.eye(6)

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
class _BlockPattern:
    """Where the (8,18) camera|marker|frame block of each observation sits.

    `cols` (N,18) is the parameter column of each block column, -1 for the
    columns of a reference camera or marker, which own no parameters.
    `h_index` (N,18,18) places each block's J^T J into one flat array by
    np.bincount: the (S+1, S+1) camera/marker part A, then the (S+1, 6F)
    camera/marker x frame part W, then the (F,6,6) frame blocks V, then one
    slot for the frame x camera/marker half (W^T again). Row and column S
    take the reference columns and are cut off; so is the gradient's slot P.
    """

    cols: np.ndarray
    n_struct: int  # S, the camera and marker parameters, 6 (C + M - 2)
    n_params: int  # P
    h_index: np.ndarray
    g_index: np.ndarray  # (N,18) into the (P+1,) gradient

    @staticmethod
    def build(cols: np.ndarray, n_struct: int, n_params: int) -> _BlockPattern:
        s1, n_frame = n_struct + 1, n_params - n_struct
        sc = np.where(cols[:, :12] < 0, n_struct, cols[:, :12])
        fc = cols[:, 12:] - n_struct  # 6 * frame + coordinate
        h_index = np.empty((len(cols), 18, 18), dtype=np.int64)
        h_index[:, :12, :12] = sc[:, :, None] * s1 + sc[:, None, :]
        h_index[:, :12, 12:] = s1 * s1 + sc[:, :, None] * n_frame + fc[:, None, :]
        h_index[:, 12:, 12:] = s1 * (s1 + n_frame) + 6 * fc[:, :, None] + np.arange(6)
        h_index[:, 12:, :12] = s1 * (s1 + n_frame) + 6 * n_frame
        return _BlockPattern(
            cols, n_struct, n_params, h_index, np.where(cols < 0, n_params, cols)
        )


@dataclass(frozen=True)
class SchurNormal:
    """Normal equations J^T J = [[A, W], [W^T, V]] and J^T r = [g_s, g_f] of
    the refinement: A over the camera and marker parameters, V the
    block-diagonal frame part as (F,6,6) blocks."""

    a: np.ndarray  # (S,S)
    w: np.ndarray  # (S,6F)
    v: np.ndarray  # (F,6,6)
    g_s: np.ndarray  # (S,)
    g_f: np.ndarray  # (6F,)

    def solve(self, lam: float) -> np.ndarray:
        """Step d of (J^T J + lam I) d = -J^T r by the Schur complement.

        The damped frame blocks are inverted as one batch, the reduced
        (A + lam I - W V^-1 W^T) d_s = W V^-1 g_f - g_s is solved dense, and
        d_f = -V^-1 (g_f + W^T d_s) is back-substituted per frame. Raises
        LinAlgError when a block or the reduced system is singular.
        """
        n_s, n_f = self.w.shape[0], len(self.v)
        v_inv = np.linalg.inv(self.v + lam * _EYE6)
        w3 = self.w.reshape(n_s, n_f, 6).transpose(1, 0, 2)  # (F,S,6)
        y = np.matmul(w3, v_inv).transpose(1, 0, 2).reshape(self.w.shape)  # W V^-1
        reduced = self.a + lam * np.eye(n_s) - y @ self.w.T
        d_s = np.linalg.solve(reduced, y @ self.g_f - self.g_s)
        rhs = (self.g_f + d_s @ self.w).reshape(n_f, 6, 1)
        return np.concatenate([d_s, -np.matmul(v_inv, rhs).reshape(-1)])


class BlockJacobian:
    """The refinement Jacobian as one (8,18) block per observation: the
    derivatives of its 8 residuals by its camera, marker and frame twists.

    `cols` (N,18) maps block columns to parameter columns (-1 for a
    reference camera or marker). `normal(r)` sums the normal equations
    blockwise and `toarray()` builds the dense (8N, P) matrix.
    """

    def __init__(self, blocks: np.ndarray, pattern: _BlockPattern):
        self.blocks = blocks  # (N,8,18)
        self._pattern = pattern
        self.cols = pattern.cols
        self.shape = (8 * len(blocks), pattern.n_params)

    def toarray(self) -> np.ndarray:
        n, n_params = len(self.blocks), self.shape[1]
        dense = np.zeros((n, 8, n_params + 1))  # the last column takes reference columns
        cols = np.where(self.cols < 0, n_params, self.cols)
        dense[np.arange(n)[:, None, None], np.arange(8)[:, None], cols[:, None, :]] = self.blocks
        return dense[..., :n_params].reshape(self.shape)

    def normal(self, r: np.ndarray) -> SchurNormal:
        """J^T J and J^T r summed from per-observation block products."""
        p = self._pattern
        n_s, s1 = p.n_struct, p.n_struct + 1
        n_f = p.n_params - n_s
        jt = np.swapaxes(self.blocks, 1, 2)
        h = np.bincount(
            p.h_index.ravel(), np.matmul(jt, self.blocks).ravel(), s1 * (s1 + n_f) + 6 * n_f + 1
        )
        g = np.bincount(p.g_index.ravel(), np.matmul(jt, r.reshape(-1, 8, 1)).ravel(), p.n_params + 1)
        a_end, w_end = s1 * s1, s1 * (s1 + n_f)
        return SchurNormal(
            h[:a_end].reshape(s1, s1)[:n_s, :n_s],
            h[a_end:w_end].reshape(s1, n_f)[:n_s],
            h[w_end:-1].reshape(-1, 6, 6),
            g[:n_s],
            g[n_s:-1],
        )


@dataclass(frozen=True)
class ResidualSystem:
    residuals: np.ndarray  # (8 * n_obs,) predicted - observed, px
    jacobian: BlockJacobian | np.ndarray  # refinement blocks or the tracker's dense (8K,6)


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


def _frame_block(pj, rct, rct_rg, sk_y, s_frame) -> np.ndarray:
    """(K,4,2,6) residual derivative by the frame twist, from the pixel
    Jacobian pj and d p_cam / d (rvec, tvec); s_frame is (K,3,3) or (1,3,3)."""
    rot_part = -np.matmul(np.matmul(rct_rg[:, None], sk_y), s_frame[:, None])
    trans_part = np.broadcast_to(rct[:, None], sk_y.shape)
    return np.concatenate([np.matmul(pj, rot_part), np.matmul(pj, trans_part)], axis=-1)


class ResidualBuilder:
    """Vectorized residual and block-Jacobian assembly over all detections.

    Observation order is fixed to sorted (t, cam, marker); each observation
    contributes 8 consecutive residual scalars (x and y of 4 corners).
    Poses are read from one table of rotations and translations: with a
    layout, row 0 is the identity of the reference camera and marker and
    row 1 + k holds the k-th 6-block of the parameter vector.
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
            # camera, marker and frame offset of each observation; -6 for a reference
            offsets = np.array(
                [
                    (layout.camera_offsets.get(d.cam, -6),
                     layout.marker_offsets.get(d.marker, -6),
                     layout.frame_offsets[d.t])
                    for d in dets
                ],
                dtype=np.int64,
            ).reshape(-1, 3)
            self._rows = offsets // 6 + 1
            cols = np.repeat(offsets, 6, axis=1) + np.tile(np.arange(6), 3)
            n_struct = 6 * (len(layout.camera_ids) + len(layout.marker_ids))
            self._pattern = _BlockPattern.build(
                np.where(cols < 0, -1, cols), n_struct, layout.total
            )
        self.obs_pix, self._cam4 = corner_arrays(dets, intrinsics)
        self._u8 = np.repeat(template.corners, 2, axis=0)  # each corner's x and y row

    def residuals_from_poses(
        self,
        cams: dict[int, RigidTransform],
        markers: dict[int, RigidTransform],
        frames: dict[int, RigidTransform],
    ) -> np.ndarray:
        table = PoseStack.of(
            [cams[c] for c in self.cam_ids]
            + [markers[m] for m in self.marker_ids]
            + [frames[t] for t in self.frame_ids]
        )
        n_c, n_m = len(self.cam_ids), len(self.marker_ids)
        rows = np.stack([self.i_cam, n_c + self.i_marker, n_c + n_m + self.i_frame], axis=1)
        return self._assemble_core(table.rotations, table.translations, rows, False)[0]

    def residuals(self, x: np.ndarray) -> np.ndarray:
        _, rot, trans = self._pose_table(x)
        return self._assemble_core(rot, trans, self._rows, want_jacobian=False)[0]

    def _pose_table(self, x: np.ndarray):
        """x's (K,6) blocks, and rotations (K+1,3,3) and translations (K+1,3)
        with the reference identity in row 0."""
        if self.layout is None:
            raise ValueError("builder constructed without a parameter layout")
        blocks = x.reshape(-1, 6)
        rot = np.concatenate([np.eye(3)[None], rotations_from_rvecs(blocks[:, :3])])
        trans = np.concatenate([np.zeros((1, 3)), blocks[:, 3:]])
        return blocks, rot, trans

    # -- assembly -----------------------------------------------------------

    def _assemble_core(self, rot, trans, rows, want_jacobian: bool):
        # one row per observation
        rc, tc = rot[rows[:, 0]], trans[rows[:, 0]]  # (N,3,3), (N,3)
        rm, tm = rot[rows[:, 1]], trans[rows[:, 1]]
        rg, tg = rot[rows[:, 2]], trans[rows[:, 2]]

        u = self.template.corners  # (4,3)
        y = np.matmul(u, rm.transpose(0, 2, 1)) + tm[:, None, :]  # (N,4,3) marker pts in ref-marker frame
        w = np.matmul(y, rg.transpose(0, 2, 1)) + tg[:, None, :]  # in ref-camera frame
        a = w - tc[:, None, :]
        p_cam = np.matmul(a, rc)  # R_c^T (w - t_c)

        r, pj = _reproject(p_cam, self.obs_pix, self._cam4, want_jacobian)
        return r, (rc, rg, rm, y, a, pj)

    def system(self, x: np.ndarray) -> ResidualSystem:
        blocks, rot, trans = self._pose_table(x)
        r, (rc, rg, rm, y, a, pj) = self._assemble_core(rot, trans, self._rows, True)

        # Rodrigues factors of every block, a camera's taken at -rvec (whose
        # rotation is R_c^T) since p_cam = R(-r_c) a; row 0 (references)
        # only fills columns that the pattern drops
        n_cam = len(self.layout.camera_ids)
        rvecs, rots = blocks[:, :3].copy(), rot[1:].copy()
        rvecs[:n_cam] *= -1.0
        rots[:n_cam] = rots[:n_cam].transpose(0, 2, 1)
        factors = np.concatenate([np.zeros((1, 3, 3)), rotation_jacobian_factors(rvecs, rots)])
        s_cam, s_marker, s_frame = (factors[i] for i in self._rows.T)

        # pixel derivatives by the corner in the reference-camera frame (dw),
        # the reference-marker frame (dy) and the marker frame (du), one row
        # per residual; a twist's rotation block is that row crossed with the
        # point it rotates, times the Rodrigues factor (v^T [p]x = (v x p)^T);
        # camera: p_cam = R(-r_c) a, so its sign works out positive
        dw = np.matmul(pj.reshape(-1, 8, 3), rc.transpose(0, 2, 1))  # (N,8,3)
        dy = np.matmul(dw, rg)
        du = np.matmul(dy, rm)
        jac = np.concatenate(
            [
                np.matmul(np.cross(dw, np.repeat(a, 2, axis=1)), s_cam),
                -dw,
                -np.matmul(np.cross(du, self._u8), s_marker),
                dy,
                -np.matmul(np.cross(dy, np.repeat(y, 2, axis=1)), s_frame),
                dw,
            ],
            axis=-1,
        )  # (N,8,18)
        return ResidualSystem(r, BlockJacobian(jac, self._pattern))

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
    rvecs = x.reshape(-1, 6)[:, :3]
    for i in np.flatnonzero(np.einsum("ij,ij->i", rvecs, rvecs) > math.pi ** 2):
        rvecs[i] = rvec_from_rotation(rotation_from_rvec(rvecs[i]))
    return x


def _rms(cost: float, n_residuals: int) -> float:
    return math.sqrt(cost / (n_residuals / 2.0)) if n_residuals else 0.0


def lm_minimize(
    initial: np.ndarray, builder, opts: SolverOptions = SolverOptions()
) -> tuple[np.ndarray, LmReport]:
    """Damped normal-equation iteration with strict cost-decrease acceptance.

    `initial` is a vector of 6-blocks (Rodrigues rotation, translation) and
    `builder` provides system(x) -> ResidualSystem and residuals(x). The
    damped solve follows the Jacobian's type: a BlockJacobian's normal
    equations are solved by the Schur complement over its frame blocks
    (SchurNormal.solve), a dense ndarray's by np.linalg.solve. The normal
    equations are formed once per Jacobian; a rejected step redoes only the
    damped solve. A step is accepted only if the cost strictly decreases;
    lambda shrinks on accept and grows on reject (and on a singular or
    non-finite solve), and every accepted x has its rotations re-mapped to
    angles in [0, pi]. Terminates on the iteration budget, on mean absolute
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
        done = False
        while not done and iters < opts.max_iters:
            normal = jac.normal(r) if isinstance(jac, BlockJacobian) else _DenseNormal(jac, r)
            stepped = False
            while iters < opts.max_iters:
                iters += 1
                step = _solve_damped(normal, lam)
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


class _DenseNormal:
    """J^T J and J^T r of a dense Jacobian, solved whole."""

    def __init__(self, jac: np.ndarray, r: np.ndarray):
        self.jtj, self.jtr = jac.T @ jac, jac.T @ r
        self._eye = np.eye(len(self.jtr))

    def solve(self, lam: float) -> np.ndarray:
        return np.linalg.solve(self.jtj + lam * self._eye, -self.jtr)


def _solve_damped(normal, lam):
    """The damped step, or None when the solve is singular or not finite."""
    try:
        step = normal.solve(lam)
    except np.linalg.LinAlgError:
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
    them; calibrate() hands in only detections with a pose candidate.
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
        self._cam_stack = IndexedPoses.of(cams)
        self._marker_stack = IndexedPoses.of(markers)
        # by camera position: R_c^T and R_c^T t_c; by marker position:
        # template corners in the reference-marker frame
        cam_ids = self._cam_stack.ids.tolist()
        self._rct = self._cam_stack.poses.rotations.transpose(0, 2, 1).copy()
        self._rct_tc = np.stack([r @ cams[c].translation for r, c in zip(self._rct, cam_ids)])
        self._y = np.stack([markers[m].apply(template.corners) for m in self._marker_stack.ids.tolist()])
        self.last_iterations = 0

    def _frame_arrays(self, dets: list[Detection]):
        ci = self._cam_stack.rows([d.cam for d in dets])
        ypts = self._y[self._marker_stack.rows([d.marker for d in dets])]  # (K,4,3)
        obs, cam = corner_arrays(dets, self.intrinsics)
        return self._rct[ci], self._rct_tc[ci], ypts, obs, cam, skew_many(ypts)

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
        proposals = object_poses(self._cam_stack, self._marker_stack, table)
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
