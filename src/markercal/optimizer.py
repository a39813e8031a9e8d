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
Tracking is the same refinement with the cameras and markers frozen: the
same LM loop over one frame's six parameters, with a dense Jacobian. Both
solvers take their residuals from `_corner_residuals` and their frame-twist
derivatives from `_frame_columns`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NoValidPose, NumericalFailure, ValidationError
from .frame_init import SOURCE_REFINED, FrameState, Trajectory
from .geometry import (
    CameraIntrinsics,
    IndexedPoses,
    MarkerTemplate,
    RigidTransform,
    _compose,
    _invert,
    cross,
    project_arrays,
    projection_jacobian,
    rotation_from_rvec,
    rotation_jacobian_factor,
    rotation_jacobian_factors,
    rotations_from_rvecs,
    rvec_from_rotation,
)
from .planar_pose import POSE_OK, Detection, corner_arrays, planar_poses
from .structure_init import StructureEstimate

# perfbench/tracing.py looks these names up to wrap them; nothing calls them
spsolve = None
estimate_two_poses = None

BEHIND_RESIDUAL = 1e6  # px, replaces residuals of points behind the camera
_EYE6 = np.eye(6)

# below this per-corner rms (px) the fit counts as numerically exact
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
    min_improve: float = 1e-4  # px, per-corner rms improvement

    def __post_init__(self):
        for name in ("max_iters", "min_improve"):
            value = getattr(self, name)
            if not value > 0:  # written so that NaN fails too
                raise ValidationError(f"{name} must be positive, got {value}")


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
    """The 6-parameter blocks in order: the cameras', the markers', then the
    frames'; reference entities own none."""

    ref_camera: int
    ref_marker: int
    camera_ids: tuple[int, ...]  # non-reference, sorted
    marker_ids: tuple[int, ...]
    frame_ids: tuple[int, ...]

    @property
    def total(self) -> int:
        return 6 * (len(self.camera_ids) + len(self.marker_ids) + len(self.frame_ids))

    @staticmethod
    def build(cameras, markers, frames, ref_camera: int, ref_marker: int) -> ParamLayout:
        cam_set, marker_set = set(cameras), set(markers)
        if ref_camera not in cam_set:
            raise ValueError(f"reference camera {ref_camera} not in {sorted(cam_set)}")
        if ref_marker not in marker_set:
            raise ValueError(f"reference marker {ref_marker} not in {sorted(marker_set)}")
        return ParamLayout(
            ref_camera, ref_marker, tuple(sorted(cam_set - {ref_camera})),
            tuple(sorted(marker_set - {ref_marker})), tuple(sorted(frames)),
        )

    def block_offsets(self, keys: np.ndarray) -> np.ndarray:
        """(N,3) offsets of the camera, marker and frame blocks of (N,3)
        (t, cam, marker) keys, -6 for a reference camera or marker, found by
        searchsorted over the sorted ids. Raises ValueError for a key outside
        the layout."""
        out, base = [], 0
        for slot, ids, ref, kind in (
            (1, self.camera_ids, self.ref_camera, "camera"),
            (2, self.marker_ids, self.ref_marker, "marker"),
            (0, self.frame_ids, None, "frame"),
        ):
            known, wanted = np.array(ids, dtype=np.int64), keys[:, slot]
            pos = np.searchsorted(known, wanted)
            found = (pos < len(known)) & (np.append(known, 0)[pos] == wanted)
            outside = ~found & (wanted != ref)
            if outside.any():
                raise ValueError(f"detection for {kind} {wanted[outside][0]} outside the layout")
            out.append(np.where(found, base + 6 * pos, -6))
            base += 6 * len(known)
        return np.stack(out, axis=1)


def _twist(pose: RigidTransform) -> np.ndarray:
    """(6,) Rodrigues rotation and translation of a pose."""
    return np.concatenate([rvec_from_rotation(pose.rotation), pose.translation])


def _pose(twist: np.ndarray) -> RigidTransform:
    return RigidTransform(rotation_from_rvec(twist[:3]), twist[3:])


def pack_params(
    cams: dict[int, RigidTransform],
    markers: dict[int, RigidTransform],
    frames: dict[int, RigidTransform],
    layout: ParamLayout,
) -> np.ndarray:
    poses = [
        *(cams[c] for c in layout.camera_ids),
        *(markers[m] for m in layout.marker_ids),
        *(frames[t] for t in layout.frame_ids),
    ]
    return np.array([_twist(p) for p in poses], dtype=np.float64).reshape(-1)


def unpack_params(x: np.ndarray, layout: ParamLayout):
    """Pose dicts (references included as exact identity) from a flat vector."""
    poses = map(_pose, x.reshape(-1, 6))  # in layout order; zip takes each once
    cams = {layout.ref_camera: RigidTransform.identity(), **dict(zip(layout.camera_ids, poses))}
    markers = {layout.ref_marker: RigidTransform.identity(), **dict(zip(layout.marker_ids, poses))}
    return cams, markers, dict(zip(layout.frame_ids, poses))


@dataclass(frozen=True)
class _BlockPattern:
    """Where the (8,18) camera|marker|frame block of each observation sits.

    `cols` (N,18) is the parameter column of each block column, -1 for the
    columns of a reference camera or marker, which own no parameters.
    np.bincount places the blocks' J^T J, stored by (row, observation,
    column), by two indices in that order: `aw_index` (12,N,18) the
    camera/marker rows into one flat array, the (S+1, S+1) camera/marker
    part A and then the (S+1, 6F) camera/marker x frame part W, and
    `v_index` (6,N,6) the frame blocks into the (F,6,6) blocks V. The frame
    x camera/marker rows (W^T again) are not summed. Row and column S take
    the reference columns and are cut off; so is the gradient's slot P.
    Every parameter sits in the same block row in every observation, so
    each slot still adds its terms in observation order.
    """

    cols: np.ndarray
    n_struct: int  # S, the camera and marker parameters, 6 (C + M - 2)
    n_params: int  # P
    aw_index: np.ndarray
    v_index: np.ndarray
    g_index: np.ndarray  # (N,18) into the (P+1,) gradient

    @staticmethod
    def build(cols: np.ndarray, n_struct: int, n_params: int) -> _BlockPattern:
        s1, n_frame = n_struct + 1, n_params - n_struct
        sc = np.where(cols[:, :12] < 0, n_struct, cols[:, :12])
        fc = cols[:, 12:] - n_struct  # 6 * frame + coordinate
        # C-ordered (row, observation, column), so that ravel() is a view
        rows = np.ascontiguousarray(sc.T)[:, :, None]
        aw_index = np.concatenate([rows * s1 + sc, s1 * s1 + rows * n_frame + fc], axis=2)
        v_index = 6 * np.ascontiguousarray(fc.T)[:, :, None] + np.arange(6)
        return _BlockPattern(
            cols, n_struct, n_params, aw_index, v_index, np.where(cols < 0, n_params, cols)
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
        """J^T J and J^T r summed from per-observation block products, each
        slot's terms added in observation order."""
        p = self._pattern
        n_s, s1 = p.n_struct, p.n_struct + 1
        n_f = p.n_params - n_s
        jt = np.swapaxes(self.blocks, 1, 2)
        # whole blocks, as numpy's symmetric product, written row by row so
        # that the camera/marker rows of all observations are contiguous
        jtj = np.empty((18, len(jt), 18))
        np.matmul(jt, self.blocks, out=jtj.transpose(1, 0, 2))
        aw = np.bincount(p.aw_index.ravel(), jtj[:12].ravel(), s1 * (s1 + n_f))
        v = np.bincount(p.v_index.ravel(), jtj[12:, :, 12:].ravel(), 6 * n_f)
        g = np.bincount(p.g_index.ravel(), np.matmul(jt, r.reshape(-1, 8, 1)).ravel(), p.n_params + 1)
        return SchurNormal(
            aw[: s1 * s1].reshape(s1, s1)[:n_s, :n_s],
            aw[s1 * s1 :].reshape(s1, n_f)[:n_s],
            v.reshape(-1, 6, 6),
            g[:n_s],
            g[n_s:-1],
        )


@dataclass(frozen=True)
class ResidualSystem:
    residuals: np.ndarray  # (8 * n_obs,) predicted - observed, px
    jacobian: BlockJacobian | np.ndarray  # refinement blocks or the tracker's dense (8K,6)


def _corner_residuals(y, rg, tg, rc, tc, obs, k):
    """The model's only projection: the residuals of marker corners y (N,4,3),
    given in the reference-marker frame, under object poses (rg, tg) and
    camera poses (rc, tc), each (N,...) or (1,...), against the observed
    corners obs (4N,2) of cameras with intrinsics k (9,4N), as corner_arrays
    builds them. Object poses rg (P,1,3,3) and tg (P,1,3) score P poses
    against all N detections at once, pose-major, with k tiled P times; obs
    broadcasts against each pose's projection.

    Returns (r, proj, a): the (8N,) or (8PN,) residuals, the forward
    Projection of the camera-frame corners R_c^T a, which _corner_jacobian
    finishes, and a = R_g y + t_g - t_c. A corner behind the camera gets
    BEHIND_RESIDUAL in both coordinates.
    """
    a = np.matmul(y, rg.swapaxes(-1, -2)) + tg[..., None, :] - tc[..., None, :]
    proj = project_arrays(np.matmul(a, rc).reshape(-1, 3), k)
    res = proj.pix.reshape(-1, *obs.shape) - obs
    if not proj.front.all():
        res.reshape(-1, 2)[~proj.front] = BEHIND_RESIDUAL
    return res.reshape(-1), proj, a


def _corner_jacobian(proj) -> np.ndarray:
    """(N,4,2,3) pixel Jacobian of _corner_residuals by the camera-frame
    corner, all zero for a corner behind the camera."""
    jac = projection_jacobian(proj)
    if not proj.front.all():
        jac[~proj.front] = 0.0
    return jac.reshape(-1, 4, 2, 3)


def _frame_columns(pj, rc, rg, y8, s_frame):
    """(dw, dy, block) from the pixel Jacobian pj of _corner_jacobian.

    dw and dy (N,8,3) are the residuals' derivatives by the corner in the
    reference-camera and in the reference-marker frame, one row per
    residual; block (N,8,6) is their derivative by the frame twist,
    [-(dy x y) S_g, dw] (v^T [p]x = (v x p)^T). y8 (N,8,3) is the corners y
    of _corner_residuals with each repeated for its x and its y row. rc, rg
    and the Rodrigues factor s_frame are (N,3,3) or (1,3,3).
    """
    dw = np.matmul(pj.reshape(-1, 8, 3), rc.transpose(0, 2, 1))
    dy = np.matmul(dw, rg)
    rot_part = -np.matmul(cross(dy, y8), s_frame)
    return dw, dy, np.concatenate([rot_part, dw], axis=-1)


class ResidualBuilder:
    """Vectorized residual and block-Jacobian assembly over all detections.

    Observation order is fixed to sorted (t, cam, marker), the rows of
    `keys`; each observation contributes 8 consecutive residual scalars (x
    and y of 4 corners).
    Poses are read from one table of rotations and translations: row 0 is
    the identity of the reference camera and marker and row 1 + k holds the
    k-th 6-block of the layout's parameter vector.
    """

    def __init__(
        self,
        detections: list[Detection],
        intrinsics: dict[int, CameraIntrinsics],
        template: MarkerTemplate,
        layout: ParamLayout,
    ):
        dets = sorted(detections, key=lambda d: d.key)
        self.layout = layout
        self.template = template
        self.keys = np.array([d.key for d in dets], dtype=np.int64).reshape(-1, 3)
        self.n_obs = len(dets)
        # camera, marker and frame offset of each observation; -6 for a reference
        offsets = layout.block_offsets(self.keys)
        self._rows = offsets // 6 + 1
        cols = np.repeat(offsets, 6, axis=1) + np.tile(np.arange(6), 3)
        n_struct = 6 * (len(layout.camera_ids) + len(layout.marker_ids))
        self._pattern = _BlockPattern.build(np.where(cols < 0, -1, cols), n_struct, layout.total)
        self.obs_pix, self._k = corner_arrays(dets, intrinsics)
        self._u8 = np.repeat(template.corners, 2, axis=0)  # each corner's x and y row

    def residuals(self, x: np.ndarray) -> np.ndarray:
        _, rot, trans = self._pose_table(x)
        return self._assemble_core(rot, trans)[0]

    def _pose_table(self, x: np.ndarray):
        """x's (K,6) blocks, and rotations (K+1,3,3) and translations (K+1,3)
        with the reference identity in row 0."""
        blocks = x.reshape(-1, 6)
        rot = np.concatenate([np.eye(3)[None], rotations_from_rvecs(blocks[:, :3])])
        trans = np.concatenate([np.zeros((1, 3)), blocks[:, 3:]])
        return blocks, rot, trans

    # -- assembly -----------------------------------------------------------

    def _assemble_core(self, rot, trans):
        # one row per observation
        rows = self._rows
        rc, tc = rot[rows[:, 0]], trans[rows[:, 0]]  # (N,3,3), (N,3)
        rm, tm = rot[rows[:, 1]], trans[rows[:, 1]]
        rg, tg = rot[rows[:, 2]], trans[rows[:, 2]]

        u = self.template.corners  # (4,3)
        y = np.matmul(u, rm.transpose(0, 2, 1)) + tm[:, None, :]  # (N,4,3) marker pts in ref-marker frame
        r, proj, a = _corner_residuals(y, rg, tg, rc, tc, self.obs_pix, self._k)
        return r, (rc, rg, rm, y, a, proj)

    def system(self, x: np.ndarray) -> ResidualSystem:
        blocks, rot, trans = self._pose_table(x)
        r, (rc, rg, rm, y, a, proj) = self._assemble_core(rot, trans)

        # Rodrigues factors of every block, a camera's taken at -rvec (whose
        # rotation is R_c^T) since p_cam = R(-r_c) a; row 0 (references)
        # only fills columns that the pattern drops
        n_cam = len(self.layout.camera_ids)
        rvecs, rots = blocks[:, :3].copy(), rot[1:].copy()
        rvecs[:n_cam] *= -1.0
        rots[:n_cam] = rots[:n_cam].transpose(0, 2, 1)
        factors = np.concatenate([np.zeros((1, 3, 3)), rotation_jacobian_factors(rvecs, rots)])
        s_cam, s_marker, s_frame = (factors[i] for i in self._rows.T)

        # the camera's and the marker's rotation blocks are formed as the
        # frame's, from dw and from du, the derivative by the corner in the
        # marker frame; camera: p_cam = R(-r_c) a, so its sign works out positive
        y8 = np.repeat(y, 2, axis=1)
        dw, dy, frame = _frame_columns(_corner_jacobian(proj), rc, rg, y8, s_frame)
        du = np.matmul(dy, rm)
        jac = np.concatenate(
            [
                np.matmul(cross(dw, np.repeat(a, 2, axis=1)), s_cam),
                -dw,
                -np.matmul(cross(du, self._u8), s_marker),
                dy,
                frame,
            ],
            axis=-1,
        )  # (N,8,18)
        return ResidualSystem(r, BlockJacobian(jac, self._pattern))

    def per_frame_rms(self, residuals: np.ndarray) -> dict[int, float]:
        """Per-corner rms of each frame, over its contiguous run of rows."""
        sq = (residuals.reshape(self.n_obs, 8) ** 2).sum(axis=1)
        frames, starts = np.unique(self.keys[:, 0], return_index=True)
        bounds = [*starts.tolist(), self.n_obs]
        return {
            t: float(np.sqrt(sq[lo:hi].sum() / (4 * (hi - lo))))
            for t, lo, hi in zip(frames.tolist(), bounds, bounds[1:])
        }


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
    (SchurNormal.solve), a dense one's (one 6-block) by np.linalg.solve.
    The normal equations are formed once per Jacobian; a rejected step
    redoes only the damped solve. A step is accepted only if the cost strictly decreases;
    lambda shrinks on accept and grows on reject (and on a singular or
    non-finite solve). An accepted x is the trial point as evaluated, so the
    returned x is the point whose residuals gave final_rms; its twists may
    end past pi, where the Rodrigues map is still exact. Terminates on the
    iteration budget, on a per-corner rms improvement below
    opts.min_improve, on lambda passing MAX_LAMBDA, or on a numerically
    zero residual. The rms falls with the cost it is read
    from, so an accepted step never improves it by a negative amount.
    """
    x = np.array(initial, dtype=np.float64)
    if not np.isfinite(x).all():
        raise NumericalFailure("non-finite initial parameters")
    system = builder.system(x)
    r = system.residuals
    cost = float(r @ r)
    if not math.isfinite(cost):
        raise NumericalFailure("non-finite initial cost")
    n_res = r.size
    initial_rms = rms = _rms(cost, n_res)
    history = [cost]
    lam = LAMBDA_INIT
    iters = accepted = 0
    reason = REASON_ZERO_RESIDUAL if rms < _ZERO_RESIDUAL_FLOOR else None
    normal = _normal(system.jacobian, r)

    while reason is None and iters < opts.max_iters:
        iters += 1
        step = _solve_damped(normal, lam)
        if step is None:
            if lam >= MAX_LAMBDA:
                raise NumericalFailure("singular normal equations at maximum damping")
            lam *= LAMBDA_UP
            continue
        x_try = x + step
        r_try = builder.residuals(x_try)
        cost_try = float(r_try @ r_try)
        if not (math.isfinite(cost_try) and cost_try < cost):
            lam *= LAMBDA_UP
            if lam > MAX_LAMBDA:
                reason = REASON_LAMBDA_LIMIT
            continue
        rms_try = _rms(cost_try, n_res)
        x, r, cost = x_try, r_try, cost_try
        improvement, rms = rms - rms_try, rms_try
        history.append(cost)
        accepted += 1
        lam *= LAMBDA_DOWN
        if rms < _ZERO_RESIDUAL_FLOOR:
            reason = REASON_ZERO_RESIDUAL
        elif improvement < opts.min_improve:
            reason = REASON_MIN_IMPROVE
        else:
            normal = _normal(builder.system(x).jacobian, r)

    report = LmReport(
        iterations=iters,
        accepted_steps=accepted,
        initial_rms=initial_rms,
        final_rms=rms,
        reason=reason or REASON_MAX_ITERS,
        cost_history=tuple(history),
    )
    return x, report


def _normal(jac, r: np.ndarray):
    """The normal equations of a BlockJacobian, or of a dense Jacobian."""
    return jac.normal(r) if isinstance(jac, BlockJacobian) else _DenseNormal(jac, r)


class _DenseNormal:
    """J^T J and J^T r of a dense Jacobian of one 6-block, solved whole."""

    def __init__(self, jac: np.ndarray, r: np.ndarray):
        self.jtj, self.jtr = jac.T @ jac, jac.T @ r

    def solve(self, lam: float) -> np.ndarray:
        return np.linalg.solve(self.jtj + lam * _EYE6, -self.jtr)


def _solve_damped(normal, lam):
    """The damped step, or None when the solve is singular or not finite."""
    try:
        step = normal.solve(lam)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(step).all():
        return None
    return step


def refine_all(
    init: CalibrationResult,
    detections: list[Detection],
    intrinsics: dict[int, CameraIntrinsics],
    opts: SolverOptions = SolverOptions(),
) -> CalibrationResult:
    """Jointly refine cameras, markers and all tracked frame poses.

    Reference camera and reference marker stay exactly identity. Untracked
    frames pass through unchanged. Detections of untracked frames, cameras or
    markers outside the estimate stay out of the cost, and the report counts
    them; calibrate() hands in only detections with a pose candidate.
    """
    tracked = {t: pose for t, pose in init.traj.tracked_items()}
    layout = ParamLayout.build(
        init.cams.poses, init.markers.poses, tracked,
        init.cams.reference, init.markers.reference,
    )
    kept = [
        d for d in detections
        if d.t in tracked and d.cam in init.cams.poses and d.marker in init.markers.poses
    ]
    builder = ResidualBuilder(kept, intrinsics, MarkerTemplate(init.marker_side), layout)
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


def _calibrated_rows(stack: IndexedPoses, ids: list[int], kind: str) -> np.ndarray:
    """stack.rows(ids); ValidationError naming the ids the calibration lacks."""
    try:
        return stack.rows(ids)
    except KeyError as e:
        raise ValidationError(f"{kind} {e.args[0]} by the calibration") from None


class FrameArrays(NamedTuple):
    """One frame's K detections, in their given order, as the tracker's
    solves take them. All but obs depend only on the ordered (cam, marker)
    views, and are shared by the frames of one view set: no solve writes
    to them."""

    y: np.ndarray  # (K,4,3) marker corners in the reference-marker frame
    rc: np.ndarray  # (K,3,3) camera rotations
    tc: np.ndarray  # (K,3) camera translations
    k: np.ndarray  # (9,4K) the corners' intrinsics
    markers: np.ndarray  # (K,) rows of the detections' markers in the marker stack
    y8: np.ndarray  # (K,8,3) y with each corner repeated for its x and its y residual
    obs: np.ndarray  # (4K,2) observed corners, as corner_arrays builds them


class FrameTracker:
    """Six-parameter pose solver over a fixed calibration.

    Splitting construction from solving keeps the per-frame cost low: all
    camera- and marker-dependent quantities are precomputed once, and the
    arrays of a frame that shows the same ordered (cam, marker) views as the
    frame before are that frame's, so only its observed corners are
    stacked; so are the cold start's proposal rows when every detection is
    usable. The tracker therefore treats its poses and intrinsics as
    frozen: it reads them at construction and, per view set, on the first
    frame that shows it.
    """

    def __init__(
        self,
        cams: dict[int, RigidTransform],
        markers: dict[int, RigidTransform],
        intrinsics: dict[int, CameraIntrinsics],
        template: MarkerTemplate,
    ):
        self.intrinsics = intrinsics
        self.template = template
        self._cam_stack = IndexedPoses.of(cams)
        self._marker_stack = IndexedPoses.of(markers)
        # by marker position, the template corners in the reference-marker
        # frame, formed as ResidualBuilder forms them
        rm, tm = self._marker_stack.poses.rotations, self._marker_stack.poses.translations
        self._y = np.matmul(template.corners, rm.transpose(0, 2, 1)) + tm[:, None, :]
        # by marker position, the marker's inverse, row-major as
        # geometry.invert_many forms it
        rinv, tinv = _invert(rm, tm)
        self._marker_inv = (np.ascontiguousarray(rinv), tinv)
        self.last_iterations = 0
        # the last frame's view set: its ordered (cam, marker) views, its
        # FrameArrays but obs, and the cold start's proposal rows or None.
        # Only views that passed every check are kept. One tuple, replaced
        # whole, so that no reader pairs one view set with another's arrays.
        self._view_set: tuple | None = None

    def _frame_arrays(self, dets: list[Detection]) -> FrameArrays:
        """The FrameArrays of a frame's detections. Raises ValidationError
        naming the frames of detections from more than one frame, a
        repeated (cam, marker) or the cameras or markers outside the
        calibration, and MissingIntrinsics for a camera without
        intrinsics."""
        frames = {d.t for d in dets}
        if len(frames) > 1:
            raise ValidationError(f"one frame solve got detections of frames {sorted(frames)}")
        views = tuple([(d.cam, d.marker) for d in dets])
        view_set = self._view_set
        if view_set is not None and views == view_set[0]:
            held = view_set[1]
            obs = np.array([d.corners for d in dets]).reshape(-1, 2)  # as corner_arrays
        else:
            if len(set(views)) < len(views):
                first = next(i for i, v in enumerate(views) if v in views[:i])
                raise ValidationError(f"duplicate detection {dets[first].key}")
            ci = _calibrated_rows(self._cam_stack, [d.cam for d in dets], "camera")
            mi = _calibrated_rows(self._marker_stack, [d.marker for d in dets], "marker")
            stack = self._cam_stack.poses
            obs, k = corner_arrays(dets, self.intrinsics)
            y = self._y[mi]
            held = (y, stack.rotations[ci], stack.translations[ci], k, mi, np.repeat(y, 2, axis=1))
            self._view_set = (views, held, None)
        return FrameArrays(*held, obs)

    def cold_start(self, dets: list[Detection], arrays: FrameArrays | None = None) -> RigidTransform:
        """Initial pose chosen by whole-frame cost.

        The planar poses of all detections come from one planar_poses call
        over the frame's corners. Every usable detection, in sorted key
        order, proposes its best and then its alt pose, mapped into the
        gauge as frame_init.object_poses maps it, G = C T M^-1, with the
        camera rows that `arrays` already hold and the tracker's marker
        inverses. All proposals are scored in one reprojection of the
        frame's corners, the proposals' poses broadcast against the
        detections, and each costs the sum over the usable detections. The
        first proposal of least finite cost wins; raises NoValidPose when
        there is none. Scoring both solutions keeps an ambiguous first view
        from starting the track in the flipped basin. `arrays` are the
        frame's _frame_arrays, built here when not given.

        When every detection is usable, the rows of the proposals (their
        order, camera and marker-inverse rows and tiled intrinsics) depend
        only on the view set, and are held with it.
        """
        arrays = arrays if arrays is not None else self._frame_arrays(dets)
        poses = planar_poses(arrays.obs, arrays.k, self.template)
        usable = poses.status == POSE_OK
        every = bool(usable.all())
        view_set = self._view_set
        # whether `arrays` are the held view set's (FrameArrays.k is field 3)
        own = view_set is not None and view_set[1][3] is arrays.k
        if every and own and view_set[2] is not None:
            rows, rc, tc, mr, mt, k = view_set[2]
        else:
            flags = usable.tolist()
            order = sorted((d.key, i) for i, d in enumerate(dets))
            rows = np.array([i for _, i in order if flags[i]], dtype=np.intp)
            if not len(rows):
                raise NoValidPose("no usable cold-start candidate in frame")
            views = np.repeat(rows, 2)  # the detection of each proposal
            mi = arrays.markers[views]
            rc, tc = arrays.rc[views], arrays.tc[views]
            mr, mt = self._marker_inv[0][mi], self._marker_inv[1][mi]
            k = np.tile(arrays.k, len(views))
            if every and own:
                self._view_set = (*view_set[:2], (rows, rc, tc, mr, mt, k))
        rg, tg = _compose(
            *_compose(rc, tc, poses.rotations[rows].reshape(-1, 3, 3),
                      poses.translations[rows].reshape(-1, 3)),
            mr, mt,
        )
        n = len(rg)
        r = _corner_residuals(
            arrays.y, rg[:, None], tg[:, None], arrays.rc, arrays.tc, arrays.obs, k
        )[0].reshape(n, len(dets), 8)
        if not every:
            r = r[:, usable]
        r = r.reshape(n, -1)
        cost = np.einsum("pi,pi->p", r, r)
        finite = np.isfinite(cost)
        if not finite.any():
            raise NoValidPose("no finite-cost cold-start candidate in frame")
        best = int(np.argmin(np.where(finite, cost, np.inf)))
        return RigidTransform(rg[best], tg[best])

    def solve(
        self,
        dets: list[Detection],
        warm: RigidTransform | None = None,
        opts: SolverOptions = SolverOptions(),
    ) -> tuple[RigidTransform | None, float | None]:
        """(pose, per-corner rms) for one frame; (None, None) when empty.

        Runs lm_minimize over the frame's six pose parameters; raises as
        _frame_arrays does for a detection it cannot resolve.
        """
        if not dets:
            return None, None
        arrays = self._frame_arrays(dets)
        pose = warm if warm is not None else self.cold_start(dets, arrays)
        x, report = lm_minimize(_twist(pose), _FrameSystem(arrays), opts)
        self.last_iterations = report.iterations
        return _pose(x), report.final_rms


class _FrameSystem:
    """One frame's residuals and dense (8K,6) Jacobian, as lm_minimize takes
    them: the refinement's kernels with the cameras and markers frozen.

    It keeps the forward projection of its last residuals(x), keyed by the
    bytes of that x, so that system(x) at an accepted point only adds the
    Jacobian. A caller may change x between residuals(x) and system(x); the
    changed x has other bytes and is projected again.
    """

    def __init__(self, arrays: FrameArrays):
        self.arrays = arrays
        self._last = None  # (x bytes, rotation, residuals, projection)

    def _forward(self, x: np.ndarray):
        a = self.arrays
        rot = rotation_from_rvec(x[:3])
        r, proj, _ = _corner_residuals(a.y, rot[None], x[None, 3:], a.rc, a.tc, a.obs, a.k)
        return rot, r, proj

    def system(self, x: np.ndarray) -> ResidualSystem:
        last = self._last
        if last is not None and last[0] == x.tobytes():
            rot, r, proj = last[1:]
        else:
            rot, r, proj = self._forward(x)
        a = self.arrays
        # the one-rvec factor: rotation_jacobian_factors on a batch of one
        # takes about 40 us against 4 us (timeit, 2-vCPU host)
        s_g = rotation_jacobian_factor(x[:3], rot)
        frame = _frame_columns(_corner_jacobian(proj), a.rc, rot[None], a.y8, s_g[None])[2]
        return ResidualSystem(r, frame.reshape(-1, 6))

    def residuals(self, x: np.ndarray) -> np.ndarray:
        rot, r, proj = self._forward(x)
        self._last = (x.tobytes(), rot, r, proj)
        return r


# track_frame's last calibration and the tracker built from it: shallow
# copies of the cams, markers and intrinsics dicts, the marker side and the
# FrameTracker. One tuple, replaced whole, so that concurrent calls never
# pair one calibration with another's tracker.
_last_tracker: tuple | None = None
_ABSENT = object()


def _same_entries(given: dict, held: dict) -> bool:
    """Whether `given` maps the keys of `held` to the very same objects."""
    return len(given) == len(held) and all(
        held.get(key, _ABSENT) is value for key, value in given.items()
    )


def track_frame(
    dets_t: list[Detection],
    cams: dict[int, RigidTransform],
    markers: dict[int, RigidTransform],
    intrinsics: dict[int, CameraIntrinsics],
    template: MarkerTemplate,
    warm: RigidTransform | None = None,
    opts: SolverOptions = SolverOptions(),
) -> tuple[RigidTransform | None, float | None]:
    """One-frame solve, as FrameTracker(cams, markers, intrinsics,
    template).solve(dets_t, warm, opts) returns it.

    The tracker of the last call is reused while the calibration is the
    same: each of the three dicts holds the same keys mapped to the same
    objects (`is`) and the marker side is equal; otherwise a new tracker
    replaces it. Like FrameTracker, it takes the calibration as frozen: a
    pose or intrinsics array changed in place goes unseen, one replaced in
    its dict does not.
    """
    global _last_tracker
    last = _last_tracker
    if (
        last is None
        or last[3] != template.side
        or not all(map(_same_entries, (cams, markers, intrinsics), last[:3]))
    ):
        held = (dict(cams), dict(markers), dict(intrinsics))
        last = (*held, template.side, FrameTracker(*held, template))
        _last_tracker = last
    return last[4].solve(dets_t, warm, opts)
