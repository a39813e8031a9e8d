"""Rigid transforms, Rodrigues rotation parameterization and the pinhole camera model.

Conventions: a transform maps points from its "source" frame to its "target"
frame, p_target = R @ p_source + t. Camera frames are right-handed with +z
along the optical axis (into the scene), +x right, +y down in the image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PointBehindCamera

MIN_DEPTH = 1e-9  # meters; points at or below this depth cannot be projected
_ORTHO_DRIFT = 1e-9
_EYE3 = np.eye(3)


def _as_array(x, shape) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64).reshape(shape)
    a.flags.writeable = False
    return a


def skew_many(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices of a (..., 3) array: skew_many(v) @ p == cross(v, p)."""
    v = np.asarray(v, dtype=np.float64)
    out = np.zeros(v.shape + (3,))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u x v over the last axis, formed as np.cross forms it (the same bits).
    On the (9,8,3) arrays of a 9-detection tracking frame np.cross takes
    39 us against 24 us, and on the (9,2,3) columns of its planar poses
    53 us against 25 us (timeit, 2-vCPU Xeon, numpy 2.4); with np.cross warm
    tracking frames were 8-9% slower (735-frame `track` scene, seeds 0, 2)."""
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    return np.stack([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0], axis=-1)


@dataclass(frozen=True)
class RigidTransform:
    """An element of SE(3): rotation (3,3) and translation (3,) in meters."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", _as_array(self.rotation, (3, 3)))
        object.__setattr__(self, "translation", _as_array(self.translation, (3,)))

    @staticmethod
    def identity() -> RigidTransform:
        return RigidTransform(np.eye(3), np.zeros(3))

    def as_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one (3,) point or an (N,3) batch."""
        p = np.asarray(points, dtype=np.float64)
        return p @ self.rotation.T + self.translation


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters with Brown-Conrady distortion (k1,k2,p1,p2,k3)."""

    fx: float
    fy: float
    cx: float
    cy: float
    dist: np.ndarray = field(default_factory=lambda: np.zeros(5))
    width: int = 640
    height: int = 480
    pre_undistorted: bool = False

    def __post_init__(self):
        if not all(map(math.isfinite, (self.fx, self.fy, self.cx, self.cy))):
            raise ValueError("fx, fy, cx and cy must be finite")
        if not np.all(np.isfinite(self.dist)):
            raise ValueError("distortion coefficients must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")
        dist = np.zeros(5) if self.pre_undistorted else self.dist
        object.__setattr__(self, "dist", _as_array(dist, (5,)))


@dataclass(frozen=True)
class MarkerTemplate:
    """The four corners of a square marker of side `side`, in its own frame.

    Corner order is (s/2,-s/2,0), (s/2,s/2,0), (-s/2,s/2,0), (-s/2,-s/2,0);
    all corners lie in z = 0 and the centroid is the origin. Input detections
    must list their pixel corners in this same order.
    """

    side: float
    corners: np.ndarray = field(init=False)  # (4,3)

    def __post_init__(self):
        if not 0 < self.side < math.inf:  # written so that NaN fails too
            raise ValueError(f"marker side must be positive and finite, got {self.side}")
        h = self.side / 2.0
        corners = np.array(
            [[h, -h, 0.0], [h, h, 0.0], [-h, h, 0.0], [-h, -h, 0.0]]
        )
        corners.flags.writeable = False
        object.__setattr__(self, "corners", corners)


@dataclass(frozen=True)
class PoseStack:
    """n rigid transforms as stacked arrays: rotations (n,3,3), translations (n,3).

    An integer index gives one RigidTransform (a read-only view of its row);
    an index array or slice gives a PoseStack.
    """

    rotations: np.ndarray
    translations: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotations", _as_array(self.rotations, (-1, 3, 3)))
        object.__setattr__(self, "translations", _as_array(self.translations, (-1, 3)))

    @staticmethod
    def of(transforms) -> PoseStack:
        return PoseStack([t.rotation for t in transforms], [t.translation for t in transforms])

    def __len__(self) -> int:
        return len(self.translations)

    def __getitem__(self, idx):
        if isinstance(idx, (int, np.integer)):
            return RigidTransform(self.rotations[idx], self.translations[idx])
        return PoseStack(self.rotations[idx], self.translations[idx])


@dataclass(frozen=True)
class IndexedPoses:
    """Poses of sorted integer ids stacked once; `rows` finds ids by position."""

    ids: np.ndarray  # (n,) sorted
    poses: PoseStack

    @staticmethod
    def of(poses: dict[int, RigidTransform]) -> IndexedPoses:
        ids = sorted(poses)
        return IndexedPoses(np.array(ids, dtype=np.int64), PoseStack.of([poses[i] for i in ids]))

    def rows(self, ids) -> np.ndarray:
        """Positions of `ids` in the stack; KeyError for an id it does not hold."""
        ids = np.asarray(ids, dtype=np.int64)
        pos = np.searchsorted(self.ids, ids)
        found = pos < len(self.ids)
        found[found] = self.ids[pos[found]] == ids[found]
        if not found.all():
            raise KeyError(f"ids {sorted(set(ids[~found].tolist()))} not held")
        return pos


def _compose(ra, ta, rb, tb):
    """Rotation and translation of (ra, ta) after (rb, tb), for one transform
    or a stack. Rotations that drift from orthonormal by more than
    _ORTHO_DRIFT are projected back onto SO(3)."""
    r = np.matmul(ra, rb)
    t = np.matmul(ra, tb[..., None])[..., 0] + ta
    drift = np.abs(np.matmul(np.swapaxes(r, -1, -2), r) - _EYE3)
    if drift.max(initial=0.0) > _ORTHO_DRIFT:
        bad = drift.max(axis=(-2, -1)) > _ORTHO_DRIFT
        u, _, vt = np.linalg.svd(r[bad])
        u[..., 2] *= np.sign(np.linalg.det(np.matmul(u, vt)))[:, None]  # no reflections
        r[bad] = np.matmul(u, vt)
    return r, t


def _invert(r, t):
    rt = np.swapaxes(r, -1, -2)
    return rt, -np.matmul(rt, t[..., None])[..., 0]


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Composition applying b first, then a: result @ p == a @ (b @ p)."""
    return RigidTransform(*_compose(a.rotation, a.translation, b.rotation, b.translation))


def invert(t: RigidTransform) -> RigidTransform:
    return RigidTransform(*_invert(t.rotation, t.translation))


def compose_many(a: PoseStack, b: PoseStack) -> PoseStack:
    """Row-wise compose(a[i], b[i])."""
    return PoseStack(*_compose(a.rotations, a.translations, b.rotations, b.translations))


def invert_many(s: PoseStack) -> PoseStack:
    return PoseStack(*_invert(s.rotations, s.translations))


def rotation_from_rvec(rvec: np.ndarray) -> np.ndarray:
    """Rodrigues formula, exact for any angle; series below 1e-8 rad."""
    v = np.asarray(rvec, dtype=np.float64)
    theta = math.sqrt(float(v @ v))
    k = skew_many(v)
    if theta < 1e-8:
        return np.eye(3) + k + 0.5 * (k @ k)
    k /= theta
    return np.eye(3) + math.sin(theta) * k + (1.0 - math.cos(theta)) * (k @ k)


def rotations_from_rvecs(rvecs: np.ndarray) -> np.ndarray:
    """(n,3,3) rotations of (n,3) rotation vectors: rotation_from_rvec batched."""
    v = np.asarray(rvecs, dtype=np.float64)
    theta = np.sqrt(np.einsum("ni,ni->n", v, v))
    k = skew_many(v)
    small = theta < 1e-8
    safe = np.where(small, 1.0, theta)
    # I + sin(theta)/theta K + (1 - cos(theta))/theta^2 K^2; I + K + K^2/2 below 1e-8
    a = np.where(small, 1.0, np.sin(theta) / safe)
    b = np.where(small, 0.5, (1.0 - np.cos(theta)) / safe**2)
    return _EYE3 + a[:, None, None] * k + b[:, None, None] * np.matmul(k, k)


def rotation_to_quaternion(r: np.ndarray) -> np.ndarray:
    """Unit quaternion (w,x,y,z) with w >= 0, via Shepperd's method."""
    m = np.asarray(r, dtype=np.float64)
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    if tr > 0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s,
             (m[1, 0] - m[0, 1]) / s]
        )
    elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array(
            [(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s,
             (m[0, 2] + m[2, 0]) / s]
        )
    elif m[1, 1] >= m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array(
            [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s,
             (m[1, 2] + m[2, 1]) / s]
        )
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array(
            [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s,
             (m[1, 2] + m[2, 1]) / s, 0.25 * s]
        )
    if q[0] < 0:
        q = -q
    return q / np.linalg.norm(q)


def rvec_from_rotation(r: np.ndarray) -> np.ndarray:
    """Rotation vector with angle in [0, pi].

    At angle exactly pi the axis sign is ambiguous; it is chosen so
    the first nonzero component is positive.
    """
    q = rotation_to_quaternion(r)
    w = min(q[0], 1.0)
    vec = q[1:]
    sin_half = np.linalg.norm(vec)
    angle = 2.0 * math.atan2(sin_half, w)
    if sin_half < 1e-12:
        return 2.0 * vec  # angle ~ 0: rvec ~ 2*q_vec
    rvec = vec * (angle / sin_half)
    if angle > math.pi - 1e-9:
        nz = np.nonzero(np.abs(rvec) > 1e-12)[0]
        if nz.size and rvec[nz[0]] < 0:
            rvec = -rvec
    return rvec


def rotation_angle(r: np.ndarray) -> float:
    """Geodesic angle of a rotation matrix, radians in [0, pi]."""
    q = rotation_to_quaternion(r)
    return 2.0 * math.atan2(float(np.linalg.norm(q[1:])), min(float(q[0]), 1.0))


def rotation_jacobian_factor(rvec: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """Factor S(v) such that d(R(v) @ p)/dv = -R(v) @ skew(p) @ S(v), given
    rot = R(v).

    Closed form for theta >= 1e-3, third-order series below (both accurate
    to well under 1e-8 relative at the crossover).
    """
    v = np.asarray(rvec, dtype=np.float64)
    theta_sq = float(v @ v)
    k = skew_many(v)
    if theta_sq < 1e-6:
        return np.eye(3) - 0.5 * k + (k @ k) / 6.0
    return (np.outer(v, v) + (rot.T - np.eye(3)) @ k) / theta_sq


def rotation_jacobian_factors(rvecs: np.ndarray, rots: np.ndarray) -> np.ndarray:
    """(n,3,3) rotation_jacobian_factor of (n,3) rvecs and their (n,3,3) rotations."""
    v = np.asarray(rvecs, dtype=np.float64)
    theta_sq = np.einsum("ni,ni->n", v, v)[:, None, None]
    k = skew_many(v)
    series = _EYE3 - 0.5 * k + np.matmul(k, k) / 6.0
    closed = v[:, :, None] * v[:, None, :] + np.matmul(np.swapaxes(rots, -1, -2) - _EYE3, k)
    small = theta_sq < 1e-6
    return np.where(small, series, closed / np.where(small, 1.0, theta_sq))


def _distort_normalized(a: np.ndarray, b: np.ndarray, dist: np.ndarray):
    """Brown-Conrady distortion of normalized coordinates.

    `dist` holds k1, k2, p1, p2, k3 along its first axis: (5,) or (5, ...)
    broadcasting against a and b. Returns (xd, yd, r2, radial); r2 and
    radial feed the projection Jacobian.
    """
    k1, k2, p1, p2, k3 = dist
    r2 = a * a + b * b
    radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
    xd = a * radial + 2.0 * p1 * a * b + p2 * (r2 + 2.0 * a * a)
    yd = b * radial + p1 * (r2 + 2.0 * b * b) + 2.0 * p2 * a * b
    return xd, yd, r2, radial


def project(points_in_camera: np.ndarray, intr: CameraIntrinsics) -> np.ndarray:
    """Project camera-frame points to pixels: pinhole plus Brown-Conrady.

    Accepts a single (3,) point or an (N,3) batch; raises PointBehindCamera
    if any depth is <= 1e-9 m.
    """
    p = np.asarray(points_in_camera, dtype=np.float64)
    single = p.ndim == 1
    p = np.atleast_2d(p)
    z = p[:, 2]
    if np.any(z <= MIN_DEPTH):
        raise PointBehindCamera(f"depth {z.min():.3g} m <= {MIN_DEPTH}")
    a = p[:, 0] / z
    b = p[:, 1] / z
    xd, yd, _, _ = _distort_normalized(a, b, intr.dist)
    pix = np.stack([intr.fx * xd + intr.cx, intr.fy * yd + intr.cy], axis=-1)
    return pix[0] if single else pix


def project_arrays(points, k, want_jacobian: bool = True):
    """Projection with per-point intrinsics; never raises.

    `points` is (N,3) and `k` the intrinsics, one row per parameter (fx, fy,
    cx, cy, k1, k2, p1, p2, k3): (9,N), one column per point, or (9,) for
    all. Returns (pix (N,2), jac (N,2,3) or None, front (N,) bool); pixel
    and Jacobian values at non-front points are unspecified.
    """
    p = np.asarray(points, dtype=np.float64)
    z = p[:, 2]
    front = z > MIN_DEPTH
    inv_z = 1.0 / np.where(front, z, 1.0)
    a = p[:, 0] * inv_z
    b = p[:, 1] * inv_z
    fx, fy, cx, cy = k[:4]
    xd, yd, r2, radial = _distort_normalized(a, b, k[4:])
    pix = np.stack([fx * xd + cx, fy * yd + cy], axis=-1)
    if not want_jacobian:
        return pix, None, front

    k1, k2, p1, p2, k3 = k[4:]
    dradial_dr2 = k1 + r2 * (2.0 * k2 + 3.0 * k3 * r2)
    # d(xd,yd)/d(a,b)
    dxd_da = radial + a * dradial_dr2 * 2.0 * a + 2.0 * p1 * b + 6.0 * p2 * a
    dxd_db = a * dradial_dr2 * 2.0 * b + 2.0 * p1 * a + 2.0 * p2 * b
    dyd_da = b * dradial_dr2 * 2.0 * a + 2.0 * p2 * b + 2.0 * p1 * a
    dyd_db = radial + b * dradial_dr2 * 2.0 * b + 6.0 * p1 * b + 2.0 * p2 * a

    # chain with d(a,b)/d(x,y,z)
    jac = np.empty((p.shape[0], 2, 3))
    jac[:, 0, 0] = fx * dxd_da * inv_z
    jac[:, 0, 1] = fx * dxd_db * inv_z
    jac[:, 0, 2] = -fx * (dxd_da * a + dxd_db * b) * inv_z
    jac[:, 1, 0] = fy * dyd_da * inv_z
    jac[:, 1, 1] = fy * dyd_db * inv_z
    jac[:, 1, 2] = -fy * (dyd_da * a + dyd_db * b) * inv_z
    return pix, jac, front


def undistort_arrays(pixels, k) -> np.ndarray:
    """Map (G,K,2) pixels to normalized camera coordinates, removing distortion.

    `k` holds the intrinsics as project_arrays takes them, one row per
    parameter, and broadcasts against (9,G,K). Fixed-point iteration, at
    most 30 rounds, run per group of K points: a group stops once its
    largest update falls below 1e-14, and a group without distortion takes
    no round. Exact inverse of the projection model to ~1e-12 for moderate
    distortion.
    """
    pix = np.asarray(pixels, dtype=np.float64)
    fx, fy, cx, cy = k[:4]
    xd = (pix[..., 0] - cx) / fx
    yd = (pix[..., 1] - cy) / fy
    a, b = xd.copy(), yd.copy()
    dist = np.broadcast_to(k[4:], (5,) + a.shape)
    active = np.flatnonzero(np.any(dist != 0.0, axis=(0, 2)))
    for _ in range(30):
        if not active.size:
            break
        # xd - xm = xd - a * radial - tangential, so this is the fixed point
        # a = (xd - tangential) / radial
        a_old, b_old = a[active], b[active]
        xm, ym, _, radial = _distort_normalized(a_old, b_old, dist[:, active])
        a[active] = a_old + (xd[active] - xm) / radial
        b[active] = b_old + (yd[active] - ym) / radial
        step = np.maximum(np.abs(a[active] - a_old), np.abs(b[active] - b_old)).max(axis=1)
        active = active[~(step < 1e-14)]
    return np.stack([a, b], axis=-1)
