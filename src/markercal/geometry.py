"""Rigid transforms, Rodrigues rotation parameterization and the pinhole camera model.

Conventions: a transform maps points from its "source" frame to its "target"
frame, p_target = R @ p_source + t. Camera frames are right-handed with +z
along the optical axis (into the scene), +x right, +y down in the image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import PointBehindCamera

MIN_DEPTH = 1e-9  # meters; points at or below this depth cannot be projected
_EYE3 = np.eye(3)


def _as_array(x, shape) -> np.ndarray:
    # row-major always: stacked matmul rounds column-major blocks differently,
    # so the layout an upstream kernel returns would reach the output bits
    a = np.asarray(x, dtype=np.float64, order="C").reshape(shape)
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
    """u x v over the last axis, formed as np.cross forms it (the same bits),
    each component written into one preallocated array. On the (9,8,3)
    arrays of a 9-detection tracking frame np.cross takes 27-31 us against
    10-12 us (12-15 us when the components were joined by np.stack), and
    on the (8,2,3,3) rolled columns of an 8-detection polar step 29-31 us
    against 12-13 us (timeit, best of 15, 2-vCPU Xeon, numpy 2.4)."""
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    first = u1 * v2
    out = np.empty(first.shape + (3,), dtype=first.dtype)
    np.subtract(first, u2 * v1, out=out[..., 0])
    np.subtract(u2 * v0, u0 * v2, out=out[..., 1])
    np.subtract(u0 * v1, u1 * v0, out=out[..., 2])
    return out


@dataclass(frozen=True)
class RigidTransform:
    """An element of SE(3): rotation (3,3) and translation (3,) in meters.
    The rotation is proper; its producers guarantee that and composition never repairs it."""

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
    """Rotation and translation of (ra, ta) after (rb, tb), for one transform or a stack."""
    return np.matmul(ra, rb), np.matmul(ra, tb[..., None])[..., 0] + ta


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


def _floats(a) -> list:
    return np.asarray(a, dtype=np.float64).tolist()


# The one-pose routines below (rotation_from_rvec, rotation_jacobian_factor,
# rvec_from_rotation) work on Python floats and build one array at the end:
# on 3-vectors and 3x3 matrices numpy's per-call overhead is most of the
# cost. They agree with their batched twins to rounding, not bit for bit.


def rotation_from_rvec(rvec: np.ndarray) -> np.ndarray:
    """Rodrigues formula, exact for any angle; series below 1e-8 rad.

    R = I + a K + b K^2 with K = [v]x, a = sin(theta)/theta and
    b = (1 - cos(theta))/theta^2, and K^2 = v v^T - theta^2 I.
    """
    x, y, z = _floats(rvec)
    xx, yy, zz = x * x, y * y, z * z
    # (x^2 + z^2) + y^2 is the order in which rotations_from_rvecs' einsum
    # sums on x86-64 (numpy 2.4); near pi the two forms then agree to
    # 4.4e-16, against 1.3e-15 in the order x, y, z
    theta = math.sqrt(xx + zz + yy)
    if theta < 1e-8:
        a, b = 1.0, 0.5
    else:
        a, b = math.sin(theta) / theta, (1.0 - math.cos(theta)) / (theta * theta)
    ax, ay, az = a * x, a * y, a * z
    bxy, bxz, byz = b * (x * y), b * (x * z), b * (y * z)
    return np.array([
        [1.0 - b * (yy + zz), bxy - az, bxz + ay],
        [bxy + az, 1.0 - b * (xx + zz), byz - ax],
        [bxz - ay, byz + ax, 1.0 - b * (xx + yy)],
    ])


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


def _quaternion(r) -> tuple[float, float, float, float]:
    """Unit quaternion (w,x,y,z) of a rotation with w >= 0, via Shepperd's method."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = _floats(r)
    tr = m00 + m11 + m22
    if tr > 0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = (0.25 * s, (m21 - m12) / s, (m02 - m20) / s, (m10 - m01) / s)
    elif m00 >= m11 and m00 >= m22:
        s = math.sqrt(1.0 + m00 - m11 - m22) * 2.0
        q = ((m21 - m12) / s, 0.25 * s, (m01 + m10) / s, (m02 + m20) / s)
    elif m11 >= m22:
        s = math.sqrt(1.0 + m11 - m00 - m22) * 2.0
        q = ((m02 - m20) / s, (m01 + m10) / s, 0.25 * s, (m12 + m21) / s)
    else:
        s = math.sqrt(1.0 + m22 - m00 - m11) * 2.0
        q = ((m10 - m01) / s, (m02 + m20) / s, (m12 + m21) / s, 0.25 * s)
    w, x, y, z = q if q[0] >= 0 else (-c for c in q)
    n = math.sqrt(w * w + x * x + y * y + z * z)
    return w / n, x / n, y / n, z / n


def rotation_to_quaternion(r: np.ndarray) -> np.ndarray:
    """Unit quaternion (w,x,y,z) with w >= 0, via Shepperd's method."""
    return np.array(_quaternion(r))


def rvec_from_rotation(r: np.ndarray) -> np.ndarray:
    """Rotation vector with angle in [0, pi].

    At angle exactly pi the axis sign is ambiguous; it is chosen so
    the first nonzero component is positive.
    """
    w, *vec = _quaternion(r)
    sin_half = math.sqrt(vec[0] * vec[0] + vec[1] * vec[1] + vec[2] * vec[2])
    if sin_half < 1e-12:
        return np.array([2.0 * c for c in vec])  # angle ~ 0: rvec ~ 2*q_vec
    angle = 2.0 * math.atan2(sin_half, min(w, 1.0))
    s = angle / sin_half
    if angle > math.pi - 1e-9 and next((c for c in vec if abs(c * s) > 1e-12), 0.0) < 0:
        s = -s
    return np.array([c * s for c in vec])


def rotation_angle(r: np.ndarray) -> float:
    """Geodesic angle of a rotation matrix, radians in [0, pi]."""
    w, x, y, z = _quaternion(r)
    return 2.0 * math.atan2(math.sqrt(x * x + y * y + z * z), min(w, 1.0))


def rotation_jacobian_factor(rvec: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """Factor S(v) such that d(R(v) @ p)/dv = -R(v) @ skew(p) @ S(v), given
    rot = R(v).

    Closed form (v v^T + (R^T - I) [v]x) / theta^2 for theta >= 1e-3, whose
    row i is (v_i v + (R e_i - e_i) x v) / theta^2; third-order series
    I - [v]x / 2 + (v v^T - theta^2 I) / 6 below (both accurate to well under
    1e-8 relative at the crossover).
    """
    x, y, z = _floats(rvec)
    xx, yy, zz = x * x, y * y, z * z
    theta_sq = xx + zz + yy  # rotation_from_rvec's order
    if theta_sq < 1e-6:
        hx, hy, hz = 0.5 * x, 0.5 * y, 0.5 * z
        xy, xz, yz = x * y / 6.0, x * z / 6.0, y * z / 6.0
        return np.array([
            [1.0 - (yy + zz) / 6.0, hz + xy, xz - hy],
            [xy - hz, 1.0 - (xx + zz) / 6.0, hx + yz],
            [hy + xz, yz - hx, 1.0 - (xx + yy) / 6.0],
        ])
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = _floats(rot)
    m00, m11, m22 = m00 - 1.0, m11 - 1.0, m22 - 1.0
    return np.array([
        [(xx + (m10 * z - m20 * y)) / theta_sq, (x * y + (m20 * x - m00 * z)) / theta_sq,
         (x * z + (m00 * y - m10 * x)) / theta_sq],
        [(y * x + (m11 * z - m21 * y)) / theta_sq, (yy + (m21 * x - m01 * z)) / theta_sq,
         (y * z + (m01 * y - m11 * x)) / theta_sq],
        [(z * x + (m12 * z - m22 * y)) / theta_sq, (z * y + (m22 * x - m02 * z)) / theta_sq,
         (zz + (m02 * y - m12 * x)) / theta_sq],
    ])


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


class Projection(NamedTuple):
    """project_arrays' result: pixels (N,2) and the front mask (N,), plus the
    forward terms that projection_jacobian finishes from."""

    pix: np.ndarray
    front: np.ndarray
    a: np.ndarray  # normalized x/z and y/z
    b: np.ndarray
    inv_z: np.ndarray
    r2: np.ndarray
    radial: np.ndarray
    k: np.ndarray


def project_arrays(points, k) -> Projection:
    """Projection with per-point intrinsics; never raises.

    `points` is (N,3) and `k` the intrinsics, one row per parameter (fx, fy,
    cx, cy, k1, k2, p1, p2, k3): (9,N), one column per point, or (9,) for
    all. Pixel values at non-front points are unspecified.
    """
    p = np.asarray(points, dtype=np.float64)
    z = p[:, 2]
    front = z > MIN_DEPTH
    inv_z = 1.0 / np.where(front, z, 1.0)
    a = p[:, 0] * inv_z
    b = p[:, 1] * inv_z
    fx, fy, cx, cy = k[:4]
    xd, yd, r2, radial = _distort_normalized(a, b, k[4:])
    pix = np.empty((len(a), 2))
    np.add(fx * xd, cx, out=pix[:, 0])
    np.add(fy * yd, cy, out=pix[:, 1])
    return Projection(pix, front, a, b, inv_z, r2, radial, k)


def projection_jacobian(proj: Projection) -> np.ndarray:
    """(N,2,3) derivative of proj's pixels by the camera-frame points;
    unspecified at non-front points."""
    a, b, inv_z, r2, radial, k = proj[2:]
    fx, fy, _, _, k1, k2, p1, p2, k3 = k
    # d(xd,yd)/d(a,b); d(xd)/d(b) = d(yd)/d(a) = 2 a b dradial/dr2 + 2 p1 a + 2 p2 b
    d2 = 2.0 * (k1 + r2 * (2.0 * k2 + 3.0 * k3 * r2))  # 2 dradial/dr2
    p1x2, p2x2 = 2.0 * p1, 2.0 * p2
    ad = a * d2
    xd_b = ad * b + p1x2 * a + p2x2 * b
    xd_a = radial + ad * a + p1x2 * b + 3.0 * p2x2 * a
    yd_b = radial + b * d2 * b + 3.0 * p1x2 * b + p2x2 * a
    # chain with d(a,b)/d(x,y,z)
    fxz, fyz = fx * inv_z, fy * inv_z
    jac = np.empty((len(a), 2, 3))
    np.multiply(fxz, xd_a, out=jac[:, 0, 0])
    np.multiply(fxz, xd_b, out=jac[:, 0, 1])
    np.multiply(-fxz, xd_a * a + xd_b * b, out=jac[:, 0, 2])
    np.multiply(fyz, xd_b, out=jac[:, 1, 0])
    np.multiply(fyz, yd_b, out=jac[:, 1, 1])
    np.multiply(-fyz, xd_b * a + yd_b * b, out=jac[:, 1, 2])
    return jac


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
    out = np.empty(xd.shape + (2,))
    a, b = out[..., 0], out[..., 1]
    a[...], b[...] = xd, yd
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
    return out
