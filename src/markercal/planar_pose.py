"""Two-solution planar pose estimation for square markers, and the table of
the pose candidates kept.

A plane seen under perspective admits up to two physically plausible poses
(the second is a reflection about the plane orthogonal to the viewing ray of
the marker center). `planar_poses` recovers both for every detection of a
batch at once, in the manner of IPPE (Collins & Bartoli, "Infinitesimal
Plane-based Pose Estimation", IJCV 2014). Each step is one array operation
over all rows, and none calls LAPACK: the quad checks, undistortion, the
exact homography in Heckbert's closed form for a square (after the
template's affine map to the unit square, formed once per marker side), the
split into two rotations (a 2x2 solve by Cramer's rule, the third row and
column in closed form, then one polar Newton step that removes their
rounding drift from SO(3)), the least-squares translations, and the RMS
corner reprojection scores through `project_arrays`.

Every row gets a status. POSE_OK rows carry both poses, best first.
DEGENERATE_QUAD means a non-convex quad, coincident or collinear corners, an
area of at most 1 px^2 or a degenerate homography. NO_VALID_POSE means no
solution lies in front of the camera, or the viewing geometry is
degenerate. A row that fails a check gets a benign placeholder (or a
divisor of 1) before the next step that could divide by zero, so one bad
detection cannot poison its batch, and every row comes out exactly as its
own one-row call would.

The error ratio is the ambiguity measure: a ratio near 1 means the
detection alone cannot tell the two poses apart. By it `candidate_set`
keeps none, the best or both poses of each detection in one `CandidateSet`
table, sorted by (t, cam, marker), from which pairwise voting and frame
initialization read. The tracker's cold start keeps both poses of every
usable row, in the same key order, without the table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import MissingIntrinsics
from .geometry import (
    CameraIntrinsics,
    MarkerTemplate,
    PoseStack,
    cross,
    project,  # noqa: F401  bound by name for perfbench/tracing.py
    project_arrays,
    undistort_arrays,
)

# ratio reported when only one decomposition places the marker in front of
# the camera; large enough to clear any plausible acceptance threshold
SINGLE_SOLUTION_RATIO = 1e12

_ERR_FLOOR = 1e-12  # px; denominator clamp for the ratio
_EPS = 1e-12  # determinant and scale floor of the decomposition

POSE_OK = 0
DEGENERATE_QUAD = 1
NO_VALID_POSE = 2

_AHEAD = np.array([[1, 2, 3, 0], [2, 3, 0, 1]])  # corners i+1, i+2 around the quad
_ROLL = np.array([[1, 2, 0], [2, 0, 1]])  # columns j+1, j+2 of a 3x3 matrix
_ADJ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])
_EYE2, _EYE3 = np.eye(2), np.eye(3)


@dataclass(frozen=True)
class Detection:
    """One marker seen by one camera in one frame."""

    t: int
    cam: int
    marker: int
    corners: np.ndarray  # (4,2) pixels, ordered like MarkerTemplate.corners

    def __post_init__(self):
        c = np.asarray(self.corners, dtype=np.float64).reshape(4, 2)
        c.flags.writeable = False
        object.__setattr__(self, "corners", c)

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.t, self.cam, self.marker)


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """The marker-to-camera poses kept for N detections, as one table.

    Row i is detection keys[i] = (t, cam, marker), keys sorted. Its counts[i]
    poses (0, 1 or 2, best first) are poses[offsets[i]:offsets[i+1]].
    """

    keys: np.ndarray  # (N,3) int
    counts: np.ndarray  # (N,) int
    ratios: np.ndarray  # (N,) as PlanarPoses.ratios, NaN without a pose
    poses: PoseStack
    offsets: np.ndarray = field(init=False, repr=False)  # (N+1,) into poses

    def __post_init__(self):
        keys = np.asarray(self.keys, dtype=np.int64).reshape(-1, 3)
        counts = np.asarray(self.counts, dtype=np.int64).reshape(-1)
        # each key against the next at the first column where they differ
        # (column 0 for equal keys, which may repeat)
        prev, nxt = keys[:-1], keys[1:]
        first = (prev != nxt).argmax(axis=1)[:, None]
        if np.take_along_axis(nxt < prev, first, axis=1).any():
            raise ValueError("candidate keys must be sorted")
        if len(counts) != len(keys) or ((counts < 0) | (counts > 2)).any():
            raise ValueError("every key needs a count of 0, 1 or 2")
        offsets = np.concatenate(([0], np.cumsum(counts)))
        if offsets[-1] != len(self.poses):
            raise ValueError(f"counts sum to {offsets[-1]}, but {len(self.poses)} poses given")
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "ratios", np.asarray(self.ratios, dtype=np.float64))
        object.__setattr__(self, "offsets", offsets)

    def __len__(self) -> int:
        return len(self.keys)


@dataclass(frozen=True)
class PlanarPoses:
    """Both marker-to-camera pose candidates of N detections, best first.

    errors[i, 0] <= errors[i, 1] always, and the ambiguity ratio is
    ratios[i] = errors[i, 1] / max(errors[i, 0], 1e-12), clamped to >= 1.
    When only one pose survives the in-front check, the alt duplicates the
    best and the ratio is the SINGLE_SOLUTION_RATIO sentinel. Rows whose
    status is not POSE_OK hold NaN poses, errors and ratios.
    """

    rotations: np.ndarray  # (N,2,3,3)
    translations: np.ndarray  # (N,2,3)
    errors: np.ndarray  # (N,2) RMS corner reprojection error, px
    ratios: np.ndarray  # (N,) ambiguity ratio, see above
    status: np.ndarray  # (N,) POSE_OK, DEGENERATE_QUAD or NO_VALID_POSE


def corner_arrays(dets: list[Detection], intrinsics: dict[int, CameraIntrinsics]):
    """Observed corners (4N,2) of N detections and their intrinsics k (9,4N):
    one row per parameter (fx, fy, cx, cy, k1, k2, p1, p2, k3), one column
    per corner, as project_arrays takes them. Raises MissingIntrinsics for
    a detection whose camera has none."""
    # Python floats throughout: np.array converts them far faster than np.float64s
    rows = {c: (i.fx, i.fy, i.cx, i.cy, *i.dist.tolist()) for c, i in intrinsics.items()}
    try:
        k = np.array([rows[d.cam] for d in dets], dtype=np.float64).reshape(-1, 9)
    except KeyError as e:
        raise MissingIntrinsics(e.args[0]) from None
    obs = np.array([d.corners for d in dets]).reshape(-1, 2)
    return obs, np.repeat(k.T, 4, axis=1)


def _fail(status: np.ndarray, ok: np.ndarray, bad: np.ndarray, code: int) -> np.ndarray:
    """Give `code` to the rows of `ok` where `bad`; the new ok mask."""
    if not bad.any():
        return ok
    bad = ok & bad
    status[bad] = code
    return ok & ~bad


def _park(ok: np.ndarray, x: np.ndarray, benign) -> np.ndarray:
    """x with every row outside `ok` replaced by `benign`."""
    if ok.all():
        return x
    return np.where(ok.reshape(ok.shape + (1,) * (x.ndim - ok.ndim)), x, benign)


def _quad_is_degenerate(corners: np.ndarray) -> np.ndarray:
    """(N,) rows with corner turns of mixed sign (non-convex, which no
    square in front of a pinhole camera gives), area <= 1 px^2, coincident
    or collinear corners. Non-finite corners count as degenerate too.
    """
    ahead = corners[:, _AHEAD]  # (N,2,4,2): corners i+1 and i+2 of each corner i
    d = ahead - corners[:, None]
    nxt, u, w = ahead[:, 0], d[:, 0], d[:, 1]
    shoelace = corners[..., 0] * nxt[..., 1] - corners[..., 1] * nxt[..., 0]
    area = 0.5 * np.abs(np.sum(shoelace, axis=1))
    # every pair of corners is an edge u or a diagonal w, up to sign
    gap = np.sqrt(np.sum(d * d, axis=-1).min(axis=(1, 2)))
    turn = u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]
    convex = (turn >= 1e-9).all(axis=1) | (turn <= -1e-9).all(axis=1)
    return ~((area > 1.0) & (gap >= 1e-9) & convex)


@functools.lru_cache(maxsize=8)
def _unit_square_map(side: float) -> np.ndarray:
    """The affine map (3,3) taking the corners 0, 1, 3 of the template of
    side `side` to the unit square's (0,0), (1,0), (0,1), inverted by
    Cramer's rule; formed once per side."""
    src = MarkerTemplate(side).corners[:, :2]
    e = np.stack([src[1] - src[0], src[3] - src[0]], axis=1)
    det = e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]
    m = np.eye(3)
    m[:2, :2] = np.array([[e[1, 1], -e[0, 1]], [-e[1, 0], e[0, 0]]]) / det
    m[:2, 2] = -m[:2, :2] @ src[0]
    m.flags.writeable = False
    return m


def _homographies(template: MarkerTemplate, dst: np.ndarray) -> np.ndarray:
    """Exact template-to-image homographies (N,3,3), up to scale, of the
    template's corners onto quads dst (N,4,2).

    Heckbert's closed form ("Fundamentals of Texture Mapping and Image
    Warping", 1989, sec. 2.2.3) maps the unit square onto each quad; the
    fixed affine map from the template to the unit square precedes it. It is
    written here multiplied through by its denominator, the cross product of
    the quad's edges at corner 2, so it divides by nothing and needs no rank
    test: the quad checks have already ruled out collinear corners.
    """
    p0, p1, p2, p3 = (dst[:, i] for i in range(4))
    s, d1, d3 = p0 - p1 + p2 - p3, p1 - p2, p3 - p2
    h = np.empty((len(dst), 3, 3))
    g, k, den = h[:, 2, 0], h[:, 2, 1], h[:, 2, 2]  # the bottom row
    np.subtract(s[:, 0] * d3[:, 1], d3[:, 0] * s[:, 1], out=g)
    np.subtract(d1[:, 0] * s[:, 1], s[:, 0] * d1[:, 1], out=k)
    np.subtract(d1[:, 0] * d3[:, 1], d3[:, 0] * d1[:, 1], out=den)
    # columns 0 and 1 from corners 1 and 3: den (p - p0) + (g or k) p
    p13 = np.swapaxes(dst[:, 1::2], 1, 2)  # (N,2,2): p1 and p3 as columns
    h[:, :2, :2] = den[:, None, None] * (p13 - p0[:, :, None]) + h[:, 2:, :2] * p13
    np.multiply(den[:, None], p0, out=h[:, :2, 2])
    return np.matmul(h, _unit_square_map(template.side))


def _polar_step(m: np.ndarray) -> np.ndarray:
    """One Newton step (m + m^-T) / 2 of the polar decomposition on a (...,3,3)
    stack, m^-T from the cofactors: column j is the cross product of
    columns j+1 and j+2. From a matrix within e of SO(3) it lands within
    about e^2 of the nearest rotation."""
    rolled = np.swapaxes(m, -1, -2)[..., _ROLL, :]  # rows: columns j+1, then j+2
    cof = cross(rolled[..., 0, :, :], rolled[..., 1, :, :])  # row j: cofactor column j
    det = np.sum(m[..., 0] * cof[..., 0, :], axis=-1)
    return 0.5 * (m + np.swapaxes(cof / det[..., None, None], -1, -2))


def _two_rotations(h: np.ndarray, status: np.ndarray, ok: np.ndarray):
    """(N,2,3,3) two-fold rotation decomposition of plane homographies, and
    the ok mask after it.

    Works in the frame rotated so the marker-center viewing ray becomes the
    z axis; there the top-left 2x2 block of the rotation is a scaled copy of
    the homography Jacobian at the template origin, and the missing row is
    determined up to the sign flip that produces the second solution.
    Updates `status` in place for degenerate rows.
    """
    n = len(h)
    v = h[:, :2, 2]  # (N,2)
    jac = h[:, :2, :2] - v[:, :, None] * h[:, None, 2, :2]
    s = np.sqrt(v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1])
    small = s < _EPS
    k = np.zeros((n, 3, 3))
    k[:, :2, 2] = v
    k[:, 2, :2] = -v
    k /= np.where(small, 1.0, s)[:, None, None]
    t = np.sqrt(s * s + 1.0)
    sin_t, cos_t = s / t, 1.0 / t
    rv = _EYE3 + sin_t[:, None, None] * k + (1.0 - cos_t)[:, None, None] * np.matmul(k, k)
    rv = np.where(small[:, None, None], _EYE3, rv)

    b_mat = rv[:, :2, :2] - v[:, :, None] * rv[:, None, 2, :2]
    det = b_mat[:, 0, 0] * b_mat[:, 1, 1] - b_mat[:, 0, 1] * b_mat[:, 1, 0]
    ok = _fail(status, ok, ~(np.abs(det) >= _EPS), NO_VALID_POSE)
    adj = b_mat[:, ::-1, ::-1].transpose(0, 2, 1) * _ADJ_SIGNS
    a_mat = np.matmul(adj, jac) / np.where(ok, det, 1.0)[:, None, None]  # Cramer's rule

    aat = np.matmul(a_mat, a_mat.transpose(0, 2, 1))
    disc = np.sqrt((aat[:, 0, 0] - aat[:, 1, 1]) ** 2 + 4.0 * aat[:, 0, 1] ** 2)
    gamma = np.sqrt(0.5 * (aat[:, 0, 0] + aat[:, 1, 1] + disc))
    ok = _fail(status, ok, ~(gamma >= _EPS), DEGENERATE_QUAD)
    r22 = a_mat / np.where(ok, gamma, 1.0)[:, None, None]

    # the third row of the first two columns, +-b, from their unit norm;
    # the third column is their cross product, whose first two entries
    # change sign with b (exactly, as a - c = -(c - a))
    gram = _EYE2 - np.matmul(r22.transpose(0, 2, 1), r22)
    b = np.sqrt(np.maximum(gram.reshape(n, 4)[:, ::3], 0.0))
    b[:, 1] = np.copysign(b[:, 1], gram[:, 0, 1])
    (r00, r01), (r10, r11) = r22[:, 0].T, r22[:, 1].T
    cols = np.empty((n, 2, 3, 3))
    cols[:, :, :2, :2] = r22[:, None]
    cols[:, 0, 2, :2] = b
    np.negative(b, out=cols[:, 1, 2, :2])
    np.subtract(r10 * b[:, 1], b[:, 0] * r11, out=cols[:, 0, 0, 2])
    np.subtract(b[:, 0] * r01, r00 * b[:, 1], out=cols[:, 0, 1, 2])
    np.negative(cols[:, 0, :2, 2], out=cols[:, 1, :2, 2])
    np.subtract(r00 * r11, r10 * r01, out=cols[:, 0, 2, 2])
    cols[:, 1, 2, 2] = cols[:, 0, 2, 2]
    return _polar_step(_park(ok, np.matmul(rv[:, None], cols), _EYE3)), ok


def _translations(rot: np.ndarray, template_xy: np.ndarray, norm_xy: np.ndarray):
    """Least-squares translations (N,2,3) for rotations (N,2,3,3) and
    normalized observations (N,4,2), and the rotated template corners.

    Each corner k gives t_x - a_k t_z = a_k w_z - w_x and the same in y, with
    w the rotated corner and (a, b) its normalized observation. The x and y
    offsets are the means given t_z, so t_z comes from the centered system.
    """
    # (N,2,4,3): R (x, y, 0) of every template corner
    w = rot[..., None, :, 0] * template_xy[:, :1] + rot[..., None, :, 1] * template_xy[:, 1:]
    rhs = norm_xy[:, None] * w[..., 2:] - w[..., :2]  # (N,2,4,2)
    # means over the four corners, summed in corner order
    ab_mean = (((norm_xy[:, 0] + norm_xy[:, 1]) + norm_xy[:, 2]) + norm_xy[:, 3]) / 4.0
    rhs_mean = (((rhs[:, :, 0] + rhs[:, :, 1]) + rhs[:, :, 2]) + rhs[:, :, 3]) / 4.0
    d_ab, d_rhs = norm_xy - ab_mean[:, None], rhs - rhs_mean[:, :, None]
    t = np.empty(rot.shape[:2] + (3,))
    tz = t[..., 2]
    np.divide(
        -np.add.reduce(d_ab[:, None] * d_rhs, axis=(2, 3)),
        np.add.reduce(d_ab * d_ab, axis=(1, 2))[:, None],
        out=tz,
    )
    np.add(ab_mean[:, None] * tz[..., None], rhs_mean, out=t[..., :2])
    return t, w


def ambiguity_ratio(err_best, err_alt):
    """err_alt / err_best with the denominator clamped at 1e-12 px, >= 1."""
    return np.maximum(1.0, err_alt / np.maximum(err_best, _ERR_FLOOR))


def planar_poses(corners: np.ndarray, k: np.ndarray, template: MarkerTemplate) -> PlanarPoses:
    """Both marker-to-camera pose candidates for N detections at once.

    `corners` are the (N,4,2) or (4N,2) pixel corners and `k` (9,4N) their
    per-corner intrinsics, as corner_arrays builds them. Pipeline: undistort
    corners to normalized coordinates, form the exact template-to-image
    homography in closed form (no SVD), split it into the two plane-pose
    rotations, recover each translation by least squares, then score both
    solutions by RMS corner reprojection error (through the full distortion
    model, against the raw pixel corners).
    """
    corners = np.asarray(corners, dtype=np.float64).reshape(-1, 4, 2)
    n = len(corners)
    k = np.asarray(k).reshape(9, n, 4)
    template_xy = template.corners[:, :2]
    bad = _quad_is_degenerate(corners)
    status = bad * np.int8(DEGENERATE_QUAD)  # POSE_OK is 0
    ok = ~bad

    norm_xy = undistort_arrays(corners, k)
    ok = _fail(status, ok, ~np.isfinite(norm_xy).all(axis=(1, 2)), NO_VALID_POSE)
    norm_xy = _park(ok, norm_xy, template_xy)

    h = _homographies(template, norm_xy)
    h22 = h[:, 2, 2]  # the weight at the template origin, against h's scale
    ok = _fail(status, ok, ~(np.abs(h22) >= _EPS * np.abs(h).max(axis=(1, 2))), NO_VALID_POSE)
    h = h / np.where(ok, h22, 1.0)[:, None, None]

    rot, ok = _two_rotations(h, status, ok)
    tvec, w = _translations(rot, template_xy, norm_xy)
    pix, front = project_arrays(
        (w + tvec[..., None, :]).reshape(-1, 3),
        np.repeat(k, 2, axis=1).reshape(9, -1),  # both solutions of every row
    )[:2]
    valid = (tvec[..., 2] > 0.0) & front.reshape(n, 2, 4).all(axis=-1) & ok[:, None]
    sq = ((pix.reshape(n, 2, 4, 2) - corners[:, None]) ** 2).reshape(n, 2, 8)
    err = np.sqrt(np.add.reduce(sq, axis=-1) / 4.0)
    ok = _fail(status, ok, ~valid.any(axis=1), NO_VALID_POSE)

    # best first; the alt of a one-solution row duplicates its best
    swap = valid[:, 1] & (~valid[:, 0] | (err[:, 1] < err[:, 0]))
    single = valid[:, 0] != valid[:, 1]
    pick = np.empty((n, 2), dtype=np.intp)  # flat (row, solution) of best and alt
    pick[:, 0] = swap
    pick[:, 1] = swap == single
    pick += np.arange(0, 2 * n, 2)[:, None]
    rot, tvec, err = rot.reshape(-1, 3, 3)[pick], tvec.reshape(-1, 3)[pick], err.reshape(-1)[pick]
    ratio = np.where(single, SINGLE_SOLUTION_RATIO, ambiguity_ratio(err[:, 0], err[:, 1]))
    return PlanarPoses(*(_park(ok, x, np.nan) for x in (rot, tvec, err, ratio)), status)


def candidate_set(poses: PlanarPoses, keys, tau_e: float) -> CandidateSet:
    """The poses kept for downstream use, as one table sorted by key.

    Row i of `poses` is detection keys[i] = (t, cam, marker). A row without
    a pose keeps none, an unambiguous one (ratio >= tau_e) its best pose, an
    ambiguous one both; tau_e = inf keeps both poses of every usable row.
    """
    if not tau_e >= 1.0:
        raise ValueError(f"tau_e must be >= 1, got {tau_e}")
    keys = np.asarray(keys, dtype=np.int64).reshape(-1, 3)
    order = np.lexsort(keys.T[::-1])
    ratios = poses.ratios[order]
    counts = np.where(poses.status[order] == POSE_OK, np.where(ratios >= tau_e, 1, 2), 0)
    rows, k = np.nonzero(np.arange(2) < counts[:, None])
    stack = PoseStack(poses.rotations[order[rows], k], poses.translations[order[rows], k])
    return CandidateSet(keys[order], counts, ratios, stack)
