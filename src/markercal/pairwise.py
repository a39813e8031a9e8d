"""Pairwise relative transforms between cameras and between markers.

Whenever two cameras see the same marker in the same frame, each pairing of
their candidate poses yields one sample of the camera-to-camera transform
(likewise for two markers seen by one camera). A collector forms all of its
samples in one batched product over the pose stack of the candidate table,
and each pair keeps its samples as a PoseStack. Samples are never averaged: the
one that best agrees with the rest, by summed squared distance over three
probe points, is selected.

With a_i the 9-vector of probe-point images of sample i and a-bar their mean,
sum_k |a_i - a_k|^2 = n |a_i - a-bar|^2 + sum_k |a_k - a-bar|^2, so the
selected sample is the one whose probe images lie nearest the mean, found in
O(n). Ties go to the first minimum of these closed-form totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from .errors import EmptyCandidateSet
from .geometry import PoseStack, RigidTransform, compose_many, invert_many
from .planar_pose import CandidateSet

CAMERA_PAIR = "camera"
MARKER_PAIR = "marker"


@dataclass(frozen=True, order=True)
class PairKey:
    """Unordered pair of camera ids or marker ids, stored with a < b."""

    a: int
    b: int
    kind: str = CAMERA_PAIR

    def __post_init__(self):
        if self.a >= self.b:
            raise ValueError(f"pair ids must satisfy a < b, got ({self.a}, {self.b})")
        if self.kind not in (CAMERA_PAIR, MARKER_PAIR):
            raise ValueError(f"unknown pair kind {self.kind!r}")


@dataclass(frozen=True)
class SelectedTransform:
    best: RigidTransform
    d_total: float  # m^2, summed distance of best against all samples
    d_mean: float  # m^2
    index: int  # position of best in the sample stack


@dataclass
class PairAccumulator:
    """All transform samples collected for one pair, plus the selection."""

    key: PairKey
    samples: PoseStack = field(default_factory=lambda: PoseStack.of(()))
    selected: SelectedTransform | None = None


def probe_points(scale: float) -> np.ndarray:
    """The three axis probe points (s,0,0), (0,s,0), (0,0,s)."""
    if scale <= 0:
        raise ValueError("probe scale must be positive")
    return np.eye(3) * scale


def _check_probe(probe: np.ndarray) -> np.ndarray:
    p = np.asarray(probe, dtype=np.float64).reshape(3, 3)
    if np.any(np.linalg.norm(p, axis=1) < 1e-15):
        raise ValueError("probe points must be nonzero")
    if np.linalg.norm(np.cross(p[1] - p[0], p[2] - p[0])) < 1e-15:
        raise ValueError("probe points must not be collinear")
    return p


def transform_distance(a: RigidTransform, b: RigidTransform, probe: np.ndarray) -> float:
    """Sum over the probe points of the squared distance between images."""
    p = _check_probe(probe)
    diff = a.apply(p) - b.apply(p)
    return float(np.sum(diff * diff, axis=1).sum())


def argmin_summed_distance(poses: PoseStack, probe: np.ndarray) -> tuple[int, float]:
    """Index minimizing the summed probe-point distance to all transforms.

    Uses the identity sum_k |a_i - a_k|^2 = n |a_i - a-bar|^2 +
    sum_k |a_k - a-bar|^2 over the stacked probe images a, so the cost is
    O(n). Returns the first minimum of these totals: exact duplicates break
    toward the lowest index, while near-ties within float rounding may
    resolve differently from an O(n^2) double loop.
    """
    p = _check_probe(probe)
    n = len(poses)
    if n == 0:
        raise EmptyCandidateSet("no transforms to select from")
    images = (p @ poses.rotations.transpose(0, 2, 1) + poses.translations[:, None, :]).reshape(n, 9)
    centred = images - images.mean(axis=0)
    spread = np.sum(centred * centred, axis=1)
    totals = n * spread + spread.sum()
    best_idx = int(np.argmin(totals))
    return best_idx, float(totals[best_idx])


def select_optimal(acc: PairAccumulator, probe: np.ndarray) -> tuple[RigidTransform, float]:
    """Pick the sample with the smallest summed distance to all others.

    Ties follow argmin_summed_distance (exact duplicates go to the lowest
    sample index). Stores the selection on the accumulator and returns
    (best transform, total distance).
    """
    if not acc.samples:
        raise EmptyCandidateSet(f"no samples for pair {acc.key}")
    best_idx, d_total = argmin_summed_distance(acc.samples, probe)
    best = acc.samples[best_idx]
    acc.selected = SelectedTransform(best, d_total, d_total / len(acc.samples), best_idx)
    return best, d_total


def _collect_pairs(table: CandidateSet, member_slot: int) -> dict[PairKey, PairAccumulator]:
    """Accumulate pair samples from the candidate table, keyed by (t, cam, marker).

    Slot `member_slot` of the key (1: camera, 2: marker) names the pair
    members; the frame and the other slot name the bridge they share. Every
    bridge seen by two members a < b contributes one sample of the
    member-b-to-member-a transform per pairing of their candidate poses:
    T_a * T_b^-1 for cameras, with T_a's candidates outermost, and
    T_a^-1 * T_b for markers, with T_b's outermost. The pairings are listed
    in (bridge, a < b, product) order as index pairs into the table's pose
    stack, composed in one batch, and split by pair in that order.
    """
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

    poses = table.poses
    outer, inner = np.array(pairings, dtype=np.int64).reshape(-1, 2).T
    if kind == CAMERA_PAIR:
        samples = compose_many(poses[outer], invert_many(poses[inner]))
    else:
        samples = compose_many(invert_many(poses[inner]), poses[outer])
    accs = {key: PairAccumulator(key) for key in keys}
    order = np.argsort(owner, kind="stable")
    bounds = np.cumsum(np.bincount(owner))[:-1]
    for acc, rows in zip(accs.values(), np.split(order, bounds)):
        acc.samples = samples[rows]
    return accs


def collect_camera_pairs(table: CandidateSet) -> dict[PairKey, PairAccumulator]:
    """Accumulate camera-pair samples from the candidate table.

    Every frame/marker bridge seen by two cameras a < b contributes
    T_a * T_b^-1 (camera-b coordinates to camera-a coordinates) for each
    pairing of the two candidate marker poses: 1, 2 or 4 samples.
    """
    return _collect_pairs(table, 1)


def collect_marker_pairs(table: CandidateSet) -> dict[PairKey, PairAccumulator]:
    """Accumulate marker-pair samples from the candidate table.

    For the pair (a, b) with a < b every camera that sees both markers in a
    frame contributes T_a^-1 * T_b, which maps marker-b coordinates to
    marker-a coordinates, matching the graph edge convention.
    """
    return _collect_pairs(table, 2)
