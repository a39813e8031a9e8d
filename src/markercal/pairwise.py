"""Pairwise relative transforms between cameras and between markers.

Whenever two cameras see the same marker in the same frame, each pairing of
their candidate poses yields one sample of the camera-to-camera transform
(likewise for two markers seen by one camera). A collector forms all of its
samples in one batched product over the pose stack of the candidate table,
and each pair keeps its samples as a PoseStack. Samples are never averaged: the
one that best agrees with the rest, by summed squared distance over the
images of the three axis tips at 1 m, is selected.

With a_i the 9-vector of axis-tip images of sample i and a-bar their mean,
sum_k |a_i - a_k|^2 = n |a_i - a-bar|^2 + sum_k |a_k - a-bar|^2, so the
selected sample is the one whose axis-tip images lie nearest the mean, found
in O(n). Ties go to the first minimum of these closed-form totals. The kernel
(argmin_summed_distance) is segmented: a pair selects over one segment, and
frame initialization selects every frame's pose in one call with one segment
per frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyCandidateSet
from .geometry import PoseStack, RigidTransform, compose_many, invert_many
from .planar_pose import CandidateSet

CAMERA_PAIR = "camera"
MARKER_PAIR = "marker"


@dataclass(frozen=True, order=True)
class PairKey:
    """Unordered pair of camera ids or marker ids, stored with a < b. Which
    side it joins is a fact of the graph that holds it (PoseGraph.kind)."""

    a: int
    b: int

    def __post_init__(self):
        if self.a >= self.b:
            raise ValueError(f"pair ids must satisfy a < b, got ({self.a}, {self.b})")


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


# the probe points, in m: the axis tips (1,0,0), (0,1,0), (0,0,1), whose
# images under a pose are its rotation's columns plus its translation. Not a
# setting: argmin_summed_distance reads those images straight from R's
# columns; transform_distance and the tests apply the tips as points.
AXIS_TIPS = np.eye(3)


def transform_distance(a: RigidTransform, b: RigidTransform) -> float:
    """Sum over the axis tips of the squared distance between their images."""
    diff = a.apply(AXIS_TIPS) - b.apply(AXIS_TIPS)
    return float(np.sum(diff * diff, axis=1).sum())


def argmin_summed_distance(poses: PoseStack, starts) -> tuple[np.ndarray, np.ndarray]:
    """Per segment, the row minimizing the summed axis-tip distance to the
    other rows of its segment, and that total.

    Segment k holds rows starts[k] to starts[k+1] (the last runs to the end
    of the stack); starts must begin at 0, rise strictly and stay below
    len(poses). Uses the identity sum_k |a_i - a_k|^2 = n |a_i - a-bar|^2 +
    sum_k |a_k - a-bar|^2 over the stacked axis-tip images a, so the cost is
    O(n); np.bincount sums each segment in row order. Returns the stack row
    of each segment's first minimum of these totals (or of its first NaN):
    exact duplicates break toward the lowest row, while near-ties within
    float rounding may resolve differently from an O(n^2) double loop.
    """
    n = len(poses)
    starts = np.asarray(starts, dtype=np.int64).reshape(-1)
    if not len(starts) or starts[0] != 0 or starts[-1] >= n or (np.diff(starts) <= 0).any():
        raise ValueError(f"segment starts must rise strictly from 0 to below {n}, got {starts}")
    sizes = np.diff(starts, append=n)
    seg = np.repeat(np.arange(len(starts)), sizes)
    # tip j's image is column j of R plus t, laid out as (n, tip, axis)
    images = (np.swapaxes(poses.rotations, 1, 2) + poses.translations[:, None, :]).reshape(n, 9)
    sums = np.bincount((9 * seg[:, None] + np.arange(9)).ravel(), images.ravel(), 9 * len(starts))
    centred = images - (sums.reshape(-1, 9) / sizes[:, None])[seg]
    spread = np.sum(centred * centred, axis=1)
    totals = sizes[seg] * spread + np.bincount(seg, spread)[seg]
    first = (totals == np.minimum.reduceat(totals, starts)[seg]) | np.isnan(totals)
    best = np.minimum.reduceat(np.where(first, np.arange(n), n), starts)
    return best, totals[best]


def select_optimal(acc: PairAccumulator) -> tuple[RigidTransform, float]:
    """Pick the sample with the smallest summed distance to all others.

    Ties follow argmin_summed_distance (exact duplicates go to the lowest
    sample index). Stores the selection on the accumulator and returns
    (best transform, total distance). The best transform owns a copy of its
    sample, so a graph edge does not keep the collector's whole stack alive.
    """
    if not acc.samples:
        raise EmptyCandidateSet(f"no samples for pair {acc.key}")
    rows, totals = argmin_summed_distance(acc.samples, [0])
    best_idx, d_total = int(rows[0]), float(totals[0])
    chosen = acc.samples[best_idx]
    best = RigidTransform(chosen.rotation.copy(), chosen.translation.copy())
    acc.selected = SelectedTransform(best, d_total, d_total / len(acc.samples), best_idx)
    return best, d_total


def _collect_pairs(table: CandidateSet, member_slot: int) -> dict[PairKey, PairAccumulator]:
    """Accumulate pair samples from the candidate table, keyed by (t, cam, marker).

    Slot `member_slot` of the key (1: camera, 2: marker) names the pair
    members; the frame and the other slot name the bridge they share. Every
    bridge seen by two members a < b contributes one sample of the
    member-b-to-member-a transform per pairing of their candidate poses:
    T_a * T_b^-1 for cameras, with T_a's candidates outermost, and
    T_a^-1 * T_b for markers, with T_b's outermost.

    The listing is array-built: the rows with a pose, sorted by (frame,
    bridge, member), give each row's later bridge mates by `repeat` and
    `cumsum` (the (bridge, a < b) pairings); each pairing expands into its
    1, 2 or 4 products the same way. Pairs are numbered by first appearance,
    pairings are stably sorted by pair, and one batched product forms every
    sample, so each pair's samples are one slice, in (bridge, product) order.
    """
    rows = np.flatnonzero(table.counts > 0)
    if not len(rows):
        return {}
    keys = table.keys[rows][:, (0, 3 - member_slot, member_slot)]
    order = np.lexsort(keys.T[::-1])
    rows, keys = rows[order], keys[order]
    last = np.append((keys[1:] != keys[:-1]).any(axis=1), True)  # a key given twice keeps its last row
    rows, keys, ids = rows[last], keys[last], keys[last, 2]

    # each row pairs with every later row of its bridge: the (bridge, a < b) pairings
    bridge_start = np.append(True, (keys[1:, :2] != keys[:-1, :2]).any(axis=1))
    bridge_end = np.append(np.flatnonzero(bridge_start)[1:], len(rows))
    mates = bridge_end[np.cumsum(bridge_start) - 1] - np.arange(len(rows)) - 1
    first = np.repeat(np.arange(len(rows)), mates)
    second = first + 1 + _ranks_within(mates)

    # pairs numbered by first appearance; pairings stably sorted by pair
    dense = np.unique(ids, return_inverse=True)[1].astype(np.int64)
    _, seen, pair_of = np.unique(dense[first] * len(ids) + dense[second], return_index=True, return_inverse=True)
    pair_of = np.argsort(np.argsort(seen))[pair_of]
    by_pair = np.argsort(pair_of, kind="stable")
    a_rows, b_rows = rows[first[by_pair]], rows[second[by_pair]]

    # each pairing's 1, 2 or 4 products, outer candidate slowest
    outer, inner = (a_rows, b_rows) if member_slot == 1 else (b_rows, a_rows)
    n_inner = table.counts[inner]
    per = table.counts[outer] * n_inner
    pairing = np.repeat(np.arange(len(per)), per)
    k = _ranks_within(per)
    outer = table.offsets[outer][pairing] + k // n_inner[pairing]
    inner = table.offsets[inner][pairing] + k % n_inner[pairing]

    poses = table.poses
    if member_slot == 1:
        samples = compose_many(poses[outer], invert_many(poses[inner]))
    else:
        samples = compose_many(invert_many(poses[inner]), poses[outer])
    ends = np.cumsum(per)[np.searchsorted(pair_of[by_pair], np.arange(len(seen)), side="right") - 1]
    accs = {}
    for j, lo, hi in zip(np.sort(seen).tolist(), [0, *ends[:-1].tolist()], ends.tolist()):
        key = PairKey(int(ids[first[j]]), int(ids[second[j]]))
        accs[key] = PairAccumulator(key, samples[lo:hi])
    return accs


def _ranks_within(sizes: np.ndarray) -> np.ndarray:
    """0, 1, ..., sizes[i] - 1 for each i in turn, as one array."""
    return np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)


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
