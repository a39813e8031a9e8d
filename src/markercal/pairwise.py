"""Pairwise relative transforms between cameras and between markers.

Whenever two cameras see the same marker in the same frame, each pairing of
their candidate poses yields one sample of the camera-to-camera transform
(likewise for two markers seen by one camera). Samples are never averaged:
the one that best agrees with the rest, by summed squared distance over three
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
from .geometry import RigidTransform, compose, invert
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
class TransformSample:
    """One observed relative transform plus where it came from.

    `source` is (frame, bridge id): the marker both cameras saw, or the
    camera that saw both markers. `product_index` orders the candidates of
    an ambiguous detection pairing.
    """

    transform: RigidTransform
    source: tuple[int, int] = (-1, -1)
    product_index: int = 0
    from_ambiguous: bool = False


@dataclass(frozen=True)
class SelectedTransform:
    best: RigidTransform
    d_total: float  # m^2, summed distance of best against all samples
    d_mean: float  # m^2
    index: int  # position of best in the sample list


@dataclass
class PairAccumulator:
    """All transform samples collected for one pair, plus the selection."""

    key: PairKey
    samples: list[TransformSample] = field(default_factory=list)
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


def _pair_samples(xi_i, xi_j, source, relative) -> list[TransformSample]:
    """relative(T_i, T_j) for each Cartesian pairing of the two candidate sets."""
    ambiguous = len(xi_i) == 2 or len(xi_j) == 2
    return [
        TransformSample(relative(t_i, t_j), source, idx, ambiguous)
        for idx, (t_i, t_j) in enumerate(product(xi_i.transforms, xi_j.transforms))
    ]


def camera_pair_samples(
    xi_i: CandidateSet,
    xi_j: CandidateSet,
    source: tuple[int, int] = (-1, -1),
) -> list[TransformSample]:
    """Camera-j-to-camera-i transforms from one marker seen by both cameras.

    Each Cartesian pairing of the candidate marker poses T_i (marker to
    camera i) and T_j contributes T_i * T_j^-1. Result size is
    |xi_i| * |xi_j|, so 0, 1, 2 or 4 samples.
    """
    return _pair_samples(xi_i, xi_j, source, lambda t_i, t_j: compose(t_i, invert(t_j)))


def marker_pair_samples(
    xi_i: CandidateSet,
    xi_j: CandidateSet,
    source: tuple[int, int] = (-1, -1),
) -> list[TransformSample]:
    """Marker-i-to-marker-j transforms from one camera seeing both markers.

    Each pairing of the candidate poses T_i (marker i to the camera) and T_j
    contributes T_j^-1 * T_i, which maps marker-i coordinates to marker-j
    coordinates.
    """
    return _pair_samples(xi_i, xi_j, source, lambda t_i, t_j: compose(invert(t_j), t_i))


def argmin_summed_distance(
    transforms: list[RigidTransform], probe: np.ndarray
) -> tuple[int, float]:
    """Index minimizing the summed probe-point distance to all transforms.

    Uses the identity sum_k |a_i - a_k|^2 = n |a_i - a-bar|^2 +
    sum_k |a_k - a-bar|^2 over the stacked probe images a, so the cost is
    O(n). Returns the first minimum of these totals: exact duplicates break
    toward the lowest index, while near-ties within float rounding may
    resolve differently from an O(n^2) double loop.
    """
    p = _check_probe(probe)
    n = len(transforms)
    if n == 0:
        raise EmptyCandidateSet("no transforms to select from")
    rotations = np.stack([t.rotation for t in transforms])
    translations = np.stack([t.translation for t in transforms])
    images = (p @ rotations.transpose(0, 2, 1) + translations[:, None, :]).reshape(n, 9)
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
    best_idx, d_total = argmin_summed_distance(
        [s.transform for s in acc.samples], probe
    )
    best = acc.samples[best_idx].transform
    acc.selected = SelectedTransform(best, d_total, d_total / len(acc.samples), best_idx)
    return best, d_total


def _collect_pairs(
    candidate_sets, member_slot: int, pair_samples
) -> dict[PairKey, PairAccumulator]:
    """Accumulate pair samples from candidate sets keyed by (t, cam, marker).

    Slot `member_slot` of the key (1: camera, 2: marker) names the pair
    members; the frame and the other slot name the bridge they share. Every
    bridge seen by two members a < b contributes pair_samples(xi_a, xi_b,
    bridge), the samples of the member-b-to-member-a transform. Bridges are
    visited in sorted order and give each pair at most one batch, so every
    pair's samples come out in (source, product_index) order.
    """
    kind = CAMERA_PAIR if member_slot == 1 else MARKER_PAIR
    by_bridge: dict[tuple[int, int], dict[int, CandidateSet]] = {}
    for key, xi in candidate_sets.items():
        if len(xi) == 0:
            continue
        by_bridge.setdefault((key[0], key[3 - member_slot]), {})[key[member_slot]] = xi

    accs: dict[PairKey, PairAccumulator] = {}
    for bridge in sorted(by_bridge):
        members = by_bridge[bridge]
        for a, b in combinations(sorted(members), 2):
            key = PairKey(a, b, kind)
            acc = accs.setdefault(key, PairAccumulator(key))
            acc.samples.extend(pair_samples(members[a], members[b], bridge))
    return accs


def collect_camera_pairs(
    candidate_sets: dict[tuple[int, int, int], CandidateSet],
) -> dict[PairKey, PairAccumulator]:
    """Accumulate camera-pair samples from per-detection candidate sets.

    `candidate_sets` is keyed by (t, cam, marker). Every frame/marker bridge
    seen by two cameras contributes samples to that camera pair.
    """
    return _collect_pairs(candidate_sets, 1, camera_pair_samples)


def collect_marker_pairs(
    candidate_sets: dict[tuple[int, int, int], CandidateSet],
) -> dict[PairKey, PairAccumulator]:
    """Accumulate marker-pair samples from per-detection candidate sets.

    For the pair (a, b) with a < b the stored transform maps marker-b
    coordinates to marker-a coordinates, matching the graph edge convention.
    """
    # marker_pair_samples maps its first argument's marker into its second's
    return _collect_pairs(
        candidate_sets, 2, lambda xi_a, xi_b, src: marker_pair_samples(xi_b, xi_a, src)
    )
