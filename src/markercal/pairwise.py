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
from itertools import combinations

import numpy as np

from .errors import EmptyCandidateSet
from .geometry import RigidTransform, compose, invert
from .planar_pose import CandidateSet

CAMERA_PAIR = "camera"
MARKER_PAIR = "marker"


@dataclass(frozen=True, order=True)
class PairKey:
    """Unordered pair of camera ids or marker ids, canonicalized to a < b."""

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

    def canonicalize(self) -> None:
        """Sort samples into the (frame, bridge, product index) order."""
        self.samples.sort(key=lambda s: (s.source, s.product_index))


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
    ambiguous = len(xi_i) == 2 or len(xi_j) == 2
    out = []
    idx = 0
    for t_i in xi_i.transforms:
        for t_j in xi_j.transforms:
            out.append(
                TransformSample(compose(t_i, invert(t_j)), source, idx, ambiguous)
            )
            idx += 1
    return out


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
    ambiguous = len(xi_i) == 2 or len(xi_j) == 2
    out = []
    idx = 0
    for t_i in xi_i.transforms:
        for t_j in xi_j.transforms:
            out.append(
                TransformSample(compose(invert(t_j), t_i), source, idx, ambiguous)
            )
            idx += 1
    return out


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


def collect_camera_pairs(
    candidate_sets: dict[tuple[int, int, int], CandidateSet],
) -> dict[PairKey, PairAccumulator]:
    """Accumulate camera-pair samples from per-detection candidate sets.

    `candidate_sets` is keyed by (t, cam, marker). Every frame/marker bridge
    seen by two cameras contributes samples to that camera pair.
    """
    by_bridge: dict[tuple[int, int], dict[int, CandidateSet]] = {}
    for (t, cam, marker), xi in candidate_sets.items():
        if len(xi) == 0:
            continue
        by_bridge.setdefault((t, marker), {})[cam] = xi

    accs: dict[PairKey, PairAccumulator] = {}
    for (t, marker) in sorted(by_bridge):
        cams = by_bridge[(t, marker)]
        for i, j in combinations(sorted(cams), 2):
            key = PairKey(i, j, CAMERA_PAIR)
            acc = accs.setdefault(key, PairAccumulator(key))
            acc.samples.extend(camera_pair_samples(cams[i], cams[j], (t, marker)))
    for acc in accs.values():
        acc.canonicalize()
    return accs


def collect_marker_pairs(
    candidate_sets: dict[tuple[int, int, int], CandidateSet],
) -> dict[PairKey, PairAccumulator]:
    """Accumulate marker-pair samples from per-detection candidate sets.

    For the pair (a, b) with a < b the stored transform maps marker-b
    coordinates to marker-a coordinates, matching the graph edge convention.
    """
    by_bridge: dict[tuple[int, int], dict[int, CandidateSet]] = {}
    for (t, cam, marker), xi in candidate_sets.items():
        if len(xi) == 0:
            continue
        by_bridge.setdefault((t, cam), {})[marker] = xi

    accs: dict[PairKey, PairAccumulator] = {}
    for (t, cam) in sorted(by_bridge):
        markers = by_bridge[(t, cam)]
        for a, b in combinations(sorted(markers), 2):
            key = PairKey(a, b, MARKER_PAIR)
            acc = accs.setdefault(key, PairAccumulator(key))
            # b -> a transform: marker_pair_samples maps its first argument's
            # marker into its second argument's frame
            acc.samples.extend(marker_pair_samples(markers[b], markers[a], (t, cam)))
    for acc in accs.values():
        acc.canonicalize()
    return accs

