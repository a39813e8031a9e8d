"""Initial per-frame object pose from all detections of that frame.

Every detection of marker m in camera c proposes the object pose
G = C_c * T * M_m^-1 (reference marker to reference camera) for each of its
candidate marker poses T. The proposal that best agrees with the rest, by the
same summed probe-point distance used for pairwise selection, becomes the
frame's initial pose. That is the proposal whose probe-point images lie
nearest their mean (pairwise.argmin_summed_distance, O(n) per frame); ties go
to the first minimum of the closed-form totals, so exact duplicates resolve
to the lowest proposal index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NoDetectionsInFrame
from .geometry import RigidTransform, compose, invert
from .pairwise import argmin_summed_distance
from .planar_pose import CandidateSet
from .structure_init import StructureEstimate

SOURCE_INIT = "init"
SOURCE_REFINED = "refined"
SOURCE_TRACKED = "tracked"


@dataclass(frozen=True)
class FrameCandidate:
    transform: RigidTransform  # reference marker -> reference camera
    cam: int
    marker: int
    ratio: float


@dataclass(frozen=True)
class FramePoseCandidates:
    t: int
    candidates: tuple[FrameCandidate, ...]


@dataclass(frozen=True)
class FrameState:
    pose: RigidTransform | None  # None = untracked (no detection in any camera)
    source: str = SOURCE_INIT


@dataclass
class Trajectory:
    """Per-frame object pose (reference marker to reference camera)."""

    frames: dict[int, FrameState] = field(default_factory=dict)

    def tracked_items(self) -> list[tuple[int, RigidTransform]]:
        return [
            (t, st.pose) for t, st in sorted(self.frames.items()) if st.pose is not None
        ]

    def __len__(self) -> int:
        return len(self.frames)


def frame_candidates(
    t: int,
    candidate_sets: dict[tuple[int, int, int], CandidateSet],
    cams: StructureEstimate,
    markers: StructureEstimate,
) -> FramePoseCandidates:
    """Object-pose proposals for frame t, one per candidate marker pose."""
    out: list[FrameCandidate] = []
    for (tt, c, m) in sorted(candidate_sets):
        if tt != t:
            continue
        xi = candidate_sets[(tt, c, m)]
        if len(xi) == 0:
            continue
        if c not in cams.poses or m not in markers.poses:
            raise ValueError(
                f"detection (t={tt}, cam={c}, marker={m}) outside the structure estimate"
            )
        cam_pose = cams.poses[c]
        marker_inv = invert(markers.poses[m])
        for transform in xi.transforms:
            g = compose(compose(cam_pose, transform), marker_inv)
            out.append(FrameCandidate(g, c, m, xi.ratio))
    return FramePoseCandidates(t, tuple(out))


def select_frame_pose(c: FramePoseCandidates, probe: np.ndarray) -> RigidTransform:
    """The proposal minimizing summed probe distance to all proposals."""
    if not c.candidates:
        raise NoDetectionsInFrame(f"frame {c.t} has no detections")
    idx, _ = argmin_summed_distance([fc.transform for fc in c.candidates], probe)
    return c.candidates[idx].transform


def build_trajectory(
    all_frames: list[FramePoseCandidates], probe: np.ndarray
) -> Trajectory:
    """Select one pose per frame; frames without detections come out untracked."""
    traj = Trajectory()
    for fc in all_frames:
        if fc.candidates:
            traj.frames[fc.t] = FrameState(select_frame_pose(fc, probe), SOURCE_INIT)
        else:
            traj.frames[fc.t] = FrameState(None, SOURCE_INIT)
    return traj
