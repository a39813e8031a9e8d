"""Initial per-frame object pose from all detections of that frame.

Every detection of marker m in camera c proposes the object pose
G = C_c * T * M_m^-1 (reference marker to reference camera) for each of its
candidate marker poses T. object_poses forms them from the frame's rows of
the candidate table as one PoseStack, for the tracker's cold start too. The
proposal that best agrees with the rest, by the same summed probe-point
distance used for pairwise selection, becomes the frame's initial pose:
the proposal whose probe-point images lie nearest their mean
(pairwise.argmin_summed_distance, O(n) per frame); ties go to the first
minimum of the closed-form totals, so exact duplicates resolve to the lowest
proposal index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NoDetectionsInFrame
from .geometry import IndexedPoses, PoseStack, RigidTransform, compose_many, invert_many
from .pairwise import argmin_summed_distance
from .planar_pose import CandidateSet
from .structure_init import StructureEstimate

SOURCE_INIT = "init"
SOURCE_REFINED = "refined"
SOURCE_TRACKED = "tracked"


@dataclass(frozen=True)
class FramePoseCandidates:
    t: int
    candidates: PoseStack  # reference marker -> reference camera


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


def object_poses(cams: IndexedPoses, markers: IndexedPoses, table: CandidateSet) -> PoseStack:
    """G = C_c * T * M_m^-1 for each pose T of the table, kept for a
    detection of marker m by camera c: the object pose (reference marker to
    reference camera) it implies, given the stacked camera poses `cams` and
    marker poses `markers`."""
    views = np.repeat(table.keys[:, 1:], table.counts, axis=0)
    c = cams.poses[cams.rows(views[:, 0])]
    m = markers.poses[markers.rows(views[:, 1])]
    return compose_many(compose_many(c, table.poses), invert_many(m))


def frame_candidates(
    t: int, table: CandidateSet, cams: StructureEstimate, markers: StructureEstimate
) -> FramePoseCandidates:
    """Object-pose proposals for frame t, one per candidate marker pose, in
    sorted (t, cam, marker) order."""
    frame = table[slice(*np.searchsorted(table.keys[:, 0], [t, t + 1]))]
    for _, c, m in frame.keys[frame.counts > 0].tolist():
        if c not in cams.poses or m not in markers.poses:
            raise ValueError(f"detection (t={t}, cam={c}, marker={m}) outside the structure estimate")
    return FramePoseCandidates(t, object_poses(cams.stacked, markers.stacked, frame))


def select_frame_pose(c: FramePoseCandidates, probe: np.ndarray) -> RigidTransform:
    """The proposal minimizing summed probe distance to all proposals."""
    if not c.candidates:
        raise NoDetectionsInFrame(f"frame {c.t} has no detections")
    idx, _ = argmin_summed_distance(c.candidates, probe)
    return c.candidates[idx]


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
