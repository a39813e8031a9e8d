"""Initial per-frame object pose from all detections of that frame.

Every detection of marker m in camera c proposes the object pose
G = C_c * T * M_m^-1 (reference marker to reference camera) for each of its
candidate marker poses T. object_poses forms them from rows of the candidate
table as one PoseStack: the whole table at once in calibration, one frame's
rows in the tracker's cold start. Within each frame, the proposal that best
agrees with the rest, by the same summed probe-point distance used for
pairwise selection, becomes the frame's initial pose: the proposal whose
probe-point images lie nearest their frame's mean. All frames are selected
in one batch, by one segmented pairwise.argmin_summed_distance call with one
segment per frame (O(n) overall); ties go to the first minimum of the
closed-form totals, so exact duplicates resolve to the lowest proposal
index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import IndexedPoses, PoseStack, RigidTransform, compose_many, invert_many
from .pairwise import argmin_summed_distance
from .planar_pose import CandidateSet
from .structure_init import StructureEstimate

SOURCE_INIT = "init"
SOURCE_REFINED = "refined"
SOURCE_TRACKED = "tracked"


@dataclass(frozen=True)
class FramePoseCandidates:
    """Object-pose proposals of many frames, grouped by frame."""

    t: np.ndarray  # (P,) frame of each proposal, non-decreasing
    candidates: PoseStack  # (P,) reference marker -> reference camera


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
    table: CandidateSet, cams: StructureEstimate, markers: StructureEstimate
) -> FramePoseCandidates:
    """Object-pose proposals of every frame, one per candidate marker pose,
    in sorted (t, cam, marker) order, with the frame of each."""
    posed = table.keys[table.counts > 0]
    known = np.isin(posed[:, 1], cams.stacked.ids) & np.isin(posed[:, 2], markers.stacked.ids)
    if not known.all():
        t, c, m = posed[np.argmin(known)].tolist()
        raise ValueError(f"detection (t={t}, cam={c}, marker={m}) outside the structure estimate")
    frames = np.repeat(table.keys[:, 0], table.counts)
    return FramePoseCandidates(frames, object_poses(cams.stacked, markers.stacked, table))


def build_trajectory(proposals: FramePoseCandidates, probe: np.ndarray, n_frames: int) -> Trajectory:
    """One pose for each of frames 0 to n_frames - 1, every frame's picked in
    one segmented argmin_summed_distance call (one segment per frame);
    frames without proposals come out untracked."""
    traj = Trajectory({t: FrameState(None, SOURCE_INIT) for t in range(n_frames)})
    if len(proposals.candidates):
        frames, starts = np.unique(proposals.t, return_index=True)
        best, _ = argmin_summed_distance(proposals.candidates, starts, probe)
        for t, row in zip(frames.tolist(), best.tolist()):
            traj.frames[t] = FrameState(proposals.candidates[row], SOURCE_INIT)
    return traj
