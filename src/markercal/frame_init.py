"""Initial per-frame object pose from all detections of that frame.

Every detection of marker m in camera c proposes the object pose
G = C_c * T * M_m^-1 (reference marker to reference camera) for each of its
candidate marker poses T. object_poses, the one place that forms it, takes
row-aligned arrays: the whole candidate table at once in calibration, one
frame's proposals in FrameTracker.cold_start (which scores them by
reprojection instead). Within each frame, the proposal that best agrees
with the rest, by the same summed probe-point distance used for pairwise
selection, becomes the frame's initial pose: the proposal whose probe-point
images lie nearest their frame's mean. All frames are selected in one
batch, by one segmented pairwise.argmin_summed_distance call with one
segment per frame (O(n) overall); ties go to the first minimum of the
closed-form totals, so exact duplicates resolve to the lowest proposal
index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import PoseStack, RigidTransform, _compose, invert_many
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


def object_poses(rc, tc, rt, tt, rmi, tmi):
    """G = C * T * M^-1, row by row, as (rotations, translations): the object
    poses (reference marker to reference camera) that marker poses (rt, tt),
    seen by cameras (rc, tc) of markers with inverses (rmi, tmi), imply. The
    arrays are row-aligned; the inverses row-major, as invert_many forms them."""
    return _compose(*_compose(rc, tc, rt, tt), rmi, tmi)


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
    views = np.repeat(table.keys[:, 1:], table.counts, axis=0)
    c, m = cams.stacked, markers.stacked
    cam, inv = c.poses[c.rows(views[:, 0])], invert_many(m.poses[m.rows(views[:, 1])])
    g = object_poses(cam.rotations, cam.translations, table.poses.rotations,
                     table.poses.translations, inv.rotations, inv.translations)
    return FramePoseCandidates(frames, PoseStack(*g))


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
