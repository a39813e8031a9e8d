"""Exception types raised across the calibration and tracking pipeline."""

from __future__ import annotations


class MarkerCalError(Exception):
    """Base class for all markercal errors."""


class PointBehindCamera(MarkerCalError):
    """A 3D point has non-positive depth and cannot be projected."""


class NoValidPose(MarkerCalError):
    """Both planar pose solutions place the marker behind the camera."""


class EmptyCandidateSet(MarkerCalError):
    """Optimal-transform selection was asked to pick from zero samples."""


class DisconnectedGraph(MarkerCalError):
    """The camera or marker co-observation graph does not span all vertices.

    Carries the connected components so the caller can report which
    cameras/markers never co-observed anything.
    """

    def __init__(self, kind: str, components: list[list[int]]):
        self.kind = kind
        self.components = components
        parts = "; ".join("{" + ", ".join(str(v) for v in c) + "}" for c in components)
        super().__init__(f"{kind} graph is disconnected: components {parts}")


class NumericalFailure(MarkerCalError):
    """The optimizer hit a non-finite cost or an unsolvable system."""


class DegenerateConfiguration(MarkerCalError):
    """Point correspondences are too degenerate for rigid alignment."""


class FrameMismatch(MarkerCalError):
    """Estimated and ground-truth results cover different ids or frames."""


class InvalidSpec(MarkerCalError):
    """A synthetic scene specification has out-of-range fields."""


class ParseError(MarkerCalError):
    """An input file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class ValidationError(MarkerCalError):
    """An input file parsed but violates a dataset invariant."""


class MissingIntrinsics(MarkerCalError):
    """A detection references a camera id with no intrinsics entry."""

    def __init__(self, cam: int):
        self.cam = cam
        super().__init__(f"no intrinsics for camera {cam}")
