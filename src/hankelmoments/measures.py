"""Finitely supported positive measures on the real line."""

from __future__ import annotations

from dataclasses import dataclass

from .backends import HankelError, parse_number, to_json


class EmptyMeasureError(HankelError):
    """All point masses were removed."""


@dataclass(frozen=True)
class DiscreteMeasure:
    """Point masses ``weights[i]`` at strictly increasing ``points[i]``.

    Points and weights are stored as given (typically Fractions, so every
    moment is exact); validation enforces distinct increasing points and
    positive weights.
    """

    points: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.points) != len(self.weights):
            raise ValueError("points and weights must have equal length")
        if not self.points:
            raise EmptyMeasureError("a discrete measure needs at least one point")
        for a, b in zip(self.points, self.points[1:]):
            if not a < b:
                raise ValueError("points must be strictly increasing")
        for w in self.weights:
            if not w > 0:
                raise ValueError("weights must be positive")

    @staticmethod
    def from_lists(points, weights) -> "DiscreteMeasure":
        """The measure of the given points and weights, sorted by point; the
        lists must have equal length (checked before the sort pairs them)."""
        if len(points) != len(weights):
            raise ValueError(f"{len(points)} points and {len(weights)} weights: lengths differ")
        pairs = sorted(zip(map(parse_number, points), map(parse_number, weights)), key=lambda p: p[0])
        return DiscreteMeasure(tuple(p for p, _ in pairs), tuple(w for _, w in pairs))

    @property
    def size(self) -> int:
        return len(self.points)

    def to_json(self) -> dict:
        return to_json(self)

    @staticmethod
    def from_json(obj: dict) -> "DiscreteMeasure":
        return DiscreteMeasure.from_lists(obj["points"], obj["weights"])
