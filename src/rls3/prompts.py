"""Angle-based spatial relation extraction and caption generation.

The space around the reference object is split into eight 45-degree horizontal
regions in the camera-yaw frame (azimuth 0 points away from the camera, so the
subject is 'behind' the reference) plus three elevation bands: within +/-20
degrees only the horizontal relation is used, beyond +/-75 only the vertical
one, and anything in between appends 'above'/'below' to the horizontal terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scene import CameraPose, SceneSnapshot

HORIZONTAL_PRIMITIVES = ("front", "behind", "left", "right")
VERTICAL_PRIMITIVES = ("above", "below")
PRIMITIVES = VERTICAL_PRIMITIVES + HORIZONTAL_PRIMITIVES

OPPOSITES = {
    "left": "right",
    "right": "left",
    "front": "behind",
    "behind": "front",
    "above": "below",
    "below": "above",
}

# caption phrases in caption term order: vertical, then depth, then lateral
PHRASES = {
    "above": "above",
    "below": "below",
    "behind": "behind",
    "front": "in front of",
    "left": "to the left of",
    "right": "to the right of",
}

MIXED_ELEVATION_DEG = 20.0
VERTICAL_ONLY_ELEVATION_DEG = 75.0


class DegenerateGeometryError(ValueError):
    """Object centers coincide; no direction is defined."""


class EmptyRelationError(ValueError):
    """A caption needs at least one spatial primitive."""


@dataclass(frozen=True)
class SpatialRelation:
    horizontal: frozenset[str]
    vertical: str | None

    def __post_init__(self):
        if not self.horizontal <= set(HORIZONTAL_PRIMITIVES):
            raise ValueError(f"bad horizontal terms {self.horizontal}")
        if len(self.horizontal) > 2:
            raise ValueError("at most two horizontal terms")
        for term in self.horizontal:
            if OPPOSITES[term] in self.horizontal:
                raise ValueError("horizontal terms contain an opposite pair")
        if self.vertical is not None and self.vertical not in VERTICAL_PRIMITIVES:
            raise ValueError(f"bad vertical term {self.vertical}")
        if not self.horizontal and self.vertical is None:
            raise ValueError("relation needs at least one primitive")

    @property
    def complexity(self) -> int:
        return len(self.horizontal) + (1 if self.vertical else 0)

    @property
    def primitives(self) -> frozenset[str]:
        extra = {self.vertical} if self.vertical else set()
        return frozenset(self.horizontal | extra)


def relation_from_primitives(terms) -> SpatialRelation:
    terms = set(terms)
    vertical = terms & set(VERTICAL_PRIMITIVES)
    if len(vertical) > 1:
        raise ValueError("both vertical terms present")
    return SpatialRelation(
        horizontal=frozenset(terms & set(HORIZONTAL_PRIMITIVES)),
        vertical=next(iter(vertical), None),
    )


@dataclass(frozen=True)
class CaptionSet:
    subject: str
    reference: str
    relation: SpatialRelation
    positive: str
    question: str
    term_swapped: str
    object_swapped: str


# --- geometry ----------------------------------------------------------------


def camera_basis(yaw_deg: float) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal forward and right unit vectors for a camera yaw (degrees)."""
    yaw = math.radians(yaw_deg)
    forward = np.array([math.sin(yaw), 0.0, math.cos(yaw)])
    right = np.array([math.cos(yaw), 0.0, -math.sin(yaw)])
    return forward, right


def relative_geometry(
    pos_a, pos_b, camera: CameraPose
) -> tuple[float, float]:
    """Azimuth [0, 360) and elevation [-90, 90] of A seen from B in the
    camera-yaw frame. Azimuth 0 points away from the camera ('behind'),
    increasing toward camera-right.
    """
    d = np.asarray(pos_a, dtype=float) - np.asarray(pos_b, dtype=float)
    if not np.any(d):
        raise DegenerateGeometryError("coincident object centers")
    forward, right = camera_basis(camera.yaw)
    d_fwd = float(d @ forward)
    d_right = float(d @ right)
    azimuth = math.degrees(math.atan2(d_right, d_fwd)) % 360.0
    elevation = math.degrees(math.atan2(d[1], math.hypot(d_fwd, d_right)))
    return azimuth, elevation


def classify_horizontal(azimuth: float) -> frozenset[str]:
    """Eight half-open 45-degree regions with boundaries at 22.5 + k*45."""
    if not 0.0 <= azimuth < 360.0:
        raise ValueError("azimuth must be in [0, 360)")
    table = (
        frozenset({"behind"}),
        frozenset({"behind", "right"}),
        frozenset({"right"}),
        frozenset({"front", "right"}),
        frozenset({"front"}),
        frozenset({"front", "left"}),
        frozenset({"left"}),
        frozenset({"behind", "left"}),
    )
    region = int(((azimuth + 22.5) % 360.0) // 45.0)
    return table[region]


@dataclass(frozen=True)
class ElevationBand:
    kind: str  # horizontal_only | mixed | vertical_only
    vertical: str | None


def classify_elevation(elevation: float) -> ElevationBand:
    if not -90.0 <= elevation <= 90.0:
        raise ValueError("elevation must be in [-90, 90]")
    if abs(elevation) <= MIXED_ELEVATION_DEG:
        return ElevationBand("horizontal_only", None)
    vertical = "above" if elevation > 0 else "below"
    if abs(elevation) <= VERTICAL_ONLY_ELEVATION_DEG:
        return ElevationBand("mixed", vertical)
    return ElevationBand("vertical_only", vertical)


def relation_for_pair(pos_a, pos_b, camera: CameraPose) -> SpatialRelation:
    azimuth, elevation = relative_geometry(pos_a, pos_b, camera)
    band = classify_elevation(elevation)
    if band.kind == "vertical_only":
        return SpatialRelation(frozenset(), band.vertical)
    return SpatialRelation(classify_horizontal(azimuth), band.vertical)


def build_relation(
    snapshot: SceneSnapshot, rng: np.random.Generator
) -> tuple[str, str, SpatialRelation]:
    """Draw subject A and reference B without replacement and classify A's
    position in B's camera-anchored frame.
    """
    n = len(snapshot.names)
    if n < 2:
        raise ValueError("snapshot needs at least two objects")
    for _ in range(2):  # resample once on degenerate geometry
        i, j = rng.choice(n, size=2, replace=False)
        try:
            relation = relation_for_pair(
                snapshot.positions[i], snapshot.positions[j], snapshot.camera
            )
        except DegenerateGeometryError:
            continue
        return snapshot.names[i], snapshot.names[j], relation
    raise DegenerateGeometryError("coincident centers after resampling")


# --- text --------------------------------------------------------------------


def render_caption(subject: str, reference: str, relation: SpatialRelation) -> str:
    phrases = [phrase for t, phrase in PHRASES.items() if t in relation.primitives]
    if not phrases:
        raise EmptyRelationError("relation has no primitives")
    if len(phrases) == 1:
        joined = phrases[0]
    else:
        joined = ", ".join(phrases[:-1]) + " and " + phrases[-1]
    return f"The {subject} is {joined} the {reference}."


def render_question(subject: str, reference: str) -> str:
    return f"What is the position of the {subject} relative to the {reference}?"


def words(text: str) -> list[str]:
    """The lower-cased alphanumeric runs of `text`; every other character splits."""
    return "".join(c.lower() if c.isalnum() else " " for c in text).split()


def parse_caption(text: str) -> frozenset[str]:
    """The spatial primitives `text` names, each matched as a word."""
    return frozenset(w for w in words(text) if w in PRIMITIVES)


def make_negatives(
    subject: str,
    reference: str,
    relation: SpatialRelation,
    rng: np.random.Generator,
) -> tuple[str, str]:
    """(term-swapped, object-swapped) hard negatives for a rendered caption."""
    terms = sorted(relation.primitives)
    swap = terms[int(rng.integers(len(terms)))]
    swapped = (relation.primitives - {swap}) | {OPPOSITES[swap]}
    term_swapped = render_caption(subject, reference, relation_from_primitives(swapped))
    object_swapped = render_caption(reference, subject, relation)
    return term_swapped, object_swapped


def build_caption_set(
    snapshot: SceneSnapshot, rng: np.random.Generator
) -> CaptionSet:
    subject, reference, relation = build_relation(snapshot, rng)
    positive = render_caption(subject, reference, relation)
    question = render_question(subject, reference)
    term_swapped, object_swapped = make_negatives(subject, reference, relation, rng)
    return CaptionSet(
        subject=subject,
        reference=reference,
        relation=relation,
        positive=positive,
        question=question,
        term_swapped=term_swapped,
        object_swapped=object_swapped,
    )
