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


def check_terms(terms) -> frozenset[str]:
    """`terms` as a relation: a non-empty set of primitives that holds no term
    together with its opposite. The horizontal terms form two opposite pairs
    and the vertical terms one, so a relation has at most two horizontal terms
    and at most one vertical term.
    """
    terms = frozenset(terms)
    if not terms:
        raise EmptyRelationError("relation needs at least one primitive")
    for term in terms:
        if term not in OPPOSITES:
            raise ValueError(f"unknown spatial term {term!r}")
        if OPPOSITES[term] in terms:
            raise ValueError(f"relation holds {term!r} and its opposite")
    return terms


@dataclass(frozen=True)
class CaptionSet:
    subject: str
    reference: str
    terms: frozenset[str]
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

    The projections stay numpy dot products: BLAS may fuse their multiplies
    and adds, so the same sum in Python floats can differ in the last bit.
    """
    (ax, ay, az), (bx, by, bz) = pos_a, pos_b
    dx, dy, dz = float(ax) - float(bx), float(ay) - float(by), float(az) - float(bz)
    if not (dx or dy or dz):
        raise DegenerateGeometryError("coincident object centers")
    d = np.array([dx, dy, dz])
    forward, right = camera_basis(camera.yaw)
    d_fwd = float(d @ forward)
    d_right = float(d @ right)
    azimuth = math.degrees(math.atan2(d_right, d_fwd)) % 360.0
    elevation = math.degrees(math.atan2(dy, math.hypot(d_fwd, d_right)))
    return azimuth, elevation


# the horizontal terms of the eight 45-degree regions; region k is centred on azimuth k*45
_HORIZONTAL_REGIONS = (
    frozenset({"behind"}),
    frozenset({"behind", "right"}),
    frozenset({"right"}),
    frozenset({"front", "right"}),
    frozenset({"front"}),
    frozenset({"front", "left"}),
    frozenset({"left"}),
    frozenset({"behind", "left"}),
)


def classify_horizontal(azimuth: float) -> frozenset[str]:
    """Eight half-open 45-degree regions with boundaries at 22.5 + k*45."""
    if not 0.0 <= azimuth < 360.0:
        raise ValueError("azimuth must be in [0, 360)")
    return _HORIZONTAL_REGIONS[int(((azimuth + 22.5) % 360.0) // 45.0)]


@dataclass(frozen=True)
class ElevationBand:
    kind: str  # horizontal_only | mixed | vertical_only
    vertical: str | None


# the five bands, built once
_HORIZONTAL_ONLY = ElevationBand("horizontal_only", None)
_MIXED = {v: ElevationBand("mixed", v) for v in VERTICAL_PRIMITIVES}
_VERTICAL_ONLY = {v: ElevationBand("vertical_only", v) for v in VERTICAL_PRIMITIVES}


def classify_elevation(elevation: float) -> ElevationBand:
    if not -90.0 <= elevation <= 90.0:
        raise ValueError("elevation must be in [-90, 90]")
    if abs(elevation) <= MIXED_ELEVATION_DEG:
        return _HORIZONTAL_ONLY
    vertical = "above" if elevation > 0 else "below"
    if abs(elevation) <= VERTICAL_ONLY_ELEVATION_DEG:
        return _MIXED[vertical]
    return _VERTICAL_ONLY[vertical]


def relation_for_pair(pos_a, pos_b, camera: CameraPose) -> frozenset[str]:
    """The terms that place A relative to B."""
    azimuth, elevation = relative_geometry(pos_a, pos_b, camera)
    band = classify_elevation(elevation)
    horizontal = frozenset() if band.kind == "vertical_only" else classify_horizontal(azimuth)
    return check_terms(horizontal | {band.vertical} if band.vertical else horizontal)


def build_relation(
    snapshot: SceneSnapshot, rng: np.random.Generator
) -> tuple[str, str, frozenset[str]]:
    """Draw subject A and reference B without replacement and classify A's
    position in B's camera-anchored frame.
    """
    n = len(snapshot.names)
    if n < 2:
        raise ValueError("snapshot needs at least two objects")
    for _ in range(2):  # resample once on degenerate geometry
        i, j = rng.choice(n, size=2, replace=False).tolist()
        try:
            terms = relation_for_pair(
                snapshot.positions[i], snapshot.positions[j], snapshot.camera
            )
        except DegenerateGeometryError:
            continue
        return snapshot.names[i], snapshot.names[j], terms
    raise DegenerateGeometryError("coincident centers after resampling")


# --- text --------------------------------------------------------------------


def render_caption(subject: str, reference: str, terms: frozenset[str]) -> str:
    phrases = [phrase for t, phrase in PHRASES.items() if t in terms]
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
    terms: frozenset[str],
    rng: np.random.Generator,
) -> tuple[str, str]:
    """(term-swapped, object-swapped) hard negatives for a rendered caption."""
    ordered = sorted(terms)
    swap = ordered[int(rng.integers(len(ordered)))]
    swapped = check_terms((terms - {swap}) | {OPPOSITES[swap]})
    term_swapped = render_caption(subject, reference, swapped)
    object_swapped = render_caption(reference, subject, terms)
    return term_swapped, object_swapped


def build_caption_set(
    snapshot: SceneSnapshot, rng: np.random.Generator
) -> CaptionSet:
    subject, reference, terms = build_relation(snapshot, rng)
    positive = render_caption(subject, reference, terms)
    question = render_question(subject, reference)
    term_swapped, object_swapped = make_negatives(subject, reference, terms, rng)
    return CaptionSet(
        subject=subject,
        reference=reference,
        terms=terms,
        positive=positive,
        question=question,
        term_swapped=term_swapped,
        object_swapped=object_swapped,
    )
