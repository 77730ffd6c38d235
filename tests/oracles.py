"""Independent reference implementations used to check the package.

Everything here is written from scratch in the most obvious way possible
(interval tables, brute force, central differences) and deliberately shares
no code with src/, so agreement between the two is meaningful.
"""

from __future__ import annotations

import json
import math

import numpy as np


def finite_difference_gradients(f, params: list[np.ndarray], eps: float = 1e-6):
    """Central-difference gradient of scalar f() w.r.t. arrays mutated in place."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f()
            flat[i] = orig - eps
            lo = f()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    num = np.linalg.norm(np.asarray(a) - np.asarray(b))
    den = np.linalg.norm(a) + np.linalg.norm(b) + 1e-12
    return float(num / den)


# --- geometry ------------------------------------------------------------------

# Eight 45-degree regions centered on the axis directions, azimuth measured
# from the camera-forward axis so 0 means "farther from the camera" (behind).
_REGION_TABLE = [
    (337.5, 360.0, {"behind"}),
    (0.0, 22.5, {"behind"}),
    (22.5, 67.5, {"behind", "right"}),
    (67.5, 112.5, {"right"}),
    (112.5, 157.5, {"front", "right"}),
    (157.5, 202.5, {"front"}),
    (202.5, 247.5, {"front", "left"}),
    (247.5, 292.5, {"left"}),
    (292.5, 337.5, {"behind", "left"}),
]


def horizontal_terms_reference(azimuth_deg: float) -> set[str]:
    a = azimuth_deg % 360.0
    for lo, hi, terms in _REGION_TABLE:
        if lo <= a < hi:
            return set(terms)
    raise AssertionError(f"azimuth {azimuth_deg} matched no region")


def relation_terms_reference(azimuth_deg: float, elevation_deg: float) -> set[str]:
    """Full term set: horizontal band below 20 degrees, vertical only above 75,
    both in between.
    """
    e = abs(elevation_deg)
    vertical = "above" if elevation_deg > 0 else "below"
    if e <= 20.0:
        return horizontal_terms_reference(azimuth_deg)
    if e >= 75.0:
        return {vertical}
    return horizontal_terms_reference(azimuth_deg) | {vertical}


def azimuth_elevation_reference(pos_a, pos_b, cam_pos, cam_yaw_deg) -> tuple[float, float]:
    """Spherical coordinates of A around B in the camera's yaw frame."""
    d = np.asarray(pos_a, dtype=float) - np.asarray(pos_b, dtype=float)
    yaw = math.radians(cam_yaw_deg)
    fwd = np.array([math.sin(yaw), 0.0, math.cos(yaw)])
    right = np.array([math.cos(yaw), 0.0, -math.sin(yaw)])
    az = math.degrees(math.atan2(float(d @ right), float(d @ fwd))) % 360.0
    horiz = math.hypot(float(d @ right), float(d @ fwd))
    el = math.degrees(math.atan2(float(d[1]), horiz))
    return az, el


def boxes_overlap_reference(ca, ha, cb, hb) -> bool:
    """Open-interval intersection on all three axes."""
    for axis in range(3):
        lo_a, hi_a = ca[axis] - ha[axis], ca[axis] + ha[axis]
        lo_b, hi_b = cb[axis] - hb[axis], cb[axis] + hb[axis]
        if not (max(lo_a, lo_b) < min(hi_a, hi_b)):
            return False
    return True


def footprint_on_surface_reference(center, half, surf_center, surf_half_x, surf_half_z) -> bool:
    return (
        surf_center[0] - surf_half_x <= center[0] - half[0]
        and center[0] + half[0] <= surf_center[0] + surf_half_x
        and surf_center[2] - surf_half_z <= center[2] - half[2]
        and center[2] + half[2] <= surf_center[2] + surf_half_z
    )


# --- rubric --------------------------------------------------------------------

_BASE_SCORE = {
    (1, 1): 5,
    (2, 2): 5,
    (3, 3): 5,
    (3, 2): 4,
    (2, 1): 3,
    (3, 1): 2,
}

_OPP = {
    "above": "below",
    "below": "above",
    "front": "behind",
    "behind": "front",
    "left": "right",
    "right": "left",
}

PRIMITIVES = tuple(_OPP)


def rubric_reference(predicted: set[str], truth: set[str]) -> int:
    correct = len(predicted & truth)
    base = _BASE_SCORE.get((len(truth), correct), 1)
    score = base
    if any(_OPP[t] in predicted for t in truth):
        score -= 1
    if len(predicted) > len(truth):
        score -= 1
    return max(score, 1)


def all_prediction_sets():
    """Every subset of the six primitives (64 sets)."""
    out = []
    for mask in range(64):
        out.append({p for i, p in enumerate(PRIMITIVES) if mask >> i & 1})
    return out


def all_truth_sets():
    """Every realizable truth set: vertical alone, horizontal band alone, or both."""
    bands = [{"behind"}, {"front"}, {"left"}, {"right"},
             {"behind", "left"}, {"behind", "right"}, {"front", "left"}, {"front", "right"}]
    out = [{"above"}, {"below"}] + [set(b) for b in bands]
    for b in bands:
        out.append(b | {"above"})
        out.append(b | {"below"})
    return out


# --- contrastive loss ----------------------------------------------------------


def contrastive_loss_reference(image_emb, text_emb, temperature) -> float:
    """Symmetric InfoNCE over cosine similarities, positives on the diagonal.

    text_emb may contain extra rows (hard negatives); those only enlarge the
    image-to-text denominator.
    """
    img = np.asarray(image_emb, dtype=float)
    txt = np.asarray(text_emb, dtype=float)
    n = img.shape[0]
    img = img / np.linalg.norm(img, axis=1, keepdims=True)
    txt = txt / np.linalg.norm(txt, axis=1, keepdims=True)
    s = img @ txt.T / temperature
    l_i2t = 0.0
    for i in range(n):
        l_i2t += -math.log(math.exp(s[i, i]) / sum(math.exp(v) for v in s[i]))
    l_t2i = 0.0
    for j in range(n):
        l_t2i += -math.log(math.exp(s[j, j]) / sum(math.exp(s[i, j]) for i in range(n)))
    return (l_i2t + l_t2i) / (2 * n)


# --- caption token bags ---------------------------------------------------------

_FUNCTION_WORDS = ("the", "is", "of", "and", "to")


def text_features_reference(caption: str, catalog_names: tuple[str, ...]) -> np.ndarray:
    """Scan the caption's words left to right. At each word try every catalog
    name in catalog order and take the first whose words follow from there;
    else count the word if it is a primitive or function word. Each token
    weighs 1 / (1 + index of its first word). Caption and names split alike,
    into their lower-cased alphanumeric runs."""

    def split(text):
        return "".join(c.lower() if c.isalnum() else " " for c in text).split()

    words = split(caption)
    name_words = [tuple(split(name)) for name in catalog_names]
    out = np.zeros(9 + len(PRIMITIVES) + len(_FUNCTION_WORDS))
    i = 0
    while i < len(words):
        weight = 1.0 / (1.0 + i)
        matched = False
        for slot, parts in enumerate(name_words):
            if tuple(words[i : i + len(parts)]) == parts:
                out[slot] += weight
                i += len(parts)
                matched = True
                break
        if matched:
            continue
        w = words[i]
        if w in PRIMITIVES:
            out[9 + PRIMITIVES.index(w)] += weight
        elif w in _FUNCTION_WORDS:
            out[15 + _FUNCTION_WORDS.index(w)] += weight
        i += 1
    return out


# --- JSON lines -----------------------------------------------------------------
# The encodings the package wrote through json.dumps before it wrote its lines
# in one pass; record and verdict lines must keep these bytes.


def record_to_dict(rec) -> dict:
    """A sample record's JSON document: the relation stores its horizontal
    terms sorted and its vertical term, if any, apart."""
    terms = rec.terms
    return {
        "id": rec.id,
        "scene_id": rec.scene_id,
        "objects": [{"name": name, "pos": list(pos), "yaw": yaw} for name, pos, yaw in rec.objects],
        "camera": {
            "pos": list(rec.camera.position),
            "yaw": rec.camera.yaw,
            "pitch": rec.camera.pitch,
            "roll": rec.camera.roll,
        },
        "subject": rec.subject,
        "reference": rec.reference,
        "relation": {
            "horizontal": sorted(terms & {"front", "behind", "left", "right"}),
            "vertical": "above" if "above" in terms else "below" if "below" in terms else None,
        },
        "caption": rec.caption,
        "question": rec.question,
        "neg_term": rec.neg_term,
        "neg_object": rec.neg_object,
        "episode": rec.episode,
        "iteration": rec.iteration,
    }


def record_line_reference(rec) -> str:
    return json.dumps(record_to_dict(rec), sort_keys=True, separators=(",", ":"))


def verdict_line_reference(v, iteration: int) -> str:
    doc = {
        "sample_id": v.sample_id,
        "iteration": iteration,
        "predicted_terms": sorted(v.predicted_terms) if v.predicted_terms is not None else None,
        "rubric": v.rubric,
        "similarities": list(v.similarities) if v.similarities is not None else None,
        "ranked_correct": v.ranked_correct,
        "flagged": v.flagged,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
