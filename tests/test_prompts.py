import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rls3.prompts import (
    OPPOSITES,
    PRIMITIVES,
    DegenerateGeometryError,
    EmptyRelationError,
    build_caption_set,
    camera_basis,
    check_terms,
    classify_elevation,
    classify_horizontal,
    make_negatives,
    parse_caption,
    relation_for_pair,
    relative_geometry,
    render_caption,
    render_question,
)
from rls3.scene import CameraPose, builtin_suite, random_snapshot

import oracles


CAMERA = CameraPose(position=(0.0, 1.0, -2.0), yaw=0.0, pitch=0.0, roll=0.0)


# --- geometry ------------------------------------------------------------------


def test_camera_basis_orthonormal():
    for yaw in (0.0, 37.5, 90.0, 180.0, 271.0):
        fwd, right = camera_basis(yaw)
        assert math.isclose(fwd @ fwd, 1.0)
        assert math.isclose(right @ right, 1.0)
        assert abs(fwd @ right) < 1e-12


def test_yaw_rotation_shifts_azimuth():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = rng.uniform(-1, 1, size=3)
        b = rng.uniform(-1, 1, size=3)
        if np.allclose(a, b):
            continue
        yaw = rng.uniform(0, 360)
        az0, el0 = relative_geometry(a, b, CameraPose((0, 0, 0), yaw, 0, 0))
        az1, el1 = relative_geometry(a, b, CameraPose((0, 0, 0), yaw + 90.0, 0, 0))
        assert math.isclose((az0 - az1) % 360.0, 90.0, abs_tol=1e-9)
        assert math.isclose(el0, el1, abs_tol=1e-12)


def test_azimuth_matches_reference():
    rng = np.random.default_rng(1)
    for _ in range(2000):
        a = rng.uniform(-2, 2, size=3)
        b = rng.uniform(-2, 2, size=3)
        yaw = rng.uniform(-720, 720)
        cam = CameraPose((0, 0, 0), yaw, 0, 0)
        az, el = relative_geometry(a, b, cam)
        ref_az, ref_el = oracles.azimuth_elevation_reference(a, b, cam.position, yaw)
        assert math.isclose(az, ref_az, abs_tol=1e-9) or math.isclose(
            abs(az - ref_az), 360.0, abs_tol=1e-9
        )
        assert math.isclose(el, ref_el, abs_tol=1e-9)
        assert 0.0 <= az < 360.0 and -90.0 <= el <= 90.0


def test_degenerate_geometry_raises():
    with pytest.raises(DegenerateGeometryError):
        relative_geometry((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), CAMERA)


def test_camera_position_does_not_affect_relation():
    a, b = (0.3, 0.8, 0.1), (-0.2, 0.8, 0.4)
    r1 = relation_for_pair(a, b, CameraPose((0, 1, -2), 10.0, 0, 0))
    r2 = relation_for_pair(a, b, CameraPose((5, 0, 9), 10.0, -30.0, 12.0))
    assert r1 == r2


# --- classification ------------------------------------------------------------


def test_horizontal_regions_match_oracle():
    for az in np.linspace(0.0, 359.999, 3600):
        assert set(classify_horizontal(float(az))) == oracles.horizontal_terms_reference(az)


def test_region_boundaries_half_open():
    assert classify_horizontal(22.5) == frozenset({"behind", "right"})
    assert classify_horizontal(22.5 - 1e-9) == frozenset({"behind"})
    assert classify_horizontal(337.5) == frozenset({"behind"})
    assert classify_horizontal(0.0) == frozenset({"behind"})


def test_elevation_bands():
    assert classify_elevation(0.0).kind == "horizontal_only"
    assert classify_elevation(20.0).kind == "horizontal_only"
    band = classify_elevation(20.0 + 1e-9)
    assert band.kind == "mixed" and band.vertical == "above"
    assert classify_elevation(75.0).kind == "mixed"
    band = classify_elevation(-75.0 - 1e-9)
    assert band.kind == "vertical_only" and band.vertical == "below"
    with pytest.raises(ValueError):
        classify_elevation(90.5)


def test_relation_terms_match_reference():
    rng = np.random.default_rng(2)
    for _ in range(2000):
        a = rng.uniform(-1, 1, size=3)
        b = rng.uniform(-1, 1, size=3)
        cam = CameraPose((0, 0, 0), rng.uniform(0, 360), 0, 0)
        az, el = relative_geometry(a, b, cam)
        rel = relation_for_pair(a, b, cam)
        assert rel == oracles.relation_terms_reference(az, el)


def test_relation_complexity_range():
    rng = np.random.default_rng(3)
    for _ in range(500):
        rel = relation_for_pair(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3), CAMERA)
        assert 1 <= len(rel) <= 3
        assert rel == check_terms(rel)


def test_relation_validation():
    for terms in (
        {"left", "right"},  # opposites
        {"front", "behind"},
        {"above", "below"},
        set(),  # empty relation
        {"front", "left", "right"},  # three horizontal terms hold an opposite pair
        {"up"},  # not a primitive
        {"left", "Left"},
    ):
        with pytest.raises(ValueError):
            check_terms(terms)


def test_check_terms_accepts_every_valid_relation():
    valid = [t for t in oracles.all_prediction_sets() if t and not any(OPPOSITES[x] in t for x in t)]
    assert len(valid) == 26  # 9 horizontal choices x 3 vertical choices, less the empty one
    for terms in valid:
        assert check_terms(terms) == terms
        assert sum(t in ("above", "below") for t in terms) <= 1
        assert len(terms) <= 3


# --- rendering and parsing ------------------------------------------------------


def test_reference_sentence():
    rel = check_terms({"above", "behind", "left"})
    assert (
        render_caption("small pot", "yellow bowl", rel)
        == "The small pot is above, behind and to the left of the yellow bowl."
    )


def test_question_format():
    assert (
        render_question("mug", "plate")
        == "What is the position of the mug relative to the plate?"
    )


def test_single_term_caption():
    rel = check_terms({"front"})
    assert render_caption("mug", "plate", rel) == "The mug is in front of the plate."


def test_empty_relation_rejected():
    with pytest.raises(EmptyRelationError):
        check_terms(set())
    with pytest.raises(EmptyRelationError):
        render_caption("mug", "plate", frozenset())


def _relation_strategy():
    horizontals = st.sampled_from(
        [
            frozenset(),
            frozenset({"front"}),
            frozenset({"behind"}),
            frozenset({"left"}),
            frozenset({"right"}),
            frozenset({"front", "left"}),
            frozenset({"front", "right"}),
            frozenset({"behind", "left"}),
            frozenset({"behind", "right"}),
        ]
    )
    verticals = st.sampled_from([None, "above", "below"])
    return (
        st.tuples(horizontals, verticals)
        .filter(lambda t: t[0] or t[1])
        .map(lambda t: check_terms(t[0] | {t[1]} if t[1] else t[0]))
    )


@given(_relation_strategy())
@settings(max_examples=200)
def test_caption_round_trip(rel):
    caption = render_caption("mug", "plate", rel)
    assert parse_caption(caption) == rel


@given(_relation_strategy(), st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_negatives_properties(rel, seed):
    rng = np.random.default_rng(seed)
    neg_term, neg_obj = make_negatives("mug", "plate", rel, rng)
    pos = render_caption("mug", "plate", rel)
    assert neg_term != pos
    # exactly one primitive flipped to its opposite
    terms = parse_caption(neg_term)
    diff_out = rel - terms
    diff_in = terms - rel
    assert len(diff_out) == 1 and len(diff_in) == 1
    assert OPPOSITES[next(iter(diff_out))] == next(iter(diff_in))
    # object swap keeps the terms, reverses the roles
    assert parse_caption(neg_obj) == rel
    assert neg_obj.startswith("The plate is") and neg_obj.endswith("the mug.")


def test_parse_caption_free_text():
    p = parse_caption("Well, the mug seems to be floating above the big plate!")
    assert p == frozenset({"above"})
    assert parse_caption("no spatial words here") == frozenset()


def test_round_trip_bulk():
    suite = builtin_suite("train")
    rng = np.random.default_rng(17)
    seen_complexities = set()
    for i in range(10_000):
        snap = random_snapshot(suite, i % len(suite.scenes), rng)
        cs = build_caption_set(snap, rng)
        assert parse_caption(cs.positive) == cs.terms
        assert cs.subject != cs.reference
        assert cs.positive != cs.term_swapped
        assert cs.positive != cs.object_swapped
        seen_complexities.add(len(cs.terms))
    assert seen_complexities == {1, 2, 3}


def test_primitive_set_fixed():
    assert set(PRIMITIVES) == {"above", "below", "front", "behind", "left", "right"}
    for t in PRIMITIVES:
        assert OPPOSITES[OPPOSITES[t]] == t
