import json
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rls3.scene import (
    EpisodeAborted,
    PlacementEnv,
    SceneConfigError,
    boxes_interpenetrate,
    builtin_suite,
    footprint_on_surface,
    random_snapshot,
    sample_positions,
    suite_from_dict,
)

from oracles import boxes_overlap_reference, footprint_on_surface_reference


@pytest.fixture(scope="module")
def train():
    return builtin_suite("train")


@pytest.fixture(scope="module")
def test_suite():
    return builtin_suite("test")


def make_env(train, t0=20, seed=0, **kw):
    return PlacementEnv(train, t0, seed=seed, **kw)


# --- suites -------------------------------------------------------------------


def test_builtin_suites_shape(train, test_suite):
    assert len(train.catalog) == 9
    assert len(train.scenes) == 5
    assert len(test_suite.scenes) == 3
    assert train.catalog_names == test_suite.catalog_names
    train_ids = {s.scene_id for s in train.scenes}
    test_ids = {s.scene_id for s in test_suite.scenes}
    assert not train_ids & test_ids
    for scene in train.scenes + test_suite.scenes:
        assert len(scene.surfaces) == 2


def test_every_object_fits_every_surface(train, test_suite):
    for suite in (train, test_suite):
        for scene in suite.scenes:
            for obj in suite.catalog:
                for surf in scene.surfaces:
                    assert 2 * obj.half_extents[0] <= 2 * surf.half_extent_x
                    assert 2 * obj.half_extents[2] <= 2 * surf.half_extent_z


def test_suite_rejects_duplicate_names(train):
    doc = {
        "catalog": [
            {"name": "mug", "half_extents": [0.05, 0.05, 0.05]},
            {"name": "mug", "half_extents": [0.04, 0.04, 0.04]},
        ],
        "scenes": [],
    }
    with pytest.raises(SceneConfigError):
        suite_from_dict(doc)


@pytest.mark.parametrize("name", ["left speaker", "Front-Lamp", "box_below"])
def test_suite_rejects_spatial_words_in_names(name):
    text = resources.files("rls3.data").joinpath("scenes_train.json").read_text()
    doc = json.loads(text)
    doc["catalog"][0]["name"] = name
    with pytest.raises(SceneConfigError, match=repr(name)):
        suite_from_dict(doc)


# --- geometry primitives -------------------------------------------------------


def _set_path(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    if value is KeyError:
        del doc[path[-1]]
    else:
        doc[path[-1]] = value


@pytest.mark.parametrize(
    "path, value, match",
    [
        (("scenes",), KeyError, "missing key 'scenes'"),
        (("catalog", 0, "half_extents"), KeyError, "missing key 'half_extents'"),
        (("scenes", 0, "camera", "yaw"), KeyError, "missing key 'yaw'"),
        (("scenes",), 5, "not iterable"),
        (("catalog", 0), "mug", "string indices"),
        (("catalog", 0, "half_extents"), [0.1, 0.1], "not enough values"),
        (("catalog", 0, "half_extents", 1), "0.1", "expected a finite number"),
        (("scenes", 0, "surfaces", 0, "half_extent_x"), None, "expected a finite number"),
        (("scenes", 0, "surfaces", 0, "half_extent_x"), float("nan"), "expected a finite"),
        (("scenes", 0, "camera", "position"), [0.0, 1.6, True], "expected a finite number"),
        (("scenes", 0, "id"), "x", "must be an int"),
        (("scenes", 0, "id"), "3", "must be an int"),
        (("scenes", 0, "id"), 2.9, "must be an int"),
        (("scenes", 0, "id"), True, "must be an int"),
        (("scenes", 1, "id"), 0, "duplicate scene id 0"),
        # a caption would name the object with blanks
        (("catalog", 0, "name"), " ", "catalog name ' ' has no words"),
        (("catalog", 0, "name"), "-", "catalog name '-' has no words"),
    ],
)
def test_suite_rejects_missing_keys_and_wrong_types(path, value, match):
    doc = json.loads(resources.files("rls3.data").joinpath("scenes_train.json").read_text())
    _set_path(doc, path, value)
    with pytest.raises(SceneConfigError, match=match):
        suite_from_dict(doc)
    with pytest.raises(SceneConfigError, match="malformed suite"):
        suite_from_dict([])


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)


def _paths(doc, prefix=()):
    """The key path of every value inside a suite document, nested ones included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_any_json_value_builds_a_suite_or_raises_scene_config_error(data):
    if data.draw(st.booleans()):
        doc = data.draw(_JSON_VALUES)
    else:  # a builtin suite with one to three values dropped or replaced
        doc = json.loads(resources.files("rls3.data").joinpath("scenes_train.json").read_text())
        for _ in range(data.draw(st.integers(1, 3))):
            paths = list(_paths(doc))
            if paths:  # dropping both top-level keys leaves none
                _set_path(doc, data.draw(st.sampled_from(paths)), data.draw(
                    st.just(KeyError) | _JSON_VALUES))
    try:
        suite = suite_from_dict(doc)
    except SceneConfigError:
        return
    ids = [spec.scene_id for spec in suite.scenes]
    assert all(type(i) is int for i in ids) and len(set(ids)) == len(ids)


def test_overlap_matches_interval_oracle():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        ca, cb = rng.uniform(-1, 1, size=(2, 3))
        ha, hb = rng.uniform(0.05, 0.5, size=(2, 3))
        assert boxes_interpenetrate(ca, ha, cb, hb) == boxes_overlap_reference(ca, ha, cb, hb)


def test_touching_faces_do_not_overlap():
    ha = np.array([0.1, 0.1, 0.1])
    ca = np.zeros(3)
    cb = np.array([0.2, 0.0, 0.0])  # shares the x = 0.1 plane
    assert not boxes_interpenetrate(ca, ha, cb, ha)
    cb[0] = 0.199
    assert boxes_interpenetrate(ca, ha, cb, ha)


def test_footprint_boundary_inclusive(train):
    surf = train.scenes[0].surfaces[0]
    half = np.array([0.05, 0.05, 0.05])
    cx = surf.top_center[0] + surf.half_extent_x - half[0]  # flush with the edge
    center = np.array([cx, surf.top_y + half[1], surf.top_center[2]])
    assert footprint_on_surface(center, half, surf)
    center[0] += 1e-6
    assert not footprint_on_surface(center, half, surf)


def test_footprint_matches_oracle(train):
    rng = np.random.default_rng(1)
    surf = train.scenes[0].surfaces[0]
    for _ in range(500):
        center = surf.top_center + rng.uniform(-0.6, 0.6, size=3)
        half = rng.uniform(0.02, 0.2, size=3)
        assert footprint_on_surface(center, half, surf) == footprint_on_surface_reference(
            center, half, surf.top_center, surf.half_extent_x, surf.half_extent_z
        )


# --- episode mechanics ---------------------------------------------------------


def test_reset_partitions_catalog(train):
    env = make_env(train)
    env.reset_episode(0)
    st = env.state
    assert len(st.active) == 3 and len(st.container) == 6
    assert sorted(st.active + st.container) == sorted(train.catalog_names)


def test_reset_scene_round_robin(train):
    env = make_env(train)
    for ep in range(7):
        env.reset_episode(ep)
        assert env.state.scene_pos == ep % 5


def test_initial_placements_valid(train):
    env = make_env(train, seed=3)
    for ep in range(5):
        env.reset_episode(ep)
        st = env.state
        for slot in range(3):
            report, snapped = env.check_placement(slot, st.active[slot], st.positions[slot])
            assert report.valid, report.reason
            np.testing.assert_array_equal(snapped, st.positions[slot])


def test_observation_layout(train):
    env = make_env(train)
    obs = env.reset_episode(0)
    assert obs.shape == (32,)
    st = env.state
    assert obs[0] == st.moved_slot
    assert obs[1] == env.scene().scene_id
    np.testing.assert_allclose(obs[14:23].reshape(3, 3), st.positions)
    np.testing.assert_allclose(obs[26:29], env.scene().camera.position)
    assert obs[29] == env.scene().camera.yaw


def test_step_valid_and_invalid_rewards(train):
    env = make_env(train, seed=5, p_swap=0.0)
    env.reset_episode(0)
    res = env.step(np.zeros(3))  # zero displacement from a valid pose stays valid
    assert res.reward == 1.0 and res.snapshot is not None and res.report.reason == "ok"
    # a huge jump cannot stay on the surfaces
    env.reset_episode(0)
    before = env.state.positions.copy()
    res = env.step(np.array([1.0, 0.0, 0.0]) * 1e6)  # clipped to dmax, may or may not fail
    # force a guaranteed failure with a non-finite action
    res = env.step(np.array([np.nan, 0.0, 0.0]))
    assert res.reward == -1.0 and res.snapshot is None and res.report.reason == "off_surface"


def _overlap_action(env):
    """Action moving the slot object onto another object on the same surface."""
    st = env.state
    slot = st.moved_slot
    base = st.positions[slot][1] - env.suite.spec(st.active[slot]).half_extents[1]
    for other in range(3):
        half_y = env.suite.spec(st.active[other]).half_extents[1]
        if other != slot and abs(st.positions[other][1] - half_y - base) < 1e-9:
            delta = st.positions[other] - st.positions[slot]
            return np.array([delta[0], 0.0, delta[2]]) / env.dmax
    raise AssertionError("no other object shares the slot object's surface")


def test_invalid_step_reverts_swap_and_position(train):
    cases = [
        (lambda env: np.array([np.inf, 0.0, 0.0]), "off_surface"),
        (lambda env: np.array([1.0, 0.0, 0.0]), "off_surface"),  # finite, 10 units away
        (_overlap_action, "overlap"),
    ]
    for action, reason in cases:
        env = make_env(train, seed=0, p_swap=1.0, dmax=10.0)
        env.reset_episode(0)
        st = env.state
        active_before = list(st.active)
        container_before = list(st.container)
        pos_before = st.positions.copy()
        res = env.step(action(env))
        assert res.reward == -1.0 and res.report.reason == reason
        assert env.state.active == active_before
        assert env.state.container == container_before
        np.testing.assert_array_equal(env.state.positions, pos_before)


def test_valid_swap_puts_outgoing_where_incoming_was(train):
    env = make_env(train, seed=11, p_swap=1.0)
    env.reset_episode(0)
    swaps = 0
    for _ in range(30):
        st = env.state
        slot = st.moved_slot
        outgoing = st.active[slot]
        container_before = list(st.container)
        res = env.step(np.zeros(3))
        if not res.report.valid:
            continue
        changed = [k for k, n in enumerate(st.container) if n != container_before[k]]
        assert len(changed) == 1
        k = changed[0]
        assert st.container[k] == outgoing
        assert st.active[slot] == container_before[k]
        swaps += 1
    assert swaps > 0


def test_swap_preserves_base_height(train):
    env = make_env(train, seed=11, p_swap=1.0)
    env.reset_episode(0)
    slot = env.state.moved_slot
    res = env.step(np.zeros(3))
    if res.report.valid:
        name = env.state.active[slot]
        half_y = env.suite.spec(name).half_extents[1]
        surf_tops = [s.top_y for s in env.scene().surfaces]
        base = env.state.positions[slot][1] - half_y
        assert min(abs(base - t) for t in surf_tops) < 1e-9


def test_moved_slot_round_robin(train):
    env = make_env(train, seed=0)
    env.reset_episode(0)
    for expected in (0, 1, 2, 0, 1):
        assert env.state.moved_slot == expected
        env.step(np.zeros(3))


def test_episode_terminates_at_t0_valid(train):
    env = make_env(train, t0=6, seed=2, p_swap=0.0)
    env.reset_episode(0)
    snaps = 0
    steps = 0
    while True:
        res = env.step(np.zeros(3))
        steps += 1
        snaps += res.snapshot is not None
        if res.done:
            break
    assert snaps == 6 and not res.truncated
    assert steps <= env.t_max


def test_truncation_at_step_cap(train):
    env = make_env(train, t0=6, seed=2)
    env.reset_episode(0)
    for _ in range(4 * 6 - 1):
        assert not env.step(np.array([np.nan, 0, 0])).done
    res = env.step(np.array([np.nan, 0, 0]))
    assert res.done and res.truncated and env.t_max == 24


def test_scene_cycles_within_episode(train):
    env = make_env(train, t0=20, seed=4, p_swap=0.0)
    env.reset_episode(0)
    seen = {env.state.scene_pos}
    while True:
        res = env.step(np.zeros(3))
        seen.add(env.state.scene_pos)
        if res.done:
            break
    # ceil(20/5) = 4 valid samples per scene, so all five scenes appear
    assert seen == {0, 1, 2, 3, 4}


def test_cycling_preserves_partition(train):
    env = make_env(train, t0=20, seed=4)
    env.reset_episode(0)
    while True:
        res = env.step(np.zeros(3))
        st = env.state
        assert sorted(st.active + st.container) == sorted(train.catalog_names)
        if res.done:
            break


def test_determinism(train):
    def run(seed):
        env = make_env(train, t0=10, seed=seed)
        env.reset_episode(0)
        rng = np.random.default_rng(99)
        trace = []
        while True:
            res = env.step(rng.uniform(-1, 1, size=3))
            trace.append((res.reward, res.report.reason, tuple(env.state.active)))
            if res.done:
                return trace

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_fuzz_validity_invariants(train):
    """10k random steps: valid <=> snapshot, snapshot geometry is actually valid."""
    env = make_env(train, t0=50, seed=13)
    rng = np.random.default_rng(13)
    ep = 0
    env.reset_episode(ep)
    for i in range(10_000):
        action = rng.uniform(-1.5, 1.5, size=3)
        if i % 97 == 0:
            action[rng.integers(3)] = np.nan
        res = env.step(action)
        assert (res.reward == 1.0) == res.report.valid == (res.snapshot is not None)
        if res.snapshot is not None:
            snap = res.snapshot
            halves = [np.asarray(env.suite.spec(n).half_extents) for n in snap.names]
            pos = [np.asarray(p) for p in snap.positions]
            for a in range(3):
                for b in range(a + 1, 3):
                    assert not boxes_overlap_reference(pos[a], halves[a], pos[b], halves[b])
        if res.done:
            ep += 1
            env.reset_episode(ep)


def test_sample_positions_rejects_impossible(train):
    scene = train.scenes[0]
    rng = np.random.default_rng(0)
    names = list(train.catalog_names[:3])
    with pytest.raises(Exception):
        sample_positions(train, scene, names, rng, max_attempts=0)


def test_random_snapshot_deterministic(train):
    a = random_snapshot(train, 0, np.random.default_rng(5))
    b = random_snapshot(train, 0, np.random.default_rng(5))
    assert a == b
    assert a.scene_id == train.scenes[0].scene_id
