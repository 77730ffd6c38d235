"""Golden digests of the per-sample path: environment trajectories, seeded
random snapshots and caption sets.

Every value is hashed exactly (floats by repr, arrays by their bytes), so a
change to scene or prompts that moves one bit, one RNG call or one Python
float to a numpy scalar fails here. Term sets are hashed sorted: a frozenset's
iteration order depends on the interpreter's string hash seed.
"""

import hashlib

import numpy as np
import pytest

from rls3.prompts import build_caption_set
from rls3.scene import PlacementEnv, builtin_suite, random_snapshot


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item if isinstance(item, bytes) else repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def _caption_items(captions):
    return (
        captions.subject,
        captions.reference,
        sorted(captions.terms),
        captions.positive,
        captions.question,
        captions.term_swapped,
        captions.object_swapped,
    )


def _action(rng, k):
    """Mostly in-range moves, some beyond the clip, and every few steps a
    non-finite, wrong-shape or list action."""
    if k % 37 == 5:
        a = rng.uniform(-1.0, 1.0, size=3)
        a[k % 3] = np.nan
        return a
    if k % 41 == 7:
        a = rng.uniform(-1.0, 1.0, size=3)
        a[k % 3] = -np.inf if k % 2 else np.inf
        return a
    if k % 53 == 11:
        return rng.uniform(-0.2, 0.2, size=2)
    if k % 59 == 13:
        return rng.uniform(-0.2, 0.2, size=(3, 1))
    if k % 61 == 17:
        return [float(v) for v in rng.uniform(-0.3, 0.3, size=3)]
    if k % 2:
        return rng.uniform(-0.25, 0.25, size=3)
    return rng.uniform(-1.5, 1.5, size=3)


def _trajectory_items(suite, t0, seed, episodes, **kw):
    env = PlacementEnv(suite, t0, seed=seed, **kw)
    actions = np.random.default_rng(seed + 100)
    caption_rng = np.random.default_rng(seed + 200)
    k = 0
    for ep in range(episodes):
        obs = env.reset_episode(ep)
        yield obs.dtype.str, obs.tobytes()
        done = False
        while not done:
            res = env.step(_action(actions, k))
            k += 1
            done = res.done
            state = env.state
            yield res.observation.dtype.str, res.observation.tobytes()
            yield res.reward, res.done, res.truncated, res.report
            yield res.snapshot
            if res.snapshot is not None:
                yield _caption_items(build_caption_set(res.snapshot, caption_rng))
            yield state.positions.dtype.str, state.positions.tobytes(), state.yaws.tobytes()
            yield (
                state.scene_pos,
                tuple(state.active),
                tuple(state.container),
                state.moved_slot,
                state.step_index,
                state.valid_count,
            )
    yield float(caption_rng.random())


# case -> (suite, T0, seed, episodes, env options, digest)
GOLDEN_TRAJECTORIES = {
    "train-t20-seed0": (
        "train", 20, 0, 3, {},
        "aab3ab0bbd734a35bc29b95ba0de66631cf6da6ac93806293d821aea3a724872",
    ),
    "train-t20-seed1": (
        "train", 20, 1, 3, {},
        "7bff1cbe9a6eeba0659cf6dc97c1826f947409b17a81865ce0ee777f12dcbe8f",
    ),
    "train-t6-seed3-dmax0.4-pswap0.5": (
        "train", 6, 3, 6, {"dmax": 0.4, "p_swap": 0.5},
        "759ef48503965ff0aa6f433cb0cfc1787b5a189d8e0bd7dceafb2de351803fab",
    ),
    "test-t9-seed4": (
        "test", 9, 4, 4, {},
        "bb21936dcf8e57d5444ae66384492831ef1c564743c874321d175e4276f9e11e",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_TRAJECTORIES))
def test_env_trajectory_golden_digest(case):
    suite_name, t0, seed, episodes, kw, digest = GOLDEN_TRAJECTORIES[case]
    items = _trajectory_items(builtin_suite(suite_name), t0, seed, episodes, **kw)
    assert _digest(items) == digest


GOLDEN_SNAPSHOTS = "7b87e40004a8d207e3ba40e73b6d969f2af55b4f930b53fb32b17d5106df2f73"
GOLDEN_CAPTION_SETS = "3022a6fd7cdec59521b27c0ff978d7239581103cf689f0e204fb32d830a040fd"


def _snapshots(count):
    rng = np.random.default_rng(7)
    suites = (builtin_suite("train"), builtin_suite("test"))
    return [random_snapshot(suites[k % 2], k, rng) for k in range(count)]


def test_random_snapshot_golden_digest():
    assert _digest(_snapshots(300)) == GOLDEN_SNAPSHOTS


def test_caption_set_golden_digest():
    rng = np.random.default_rng(11)
    items = [_caption_items(build_caption_set(snap, rng)) for snap in _snapshots(300)]
    items.append(float(rng.random()))
    assert _digest(items) == GOLDEN_CAPTION_SETS
