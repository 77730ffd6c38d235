import hashlib
import json
import multiprocessing
import struct
import sys
import threading

import numpy as np
import pytest

from rls3.agent import (
    CHECKPOINT_NETWORKS,
    AgentError,
    RandomAgent,
    ReplayBuffer,
    SacAgent,
    Transition,
    measure_valid_rate,
    pretrain_intrinsic,
)
from rls3.nets import DimensionError, Mlp
from rls3.orchestrator import run_episode
from rls3.scene import PlacementEnv, builtin_suite


def make_agent(**kw):
    defaults = dict(seed=0, hidden=(32, 32), warmup=8, minibatch=8, buffer_capacity=256)
    defaults.update(kw)
    return SacAgent(**defaults)


def random_transition(rng, reward=1.0, terminal=False):
    return Transition(
        rng.normal(size=32),
        rng.uniform(-1, 1, size=3),
        reward,
        rng.normal(size=32),
        terminal,
    )


# --- replay buffer ---------------------------------------------------------------


def test_buffer_ring_overwrite():
    buf = ReplayBuffer(4, seed=0)
    for i in range(6):
        buf.push(Transition(np.full(32, float(i)), np.zeros(3), 1.0, np.zeros(32), False))
    assert len(buf) == 4
    obs, *_ = buf.sample(4)
    seen = sorted(set(obs[:, 0]))
    assert seen == [2.0, 3.0, 4.0, 5.0]  # oldest two overwritten


def test_buffer_sample_without_replacement():
    buf = ReplayBuffer(16, seed=1)
    for i in range(16):
        buf.push(Transition(np.full(32, float(i)), np.zeros(3), -1.0, np.zeros(32), False))
    obs, *_ = buf.sample(16)
    assert len(set(obs[:, 0])) == 16


# --- action selection --------------------------------------------------------------


def test_actions_bounded():
    agent = make_agent()
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = agent.select_action(rng.normal(size=32))
        assert a.shape == (3,)
        assert np.all(np.abs(a) <= 1.0)


def test_deterministic_action_repeatable():
    agent = make_agent()
    obs = np.arange(32.0)
    a = agent.select_action(obs, stochastic=False)
    b = agent.select_action(obs, stochastic=False)
    np.testing.assert_array_equal(a, b)


def test_rejects_bad_observation():
    agent = make_agent()
    with pytest.raises(AgentError):
        agent.select_action(np.zeros(31))
    obs = np.zeros(32)
    obs[5] = np.nan
    with pytest.raises(AgentError):
        agent.select_action(obs)


def test_same_seed_same_behavior():
    obs = np.linspace(-1, 1, 32)
    a = make_agent(seed=5).select_action(obs)
    b = make_agent(seed=5).select_action(obs)
    np.testing.assert_array_equal(a, b)


# --- updates -----------------------------------------------------------------------


def test_update_noop_before_warmup():
    agent = make_agent(warmup=50)
    rng = np.random.default_rng(2)
    for _ in range(20):
        agent.buffer.push(random_transition(rng))
    info = agent.update()
    assert not info.performed
    assert info is RandomAgent().update()  # one shared, frozen UpdateInfo


def test_update_runs_and_stays_finite():
    agent = make_agent()
    rng = np.random.default_rng(3)
    for _ in range(64):
        agent.buffer.push(random_transition(rng, reward=float(rng.choice([-1.0, 1.0]))))
    for _ in range(20):
        info = agent.update()
        assert info.performed
    assert agent.actor.all_finite()


def test_bandit_convergence():
    """Single-state continuous bandit: reward peaks at a fixed action, so the
    policy mean should move toward it.
    """
    target = np.array([0.6, -0.4, 0.2])
    obs = np.zeros(32)
    agent = make_agent(seed=7, lr=3e-3, warmup=64, minibatch=64, alpha=0.05,
                       buffer_capacity=4096)

    def reward(a):
        return -float(np.sum((a - target) ** 2))

    before = reward(agent.select_action(obs, stochastic=False))
    for _ in range(1500):
        a = agent.select_action(obs, stochastic=True)
        agent.buffer.push(Transition(obs, a, reward(a), obs, True))
        agent.update()
    after_action = agent.select_action(obs, stochastic=False)
    after = reward(after_action)
    assert after > before
    assert np.linalg.norm(after_action - target) < 0.5
    # the starting policy sits near the origin, far outside that ball
    assert np.all(np.sign(after_action) == np.sign(target))


# --- terminal bonus ------------------------------------------------------------------


def test_inject_terminal_bonus():
    rng = np.random.default_rng(4)
    eps = [random_transition(rng, reward=r) for r in (1.0, -1.0, 1.0)]
    out = SacAgent.inject_terminal_bonus(eps, j2=2.5, beta=10.0)
    assert [t.reward for t in out[:-1]] == [1.0, -1.0]
    assert out[-1].reward == 1.0 + 25.0
    # originals untouched
    assert eps[-1].reward == 1.0


def test_inject_rejects_double_injection():
    rng = np.random.default_rng(5)
    eps = [random_transition(rng, reward=1.0)]
    once = SacAgent.inject_terminal_bonus(eps, j2=1.0, beta=10.0)
    with pytest.raises(AgentError):
        SacAgent.inject_terminal_bonus(once, j2=1.0, beta=10.0)


def test_inject_rejects_bad_inputs():
    with pytest.raises(AgentError):
        SacAgent.inject_terminal_bonus([], j2=1.0, beta=10.0)
    rng = np.random.default_rng(6)
    with pytest.raises(AgentError):
        SacAgent.inject_terminal_bonus([random_transition(rng)], j2=-0.1, beta=10.0)


def test_absorb_episode_bonuses_the_terminal_reward_only():
    agent = make_agent()
    rng = np.random.default_rng(7)
    eps = [random_transition(rng, reward=r) for r in (1.0, -1.0, 1.0)]
    with pytest.raises(AgentError):
        agent.absorb_episode(eps, j2=-0.1, beta=10.0)
    assert len(agent.buffer) == 0
    agent.absorb_episode(eps, j2=2.5, beta=10.0)
    obs, _, rew, _, _ = agent.buffer.sample(3)
    by_obs = {o.tobytes(): r for o, r in zip(obs, rew)}
    assert [by_obs[t.observation.tobytes()] for t in eps] == [1.0, -1.0, 26.0]


# --- persistence ----------------------------------------------------------------------


def test_a_save_that_raises_midway_keeps_the_previous_manifest(tmp_path):
    agent = make_agent(seed=9)
    agent.save(tmp_path / "ck")
    before = (tmp_path / "ck" / "manifest.json").read_bytes()
    agent.gamma = object()  # json.dump raises at "gamma", after writing "alpha"
    with pytest.raises(TypeError):
        agent.save(tmp_path / "ck")
    assert (tmp_path / "ck" / "manifest.json").read_bytes() == before
    assert not list((tmp_path / "ck").glob("*.tmp"))


def test_checkpoint_round_trip(tmp_path):
    agent = make_agent(seed=9)
    rng = np.random.default_rng(9)
    for _ in range(32):
        agent.buffer.push(random_transition(rng))
    for _ in range(5):
        agent.update()
    agent.save(tmp_path / "ck")
    restored = make_agent(seed=1)
    restored.load(tmp_path / "ck")
    obs = np.linspace(0, 1, 32)
    np.testing.assert_array_equal(
        agent.select_action(obs, stochastic=False),
        restored.select_action(obs, stochastic=False),
    )
    assert restored.alpha == pytest.approx(agent.alpha)


def test_checkpoint_architecture_mismatch(tmp_path):
    make_agent(hidden=(16,)).save(tmp_path / "ck")
    other = make_agent(hidden=(32, 32))
    with pytest.raises(AgentError):
        other.load(tmp_path / "ck")


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: m["networks"].pop("q1"),
        lambda m: m["networks"].pop("q2_target"),
        lambda m: m["networks"].update(q3="q1.net"),
        lambda m: m["networks"].update(actor="missing.net"),
        lambda m: m.pop("networks"),
        lambda m: m.update(alpha=-1.0),
        lambda m: m.update(alpha=True),
        lambda m: m.update(alpha=str(m["alpha"])),
        lambda m: m.update(obs_scale=[1.0]),
        lambda m: m.update(obs_scale=[str(x) for x in m["obs_scale"]]),
        lambda m: m.update(obs_scale=[1.0] * 32),
        lambda m: m.pop("obs_scale"),
        lambda m: m.update(alpha=10**400),
    ],
    ids=["no-q1", "no-q2-target", "unknown-net", "missing-file", "no-networks",
         "bad-alpha", "bool-alpha", "string-alpha", "bad-obs-scale", "string-obs-scale",
         "other-obs-scale", "no-obs-scale", "int-alpha-past-float-range"],
)
def test_checkpoint_bad_manifest_raises_agent_error(tmp_path, edit):
    ck = tmp_path / "ck"
    make_agent(seed=3).save(ck)
    manifest = json.loads((ck / "manifest.json").read_text())
    edit(manifest)
    (ck / "manifest.json").write_text(json.dumps(manifest))
    agent = make_agent(seed=4)
    before = {name: getattr(agent, name).digest() for name in ("actor", "q1", "q2_target")}
    with pytest.raises(AgentError, match=str(ck)):
        agent.load(ck)
    assert {name: getattr(agent, name).digest() for name in before} == before


def test_checkpoint_missing_or_unreadable_raises_agent_error(tmp_path):
    with pytest.raises(AgentError, match="nowhere"):
        make_agent().load(tmp_path / "nowhere")
    ck = tmp_path / "ck"
    make_agent().save(ck)
    (ck / "q2.net").write_bytes(b"not a net")
    with pytest.raises(AgentError, match="bad checkpoint magic"):
        make_agent().load(ck)
    # a critic whose first layer's activation code (offset 48) is 2, not tanh
    critic = bytearray((ck / "q1.net").read_bytes())
    critic[48:56] = struct.pack("<Q", 2)
    (ck / "q2.net").write_bytes(bytes(critic))
    with pytest.raises(AgentError, match="unknown activation code 2"):
        make_agent().load(ck)
    (ck / "manifest.json").write_text("{")
    with pytest.raises(AgentError, match=str(ck)):
        make_agent().load(ck)


# sha256 of each checkpoint file after a short seeded pretrain_intrinsic (warmup
# 64, then 200 updates at minibatch 32, their passes in float32): a change that
# moves any SAC update byte changes one of them.
GOLDEN_SAC_FILES = {
    "actor.net": "27afebc4f062d97bb605492897100af50de7647b1690798bef84f4f31f94bdc0",
    "q1.net": "606e7ac97ec0de31787eb9e1d49a7631696d0e43e4469f714a359eac0b919025",
    "q2.net": "da5930d508b5b66601413252ccabd7c2b2e4b784e1f49989463e9ad0deac080f",
    "q1_target.net": "fccb15fb761a04c0110c46701277d6155ac64906f897f681dd6bb7bf99539435",
    "q2_target.net": "3f9da15f8a419c9c9f705eb398004d8fe6bfaefbe1ef920c122aef830e4ee445",
}


def test_sac_golden_digest(tmp_path):
    env = PlacementEnv(builtin_suite("train"), 10, seed=3)
    agent = SacAgent(seed=5, hidden=(32, 32), warmup=64, minibatch=32, buffer_capacity=512)
    pretrain_intrinsic(agent, env, steps=263, checkpoint_dir=tmp_path / "agent")
    assert agent.actor_opt.adam.step_count == 200
    got = {
        name: hashlib.sha256((tmp_path / "agent" / name).read_bytes()).hexdigest()
        for name in GOLDEN_SAC_FILES
    }
    assert got == GOLDEN_SAC_FILES


def _filled_agent(seed=6):
    agent = SacAgent(seed=seed, hidden=(32, 32), warmup=48, minibatch=48, buffer_capacity=256)
    rng = np.random.default_rng(21)
    for _ in range(96):
        agent.buffer.push(
            random_transition(
                rng, reward=float(rng.choice([-1.0, 1.0])), terminal=rng.random() < 0.1
            )
        )
    return agent


def _checkpoint_digests(agent, directory):
    agent.save(directory)
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in GOLDEN_SAC_FILES
    }


# the same digests after 40 updates at minibatch 48, 48, 20, 20, 48, ...: every
# switch of batch size rebuilds the update's arrays, every repeat reuses them
GOLDEN_ALTERNATING_FILES = {
    "actor.net": "b44a980951e8d2c7622283101ea00bfae9b72867a6e43404d40d6279005fa685",
    "q1.net": "a6a64e3120247becbfadd43f6069b0edf314693ca35a69d18170b9d12e7ead57",
    "q2.net": "293f06eb82ac551ce51c7cbf74f66d560f6ffa55ffc5f03e5262dd025b2d9659",
    "q1_target.net": "49bc5ec52248796afa839f8969fd17765a50d4e47a7a63601e1b9d2170bb796b",
    "q2_target.net": "61cb64958077ff6356238224ac4481e0ae38a0c52b3aa00fe86df0257a59dc21",
}


def test_sac_golden_digest_alternating_minibatch(tmp_path):
    agent = _filled_agent()
    for k in range(40):
        agent.minibatch = (48, 20)[k // 2 % 2]
        assert agent.update().performed
    assert _checkpoint_digests(agent, tmp_path / "agent") == GOLDEN_ALTERNATING_FILES


def test_update_after_load_matches_a_fresh_agent(tmp_path):
    ck = tmp_path / "ck"
    _filled_agent(seed=2).save(ck)
    warm, fresh = _filled_agent(), _filled_agent()
    for _ in range(3):
        warm.update()  # leaves arrays from its own passes behind
    digests = []
    for agent in (warm, fresh):
        agent.load(ck)
        agent._rng = np.random.default_rng(8)
        agent.buffer._rng = np.random.default_rng(9)
        for _ in range(2):
            assert agent.update().performed
        digests.append(_checkpoint_digests(agent, tmp_path / f"after{len(digests)}"))
    assert digests[0] == digests[1]


def _send_result(conn, fn, *args):
    conn.send(fn(*args))


def _result_in_child(method, fn, *args, timeout=60):
    """fn(*args), computed in a child process started by `method`. A child
    that dies without an answer raises EOFError here; one that gives no answer
    within `timeout` seconds, say because it waits on a worker thread that is
    not there, fails the test and is killed."""
    ctx = multiprocessing.get_context(method)
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_result, args=(send, fn, *args), daemon=True)
    child.start()
    send.close()
    try:
        if not recv.poll(timeout):
            pytest.fail(f"the {method} child gave no answer within {timeout} s")
        return recv.recv()
    finally:
        child.kill()
        child.join()


def _updated_digests(agent, updates, directory):
    for _ in range(updates):
        assert agent.update().performed
    return _checkpoint_digests(agent, directory)


def _fresh_updated_digests(updates, directory):
    return _updated_digests(_filled_agent(), updates, directory)


def test_a_forked_child_updates_as_a_fresh_process_does(tmp_path):
    agent = _filled_agent()
    assert agent.update().performed  # so this process's worker thread runs
    forked = _result_in_child("fork", _updated_digests, agent, 3, tmp_path / "forked")
    fresh = _result_in_child("spawn", _fresh_updated_digests, 4, tmp_path / "fresh")
    assert forked == fresh


def _worker_threads_after_random_then_sac():
    """The worker threads alive after a random agent's episode, then after a
    SAC update."""
    def workers():
        return sum(t.name == "rls3-critic" for t in threading.enumerate())

    env = PlacementEnv(builtin_suite("train"), 5, seed=1)
    run_episode(env, RandomAgent(seed=1), 0, 1, np.random.default_rng(3), 0)
    after_random = workers()
    assert _filled_agent().update().performed
    return after_random, workers()


def test_only_a_sac_update_starts_the_worker_thread():
    assert _result_in_child("spawn", _worker_threads_after_random_then_sac) == (0, 1)


def test_callers_on_many_threads_share_the_worker_thread(tmp_path):
    """More calling threads than cores, switching often: each agent's updates
    come out as they do alone."""
    seeds = range(3)
    alone = [_updated_digests(_filled_agent(s), 5, tmp_path / f"alone{s}") for s in seeds]
    together = {}

    def run(seed):
        together[seed] = _updated_digests(_filled_agent(seed), 5, tmp_path / f"together{seed}")

    threads = [threading.Thread(target=run, args=(s,)) for s in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [together.get(s) for s in seeds] == alone


@pytest.mark.parametrize("broken", ["q2_target", "q1_target"])
def test_a_critic_half_that_raises_leaves_no_stale_result(tmp_path, broken):
    """q2's half of an update runs on the worker thread and q1's here, so a
    q2_target of the wrong input width raises on the worker only, and a
    q1_target on this thread only. Either fails the update; once the net is
    restored, the next update reads only its own results."""
    failed, clean = _filled_agent(), _filled_agent()
    for agent in (failed, clean):
        assert agent.update().performed
    net = getattr(failed, broken)
    setattr(failed, broken, Mlp([net.n_in + 1, *net.layer_sizes[1:]]))
    with pytest.raises(DimensionError, match=f"expected input width {net.n_in + 1}"):
        failed.update()
    setattr(failed, broken, net)
    for agent in (failed, clean):  # the failed update drew from both streams
        agent._rng = np.random.default_rng(8)
        agent.buffer._rng = np.random.default_rng(9)
        assert agent.update().performed
    assert _checkpoint_digests(failed, tmp_path / "failed") == _checkpoint_digests(
        clean, tmp_path / "clean"
    )


def test_updates_at_one_minibatch_reuse_their_arrays():
    agent = _filled_agent()

    def arrays():
        passes = [tape[0] for tape in agent._tapes.values()]
        optimizers = (agent.actor_opt, agent.q1_opt, agent.q2_opt)
        return [
            *(a for p in passes for a in (*p.outs, *p._scratch.values())),
            *(opt.adam._scratch for opt in optimizers),
        ]

    agent.update()
    first = arrays()
    snapshot = [a.copy() for a in first]
    agent.update()
    second = arrays()
    assert len(second) == len(first)
    assert all(a is b for a, b in zip(first, second))
    # the second update wrote into them
    assert any(not np.array_equal(a, b) for a, b in zip(second, snapshot))


def test_updates_keep_parameters_moments_and_checkpoints_float64(tmp_path):
    agent = _filled_agent()
    for _ in range(3):
        assert agent.update().performed
    for name in CHECKPOINT_NETWORKS:
        assert getattr(agent, name).flat.dtype == np.float64, name
    for opt in (agent.actor_opt, agent.q1_opt, agent.q2_opt):
        assert opt.adam._m.dtype == opt.adam._v.dtype == np.float64
        assert opt.adam.step_count == 3
    agent.save(tmp_path / "ck")
    for name in CHECKPOINT_NETWORKS:
        flat = getattr(agent, name).flat
        blob = (tmp_path / "ck" / f"{name}.net").read_bytes()
        body = np.frombuffer(blob[len(blob) - 8 * flat.size :], dtype="<f8")
        assert body.tobytes() == flat.astype("<f8").tobytes(), name


def test_pretrain_reports_skipped_updates():
    env = PlacementEnv(builtin_suite("train"), 10, seed=0)
    clean = make_agent(warmup=8, minibatch=8)
    assert pretrain_intrinsic(clean, env, steps=40)["skipped_updates"] == 0
    agent = make_agent(warmup=8, minibatch=8)
    agent.buffer.push(random_transition(np.random.default_rng(10), reward=float("nan")))
    stats = pretrain_intrinsic(agent, PlacementEnv(builtin_suite("train"), 10, seed=0), steps=40)
    # the first update's minibatch is the whole buffer, so both critics skip it
    skipped = sum(opt.adam.skipped for opt in (agent.actor_opt, agent.q1_opt, agent.q2_opt))
    assert stats["skipped_updates"] == skipped >= 2
    assert agent.q1_opt.adam.skipped == agent.q2_opt.adam.skipped >= 1


# --- random agent and env integration ---------------------------------------------------


def test_random_agent_uniform():
    agent = RandomAgent(seed=0)
    actions = np.array([agent.select_action() for _ in range(4000)])
    assert np.all(np.abs(actions) <= 1.0)
    assert np.max(np.abs(actions.mean(axis=0))) < 0.05
    assert np.all(np.abs(actions.std(axis=0) - np.sqrt(1 / 3)) < 0.05)


def test_random_agent_loop_interface_changes_nothing(tmp_path):
    plain, driven = RandomAgent(seed=3), RandomAgent(seed=3)
    episode = [random_transition(np.random.default_rng(8))]
    a, b = [], []
    for _ in range(5):
        a.append(plain.select_action())
        b.append(driven.select_action())
        assert not driven.update().performed
        driven.absorb_episode(episode, j2=1.0, beta=10.0)
        driven.save(tmp_path / "agent")
    assert np.array_equal(a, b)
    assert not (tmp_path / "agent").exists()


def test_pretrain_intrinsic_smoke():
    env = PlacementEnv(builtin_suite("train"), 10, seed=0)
    agent = make_agent(warmup=32, minibatch=32)
    stats = pretrain_intrinsic(agent, env, steps=200)
    assert stats["steps"] == 200
    assert 0.0 <= stats["valid_rate"] <= 1.0
    assert agent.actor.all_finite()


def test_measure_valid_rate_random_baseline():
    env = PlacementEnv(builtin_suite("train"), 10, seed=1)
    rate = measure_valid_rate(RandomAgent(seed=1), env, steps=500)
    assert 0.0 < rate < 1.0
