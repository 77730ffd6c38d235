"""Soft actor-critic over the placement environment, plus the random baseline.

Actor outputs a tanh-squashed Gaussian over the 3-axis displacement; two Q
critics with polyak-averaged targets. Rewards are the environment's +/-1
feasibility signal; the judge-derived episode bonus is injected on the
terminal transition before the episode enters the replay buffer. Observations
are `scene.OBS_DIM` wide, scaled by `scene.OBS_SCALE` at the network boundary.

The twin critics do not depend on each other until the `min` of their values,
so `SacAgent.update` runs q2's half of each update on one worker thread per
process while the calling thread runs q1's half and the actor's: q2's target
forward, q2's regression step with its target's polyak averaging, and q2's
forward and input backward on the actor's actions. numpy releases the GIL in
BLAS and ufunc loops, so the halves overlap on two cores. Each thread writes
only its own networks, tapes and Adam state and reads shared inputs only, so
every float is what one thread would compute, and `update()` returns or raises
only after both halves have finished. The thread starts at the first update
that does work, so a random agent never starts it, and a forked child starts
its own. On Linux it starts off the calling thread's CPU.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import queue
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datasets import atomic_open
from .nets import Mlp, NetOptimizer, load_net, save_net
from .scene import OBS_DIM, OBS_SCALE, PlacementEnv, _number

ACTION_DIM = 3
LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
_TANH_EPS = 1e-6


class AgentError(RuntimeError):
    pass


# the networks a checkpoint holds, each in <name>.net
CHECKPOINT_NETWORKS = ("actor", "q1", "q2", "q1_target", "q2_target")


@dataclass(frozen=True)
class Transition:
    observation: np.ndarray
    action: np.ndarray
    reward: float
    next_observation: np.ndarray
    terminal: bool


class ReplayBuffer:
    """Fixed-capacity ring with seeded uniform minibatch sampling."""

    def __init__(self, capacity: int = 100_000, seed: int | np.random.SeedSequence = 0):
        self.capacity = int(capacity)
        self._obs = np.zeros((capacity, OBS_DIM))
        self._act = np.zeros((capacity, ACTION_DIM))
        self._rew = np.zeros(capacity)
        self._next = np.zeros((capacity, OBS_DIM))
        self._term = np.zeros(capacity)
        self._size = 0
        self._head = 0
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        return self._size

    def push(self, tr: Transition) -> None:
        i = self._head
        self._obs[i] = tr.observation
        self._act[i] = tr.action
        self._rew[i] = tr.reward
        self._next[i] = tr.next_observation
        self._term[i] = float(tr.terminal)
        self._head = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch: int):
        idx = self._rng.choice(self._size, size=batch, replace=False)
        return (
            self._obs[idx],
            self._act[idx],
            self._rew[idx],
            self._next[idx],
            self._term[idx],
        )


@dataclass(frozen=True)
class UpdateInfo:
    performed: bool


UPDATE_SKIPPED = UpdateInfo(performed=False)
UPDATE_PERFORMED = UpdateInfo(performed=True)

# the queue of the worker thread that runs q2's half of every SacAgent.update
# in this process; None until the first update that does work
_jobs: queue.SimpleQueue | None = None
_jobs_lock = threading.Lock()


def _forget_worker() -> None:
    """In a forked child: the parent's worker thread is not there."""
    global _jobs, _jobs_lock
    _jobs, _jobs_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


class _Handoff:
    """One call for the worker thread, with its own completion lock, held
    until the call has finished, and its result or exception."""

    def __init__(self, fn, args):
        self._call = fn, args
        self._value = self._error = None
        self._done = threading.Lock()
        self._done.acquire()

    def run(self) -> None:
        fn, args = self._call
        try:
            self._value = fn(*args)
        except BaseException as exc:
            self._error = exc
        self._done.release()

    def wait(self) -> None:
        with self._done:
            pass

    def result(self):
        self.wait()
        if self._error is not None:
            raise self._error
        return self._value


def _current_cpu() -> int | None:
    """The CPU the calling thread runs on, where /proc tells it."""
    try:
        with open("/proc/thread-self/stat", "rb") as f:
            return int(f.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _serve(jobs: queue.SimpleQueue, caller_cpu: int | None) -> None:
    # Start off the caller's CPU, then let the scheduler place this thread
    # freely. A woken thread tends to stay where it last ran, so two threads
    # that hand work to each other, each asleep for moments at a time, can
    # otherwise share one core for good while another sits idle.
    with contextlib.suppress(AttributeError, OSError):
        allowed = os.sched_getaffinity(0)
        if caller_cpu is not None and allowed - {caller_cpu}:
            os.sched_setaffinity(0, allowed - {caller_cpu})
            os.sched_setaffinity(0, allowed)
    while True:
        jobs.get().run()


@contextlib.contextmanager
def _on_worker(fn, *args):
    """Run fn(*args) on the worker thread while the with-block runs here, and
    yield its handoff. The block's exit waits for fn, then raises the block's
    exception or else fn's, so no result outlives the block that asked for it.
    """
    global _jobs
    with _jobs_lock:
        if _jobs is None:
            _jobs = queue.SimpleQueue()
            worker = threading.Thread(
                target=_serve, args=(_jobs, _current_cpu()), name="rls3-critic", daemon=True
            )
            worker.start()
        jobs = _jobs
    job = _Handoff(fn, args)
    jobs.put(job)
    try:
        yield job
    finally:
        job.wait()
    job.result()


def _action_gradient(q: Mlp, tape: list, sa_pi: np.ndarray, ones: np.ndarray):
    """A critic's values at (observation, actor action) and their gradient
    w.r.t. that input; its weights are held fixed."""
    value = q.forward(sa_pi, tape)[:, 0]
    _, grad = q.backward(ones, tape, need="input")
    return value, grad


class SacAgent:
    keeps_transitions = True  # absorb_episode pushes them into the buffer

    def __init__(
        self,
        seed: int | np.random.SeedSequence = 0,
        hidden: tuple[int, ...] = (128, 128),
        lr: float = 3e-4,
        gamma: float = 0.99,
        polyak: float = 0.995,
        alpha: float = 0.2,
        warmup: int = 1000,
        minibatch: int = 256,
        buffer_capacity: int = 100_000,
    ):
        seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        s_actor, s_q1, s_q2, s_buf, s_act = seq.spawn(5)
        self.actor = Mlp([OBS_DIM, *hidden, 2 * ACTION_DIM], seed=s_actor)
        self.q1 = Mlp([OBS_DIM + ACTION_DIM, *hidden, 1], seed=s_q1)
        self.q2 = Mlp([OBS_DIM + ACTION_DIM, *hidden, 1], seed=s_q2)
        self.q1_target = self.q1.copy()
        self.q2_target = self.q2.copy()
        self.actor_opt = NetOptimizer(self.actor, lr=lr)
        self.q1_opt = NetOptimizer(self.q1, lr=lr)
        self.q2_opt = NetOptimizer(self.q2, lr=lr)
        self.gamma = gamma
        self.polyak = polyak
        self.log_alpha = float(np.log(alpha))
        self.warmup = warmup
        self.minibatch = minibatch
        self.buffer = ReplayBuffer(buffer_capacity, seed=s_buf)
        self._rng = np.random.default_rng(s_act)
        # one tape per network, kept across updates so that each pass at the
        # same minibatch writes into the arrays of the last one; a network's
        # passes in update() run one after another on one thread, each read
        # before the next
        self._tapes = {name: [] for name in CHECKPOINT_NETWORKS}

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha))

    # -- policy

    def _policy_params(
        self, obs: np.ndarray, tape: list | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        out = self.actor.forward(obs, tape)
        mean = out[..., :ACTION_DIM]
        log_std_raw = out[..., ACTION_DIM:]
        log_std = np.clip(log_std_raw, LOG_STD_MIN, LOG_STD_MAX)
        return mean, log_std, log_std_raw

    def select_action(self, observation: np.ndarray, stochastic: bool = True) -> np.ndarray:
        obs = np.asarray(observation, dtype=float)
        if obs.shape != (OBS_DIM,) or not np.isfinite(obs).all():
            raise AgentError("observation must be a finite vector of the right width")
        mean, log_std, _ = self._policy_params(obs / OBS_SCALE)
        if not stochastic:
            return np.tanh(mean)
        eps = self._rng.standard_normal(ACTION_DIM)
        return np.tanh(mean + np.exp(log_std) * eps)

    def _sample(self, obs: np.ndarray, tape: list | None = None):
        """Reparameterized batch sample: (action, pieces for its log-probability
        and gradients)."""
        mean, log_std, log_std_raw = self._policy_params(obs, tape)
        std = np.exp(log_std)
        # drawn in float64 whatever the pass's dtype, so the stream is the same
        eps = self._rng.standard_normal(mean.shape).astype(mean.dtype, copy=False)
        u = mean + std * eps
        a = np.tanh(u)
        sq_term = 1.0 - a * a + _TANH_EPS
        clamp_mask = (log_std_raw > LOG_STD_MIN) & (log_std_raw < LOG_STD_MAX)
        return a, (eps, log_std, std, sq_term, clamp_mask)

    # -- learning

    def update(self) -> UpdateInfo:
        """One gradient step for each critic, each followed by the polyak
        averaging of its target, and one for the actor. No-op before the
        warmup fill is reached. q2's half runs on the worker thread (see the
        module docstring).

        The minibatch is cast to float32 once, so every forward and backward
        pass here runs in float32; the gradients reach Adam, which updates the
        float64 parameters in float64.
        """
        batch = self.minibatch
        if len(self.buffer) < max(self.warmup, batch):
            return UPDATE_SKIPPED
        obs, act, rew, nxt, term = self.buffer.sample(batch)
        obs = (obs / OBS_SCALE).astype(np.float32)
        nxt = (nxt / OBS_SCALE).astype(np.float32)
        act, rew, term = (v.astype(np.float32) for v in (act, rew, term))

        tapes = self._tapes
        # critic targets
        a_next, (eps, log_std, _, sq_term, _) = self._sample(nxt, tapes["actor"])
        # log-probability of the tanh-squashed Gaussian; the actor step needs none
        logp_next = (
            -0.5 * np.sum(eps * eps, axis=-1)
            - np.sum(log_std, axis=-1)
            - 0.5 * ACTION_DIM * math.log(2.0 * math.pi)
            - np.sum(np.log(sq_term), axis=-1)
        )
        sa_next = np.hstack([nxt, a_next])
        with _on_worker(self.q2_target.forward, sa_next, tapes["q2_target"]) as q2n:
            q1n = self.q1_target.forward(sa_next, tapes["q1_target"])
        target = rew + self.gamma * (1.0 - term) * (
            np.minimum(q1n[:, 0], q2n.result()[:, 0]) - self.alpha * logp_next
        )

        # critic steps; the actor's sample is drawn here meanwhile
        sa = np.hstack([obs, act])
        with _on_worker(self._critic_step, "q2", sa, target):
            self._critic_step("q1", sa, target)
            a, (eps, _, std, sq_term, clamp_mask) = self._sample(obs, tapes["actor"])

        # actor step (critic weights held fixed: only their input gradients)
        sa_pi = np.hstack([obs, a])
        ones = np.ones((batch, 1), np.float32)
        with _on_worker(_action_gradient, self.q2, tapes["q2"], sa_pi, ones) as q2_grad:
            q1v, g1 = _action_gradient(self.q1, tapes["q1"], sa_pi, ones)
        q2v, g2 = q2_grad.result()
        use_q1 = (q1v <= q2v)[:, None]
        dq_da = np.where(use_q1, g1[:, OBS_DIM:], g2[:, OBS_DIM:])

        # d logp / du through the tanh correction; the Gaussian part is
        # constant in mean under reparameterization
        a_sq = a * a
        dlogp_du = 2.0 * a * (1.0 - a_sq) / sq_term
        dL_du = (self.alpha * dlogp_du - dq_da * (1.0 - a_sq)) / batch
        d_mean = dL_du
        d_log_std = dL_du * std * eps - (self.alpha / batch) * np.ones_like(std)
        d_log_std = np.where(clamp_mask, d_log_std, 0.0)
        actor_grad, _ = self.actor.backward(
            np.hstack([d_mean, d_log_std]), tapes["actor"], need="params"
        )
        self.actor_opt.step(actor_grad)

        for net in (self.actor, self.q1, self.q2):
            if not net.all_finite():
                raise AgentError("non-finite agent parameters after update")
        return UPDATE_PERFORMED

    def _critic_step(self, name: str, sa: np.ndarray, target: np.ndarray) -> None:
        """Critic `name`'s regression step towards `target`, then the polyak
        averaging of its target net, which nothing later in the update reads."""
        q, q_target = getattr(self, name), getattr(self, f"{name}_target")
        tape = self._tapes[name]
        pred = q.forward(sa, tape)[:, 0]
        grad, _ = q.backward((2.0 * (pred - target) / len(sa))[:, None], tape, need="params")
        getattr(self, f"{name}_opt").step(grad)
        q_target.flat *= self.polyak
        q_target.flat += (1.0 - self.polyak) * q.flat

    # -- reward shaping

    @staticmethod
    def inject_terminal_bonus(
        transitions: list[Transition], j2: float, beta: float
    ) -> list[Transition]:
        """Add beta*J2 to the terminal reward; realizes J = J1 + beta*J2 at the
        return level. Rejects a second injection on the same episode.
        """
        if not transitions:
            raise AgentError("empty episode")
        if j2 < 0:
            raise AgentError("J2 must be non-negative")
        if any(tr.reward not in (-1.0, 1.0) for tr in transitions):
            raise AgentError("bonus already injected on this episode")
        last = transitions[-1]
        patched = Transition(
            last.observation,
            last.action,
            last.reward + beta * j2,
            last.next_observation,
            last.terminal,
        )
        return transitions[:-1] + [patched]

    def absorb_episode(self, transitions: list[Transition], j2: float, beta: float) -> None:
        """Push a finished episode, beta*J2 added to its terminal reward."""
        for tr in self.inject_terminal_bonus(transitions, j2, beta):
            self.buffer.push(tr)

    # -- persistence

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        nets = {name: getattr(self, name) for name in CHECKPOINT_NETWORKS}
        for name, net in nets.items():
            save_net(net, directory / f"{name}.net")
        manifest = {
            "networks": {name: f"{name}.net" for name in nets},
            "alpha": self.alpha,
            "gamma": self.gamma,
            "polyak": self.polyak,
            "obs_scale": OBS_SCALE.tolist(),
        }
        with atomic_open(directory / "manifest.json", encoding="utf-8") as f:
            json.dump(manifest, f, sort_keys=True, indent=2)

    def load(self, directory) -> None:
        """Replace the networks and alpha with a saved checkpoint's. Raises
        AgentError naming the checkpoint if its manifest or any of its files is
        missing, unreadable or does not fit this agent, or if its observation
        scale is not scene.OBS_SCALE; the agent is left unchanged then.
        """
        directory = Path(directory)
        try:
            with open(directory / "manifest.json", "r", encoding="utf-8") as f:
                manifest = json.load(f)
            networks = manifest["networks"]
            if not isinstance(networks, dict) or sorted(networks) != sorted(CHECKPOINT_NETWORKS):
                raise ValueError(f"manifest must name exactly the networks {CHECKPOINT_NETWORKS}")
            loaded = {n: load_net(directory / str(networks[n])) for n in CHECKPOINT_NETWORKS}
            for name, net in loaded.items():
                if net.layer_sizes != getattr(self, name).layer_sizes:
                    raise ValueError(f"architecture mismatch for {name}")
            alpha = _number(manifest["alpha"])  # a finite JSON number, not a bool or string
            if not alpha > 0.0:
                raise ValueError(f"alpha must be positive, got {alpha}")
            if not np.array_equal([_number(x) for x in manifest["obs_scale"]], OBS_SCALE):
                raise ValueError("observation scale differs from scene.OBS_SCALE")
        except (OSError, ValueError, TypeError, KeyError) as exc:
            raise AgentError(f"cannot load agent checkpoint {directory}: {exc}") from exc
        for name, net in loaded.items():
            setattr(self, name, net)
        self.log_alpha = float(np.log(alpha))
        self.actor_opt = NetOptimizer(self.actor, lr=self.actor_opt.adam.lr)
        self.q1_opt = NetOptimizer(self.q1, lr=self.q1_opt.adam.lr)
        self.q2_opt = NetOptimizer(self.q2, lr=self.q2_opt.adam.lr)


class RandomAgent:
    """Uniform actions in [-1, 1]^3; the budget-matched baseline."""

    keeps_transitions = False  # absorb_episode keeps nothing

    def __init__(self, seed: int | np.random.SeedSequence = 0):
        self._rng = np.random.default_rng(seed)

    def select_action(self, observation=None, stochastic: bool = True) -> np.ndarray:
        return self._rng.uniform(-1.0, 1.0, size=ACTION_DIM)

    def update(self) -> UpdateInfo:
        return UPDATE_SKIPPED

    def absorb_episode(self, transitions: list[Transition], j2: float, beta: float) -> None:
        """Keeps nothing: a random agent does not learn."""

    def save(self, directory) -> None:
        """Writes nothing and creates no directory: there are no weights."""


def rollout(agent, env: PlacementEnv, episode: int = 0, stochastic: bool = True):
    """Step `env` with `agent`'s actions, yielding (observation, action, step
    result) for every step. After a step that ends an episode, the next
    request resets the env to the following episode.
    """
    obs = env.reset_episode(episode)
    while True:
        action = agent.select_action(obs, stochastic=stochastic)
        result = env.step(action)
        yield obs, action, result
        obs = result.observation
        if result.done:
            episode += 1
            obs = env.reset_episode(episode)


def pretrain_intrinsic(
    agent: SacAgent,
    env: PlacementEnv,
    steps: int,
    update_every: int = 1,
    checkpoint_dir=None,
) -> dict:
    """Train on the +/-1 feasibility reward only; no judge in the loop.

    Episodes end on the environment's own termination rule; transitions enter
    the buffer immediately (no bonus exists during pretraining). The stats'
    `skipped_updates` counts optimizer steps (actor, q1 and q2 together) that
    Adam skipped for a non-finite gradient.
    """
    if steps <= 0:
        raise ValueError("steps must be positive")
    episodes = 0
    valid = 0
    taken = itertools.islice(rollout(agent, env), steps)
    for t, (obs, action, result) in enumerate(taken, start=1):
        agent.buffer.push(
            Transition(obs, action, result.reward, result.observation, result.done)
        )
        valid += result.reward > 0
        episodes += result.done
        if t % update_every == 0:
            agent.update()
    if checkpoint_dir is not None:
        agent.save(checkpoint_dir)
    skipped = sum(opt.adam.skipped for opt in (agent.actor_opt, agent.q1_opt, agent.q2_opt))
    return {
        "steps": steps,
        "episodes": episodes,
        "valid_rate": valid / steps,
        "skipped_updates": skipped,
    }


def measure_valid_rate(agent, env: PlacementEnv, steps: int, stochastic: bool = True) -> float:
    """Fraction of valid placements over fresh environment steps."""
    taken = itertools.islice(rollout(agent, env, stochastic=stochastic), steps)
    return sum(result.reward > 0 for _, _, result in taken) / steps
