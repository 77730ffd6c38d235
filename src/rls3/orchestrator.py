"""End-to-end loop: episodes -> prompts -> judge inference -> reward ->
batch assembly -> fine-tuning -> validation -> early stopping.

A run owns one directory: config.json, samples.jsonl, verdicts.jsonl,
metrics.csv, checkpoints/, report.json, plus the fixed validation and test
sets it was evaluated against. Every source of randomness is derived from the
single config seed, so identical configs reproduce identical runs byte for
byte.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import fcntl
import hashlib
import itertools
import json
import math
import os
import pickle
import signal
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import datasets, judges, scene, wire
from .agent import AgentError, RandomAgent, SacAgent, Transition, rollout
from .datasets import SampleRecord
from .prompts import build_caption_set
from .scene import (
    EpisodeAborted, PlacementEnv, PlacementError, SceneSuite, builtin_suite, load_suite
)


class OrchestratorError(RuntimeError):
    pass


class ConfigError(ValueError):
    pass


# the allowed range of each int or float config field, by the phrase that
# completes "<field> must be ..."; a float field must also be finite
_RANGES = {
    "positive": lambda x: x > 0,
    "non-negative": lambda x: x >= 0,
    "in (0, 1)": lambda x: 0 < x < 1,
    "in (0, 1]": lambda x: 0 < x <= 1,
    "in [0, 1]": lambda x: 0 <= x <= 1,
    "at least 2": lambda x: x >= 2,
    "null or positive": lambda x: x is None or x > 0,
}


def _must_be(phrase: str, default=dataclasses.MISSING):
    """A config field whose value must lie in the range `phrase` names."""
    return field(default=default, metadata={"range": (phrase, _RANGES[phrase])})


# the Python types each scalar field annotation admits; bool, a subclass of
# int, is admitted only where the annotation says bool
_SCALAR_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,)}


def _is_scalar(value, base: str) -> bool:
    return isinstance(value, _SCALAR_TYPES[base]) and isinstance(value, bool) == (base == "bool")


def _check_type(key: str, value, annotation: str) -> None:
    base, _, optional = annotation.partition(" | ")
    if optional == "None" and value is None:
        return
    if base == "tuple[int, ...]":  # hidden sizes
        annotation = "a list of positive ints"
        ok = isinstance(value, (list, tuple)) and all(_is_scalar(v, "int") and v > 0 for v in value)
    elif base == "EarlyStopPolicy":
        ok = isinstance(value, EarlyStopPolicy)
    else:
        ok = _is_scalar(value, base)
    if not ok:
        raise ConfigError(f"config key {key!r} must be {annotation}, got {value!r}")


def _check_fields(config) -> None:
    """Check each field's type (see _check_type), then its range."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        _check_type(f.name, value, f.type)
        if f.type == "float" and not scene.is_finite_number(value):
            raise ConfigError(f"{f.name} must be a finite number")
        if "range" in f.metadata:
            phrase, test = f.metadata["range"]
            if not test(value):
                raise ConfigError(f"{f.name} must be {phrase}")


@dataclass(frozen=True)
class EarlyStopPolicy:
    min_iterations: int = _must_be("non-negative")
    patience: int = _must_be("positive")
    epsilon: float = _must_be("non-negative")

    __post_init__ = _check_fields


@dataclass
class RunConfig:
    # loop shape
    iterations: int = _must_be("positive", 40)
    episodes_per_iteration: int = _must_be("positive", 20)
    samples_per_episode: int = _must_be("positive", 200)
    sampling_rate: float = _must_be("in (0, 1]", 0.5)
    reward_scale: float = _must_be("non-negative", 10.0)
    finetune_steps: int = _must_be("positive", 256)
    judge: str = "generative"  # generative | contrastive | external:<addr>
    agent: str = "sac"  # sac | random
    deterministic_actions: bool = False
    seed: int = _must_be("non-negative", 0)
    early_stop: EarlyStopPolicy | None = None  # default: the judge kind's
    budget: int | None = _must_be("null or positive", None)  # attempt cap (random-agent matching)
    # environment
    train_suite: str = "train"
    test_suite: str = "test"
    p_swap: float = _must_be("in [0, 1]", scene.DEFAULT_P_SWAP)
    dmax: float = _must_be("positive", scene.DEFAULT_DMAX)
    snap_tol: float = _must_be("non-negative", scene.DEFAULT_SNAP_TOL)
    # fixed sets
    validation_count: int = _must_be("positive", 500)
    validation_seed: int = _must_be("non-negative", 9500)
    test_count: int = _must_be("positive", 1000)
    test_seed: int = _must_be("non-negative", 9100)
    # agent
    agent_checkpoint: str | None = None
    agent_hidden: tuple[int, ...] = (128, 128)
    agent_lr: float = _must_be("positive", 3e-4)
    gamma: float = _must_be("in (0, 1]", 0.99)
    polyak: float = _must_be("in [0, 1]", 0.995)
    alpha: float = _must_be("positive", 0.2)
    warmup: int = _must_be("non-negative", 1000)
    agent_minibatch: int = _must_be("positive", 256)
    buffer_capacity: int = _must_be("positive", 100_000)
    pretrain_steps: int = _must_be("positive", 100_000)
    pretrain_update_every: int = _must_be("positive", 1)
    # judge
    judge_hidden: tuple[int, ...] = (64, 64)
    judge_lr: float = _must_be("positive", 1e-3)
    temperature: float = _must_be("positive", judges.DEFAULT_TEMPERATURE)
    threshold: float = _must_be("in (0, 1)", 0.5)
    generative_minibatch: int = _must_be("positive", 64)
    contrastive_minibatch: int = _must_be("at least 2", 256)
    external_mode: str = "generative"

    def __post_init__(self):
        _check_fields(self)
        if self.agent not in ("sac", "random"):
            raise ConfigError(f"unknown agent kind {self.agent!r}")
        if self.judge not in judges.LOCAL_JUDGES and not self.judge.startswith("external:"):
            raise ConfigError(f"unknown judge kind {self.judge!r}")
        if self.external_mode not in judges.LOCAL_JUDGES:
            raise ConfigError(f"unknown external_mode {self.external_mode!r}")
        if round(self.sampling_rate * self.samples_per_episode) == 0:  # as sample_for_batch rounds
            raise ConfigError(
                "sampling_rate * samples_per_episode must round to at least 1 sample per episode"
            )

    def resolved_early_stop(self) -> EarlyStopPolicy:
        """`early_stop`, or else the default of the judge's kind, local or external."""
        if self.early_stop is not None:
            return self.early_stop
        name = self.external_mode if self.judge.startswith("external:") else self.judge
        return EarlyStopPolicy(*judges.LOCAL_JUDGES[name].kind.early_stop)

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["early_stop"] = dataclasses.asdict(self.resolved_early_stop())
        return doc

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_EARLY_STOP_FIELDS = {f.name: f.type for f in dataclasses.fields(EarlyStopPolicy)}
def config_from_dict(doc: dict) -> RunConfig:
    """The config a JSON document describes. Each key's type is checked in
    document order, so the first bad key is the one named."""
    kwargs = {}
    try:
        for key, value in doc.items():
            if key not in _CONFIG_FIELDS:
                raise ConfigError(f"unknown config key {key!r}")
            if key == "early_stop" and value is not None:
                if not isinstance(value, dict):
                    raise ConfigError(f"config key 'early_stop' must be an object, got {value!r}")
                for sub, annotation in _EARLY_STOP_FIELDS.items():
                    if sub in value:
                        _check_type(f"early_stop.{sub}", value[sub], annotation)
                value = EarlyStopPolicy(**value)  # a missing or unknown field: TypeError
            _check_type(key, value, _CONFIG_FIELDS[key])
            if _CONFIG_FIELDS[key] == "tuple[int, ...]":  # hidden sizes, a list in JSON
                value = tuple(value)
            kwargs[key] = value
        return RunConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:  # a value of the wrong type or shape
        raise ConfigError(f"invalid config value: {exc}") from exc


def apply_overrides(doc: dict, overrides: dict[str, str]) -> dict:
    """Apply dotted key=value string overrides onto a raw config dict."""
    doc = json.loads(json.dumps(doc))  # deep copy
    for dotted, raw in overrides.items():
        parts = dotted.split(".")
        if parts[0] not in _CONFIG_FIELDS:
            raise ConfigError(f"unknown config key {dotted!r}")
        target = doc
        for p in parts[:-1]:
            target = target.setdefault(p, {})
            if not isinstance(target, dict):
                raise ConfigError(
                    f"cannot set {dotted!r}: {p!r} holds {json.dumps(target)}, not an object"
                )
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target[parts[-1]] = value
    return doc


def desk_config(**overrides) -> RunConfig:
    """Small configuration that exercises the whole loop in minutes on a CPU.
    A local judge's finetune_steps is its class's `desk_finetune_steps`."""
    base = dict(
        iterations=10,
        episodes_per_iteration=4,
        samples_per_episode=20,
        sampling_rate=0.5,
        finetune_steps=64,
        warmup=1000,
        pretrain_steps=20_000,
        validation_count=500,
        test_count=1000,
    )
    config = RunConfig(**{**base, **overrides})  # checks the judge name's type
    local = judges.LOCAL_JUDGES.get(config.judge)
    if local is not None and "finetune_steps" not in overrides:
        config.finetune_steps = local.desk_finetune_steps
    return config


# --- loop pieces ------------------------------------------------------------------


@dataclass
class EpisodeResult:
    records: list[SampleRecord]
    transitions: list[Transition]  # none unless run_episode keeps them
    truncated: bool
    attempts: int  # env steps taken


def early_stop(history: list[float], policy: EarlyStopPolicy) -> bool:
    """Stop iff we are past min_iterations and none of the last `patience`
    entries improved on the best preceding value by more than epsilon.
    """
    if not history:
        raise ValueError("history must be non-empty")
    n = len(history)
    if n < policy.min_iterations:
        return False
    window_start = max(n - policy.patience, 0)
    for i in range(window_start, n):
        if i == 0:
            return False  # the first entry is trivially an improvement
        if history[i] > max(history[:i]) + policy.epsilon:
            return False
    return True


def sample_for_batch(
    records: list[SampleRecord], rate: float, rng: np.random.Generator
) -> list[SampleRecord]:
    if not 0.0 < rate <= 1.0:
        raise ValueError("sampling rate must be in (0, 1]")
    take = round(rate * len(records))
    idx = rng.choice(len(records), size=take, replace=False)
    return [records[i] for i in sorted(idx)]


def infer_and_reward(judge, records: list[SampleRecord]):
    """(verdicts, J2) for one episode batch; J2 is the squared batch loss."""
    if not records:
        raise OrchestratorError("cannot score an empty episode")
    verdicts, loss = judge.infer(records)
    return verdicts, loss**2


def run_episode(
    env: PlacementEnv,
    agent,
    episode_idx: int,
    iteration: int,
    prompt_rng: np.random.Generator,
    sample_id_start: int,
    stochastic: bool = True,
    keep_transitions: bool = True,
) -> EpisodeResult:
    """Roll one episode to T0 valid samples (or the step cap), building caption
    sets for every snapshot. The agent updates every step from previously
    absorbed episodes; the fresh transitions stay out of its buffer until the
    terminal bonus is injected. With `keep_transitions` false the episode
    holds none.
    """
    transitions: list[Transition] = []
    snapshots = []
    steps = enumerate(rollout(agent, env, episode_idx, stochastic), start=1)
    for attempts, (obs, action, result) in steps:
        if keep_transitions:
            transitions.append(
                Transition(obs, action, result.reward, result.observation, result.done)
            )
        if result.snapshot is not None:
            snapshots.append(result.snapshot)
        agent.update()
        if result.done:
            break
    if not snapshots:
        raise OrchestratorError(
            f"episode {episode_idx} produced no valid samples within {env.t_max} steps"
        )
    i = 0
    while len(snapshots) < env.t0:  # pad a truncated episode from its own snapshots
        snapshots.append(snapshots[i])
        i += 1
    records = []
    for k, snap in enumerate(snapshots):
        captions = build_caption_set(snap, prompt_rng)
        records.append(
            datasets.record_from_snapshot(
                snap, captions, sample_id_start + k, episode=episode_idx, iteration=iteration
            )
        )
    return EpisodeResult(records, transitions, result.truncated, attempts)


def _episodes(env, agent, prompt_rng, per_iteration: int, stochastic: bool):
    """A run's episodes in order, each rolled when it is asked for: episode k
    belongs to iteration k // per_iteration + 1, and its samples are numbered
    on from those of the episodes before it. It keeps their transitions only
    for an agent that keeps them."""
    sample_id, keep = 0, agent.keeps_transitions
    for k in itertools.count():
        iteration = k // per_iteration + 1
        ep = run_episode(env, agent, k, iteration, prompt_rng, sample_id, stochastic, keep)
        sample_id += len(ep.records)
        yield ep


def _for_the_pipe(ep: EpisodeResult) -> EpisodeResult:
    """`ep` as the episode child sends it: each record's JSON line encoded
    (the cached line travels in the pickle)."""
    for rec in ep.records:
        datasets.record_line(rec)
    return ep


def make_judge(config: RunConfig, catalog_names: tuple[str, ...], seed):
    """The local judge the config names, built with its class's
    `config_options`, or an external judge at the address after "external:"."""
    local = judges.LOCAL_JUDGES.get(config.judge)
    if local is None:
        client = wire.client_for_address(config.judge.split(":", 1)[1])
        return judges.ExternalJudge(client, mode=config.external_mode)
    options = {arg: getattr(config, name) for arg, name in local.config_options.items()}
    return local(catalog_names, config.judge_hidden, seed=seed, lr=config.judge_lr, **options)


def make_env(config: RunConfig, suite: SceneSuite, seed) -> PlacementEnv:
    return PlacementEnv(
        suite,
        config.samples_per_episode,
        seed=seed,
        dmax=config.dmax,
        snap_tol=config.snap_tol,
        p_swap=config.p_swap,
    )


def make_sac_agent(config: RunConfig, seed) -> SacAgent:
    return SacAgent(
        seed=seed,
        hidden=config.agent_hidden,
        lr=config.agent_lr,
        gamma=config.gamma,
        polyak=config.polyak,
        alpha=config.alpha,
        warmup=config.warmup,
        minibatch=config.agent_minibatch,
        buffer_capacity=config.buffer_capacity,
    )


def make_agent(config: RunConfig, seed):
    if config.agent == "random":
        return RandomAgent(seed=seed)
    agent = make_sac_agent(config, seed)
    agent.load(config.agent_checkpoint)
    return agent


def resolve_suite(name_or_path: str) -> SceneSuite:
    if name_or_path in ("train", "test"):
        return builtin_suite(name_or_path)
    return load_suite(name_or_path)


@dataclass
class RunReport:
    config_digest: str
    seed: int
    initial_val_metric: float = 0.0
    validation_history: list[float] = field(default_factory=list)
    mean_j2_per_iteration: list[float] = field(default_factory=list)
    finetune_losses: list[list[float]] = field(default_factory=list)
    cumulative_valid: int = 0
    cumulative_attempts: int = 0
    iterations_completed: int = 0
    early_stop_iteration: int | None = None
    truncated_episodes: int = 0
    budget_exhausted: bool = False
    test_metric: float | None = None
    samples_digest: str | None = None
    validation_digest: str | None = None
    test_digest: str | None = None
    failure: str | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_METRICS_COLUMNS = (
    "iteration", "cumulative_valid", "cumulative_attempts", "val_metric", "mean_J2", "batch_size"
)
# failures a run records in report.failure instead of raising
_RUN_FAILURES = (
    OrchestratorError, AgentError, judges.JudgeError, wire.WireError, PlacementError, EpisodeAborted
)


# a pipe this size holds about 40 episodes, so the episode child rolls on while
# the parent fine-tunes; the default 64 KiB holds about 2.5
_PIPE_BYTES = 1 << 20


class _ChildStream:
    """The items of `items`, an iterable iterated in a forked child, which
    pickles each one into a pipe as it comes. POSIX only. Iterating yields
    them in order. The exception that stopped the child is raised in place of
    the item it stopped: itself if it is one of `_RUN_FAILURES`, else an
    OrchestratorError naming it; a child that died raises an OrchestratorError,
    and so does a pipe or fork that fails, leaving no descriptor open. The
    child holds a copy of everything the parent had open at the fork and
    leaves only through `os._exit`, so it flushes and closes none of it.
    """

    def __init__(self, name: str, items):
        self._name = name
        fds = ()
        try:
            fds = read_fd, write_fd = os.pipe()
            with contextlib.suppress(AttributeError, OSError):  # the default buffer then
                fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
            self.pid = os.fork()
        except OSError as exc:
            for fd in fds:
                os.close(fd)
            raise OrchestratorError(f"cannot start the child {name}: {exc}") from exc
        if self.pid == 0:
            code = 1
            try:
                os.close(read_fd)
                with open(write_fd, "wb") as pipe:
                    try:
                        for item in items:
                            pipe.write(pickle.dumps(item, pickle.HIGHEST_PROTOCOL))
                            pipe.flush()
                        code = 0
                    except Exception as exc:
                        pipe.write(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
            finally:
                os._exit(code)
        os.close(write_fd)
        self._pipe = open(read_fd, "rb")
        self._exit_code: int | None = None  # set once the child is reaped

    def __iter__(self):
        return self

    def __next__(self):
        if self._exit_code is None:
            try:
                item = pickle.load(self._pipe)
            except EOFError:  # the child closed the pipe: it is leaving
                self._reap()
            except pickle.UnpicklingError:  # it died mid-item, or is writing garbage
                self.kill()
            else:
                if not isinstance(item, Exception):
                    return item
                if isinstance(item, _RUN_FAILURES):
                    raise item
                raise OrchestratorError(f"{self._name} failed: {item!r}")
        if self._exit_code:
            raise OrchestratorError(f"the child {self._name} exited with status {self._exit_code}")
        raise StopIteration

    def kill(self) -> None:
        """Kill and reap the child unless it is reaped already."""
        self._pipe.close()
        if self._exit_code is None:
            os.kill(self.pid, signal.SIGKILL)
            self._reap()

    def _reap(self) -> None:
        if self._exit_code is None:
            self._exit_code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


def _fixed_set(suite: SceneSuite, count: int, seed: int, path: Path):
    """The test-set child's one item: a fixed set's (digest, records),
    generated and written."""
    records = datasets.generate_fixed_records(suite, count, seed)
    yield datasets.write_samples(records, path), records


def run_loop(config: RunConfig, run_dir) -> RunReport:
    """Run the loop into `run_dir`. The first of `_RUN_FAILURES` ends the run:
    the judge is asked nothing more, not even for the test metric, and
    report.json names that failure.

    The run forks one child that builds the test set while the loop runs and,
    for a random agent, one that rolls the episodes ahead of the judge (see
    `_ChildStream`): a random agent reads neither observations nor J2. A SAC
    agent's episodes run in this process, since each must see the J2 absorbed
    from the one before. Both children are forked before the judge exists, so
    they hold none of an external judge's pipes, and leave through `os._exit`.
    Each RNG stream stays in the process that draws from it, and a child's run
    failure is raised here at the point where it would have been raised in
    process, so `failure` and every output byte are the same whichever process
    raised. A test-set failure ends the run at the test metric; when the run
    fails otherwise, the test set's digest is still collected. No child
    outlives this call.
    """
    if config.agent == "sac" and config.agent_checkpoint is None:
        raise ConfigError("agent=sac requires a pretrained agent_checkpoint")
    # a suite that cannot be read fails the run before anything is written
    train = resolve_suite(config.train_suite)
    test = resolve_suite(config.test_suite)
    run_dir = Path(run_dir)
    (run_dir / "checkpoints").mkdir(parents=True, exist_ok=True)

    resolved = config.to_dict()
    resolved["digest"] = config.digest()
    with datasets.atomic_open(run_dir / "config.json", encoding="utf-8") as f:
        json.dump(resolved, f, sort_keys=True, indent=2)

    seq = np.random.SeedSequence(config.seed)
    env_seed, agent_seed, prompt_seed, judge_seed, sampling_seed = seq.spawn(5)
    prompt_rng = np.random.default_rng(prompt_seed)
    sampling_rng = np.random.default_rng(sampling_seed)

    env = make_env(config, train, env_seed)
    policy = config.resolved_early_stop()
    report = RunReport(config_digest=resolved["digest"], seed=config.seed)
    stream = test_set = None
    try:
        with contextlib.ExitStack() as stack:
            samples_f, verdicts_f = (
                stack.enter_context(open(run_dir / name, "w", encoding="utf-8", newline="\n"))
                for name in ("samples.jsonl", "verdicts.jsonl")
            )
            metrics_f = stack.enter_context(open(run_dir / "metrics.csv", "w", newline=""))
            metrics = csv.writer(metrics_f)
            metrics.writerow(_METRICS_COLUMNS)

            agent = make_agent(config, agent_seed)
            stochastic = not config.deterministic_actions
            episodes = _episodes(env, agent, prompt_rng, config.episodes_per_iteration, stochastic)
            if config.agent == "random":  # forked first, so it overlaps the validation set
                count = config.iterations * config.episodes_per_iteration
                episodes = stream = _ChildStream(
                    "rolling episodes", map(_for_the_pipe, itertools.islice(episodes, count))
                )
            val_records = datasets.generate_fixed_records(
                train, config.validation_count, config.validation_seed
            )
            report.validation_digest = datasets.write_samples(
                val_records, run_dir / "validation.jsonl"
            )
            test_set = _ChildStream(
                "building test.jsonl",
                _fixed_set(test, config.test_count, config.test_seed, run_dir / "test.jsonl"),
            )
            judge = stack.enter_context(
                contextlib.closing(make_judge(config, train.catalog_names, judge_seed))
            )

            val_set = judge.encode(val_records)
            del val_records
            report.initial_val_metric = judge.validation_metric(val_set)
            metrics.writerow([0, 0, 0, f"{report.initial_val_metric:.6f}", "", 0])
            for iteration in range(1, config.iterations + 1):
                batch: list[SampleRecord] = []  # cleared every iteration
                j2s: list[float] = []
                for _ in range(config.episodes_per_iteration):
                    if config.budget is not None and report.cumulative_attempts >= config.budget:
                        report.budget_exhausted = True
                        break
                    ep = next(episodes)
                    verdicts, j2 = infer_and_reward(judge, ep.records)
                    j2s.append(j2)
                    agent.absorb_episode(ep.transitions, j2, config.reward_scale)
                    report.cumulative_valid += len(ep.records)
                    report.cumulative_attempts += ep.attempts
                    report.truncated_episodes += int(ep.truncated)
                    for rec in ep.records:
                        samples_f.write(datasets.record_line(rec) + "\n")
                    for v in verdicts:
                        verdicts_f.write(_verdict_line(v, iteration) + "\n")
                    batch.extend(sample_for_batch(ep.records, config.sampling_rate, sampling_rng))
                if report.budget_exhausted:
                    break

                losses = judge.finetune(batch, config.finetune_steps)
                val_metric = judge.validation_metric(val_set)
                mean_j2 = float(np.mean(j2s))
                report.validation_history.append(val_metric)
                report.mean_j2_per_iteration.append(mean_j2)
                report.finetune_losses.append(losses)
                report.iterations_completed = iteration
                metrics.writerow(
                    [
                        iteration,
                        report.cumulative_valid,
                        report.cumulative_attempts,
                        f"{val_metric:.6f}",
                        f"{mean_j2:.6f}",
                        len(batch),
                    ]
                )

                ck = run_dir / "checkpoints" / f"iter_{iteration:04d}"
                judge.save(ck / "judge")
                agent.save(ck / "agent")

                if early_stop(report.validation_history, policy):
                    report.early_stop_iteration = iteration
                    break
            report.test_digest, test_records = next(test_set)
            del val_set  # freed before the larger test set is encoded
            report.test_metric = judge.validation_metric(judge.encode(test_records))
    except _RUN_FAILURES as exc:
        report.failure = str(exc)
        if test_set is not None and report.test_digest is None:
            with contextlib.suppress(*_RUN_FAILURES):  # the child's own failure leaves it null
                report.test_digest = next(test_set)[0]
    finally:
        for child in (stream, test_set):
            if child is not None:
                child.kill()
    report.samples_digest = datasets.file_digest(run_dir / "samples.jsonl")
    with datasets.atomic_open(run_dir / "report.json", encoding="utf-8") as f:
        json.dump(report.to_dict(), f, sort_keys=True, indent=2)
    return report


# a string, a float, a bool and None as `json.dumps` writes them
_json_str = json.encoder.encode_basestring_ascii
_JSON_CONSTANTS = {True: "true", False: "false", None: "null"}


def _json_float(x: float) -> str:
    """Its repr, or NaN, Infinity or -Infinity."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _verdict_line(v: judges.JudgeVerdict, iteration: int) -> str:
    """The verdict's line in `verdicts.jsonl`: the bytes of `json.dumps` of its
    dict with sorted keys and compact separators, written in one pass."""
    terms, sims = v.predicted_terms, v.similarities
    predicted = "null" if terms is None else f"[{','.join(map(_json_str, sorted(terms)))}]"
    similarities = "null" if sims is None else f"[{','.join(map(_json_float, sims))}]"
    return (
        f'{{"flagged":{_JSON_CONSTANTS[v.flagged]},"iteration":{iteration},'
        f'"predicted_terms":{predicted},"ranked_correct":{_JSON_CONSTANTS[v.ranked_correct]},'
        f'"rubric":{"null" if v.rubric is None else v.rubric},'
        f'"sample_id":{v.sample_id},"similarities":{similarities}}}'
    )
