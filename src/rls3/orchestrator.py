"""End-to-end loop: episodes -> prompts -> judge inference -> reward ->
batch assembly -> fine-tuning -> validation -> early stopping.

A run owns one directory: config.json, samples.jsonl, verdicts.jsonl,
metrics.csv, checkpoints/, report.json, plus the fixed validation and test
sets it was evaluated against. Every source of randomness is derived from the
single config seed, so identical configs reproduce identical runs byte for
byte.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import datasets, judges, wire
from .agent import RandomAgent, SacAgent, Transition
from .datasets import SampleRecord
from .prompts import build_caption_set
from .scene import PlacementEnv, SceneSuite, builtin_suite, load_suite


class OrchestratorError(RuntimeError):
    pass


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class EarlyStopPolicy:
    min_iterations: int
    patience: int
    epsilon: float

    def __post_init__(self):
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")


GENERATIVE_EARLY_STOP = EarlyStopPolicy(min_iterations=15, patience=10, epsilon=0.02)
CONTRASTIVE_EARLY_STOP = EarlyStopPolicy(min_iterations=10, patience=5, epsilon=0.005)


@dataclass
class RunConfig:
    # loop shape
    iterations: int = 40
    episodes_per_iteration: int = 20
    samples_per_episode: int = 200
    sampling_rate: float = 0.5
    reward_scale: float = 10.0
    finetune_steps: int = 256
    judge: str = "generative"  # generative | contrastive | external:<addr>
    agent: str = "sac"  # sac | random
    deterministic_actions: bool = False
    seed: int = 0
    early_stop: EarlyStopPolicy | None = None  # default depends on judge kind
    budget: int | None = None  # generation-attempt cap (random-agent matching)
    # environment
    train_suite: str = "train"
    test_suite: str = "test"
    p_swap: float = 1.0
    dmax: float = 0.25
    snap_tol: float = 0.05
    # fixed sets
    validation_count: int = 500
    validation_seed: int = 9500
    test_count: int = 1000
    test_seed: int = 9100
    # agent
    agent_checkpoint: str | None = None
    agent_hidden: tuple[int, ...] = (128, 128)
    agent_lr: float = 3e-4
    gamma: float = 0.99
    polyak: float = 0.995
    alpha: float = 0.2
    warmup: int = 1000
    agent_minibatch: int = 256
    buffer_capacity: int = 100_000
    pretrain_steps: int = 100_000
    pretrain_update_every: int = 1
    # judge
    judge_hidden: tuple[int, ...] = (64, 64)
    judge_lr: float = 1e-3
    temperature: float = 0.07
    threshold: float = 0.5
    generative_minibatch: int = 64
    contrastive_minibatch: int = 256
    contrastive_pool: str = "both"  # both (3N) | term | object (2N)
    external_mode: str = "generative"

    def __post_init__(self):
        for name in (
            "iterations",
            "episodes_per_iteration",
            "samples_per_episode",
            "finetune_steps",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 < self.sampling_rate <= 1.0:
            raise ConfigError("sampling_rate must be in (0, 1]")
        if self.agent not in ("sac", "random"):
            raise ConfigError(f"unknown agent kind {self.agent!r}")
        if self.judge not in ("generative", "contrastive") and not self.judge.startswith(
            "external:"
        ):
            raise ConfigError(f"unknown judge kind {self.judge!r}")

    @property
    def judge_kind(self) -> str:
        if self.judge.startswith("external:"):
            return self.external_mode
        return self.judge

    def resolved_early_stop(self) -> EarlyStopPolicy:
        if self.early_stop is not None:
            return self.early_stop
        if self.judge_kind == "contrastive":
            return CONTRASTIVE_EARLY_STOP
        return GENERATIVE_EARLY_STOP

    def batch_size(self) -> int:
        return self.episodes_per_iteration * round(
            self.sampling_rate * self.samples_per_episode
        )

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["early_stop"] = (
            dataclasses.asdict(self.resolved_early_stop())
        )
        doc["agent_hidden"] = list(self.agent_hidden)
        doc["judge_hidden"] = list(self.judge_hidden)
        return doc

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def config_from_dict(doc: dict) -> RunConfig:
    kwargs = {}
    for key, value in doc.items():
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        if key == "early_stop" and value is not None:
            value = EarlyStopPolicy(**value)
        if key in ("agent_hidden", "judge_hidden"):
            value = tuple(int(v) for v in value)
        kwargs[key] = value
    return RunConfig(**kwargs)


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
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target[parts[-1]] = value
    return doc


def desk_config(**overrides) -> RunConfig:
    """Small configuration that exercises the whole loop in minutes on a CPU."""
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
    base.update(overrides)
    if base.get("judge") == "contrastive" and "finetune_steps" not in overrides:
        base["finetune_steps"] = 4
    return RunConfig(**base)


def full_scale_config(**overrides) -> RunConfig:
    base = dict(
        iterations=40,
        episodes_per_iteration=20,
        samples_per_episode=200,
        sampling_rate=0.5,
        reward_scale=10.0,
        finetune_steps=256,
        pretrain_steps=100_000,
    )
    base.update(overrides)
    if base.get("judge") == "contrastive" and "finetune_steps" not in overrides:
        base["finetune_steps"] = 10
    return RunConfig(**base)


# --- loop pieces ------------------------------------------------------------------


@dataclass
class EpisodeResult:
    records: list[SampleRecord]
    transitions: list[Transition]
    j1: float
    steps: int
    truncated: bool
    j2: float = 0.0


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
    """(verdicts, J2) for one episode batch, dispatching on judge kind."""
    if not records:
        raise OrchestratorError("cannot score an empty episode")
    if judge.kind == "contrastive":
        verdicts, loss = judge.infer(records)
        return verdicts, judge.batch_reward_from_loss(loss)
    verdicts = judge.infer(records)
    return verdicts, judge.batch_reward(verdicts)


def run_episode(
    env: PlacementEnv,
    agent,
    episode_idx: int,
    iteration: int,
    prompt_rng: np.random.Generator,
    sample_id_start: int,
    learn: bool = True,
    stochastic: bool = True,
) -> EpisodeResult:
    """Roll one episode to T0 valid samples (or the step cap), building caption
    sets for every snapshot. SAC updates happen every step from previously
    absorbed episodes; the fresh transitions stay out of the buffer until the
    terminal bonus is injected.
    """
    obs = env.reset_episode(episode_idx)
    sac = isinstance(agent, SacAgent)
    transitions: list[Transition] = []
    snapshots = []
    j1 = 0.0
    steps = 0
    while True:
        action = agent.select_action(obs, stochastic=stochastic)
        result = env.step(action)
        steps += 1
        j1 += result.reward
        transitions.append(
            Transition(obs, action, result.reward, result.observation, result.done)
        )
        if result.snapshot is not None:
            snapshots.append(result.snapshot)
        obs = result.observation
        if sac and learn:
            agent.update()
        if result.done:
            break
    truncated = len(snapshots) < env.t0
    if truncated:
        if not snapshots:
            raise OrchestratorError(
                f"episode {episode_idx} produced no valid samples within {env.t_max} steps"
            )
        i = 0
        while len(snapshots) < env.t0:  # pad from this episode's own snapshots
            snapshots.append(snapshots[i])
            i += 1
    records = []
    for k, snap in enumerate(snapshots[: env.t0]):
        captions = build_caption_set(snap, prompt_rng)
        records.append(
            datasets.record_from_snapshot(
                snap, captions, sample_id_start + k, episode=episode_idx, iteration=iteration
            )
        )
    return EpisodeResult(records, transitions, j1, steps, truncated)


def make_judge(config: RunConfig, catalog_names: tuple[str, ...], seed):
    if config.judge == "generative":
        return judges.GenerativeJudge(
            catalog_names,
            hidden=config.judge_hidden,
            seed=seed,
            lr=config.judge_lr,
            threshold=config.threshold,
            minibatch=config.generative_minibatch,
        )
    if config.judge == "contrastive":
        return judges.ContrastiveJudge(
            catalog_names,
            hidden=config.judge_hidden,
            temperature=config.temperature,
            seed=seed,
            lr=config.judge_lr,
            minibatch=config.contrastive_minibatch,
            pool_negatives=config.contrastive_pool,
        )
    addr = config.judge.split(":", 1)[1]
    client = wire.client_for_address(addr)
    return judges.ExternalJudge(client, mode=config.external_mode)


def make_agent(config: RunConfig, seed):
    if config.agent == "random":
        return RandomAgent(seed=seed)
    agent = SacAgent(
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
    if config.agent_checkpoint is None:
        raise ConfigError("agent=sac requires a pretrained agent_checkpoint")
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


# failures a run records in report.failure instead of raising
_RUN_FAILURES = (OrchestratorError, judges.JudgeError, wire.WireError)


def run_loop(config: RunConfig, run_dir) -> RunReport:
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "checkpoints").mkdir(exist_ok=True)

    resolved = config.to_dict()
    resolved["digest"] = config.digest()
    with open(run_dir / "config.json", "w", encoding="utf-8") as f:
        json.dump(resolved, f, sort_keys=True, indent=2)

    seq = np.random.SeedSequence(config.seed)
    env_seed, agent_seed, prompt_seed, judge_seed, sampling_seed = seq.spawn(5)
    prompt_rng = np.random.default_rng(prompt_seed)
    sampling_rng = np.random.default_rng(sampling_seed)

    train = resolve_suite(config.train_suite)
    test = resolve_suite(config.test_suite)
    env = PlacementEnv(
        train,
        config.samples_per_episode,
        seed=env_seed,
        dmax=config.dmax,
        snap_tol=config.snap_tol,
        p_swap=config.p_swap,
    )
    judge = make_judge(config, train.catalog_names, judge_seed)
    agent = make_agent(config, agent_seed)

    report = RunReport(config_digest=config.digest(), seed=config.seed)
    report.validation_digest = datasets.generate_fixed_set(
        train, config.validation_count, config.validation_seed, run_dir / "validation.jsonl"
    )
    report.test_digest = datasets.generate_fixed_set(
        test, config.test_count, config.test_seed, run_dir / "test.jsonl"
    )
    val_records = datasets.read_samples(run_dir / "validation.jsonl")
    test_records = datasets.read_samples(run_dir / "test.jsonl")
    policy = config.resolved_early_stop()

    samples_path = run_dir / "samples.jsonl"
    verdicts_path = run_dir / "verdicts.jsonl"
    metrics_path = run_dir / "metrics.csv"
    episode_counter = 0
    sample_counter = 0

    with open(samples_path, "w", encoding="utf-8", newline="\n") as samples_f, open(
        verdicts_path, "w", encoding="utf-8", newline="\n"
    ) as verdicts_f, open(metrics_path, "w", newline="") as metrics_f:
        metrics = csv.writer(metrics_f)
        metrics.writerow(
            [
                "iteration",
                "cumulative_valid",
                "cumulative_attempts",
                "val_metric",
                "test_metric",
                "mean_J2",
                "batch_size",
            ]
        )

        try:
            report.initial_val_metric = judge.validation_metric(val_records)
            metrics.writerow(
                [0, 0, 0, f"{report.initial_val_metric:.6f}", "", "", 0]
            )
            for iteration in range(1, config.iterations + 1):
                batch: list[SampleRecord] = []  # cleared every iteration
                j2s: list[float] = []
                for _ in range(config.episodes_per_iteration):
                    if (
                        config.budget is not None
                        and report.cumulative_attempts >= config.budget
                    ):
                        report.budget_exhausted = True
                        break
                    ep = run_episode(
                        env,
                        agent,
                        episode_counter,
                        iteration,
                        prompt_rng,
                        sample_counter,
                        stochastic=not config.deterministic_actions,
                    )
                    episode_counter += 1
                    sample_counter += len(ep.records)
                    verdicts, j2 = infer_and_reward(judge, ep.records)
                    ep.j2 = j2
                    j2s.append(j2)
                    if isinstance(agent, SacAgent):
                        bonused = SacAgent.inject_terminal_bonus(
                            ep.transitions, j2, config.reward_scale
                        )
                        agent.absorb_episode(bonused)
                    report.cumulative_valid += min(
                        config.samples_per_episode, len(ep.records)
                    )
                    report.cumulative_attempts += ep.steps
                    report.truncated_episodes += int(ep.truncated)
                    for rec in ep.records:
                        samples_f.write(datasets.record_line(rec) + "\n")
                    for v in verdicts:
                        verdicts_f.write(_verdict_line(v, iteration) + "\n")
                    batch.extend(
                        sample_for_batch(ep.records, config.sampling_rate, sampling_rng)
                    )
                if report.budget_exhausted:
                    break

                ft = judge.finetune(batch, config.finetune_steps)
                val_metric = judge.validation_metric(val_records)
                report.validation_history.append(val_metric)
                report.mean_j2_per_iteration.append(float(np.mean(j2s)))
                report.finetune_losses.append([float(x) for x in ft.losses])
                report.iterations_completed = iteration
                metrics.writerow(
                    [
                        iteration,
                        report.cumulative_valid,
                        report.cumulative_attempts,
                        f"{val_metric:.6f}",
                        "",
                        f"{float(np.mean(j2s)):.6f}",
                        len(batch),
                    ]
                )

                ck = run_dir / "checkpoints" / f"iter_{iteration:04d}"
                if hasattr(judge, "save"):
                    judge.save(ck / "judge")
                if isinstance(agent, SacAgent):
                    agent.save(ck / "agent")

                if early_stop(report.validation_history, policy):
                    report.early_stop_iteration = iteration
                    break
        except _RUN_FAILURES as exc:
            report.failure = str(exc)

    try:
        report.test_metric = judge.validation_metric(test_records)
    except _RUN_FAILURES as exc:
        report.failure = report.failure or str(exc)  # keep the first cause
    report.samples_digest = datasets.file_digest(samples_path)
    with open(run_dir / "report.json", "w", encoding="utf-8") as f:
        json.dump(report.to_dict(), f, sort_keys=True, indent=2)
    return report


def _verdict_line(v: judges.JudgeVerdict, iteration: int) -> str:
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
