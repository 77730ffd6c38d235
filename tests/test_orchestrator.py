import csv
import dataclasses
import gc
import json
import os
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

from rls3 import orchestrator, scene, wire
from rls3.agent import RandomAgent
from rls3.datasets import file_digest, read_samples, record_from_dict
from rls3.orchestrator import (
    ConfigError,
    EarlyStopPolicy,
    OrchestratorError,
    RunConfig,
    apply_overrides,
    config_from_dict,
    desk_config,
    early_stop,
    infer_and_reward,
    run_episode,
    run_loop,
    sample_for_batch,
)
from rls3.judges import ContrastiveJudge, GenerativeJudge, JudgeError
from rls3.scene import PlacementEnv, builtin_suite


def batch_size(cfg: RunConfig) -> int:
    """Fine-tune batch of a full iteration: round(rate * T0) from each episode."""
    return cfg.episodes_per_iteration * round(cfg.sampling_rate * cfg.samples_per_episode)


TINY = dict(
    iterations=2,
    episodes_per_iteration=2,
    samples_per_episode=6,
    agent="random",
    finetune_steps=4,
    validation_count=15,
    test_count=15,
)


# --- config ---------------------------------------------------------------------


def test_defaults_match_reference_scale():
    cfg = RunConfig()
    assert cfg.samples_per_episode == 200
    assert cfg.episodes_per_iteration == 20
    assert cfg.sampling_rate == 0.5
    assert cfg.reward_scale == 10.0
    assert cfg.finetune_steps == 256
    assert cfg.pretrain_steps == 100_000
    assert cfg.validation_count == 500 and cfg.test_count == 1000
    assert batch_size(cfg) == 20 * 100


def test_early_stop_policy_defaults():
    g = RunConfig(judge="generative").resolved_early_stop()
    assert (g.min_iterations, g.patience, g.epsilon) == (15, 10, 0.02)
    c = RunConfig(judge="contrastive").resolved_early_stop()
    assert (c.min_iterations, c.patience, c.epsilon) == (10, 5, 0.005)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"iterations": 3, "bogus": 1})
    with pytest.raises(ConfigError):
        apply_overrides({}, {"bogus.deep": "1"})


def test_config_checks_nested_values():
    with pytest.raises(ConfigError, match="agent_hidden"):
        config_from_dict({"agent_hidden": [1.5, 2.9]})
    with pytest.raises(ConfigError, match="judge_hidden"):
        config_from_dict({"judge_hidden": [64, 0]})
    with pytest.raises(ConfigError, match="early_stop.patience"):
        config_from_dict(
            {"early_stop": {"min_iterations": 1, "patience": 1.5, "epsilon": 0.1}}
        )
    with pytest.raises(ConfigError, match="early_stop.min_iterations"):
        config_from_dict({"early_stop": {"min_iterations": "x", "patience": 1, "epsilon": 0.1}})
    with pytest.raises(ConfigError, match="agent_hidden"):  # the first bad key is named
        config_from_dict(
            {
                "agent_hidden": [1.5, 2.9],
                "early_stop": {"min_iterations": 1, "patience": 1.5, "epsilon": 0.1},
            }
        )
    cfg = config_from_dict(
        {"agent_hidden": [3, 4], "early_stop": {"min_iterations": 1, "patience": 2, "epsilon": 1}}
    )
    assert cfg.agent_hidden == (3, 4)
    assert cfg.early_stop == EarlyStopPolicy(min_iterations=1, patience=2, epsilon=1)


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(iterations=0)
    with pytest.raises(ConfigError):
        RunConfig(sampling_rate=0.0)
    with pytest.raises(ConfigError):
        RunConfig(judge="psychic")
    with pytest.raises(ConfigError):
        RunConfig(agent="psychic")
    with pytest.raises(ConfigError):
        RunConfig(contrastive_minibatch=1)
    # round(0.1 * 4) == 0: every episode would add nothing to the fine-tuning batch
    with pytest.raises(ConfigError, match=r"sampling_rate \* samples_per_episode"):
        RunConfig(samples_per_episode=4, sampling_rate=0.1)


@pytest.mark.parametrize(
    "key, value",
    [
        ("validation_count", 0),
        ("test_count", -3),
        ("agent_lr", 0.0),
        ("agent_minibatch", 0),
        ("buffer_capacity", 0),
        ("pretrain_update_every", 0),
        ("judge_lr", 0.0),
        ("temperature", 0.0),
        ("temperature", float("nan")),
        ("generative_minibatch", 0),
        ("validation_seed", -1),
        ("test_seed", -1),
        ("alpha", -1.0),
        ("alpha", 0.0),
        ("alpha", float("inf")),
        ("alpha", float("nan")),
        ("gamma", 0.0),
        ("gamma", 1.5),
        ("polyak", -0.1),
        ("polyak", 2.0),
        ("p_swap", 2.0),
        ("p_swap", float("nan")),
        ("dmax", -1.0),
        ("dmax", 0.0),
        ("snap_tol", -1.0),
        ("snap_tol", float("nan")),
        ("warmup", -1),
        ("budget", 0),
        ("reward_scale", -1.0),
        ("reward_scale", float("nan")),
        ("dmax", float("inf")),
        pytest.param("dmax", 10**400, id="dmax-int-past-float-range"),
        ("snap_tol", float("inf")),
        ("agent_lr", float("inf")),
        ("judge_lr", float("inf")),
        ("temperature", float("inf")),
        ("threshold", 0.0),
        ("threshold", 1.0),
        ("threshold", 2.0),
        ("threshold", float("nan")),
        ("pretrain_steps", 0),
        # a value of the wrong type, rejected when the config is built in
        # Python as config_from_dict rejects it in a document
        pytest.param("judge_hidden", (0,), id="zero-width-hidden"),
        pytest.param("seed", True, id="bool-seed"),
        pytest.param("iterations", 2.5, id="float-iterations"),
        pytest.param("budget", 2.5, id="float-budget"),
        pytest.param("early_stop", {"patience": 1}, id="early-stop-dict"),
        pytest.param("iterations", "3", id="string-iterations"),
    ],
)
def test_config_rejects_bad_sizes_rates_and_seeds(key, value):
    with pytest.raises(ConfigError, match=key):
        RunConfig(**{key: value})


@pytest.mark.parametrize(
    "key, value",
    [("min_iterations", -3), ("epsilon", -0.1), ("epsilon", float("nan")),
     pytest.param("epsilon", 10**400, id="epsilon-int-past-float-range")],
)
def test_early_stop_policy_rejects_out_of_range_values(key, value):
    fields = {"min_iterations": 1, "patience": 1, "epsilon": 0.1, key: value}
    with pytest.raises(ConfigError, match=key):
        EarlyStopPolicy(**fields)


@pytest.mark.parametrize("cls", [RunConfig, EarlyStopPolicy])
def test_every_numeric_config_field_declares_a_range(cls):
    numeric = [f for f in dataclasses.fields(cls) if f.type.split(" | ")[0] in ("int", "float")]
    assert numeric
    assert [f.name for f in numeric if "range" not in f.metadata] == []


def test_config_accepts_range_edges():
    RunConfig(gamma=1.0, polyak=0.0, p_swap=0.0, snap_tol=0.0, warmup=0, reward_scale=0.0)
    RunConfig(polyak=1.0, p_swap=1.0, budget=1)
    EarlyStopPolicy(min_iterations=0, patience=1, epsilon=0.0)


def test_config_digest_pure():
    doc = {"iterations": 5, "seed": 3}
    a = config_from_dict(apply_overrides(doc, {"reward_scale": "5.0"}))
    b = config_from_dict(apply_overrides(doc, {"reward_scale": "5.0"}))
    assert a.digest() == b.digest()
    c = config_from_dict(apply_overrides(doc, {"reward_scale": "6.0"}))
    assert a.digest() != c.digest()


def test_overrides_parse_json_values():
    doc = apply_overrides({}, {"agent_hidden": "[16, 16]", "agent": "random"})
    cfg = config_from_dict(doc)
    assert cfg.agent_hidden == (16, 16) and cfg.agent == "random"


def test_config_round_trip():
    cfg = desk_config(agent="random", seed=9)
    again = config_from_dict(cfg.to_dict())
    assert again == cfg or again.digest() == cfg.digest()


# --- early stopping ----------------------------------------------------------------


def test_early_stop_hand_computed():
    policy = EarlyStopPolicy(min_iterations=3, patience=2, epsilon=0.1)
    assert not early_stop([1.0], policy)  # below min
    assert not early_stop([1.0, 1.0], policy)
    assert early_stop([1.0, 1.0, 1.0], policy)  # flat: no improvement
    assert not early_stop([1.0, 1.0, 1.2], policy)  # last entry improves by 0.2
    assert not early_stop([1.0, 1.2, 1.0], policy)  # improvement inside window
    assert early_stop([1.0, 1.2, 1.21, 1.25], policy)  # sub-epsilon gains only
    assert early_stop([2.0, 1.5, 1.4, 1.3], policy)  # decline
    assert not early_stop([1.0, 1.1, 1.0, 1.5], policy)
    with pytest.raises(ValueError):
        early_stop([], policy)


def test_early_stop_patience_window():
    policy = EarlyStopPolicy(min_iterations=1, patience=3, epsilon=0.0)
    # improvement 3 steps back still counts
    assert not early_stop([1.0, 2.0, 1.9, 1.8], policy)
    # but not 4 steps back
    assert early_stop([1.0, 2.0, 1.9, 1.8, 1.7], policy)


# --- batch sampling ------------------------------------------------------------------


def test_sample_for_batch_size_and_uniqueness(train_records=None):
    recs = list(range(20))
    rng = np.random.default_rng(0)
    out = sample_for_batch(recs, 0.5, rng)
    assert len(out) == 10 and len(set(out)) == 10
    assert sample_for_batch(recs, 1.0, rng) == recs
    with pytest.raises(ValueError):
        sample_for_batch(recs, 0.0, rng)


# --- episode rollout ------------------------------------------------------------------


def test_run_episode_yields_exactly_t0_records():
    env = PlacementEnv(builtin_suite("train"), 6, seed=0)
    agent = RandomAgent(seed=0)
    rng = np.random.default_rng(1)
    ep = run_episode(env, agent, 0, 1, rng, sample_id_start=100)
    assert len(ep.records) == 6
    assert [r.id for r in ep.records] == list(range(100, 106))
    assert all(r.episode == 0 and r.iteration == 1 for r in ep.records)
    assert len(ep.transitions) >= 6


def test_run_episode_truncation_pads():
    # a random agent places about one step in ten, short of the 20 valid in
    # 4 * 20 steps that T0 = 20 needs, so the cap pads from the episode's own
    # snapshots
    env = PlacementEnv(builtin_suite("train"), 20, seed=3)
    agent = RandomAgent(seed=3)
    ep = run_episode(env, agent, 0, 1, np.random.default_rng(2), 0)
    assert ep.truncated and len(ep.transitions) == env.t_max == 80
    assert len(ep.records) == 20


def test_a_random_agent_loop_keeps_no_transitions():
    def first_episode(episodes):
        env = PlacementEnv(builtin_suite("train"), 6, seed=0)
        return episodes(env, RandomAgent(seed=0), np.random.default_rng(1))

    kept = first_episode(lambda env, agent, rng: run_episode(env, agent, 0, 1, rng, 0))
    loop = first_episode(lambda *args: next(orchestrator._episodes(*args, 4, True)))
    assert loop.transitions == [] and len(kept.transitions) == kept.attempts == loop.attempts
    assert [r.line for r in loop.records] == [r.line for r in kept.records]


def test_infer_and_reward_dispatch():
    train = builtin_suite("train")
    env = PlacementEnv(train, 5, seed=1)
    ep = run_episode(env, RandomAgent(seed=1), 0, 1, np.random.default_rng(3), 0)

    gen = GenerativeJudge(train.catalog_names, seed=0)
    verdicts, j2 = infer_and_reward(gen, ep.records)
    mean = np.mean([v.rubric for v in verdicts])
    assert j2 == pytest.approx((6.0 - mean) ** 2)

    con = ContrastiveJudge(train.catalog_names, seed=0)
    verdicts, j2 = infer_and_reward(con, ep.records)
    _, loss = con.infer(ep.records)
    assert j2 == pytest.approx(loss**2)

    with pytest.raises(OrchestratorError):
        infer_and_reward(gen, [])


# --- full loop --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("tiny") / "run"
    cfg = desk_config(**TINY)
    report = run_loop(cfg, run_dir)
    return cfg, run_dir, report


def test_loop_completes(tiny_run):
    _, _, report = tiny_run
    assert report.failure is None
    assert report.iterations_completed == 2
    assert len(report.validation_history) == 2
    assert len(report.mean_j2_per_iteration) == 2
    assert report.test_metric is not None


def test_loop_run_dir_layout(tiny_run):
    _, run_dir, _ = tiny_run
    for name in (
        "config.json",
        "samples.jsonl",
        "metrics.csv",
        "verdicts.jsonl",
        "report.json",
        "validation.jsonl",
        "test.jsonl",
    ):
        assert (run_dir / name).exists(), name
    assert (run_dir / "checkpoints" / "iter_0001").is_dir()
    assert (run_dir / "checkpoints" / "iter_0002").is_dir()


def test_loop_sample_and_verdict_counts(tiny_run):
    cfg, run_dir, report = tiny_run
    samples = read_samples(run_dir / "samples.jsonl")
    expected = cfg.iterations * cfg.episodes_per_iteration * cfg.samples_per_episode
    assert len(samples) == expected
    assert report.cumulative_valid <= report.cumulative_attempts
    with open(run_dir / "verdicts.jsonl") as f:
        verdict_lines = [json.loads(line) for line in f]
    assert len(verdict_lines) == expected
    assert {v["iteration"] for v in verdict_lines} == {1, 2}


def test_loop_metrics_rows(tiny_run):
    cfg, run_dir, report = tiny_run
    with open(run_dir / "metrics.csv") as f:
        reader = csv.DictReader(f)
        rows = list(reader)
    assert reader.fieldnames == [
        "iteration",
        "cumulative_valid",
        "cumulative_attempts",
        "val_metric",
        "mean_J2",
        "batch_size",
    ]
    assert len(rows) == 3  # iteration 0 baseline + two iterations
    assert rows[0]["iteration"] == "0"
    assert float(rows[0]["val_metric"]) == pytest.approx(report.initial_val_metric)
    for row, val, j2 in zip(rows[1:], report.validation_history, report.mean_j2_per_iteration):
        assert float(row["val_metric"]) == pytest.approx(val, abs=1e-6)
        assert float(row["mean_J2"]) == pytest.approx(j2, abs=1e-6)
        assert int(row["batch_size"]) == batch_size(cfg)
        assert int(row["cumulative_valid"]) <= int(row["cumulative_attempts"])


def test_loop_batch_size_formula(tiny_run):
    cfg, run_dir, _ = tiny_run
    with open(run_dir / "metrics.csv", newline="") as f:
        sizes = [int(row["batch_size"]) for row in csv.DictReader(f)][1:]
    assert sizes == [2 * round(0.5 * 6)] * 2 == [batch_size(cfg)] * 2


def test_loop_report_has_no_timestamps(tiny_run):
    _, run_dir, _ = tiny_run
    doc = json.loads((run_dir / "report.json").read_text())
    assert "config_digest" in doc and "samples_digest" in doc
    blob = json.dumps(doc).lower()
    for word in ("time", "date", "clock"):
        assert word not in blob


def test_loop_samples_replay_clean(tiny_run):
    _, run_dir, _ = tiny_run
    from rls3.datasets import replay_verify

    assert replay_verify(read_samples(run_dir / "samples.jsonl")) is None


def test_loop_deterministic(tmp_path):
    cfg = desk_config(**TINY)
    r1 = run_loop(cfg, tmp_path / "a")
    r2 = run_loop(cfg, tmp_path / "b")
    assert (tmp_path / "a" / "report.json").read_bytes() == (
        tmp_path / "b" / "report.json"
    ).read_bytes()
    assert (tmp_path / "a" / "samples.jsonl").read_bytes() == (
        tmp_path / "b" / "samples.jsonl"
    ).read_bytes()
    assert r1.samples_digest == r2.samples_digest


def test_loop_budget_exhaustion(tmp_path):
    cfg = desk_config(**{**TINY, "budget": 10})
    report = run_loop(cfg, tmp_path / "run")
    assert report.budget_exhausted
    assert report.cumulative_attempts >= 10
    assert report.iterations_completed == 0


def test_loop_early_stop_triggers(tmp_path):
    # flat metric with a generous epsilon stops right at min_iterations
    cfg = desk_config(
        **{
            **TINY,
            "iterations": 8,
            "early_stop": EarlyStopPolicy(min_iterations=3, patience=2, epsilon=10.0),
        }
    )
    report = run_loop(cfg, tmp_path / "run")
    assert report.early_stop_iteration == 3
    assert report.iterations_completed == 3


def test_loop_contrastive_judge(tmp_path):
    cfg = desk_config(**{**TINY, "judge": "contrastive", "finetune_steps": 1})
    report = run_loop(cfg, tmp_path / "run")
    assert report.failure is None
    assert all(j2 >= 0 for j2 in report.mean_j2_per_iteration)
    assert 0.0 <= report.test_metric <= 1.0


@pytest.mark.parametrize("behavior, accuracy", [("all_correct", 1.0), ("echo", 0.0)])
def test_loop_external_contrastive_judge(tmp_path, behavior, accuracy):
    stub = f"{shlex.quote(sys.executable)} -m rls3.external_stub --behavior {behavior} --loss 0.8"
    cfg = desk_config(**TINY, judge=f"external:{stub}", external_mode="contrastive")
    run_dir = tmp_path / "run"
    report = run_loop(cfg, run_dir)
    assert report.failure is None
    # the validation metric is retrieval accuracy over the stub's rankings
    assert [report.initial_val_metric, *report.validation_history] == [accuracy] * 3
    assert report.test_metric == accuracy
    assert report.mean_j2_per_iteration == [pytest.approx(0.8**2)] * 2
    sent = [1.0, 0.0, 0.0] if behavior == "all_correct" else [0.0, 0.0, 0.0]
    verdicts = [json.loads(line) for line in (run_dir / "verdicts.jsonl").open()]
    assert len(verdicts) == 2 * 2 * 6
    for v in verdicts:
        assert v["similarities"] == sent
        assert v["ranked_correct"] is (accuracy == 1.0)
        assert v["rubric"] is None and not v["flagged"]


# An external judge that answers every request with an `error` reply.
ERROR_JUDGE = (
    "import sys, json\n"
    "for line in sys.stdin:\n"
    "    req = json.loads(line)\n"
    "    print(json.dumps({'id': req['id'], 'error': 'no model loaded'}), flush=True)\n"
)


@pytest.mark.parametrize(
    "command, failure",
    [
        ("-m rls3.external_stub", None),
        (f"-c {shlex.quote(ERROR_JUDGE)}", "external judge failed to infer: no model loaded"),
    ],
    ids=["stub", "error-reply"],
)
def test_run_loop_closes_external_judge(tmp_path, monkeypatch, command, failure):
    procs, clients = [], []
    client_for_address = wire.client_for_address

    def keep_client(addr, *args, **kwargs):
        client = client_for_address(addr, *args, **kwargs)
        clients.append(client)
        procs.append(client._proc)
        return client

    monkeypatch.setattr(wire, "client_for_address", keep_client)
    cfg = desk_config(
        **{**TINY, "iterations": 1, "episodes_per_iteration": 1},
        judge=f"external:{shlex.quote(sys.executable)} {command}",
    )
    try:
        report = run_loop(cfg, tmp_path / "run")
        assert report.failure == failure
        assert len(procs) == 1 and procs[0].poll() is not None  # the child has exited
        assert procs[0].stdin.closed and procs[0].stdout.closed
    finally:
        for client in clients:
            client.close()


class _JudgeDeadAfterFinetune(GenerativeJudge):
    """Raises in its first finetune and counts every call that follows."""

    failed = False
    calls_after_failure = 0

    def _count(self):
        self.calls_after_failure += self.failed

    def infer(self, samples):
        self._count()
        return super().infer(samples)

    def validation_metric(self, encoded):
        self._count()
        return super().validation_metric(encoded)

    def save(self, directory):
        self._count()
        super().save(directory)

    def finetune(self, samples, steps):
        self._count()
        self.failed = True
        raise JudgeError("judge died in finetune")


def test_local_judge_is_asked_nothing_after_it_fails(tmp_path, monkeypatch):
    judge = _JudgeDeadAfterFinetune(builtin_suite("train").catalog_names)
    monkeypatch.setattr(orchestrator, "make_judge", lambda config, names, seed: judge)
    run_dir = tmp_path / "run"
    report = run_loop(desk_config(**TINY), run_dir)
    assert report.failure == "judge died in finetune"
    assert judge.failed and judge.calls_after_failure == 0
    assert report.test_metric is None and report.iterations_completed == 0
    assert json.loads((run_dir / "report.json").read_text()) == report.to_dict()


class _ClientTimingOutOnSecondRequest:
    """Answers the first request with all-correct terms, times out on the
    second, and records every request it is sent."""

    def __init__(self):
        self.requests = []
        self.closed = False

    def request(self, payload):
        self.requests.append(payload)
        if len(self.requests) == 2:
            raise wire.WireTimeout("timed out reading reply")
        records = [record_from_dict(json.loads(line)) for line in payload["samples"]]
        return {"id": len(self.requests), "terms": [sorted(r.terms) for r in records]}

    def close(self):
        self.closed = True


def test_external_judge_gets_no_request_after_a_timeout(tmp_path, monkeypatch):
    client = _ClientTimingOutOnSecondRequest()
    monkeypatch.setattr(wire, "client_for_address", lambda addr: client)
    run_dir = tmp_path / "run"
    report = run_loop(desk_config(**TINY, judge="external:judge:1"), run_dir)
    assert report.failure == "timed out reading reply"
    # the initial validation pass, then the first episode's infer that timed out
    assert [req["op"] for req in client.requests] == ["infer", "infer"]
    assert len(client.requests[0]["samples"]) == TINY["validation_count"]
    assert len(client.requests[1]["samples"]) == TINY["samples_per_episode"]
    assert client.closed
    assert report.test_metric is None and report.initial_val_metric == 5.0
    assert json.loads((run_dir / "report.json").read_text()) == report.to_dict()


# --- the forked children ---------------------------------------------------------------


@pytest.fixture
def forked_pids(monkeypatch):
    """The pids of the children `os.fork` starts in this process."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _run_loop_reaping(config, run_dir, forked_pids, children: int):
    """run_loop's report, once it is checked that the run forked `children`
    children, reaped each one and left no ResourceWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        try:
            return run_loop(config, run_dir)
        finally:
            gc.collect()
            assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
            assert len(forked_pids) == children
            for pid in forked_pids:
                with pytest.raises(ChildProcessError):  # reaped already
                    os.waitpid(pid, os.WNOHANG)


def _fail_placement_on_scene_5(monkeypatch):
    place = scene.sample_positions

    def place_nothing_on_scene_5(suite, spec, names, rng, *args):
        if spec.scene_id == 5:  # the test suite's first scene
            raise scene.PlacementError("no placement found on scene 5")
        return place(suite, spec, names, rng, *args)

    monkeypatch.setattr(scene, "sample_positions", place_nothing_on_scene_5)


@pytest.mark.parametrize(
    "case, failure",
    [
        ("success", None),
        ("judge-failure", "judge died in finetune"),
        ("test-set-failure", "no placement found on scene 5"),
        ("episode-failure", "episode 3 failed"),
    ],
)
def test_run_loop_reaps_its_test_set_child(tmp_path, monkeypatch, forked_pids, case, failure):
    if case == "judge-failure":
        judge = _JudgeDeadAfterFinetune(builtin_suite("train").catalog_names)
        monkeypatch.setattr(orchestrator, "make_judge", lambda config, names, seed: judge)
    elif case == "test-set-failure":
        _fail_placement_on_scene_5(monkeypatch)
    elif case == "episode-failure":  # the last episode, raised in the episode child
        run = orchestrator.run_episode

        def fail_episode_3(env, agent, episode_idx, *args):
            if episode_idx == 3:
                raise OrchestratorError("episode 3 failed")
            return run(env, agent, episode_idx, *args)

        monkeypatch.setattr(orchestrator, "run_episode", fail_episode_3)
    run_dir = tmp_path / "run"
    # a random agent's run forks the episode child and the test-set child
    report = _run_loop_reaping(desk_config(**TINY), run_dir, forked_pids, children=2)
    assert report.failure == failure
    # a failed run still collects the digest of a test set that was built
    assert (report.test_digest is None) == (case == "test-set-failure")
    with open(run_dir / "metrics.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows.count(list(orchestrator._METRICS_COLUMNS)) == 1  # no child flushed a copy
    lines = (run_dir / "samples.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == report.cumulative_valid  # every episode before a failure, whole


def test_run_loop_kills_its_test_set_child_on_interrupt(tmp_path, monkeypatch, forked_pids):
    def interrupt(config, names, seed):
        raise KeyboardInterrupt

    monkeypatch.setattr(orchestrator, "make_judge", interrupt)
    config = desk_config(**{**TINY, "test_count": 10_000})  # the child takes about a second
    with pytest.raises(KeyboardInterrupt):
        _run_loop_reaping(config, tmp_path / "run", forked_pids, children=2)


def test_a_sac_run_forks_only_the_test_set_child(tmp_path, forked_pids):
    ck = str(tmp_path / "ck")
    # seed 1: the untrained agent finds a valid placement in every episode
    config = desk_config(
        **{**TINY, "agent": "sac", "agent_hidden": (8, 8), "agent_checkpoint": ck, "seed": 1}
    )
    orchestrator.make_sac_agent(config, 0).save(ck)
    report = _run_loop_reaping(config, tmp_path / "run", forked_pids, children=1)
    assert report.failure is None and report.iterations_completed == TINY["iterations"]


def test_a_run_ending_mid_iteration_on_budget_reaps_the_episode_child(tmp_path, forked_pids):
    # every episode takes at least 6 attempts, so the budget ends the first
    # iteration within its 5 episodes, while the child has more of them ready
    config = desk_config(**{**TINY, "episodes_per_iteration": 5, "budget": 12})
    run_dir = tmp_path / "run"
    report = _run_loop_reaping(config, run_dir, forked_pids, children=2)
    assert report.budget_exhausted and report.iterations_completed == 0
    assert report.failure is None
    lines = (run_dir / "samples.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == report.cumulative_valid > 0


def test_importing_the_orchestrator_loads_no_process_pool():
    # their imports cost set-up time and memory on every run
    code = (
        "import sys, rls3.orchestrator\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('multiprocessing', 'concurrent')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


# --- golden digests ---------------------------------------------------------------
# The fixed sets and the random-agent samples depend only on the environment,
# prompt and RNG streams, not on BLAS or float rounding, so their digests are
# pinned: a change that moves them changes what the loop generates.

GOLDEN_VALIDATION_DIGEST = "6f5dc3271b6b31648991b1eb9b8bb9d649ef6b6d770a71df1c12874d1c0c025f"
GOLDEN_TEST_DIGEST = "e613af3bdd2fa6bf8477e54742921e220dafb65c904a9f53fa664e0abbebd281"
GOLDEN_SAMPLES_DIGEST = "d9598eb1381b5aed8057d814651c57250807920db781edee80fb97c07c202d4b"


# The judge's outputs, verdicts.jsonl and metrics.csv, carry its floats: they
# are pinned for one numpy build (2.4.6 with OpenBLAS, equal under 1 and 2 BLAS
# threads), so a change to how verdicts are scored or written shows here.
GOLDEN_JUDGE_OUTPUT_DIGESTS = {
    "generative": (
        "fcee4e7b5b46f3d5e110e37928abfdb82363d4e8d23ed9d62285e0277262d16d",
        "2b62a77e42238fa14e66cadd2eef49b7f81252c3031567e8d097dc2f935266f1",
    ),
    "contrastive": (
        "49c05fcb3bbb0547c11bf9c81cb01a67bc05b31f35d8deea08ca52cfc5491311",
        "65bbcd0cfd245ae1965af8458794bf88c8d8accf9dad4ded518c6aa05ac237dd",
    ),
}


def test_golden_digests(tmp_path):
    for judge, outputs in GOLDEN_JUDGE_OUTPUT_DIGESTS.items():
        cfg = desk_config(
            iterations=10, episodes_per_iteration=8, agent="random", judge=judge, seed=0
        )
        run_dir = tmp_path / judge
        report = run_loop(cfg, run_dir)
        assert report.failure is None
        assert report.validation_digest == GOLDEN_VALIDATION_DIGEST
        assert report.test_digest == GOLDEN_TEST_DIGEST
        assert report.samples_digest == GOLDEN_SAMPLES_DIGEST
        got = tuple(file_digest(run_dir / name) for name in ("verdicts.jsonl", "metrics.csv"))
        assert got == outputs, judge


# An external judge's verdict lines over the reference stub. Those of
# contrastive mode carry the similarity triples parsed from its replies, which
# the local judges' pins above do not cover.
GOLDEN_EXTERNAL_VERDICTS_DIGESTS = {
    "generative": "a079348f3cd587c68adc5a8e453f3d91ee137d9b185b4e1f03b94f2271a778c5",
    "contrastive": "f0f3037f00d42d54bc381accbcf144e5fc5180499bea313d499103035077e8ea",
}


@pytest.mark.parametrize("mode", sorted(GOLDEN_EXTERNAL_VERDICTS_DIGESTS))
def test_golden_external_verdicts_digests(tmp_path, mode):
    stub = f"{shlex.quote(sys.executable)} -m rls3.external_stub --behavior all_correct"
    cfg = desk_config(**TINY, judge=f"external:{stub}", external_mode=mode, seed=0)
    run_dir = tmp_path / "run"
    report = run_loop(cfg, run_dir)
    assert report.failure is None
    assert file_digest(run_dir / "verdicts.jsonl") == GOLDEN_EXTERNAL_VERDICTS_DIGESTS[mode]
