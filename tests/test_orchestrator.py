import csv
import json

import numpy as np
import pytest

from rls3.agent import RandomAgent
from rls3.datasets import read_samples
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
    full_scale_config,
    run_episode,
    run_loop,
    sample_for_batch,
)
from rls3.judges import ContrastiveJudge, GenerativeJudge
from rls3.scene import PlacementEnv, builtin_suite


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
    cfg = full_scale_config()
    assert cfg.samples_per_episode == 200
    assert cfg.episodes_per_iteration == 20
    assert cfg.sampling_rate == 0.5
    assert cfg.reward_scale == 10.0
    assert cfg.finetune_steps == 256
    assert cfg.pretrain_steps == 100_000
    assert cfg.validation_count == 500 and cfg.test_count == 1000
    assert cfg.batch_size() == 20 * 100
    assert full_scale_config(judge="contrastive").finetune_steps == 10


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


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(iterations=0)
    with pytest.raises(ConfigError):
        RunConfig(sampling_rate=0.0)
    with pytest.raises(ConfigError):
        RunConfig(judge="psychic")
    with pytest.raises(ConfigError):
        RunConfig(agent="psychic")


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
    assert ep.steps >= 6


def test_run_episode_truncation_pads():
    # step cap below t0 forces padding from the episode's own snapshots
    env = PlacementEnv(builtin_suite("train"), 8, seed=3, max_steps=10)
    agent = RandomAgent(seed=3)
    ep = run_episode(env, agent, 0, 1, np.random.default_rng(2), 0)
    assert ep.truncated
    assert len(ep.records) == 8


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
        rows = list(csv.DictReader(f))
    assert len(rows) == 3  # iteration 0 baseline + two iterations
    assert rows[0]["iteration"] == "0"
    assert float(rows[0]["val_metric"]) == pytest.approx(report.initial_val_metric)
    for row, val, j2 in zip(rows[1:], report.validation_history, report.mean_j2_per_iteration):
        assert float(row["val_metric"]) == pytest.approx(val, abs=1e-6)
        assert float(row["mean_J2"]) == pytest.approx(j2, abs=1e-6)
        assert int(row["batch_size"]) == cfg.batch_size()
        assert int(row["cumulative_valid"]) <= int(row["cumulative_attempts"])


def test_loop_batch_size_formula(tiny_run):
    cfg, _, _ = tiny_run
    assert cfg.batch_size() == cfg.episodes_per_iteration * round(
        cfg.sampling_rate * cfg.samples_per_episode
    )


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


# --- golden digests ---------------------------------------------------------------
# The fixed sets and the random-agent samples depend only on the environment,
# prompt and RNG streams, not on BLAS or float rounding, so their digests are
# pinned: a change that moves them changes what the loop generates.

GOLDEN_VALIDATION_DIGEST = "6f5dc3271b6b31648991b1eb9b8bb9d649ef6b6d770a71df1c12874d1c0c025f"
GOLDEN_TEST_DIGEST = "e613af3bdd2fa6bf8477e54742921e220dafb65c904a9f53fa664e0abbebd281"
GOLDEN_SAMPLES_DIGEST = "d9598eb1381b5aed8057d814651c57250807920db781edee80fb97c07c202d4b"


def test_golden_digests(tmp_path):
    cfg = desk_config(
        iterations=10, episodes_per_iteration=8, agent="random", judge="generative", seed=0
    )
    report = run_loop(cfg, tmp_path / "run")
    assert report.failure is None
    assert report.validation_digest == GOLDEN_VALIDATION_DIGEST
    assert report.test_digest == GOLDEN_TEST_DIGEST
    assert report.samples_digest == GOLDEN_SAMPLES_DIGEST
