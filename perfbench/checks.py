"""Output checks of one benchmark run. A run whose check fails counts all of its
operations as failed.

The fixed validation and test sets and the random-agent `samples.jsonl` depend
only on the environment, prompt and RNG streams, not on BLAS or float rounding,
so their digests are pinned. SAC and `report.json` digests depend on float
rounding and are recorded by the caller for information only; pretraining is
gated instead on its update count and on its networks having changed.
"""

from __future__ import annotations

import json
from pathlib import Path

from rls3 import datasets

DEFAULT_SEED = 0
# validation_count 500 @ seed 9500 on the train suite; test_count 1000 @ seed 9100 on the test suite
VALIDATION_DIGEST = "6f5dc3271b6b31648991b1eb9b8bb9d649ef6b6d770a71df1c12874d1c0c025f"
TEST_DIGEST = "e613af3bdd2fa6bf8477e54742921e220dafb65c904a9f53fa664e0abbebd281"
# samples.jsonl of the 10 iteration x 8 episode random-agent loop at the default
# seed; the same for every judge kind
SAMPLES_DIGEST_DEFAULT_SEED = "d9598eb1381b5aed8057d814651c57250807920db781edee80fb97c07c202d4b"


def check_loop(run_dir, seed: int, iterations: int, episodes: int, per_episode: int) -> dict:
    """Check a finished `run_loop` directory. Returns the problems found plus
    the counts the metrics need: distinct valid placements (unique
    (episode, objects) pairs) and records, since `RunReport.cumulative_valid`
    counts padded duplicates."""
    run_dir = Path(run_dir)
    problems = []
    report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    if report["failure"] is not None:
        problems.append(f"report.failure: {report['failure']}")
    if report["iterations_completed"] != iterations:
        problems.append(
            f"iterations_completed {report['iterations_completed']} != {iterations}"
        )
    if report["validation_digest"] != VALIDATION_DIGEST:
        problems.append("validation set digest differs from the pinned value")
    if report["test_digest"] != TEST_DIGEST:
        problems.append("test set digest differs from the pinned value")

    samples_path = run_dir / "samples.jsonl"
    digest = datasets.file_digest(samples_path)
    if digest != report["samples_digest"]:
        problems.append("samples.jsonl does not match report.samples_digest")
    if seed == DEFAULT_SEED and digest != SAMPLES_DIGEST_DEFAULT_SEED:
        problems.append("samples digest differs from the pinned default-seed value")
    records = []
    try:
        records = datasets.read_samples(samples_path)
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"samples.jsonl unreadable: {exc!r}")
    bad = datasets.replay_verify(records)
    if bad is not None:
        problems.append(f"replay_verify: record {bad[0]}: {bad[1]}")
    expected = iterations * episodes * per_episode
    if len(records) != expected:
        problems.append(f"{len(records)} sample records, expected {expected}")

    distinct = len({(r.episode, r.objects) for r in records})
    return {
        "problems": problems,
        "samples_digest": digest,
        "report_digest": datasets.file_digest(run_dir / "report.json"),
        "records": len(records),
        "distinct_valid": distinct,
        "env_steps": report["cumulative_attempts"],
        "test_metric": report["test_metric"],
    }


def expected_updates(steps: int, update_every: int, warmup: int, minibatch: int) -> int:
    """Updates `pretrain_intrinsic` performs: one per `update_every` steps once
    the replay buffer holds max(warmup, minibatch) transitions."""
    fill = max(warmup, minibatch)
    return sum(1 for t in range(1, steps + 1) if t % update_every == 0 and t >= fill)


def check_pretrain(
    stats: dict,
    steps: int,
    updates: int,
    optimizer_steps: dict[str, int],
    digests_before: dict[str, str],
    digests_after: dict[str, str],
) -> list[str]:
    """The run took the requested steps, and training happened: every network's
    optimizer stepped once per expected update and its parameters changed."""
    problems = []
    if stats.get("steps") != steps:
        problems.append(f"pretrain_intrinsic ran {stats.get('steps')} steps, expected {steps}")
    for name, count in optimizer_steps.items():
        if count != updates:
            problems.append(f"{name} optimizer took {count} steps, expected {updates} updates")
    for name, digest in digests_before.items():
        if digests_after[name] == digest:
            problems.append(f"{name} parameters unchanged by pretraining")
    return problems
