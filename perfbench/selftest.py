"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

It takes about a minute: one untraced and one traced repetition of every
workload at the default seed, one pretraining whose updates are stubbed out,
one loop repetition at a seed that aborts, and a few checks that start no
workload.
Prints one PASS or FAIL line per check and exits 1 if any check failed.
"""

import fnmatch
import json
import shutil
import subprocess
import sys
import time

import run  # pins BLAS threads before numpy is imported

sys.path.insert(0, str(run.ROOT / "src"))

import checks  # noqa: E402
import worker  # noqa: E402
from rls3 import agent  # noqa: E402

OUT = run.OUT_ROOT / "selftest"
# the second program seed of --seed 0; its random-agent loop hits an episode
# with no valid placement within t_max
ABORTING_SEED = run.SEED_STRIDE
failures = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        failures.append(what)


def metric_names_match_benchmark(layers: dict) -> None:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = [m["name"] for m in doc["per_layer"]]
    mapped = [name for layer in layers["layers"].values() for name in layer["metrics"]]
    expect(sorted(per_layer) == sorted(mapped), "every per-layer metric belongs to exactly one layer")
    e2e = [m["name"] for m in doc["end_to_end"]]
    sample = {"setup_s": 1, "wall_s": 1, "env_steps": 1, "valid_samples": 1, "peak_rss_mb": 1,
              "quality": 1, "reference_s": 1, "workload": "pretrain"}
    expect(sorted(e2e) == sorted(run.e2e_values(sample)), "end-to-end metrics match BENCHMARK.json")


def traced_runs_and_predictions(layers: dict) -> None:
    digests = {}
    for workload in worker.WORKLOADS:
        record = run.run_workload(workload, checks.DEFAULT_SEED, 0.0, trace=True)
        problems = [p for r in record["reps"] + record["traced_reps"] for p in r["problems"]]
        expect(not problems, f"{workload}: untraced and traced runs pass the output check {problems}")
        plain, traced = record["reps"][0], record["traced_reps"][0]
        expect(
            plain.get("output_digest") == traced.get("output_digest"),
            f"{workload}: traced run gives the untraced output digest",
        )
        digests[workload] = traced.get("output_digest")
        values = record["layers"]
        for rule in layers["predictions"]:
            names = [n for n in values for pat in rule["metrics"] if fnmatch.fnmatchcase(n, pat)]
            if workload in rule.get("zero_on", ()):
                bad = [n for n in names if values[n] != 0]
                expect(not bad, f"{workload}: zero as predicted {rule['metrics']} {bad}")
            if workload in rule.get("nonzero_on", ()):
                bad = [n for n in names if values[n] == 0]
                expect(not bad, f"{workload}: non-zero as predicted {rule['metrics']} {bad}")
    loops = {digests[w] for w in worker.LOOP_JUDGES}
    expect(
        loops == {checks.SAMPLES_DIGEST_DEFAULT_SEED},
        "the three loops write the pinned samples.jsonl at the default seed",
    )


def corrupted_samples_fail_the_run() -> None:
    rep_dir = OUT / "corrupt"
    res = run.run_rep("loop_generative", checks.DEFAULT_SEED, False, rep_dir)
    expect(not res["problems"], "clean loop_generative repetition passes the check")
    samples = rep_dir / "run" / "samples.jsonl"
    original = samples.read_text(encoding="utf-8")
    lines = original.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if " left " in json.loads(line)["caption"])
    doc = json.loads(lines[i])
    doc["caption"] = doc["caption"].replace(" left ", " right ", 1)
    flipped = lines[:i] + [json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"]
    corruptions = {
        "a flipped caption term": "".join(flipped + lines[i + 1 :]),
        "a missing last record": "".join(lines[:-1]),
        "a truncated line": original[: len(original) // 2],
    }
    for what, text in corruptions.items():
        samples.write_text(text, encoding="utf-8")
        found = checks.check_loop(
            rep_dir / "run", checks.DEFAULT_SEED, worker.LOOP_ITERATIONS, worker.LOOP_EPISODES, 20
        )
        attempted, failed = run.count_operations([{**res, "problems": found["problems"]}], [], False)
        expect(
            bool(found["problems"]) and failed == attempted > 0,
            f"samples.jsonl with {what} counts the run as failed",
        )


def pretrain_without_learning_fails() -> None:
    update = agent.SacAgent.update
    agent.SacAgent.update = lambda self, minibatch=None: agent.UpdateInfo(performed=False)
    try:
        res = worker.run("pretrain", checks.DEFAULT_SEED, False, time.monotonic(), OUT / "nolearn")
    finally:
        agent.SacAgent.update = update
    problems = " ".join(res["problems"])
    expect(
        "optimizer took 0 steps" in problems and "unchanged" in problems,
        "pretrain whose updates do nothing fails the check",
    )


def aborting_seed_is_counted() -> None:
    res = run.run_rep("loop_generative", ABORTING_SEED, False, OUT / "abort")
    expect(
        bool(res.get("aborted")) and not res["problems"] and res["attempted"] >= 1,
        f"loop seed {ABORTING_SEED} is reported as aborted: {res.get('aborted')}",
    )
    ok = {"attempted": 80, "problems": []}
    expect(
        run.count_operations([ok], [res], False) == (80 + res["attempted"], 0)
        and run.count_operations([ok], [res], True) == (80 + res["attempted"], res["attempted"]),
        "aborted episodes count as attempted, and as failed when aborts outnumber completions",
    )


def bare_directory_exits_nonzero() -> None:
    bare = OUT / "bare"
    shutil.copy2(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "pretrain", "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170)
    expect(
        proc.returncode != 0 and not proc.stdout.strip(),
        "without src/ the benchmark exits non-zero and prints no result",
    )


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    (OUT / "bare").mkdir(parents=True)
    layers = json.loads((run.BENCH_DIR / "layers.json").read_text(encoding="utf-8"))
    metric_names_match_benchmark(layers)
    bare_directory_exits_nonzero()
    pretrain_without_learning_fails()
    aborting_seed_is_counted()
    corrupted_samples_fail_the_run()
    traced_runs_and_predictions(layers)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
