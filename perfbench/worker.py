"""One timed repetition of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE SPAWN_T OUT_DIR

`perfbench/run.py` starts this with BLAS pinned to one thread in the process
environment and PYTHONPATH pointing at the checkout's `src/`. SPAWN_T is the
parent's `time.monotonic()` just before the spawn; CLOCK_MONOTONIC is
system-wide on Linux, so set-up time runs from before interpreter start to
the first timed call, less the reference timing done in between. The result
is printed as one JSON line.
"""

from __future__ import annotations

import json
import os
import platform
import re
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

import numpy as np  # noqa: E402  (the parent pins BLAS threads before this import)

from rls3 import agent, orchestrator, scene, wire  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402

# Pretraining with the `rls3 pretrain` agent defaults: minibatch 256, an update
# every step, warmup 1000, hidden 128x128. The 300 steps past warmup run 301
# SacAgent.update calls, about 97% of the wall time; the 1000 warmup steps take
# about 0.1 s. The run is kept this short so that a 30 s run holds several
# repetitions, whose median the quality guard needs. The environment has the
# desk shape of the loops and of the tier-1 pretraining fixture (20 samples per
# episode, so episodes end within 80 steps).
PRETRAIN_STEPS = 1300
# The quality guard of pretrain: the valid rate of the trained actor's
# deterministic policy over fresh steps of an evaluation env. At the seeds
# measured it read 0.57-0.81 after the 301 updates, against 0.03-0.68 for the
# same actors untrained, so a run whose updates stop learning shows here.
PRETRAIN_EVAL_STEPS = 2000

# The three loops share one shape: the random agent, so no SAC update hides the
# judge, prompt and dataset work, and `desk_config` otherwise (20 samples per
# episode, sampling rate 0.5, 64 generative finetune steps or 4 contrastive
# epochs, validation cadence 16). Ten iterations stay within both judges'
# early-stop min_iterations (15 generative, 10 contrastive), so every run does
# the same work.
LOOP_ITERATIONS = 10
LOOP_EPISODES = 8
LOOP_JUDGES = {
    "loop_generative": "generative",
    "loop_contrastive": "contrastive",
    # the stub runs from the same PYTHONPATH, i.e. the checkout under test
    "loop_external": f"external:{sys.executable} -m rls3.external_stub",
}
WORKLOADS = ("pretrain", *LOOP_JUDGES)
# run_loop aborts when a random-agent episode finds no valid placement within
# t_max steps (report.failure), and raises scene.EpisodeAborted when a scene
# change finds no placement; about one seed in seven at 10x8 hits one of them.
# Such a repetition is reported as aborted, not as a result; run.py accounts
# for it and takes the next seed.
NO_VALID_PLACEMENT = re.compile(r"episode \d+ produced no valid samples within \d+ steps")
# operations of one repetition: env steps on pretrain, episodes on the loops
OPERATIONS = {"pretrain": PRETRAIN_STEPS} | {w: LOOP_ITERATIONS * LOOP_EPISODES for w in LOOP_JUDGES}


def loop_config(workload: str, seed: int) -> orchestrator.RunConfig:
    return orchestrator.desk_config(
        iterations=LOOP_ITERATIONS,
        episodes_per_iteration=LOOP_EPISODES,
        judge=LOOP_JUDGES[workload],
        agent="random",
        seed=seed,
    )


# The machine's speed drifts: on the 2-core VM where the benchmark was written,
# the same run_loop took 1.4 s in one minute and 2.3 s a few minutes later, and
# 30 s runs shift together. Each repetition therefore times a fixed reference
# kernel just before and just after its timed call, and run.py scales its
# times by nominal / reference_s: seconds at the speed at which the kernel
# takes its nominal time. Each workload has a kernel that does the kind of
# work its time goes to, because the drift moves kinds of work differently:
# - the loops: small-vector numpy calls and dict and string work in pure
#   Python. Over 200 loop repetitions, medians of ten spread 22% raw and 4%
#   scaled.
# - pretrain: forward, backward and Adam steps of a 20-128-128-6 MLP on 256
#   rows. Over 500 blocks of 60 SacAgent.update calls, medians of eight spread
#   13% raw and 4% scaled; scaled by the loops' kernel they spread 12%. Timed
#   after the call only, it missed the drift during a 3.5 s repetition; timed
#   on both sides, five 30 s pretrain runs spread 19% raw and 5% scaled.
# The kernels call nothing from src/, so a change to the program cannot move
# them.
REFERENCE_CALLS = 5


def interpreter_kernel() -> float:
    small = np.random.default_rng(0).standard_normal((64, 64))
    t0 = time.perf_counter()
    for _ in range(60):
        for _ in range(20):
            np.tanh(small[0] @ small)
        counts: dict[str, int] = {}
        for word in " ".join(f"w{j % 37}" for j in range(600)).split():
            counts[word] = counts.get(word, 0) + 1
    return time.perf_counter() - t0


def mlp_kernel() -> float:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((256, 20))
    ws = [rng.standard_normal(shape) * 0.1 for shape in ((20, 128), (128, 128), (128, 6))]
    ms = [np.zeros_like(w) for w in ws]
    vs = [np.zeros_like(w) for w in ws]
    t0 = time.perf_counter()
    for _ in range(10):
        acts = [x]
        for w in ws[:-1]:
            acts.append(np.maximum(acts[-1] @ w, 0.0))
        grad = acts[-1] @ ws[-1] / len(x)
        for i in reversed(range(len(ws))):
            grad_w = acts[i].T @ grad
            if i:
                grad = (grad @ ws[i].T) * (acts[i] > 0)
            ms[i] *= 0.9
            ms[i] += 0.1 * grad_w
            vs[i] *= 0.999
            vs[i] += 0.001 * grad_w * grad_w
            ws[i] -= 1e-3 * ms[i] / (np.sqrt(vs[i]) + 1e-8)
    return time.perf_counter() - t0


# workload -> (kernel, its nominal seconds)
REFERENCES = {"pretrain": (mlp_kernel, 0.012)} | {w: (interpreter_kernel, 0.020) for w in LOOP_JUDGES}


def reference_times(workload: str) -> list[float]:
    """REFERENCE_CALLS timings of the workload's reference kernel."""
    kernel, _ = REFERENCES[workload]
    return [kernel() for _ in range(REFERENCE_CALLS)]


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _placement_env(config: orchestrator.RunConfig, seed) -> scene.PlacementEnv:
    return scene.PlacementEnv(
        orchestrator.resolve_suite(config.train_suite),
        config.samples_per_episode,
        seed=seed,
        dmax=config.dmax,
        snap_tol=config.snap_tol,
        p_swap=config.p_swap,
    )


def _pretrain(seed: int, spawn_t: float, tracer, run_dir: Path) -> dict:
    config = orchestrator.desk_config(seed=seed)
    env_seed, agent_seed, eval_seed = np.random.SeedSequence(seed).spawn(3)
    env = _placement_env(config, env_seed)
    sac = agent.SacAgent(
        seed=agent_seed,
        hidden=config.agent_hidden,
        lr=config.agent_lr,
        gamma=config.gamma,
        polyak=config.polyak,
        alpha=config.alpha,
        warmup=config.warmup,
        minibatch=config.agent_minibatch,
        buffer_capacity=config.buffer_capacity,
    )
    nets = {"actor": sac.actor, "q1": sac.q1, "q2": sac.q2}
    before = {name: net.digest() for name, net in nets.items()}
    start = time.monotonic()
    if tracer:
        tracer.active = True
    stats = agent.pretrain_intrinsic(  # saves the agent, as `rls3 pretrain` does
        sac,
        env,
        PRETRAIN_STEPS,
        update_every=config.pretrain_update_every,
        checkpoint_dir=run_dir / "agent",
    )
    end = time.monotonic()
    if tracer:
        tracer.active = False
    after = {name: net.digest() for name, net in nets.items()}
    optimizers = {"actor": sac.actor_opt, "q1": sac.q1_opt, "q2": sac.q2_opt}
    steps_taken = {name: opt.adam.step_count for name, opt in optimizers.items()}
    expected = checks.expected_updates(
        PRETRAIN_STEPS, config.pretrain_update_every, sac.warmup, sac.minibatch
    )
    quality = agent.measure_valid_rate(
        sac, _placement_env(config, eval_seed), PRETRAIN_EVAL_STEPS, stochastic=False
    )
    return {
        "setup_s": start - spawn_t,
        "wall_s": end - start,
        "problems": checks.check_pretrain(
            stats, PRETRAIN_STEPS, expected, steps_taken, before, after
        ),
        "env_steps": stats["steps"],
        # pretrain writes no captioned samples: its valid_samples_per_s repeats
        # env_steps_per_s (layers.json, end_to_end)
        "valid_samples": stats["steps"],
        "quality": quality,
        "pretrain_valid_rate": stats["valid_rate"],  # information only
        # float-rounding dependent: compared only between traced and untraced
        # repetitions of one checkout, never against a pinned value
        "output_digest": after["actor"],
        "run_dir_bytes": 0,
        "padded_ratio": 0.0,
    }


def _episodes_started(run_dir: Path, per_episode: int) -> int:
    """Episodes of an aborted loop: the finished ones in samples.jsonl plus the
    one that aborted."""
    samples = run_dir / "samples.jsonl"
    lines = samples.read_text(encoding="utf-8").count("\n") if samples.is_file() else 0
    return lines // per_episode + 1


def _loop(workload: str, seed: int, spawn_t: float, tracer, run_dir: Path) -> dict:
    config = loop_config(workload, seed)
    clients = []
    client_for_address = wire.client_for_address

    def keep_client(addr, *args, **kwargs):
        client = client_for_address(addr, *args, **kwargs)
        clients.append(client)
        return client

    wire.client_for_address = keep_client  # run_loop never closes its client
    aborted = None
    try:
        start = time.monotonic()
        if tracer:
            tracer.active = True
        try:
            report = orchestrator.run_loop(config, run_dir)
            if report.failure and NO_VALID_PLACEMENT.fullmatch(report.failure):
                aborted = report.failure
        except scene.EpisodeAborted as exc:
            aborted = f"EpisodeAborted: {exc}"
        end = time.monotonic()
        if tracer:
            tracer.active = False
    finally:
        for client in clients:
            client.close()
    if aborted:
        return {
            "aborted": aborted,
            "attempted": _episodes_started(run_dir, config.samples_per_episode),
            "problems": [],
        }
    found = checks.check_loop(
        run_dir, seed, LOOP_ITERATIONS, LOOP_EPISODES, config.samples_per_episode
    )
    return {
        "setup_s": start - spawn_t,
        "wall_s": end - start,
        "problems": found["problems"],
        "env_steps": found["env_steps"],
        "valid_samples": found["distinct_valid"],
        "quality": found["test_metric"],
        "output_digest": found["samples_digest"],
        "report_digest": found["report_digest"],  # float-rounding dependent: info only
        "records": found["records"],
        "run_dir_bytes": _dir_bytes(run_dir),
        "padded_ratio": 1.0 - found["distinct_valid"] / max(found["records"], 1),
    }


def run(workload: str, seed: int, trace: bool, spawn_t: float, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if trace:
        tracer = tracing.Tracer(run_id=f"{workload}-{seed}")
        tracing.install_rls3_tracing(tracer)
    t0 = time.monotonic()
    before = reference_times(workload)
    spawn_t += time.monotonic() - t0  # set-up time excludes the reference timing
    if workload == "pretrain":
        res = _pretrain(seed, spawn_t, tracer, out_dir / "run")
    else:
        res = _loop(workload, seed, spawn_t, tracer, out_dir / "run")
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after = reference_times(workload)
    res["reference_s"] = statistics.median(before + after)
    res["reference_before_after_s"] = [statistics.median(before), statistics.median(after)]
    if tracer and not res.get("aborted"):
        tracer.write_spans(out_dir / "spans.jsonl")
        res["layers"] = tracing.layer_metrics(
            tracer, res["run_dir_bytes"], res["padded_ratio"]
        )
    return res


def main(argv: list[str]) -> int:
    workload, seed, trace, spawn_t, out_dir = argv
    pinned = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    if any(v != "1" for v in pinned.values()):
        print(f"BLAS threads not pinned to 1: {pinned}", file=sys.stderr)
        return 2
    seed = int(seed)
    res = {"workload": workload, "seed": seed, "trace": trace == "1", "attempted": OPERATIONS[workload]}
    try:
        res.update(run(workload, seed, trace == "1", float(spawn_t), Path(out_dir)))
    except Exception:  # the run's failure is the benchmark's result, not a crash
        res["problems"] = [traceback.format_exc(limit=4)]
    res["machine"] = machine_record()
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
