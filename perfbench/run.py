"""rls3 benchmark: SAC pretraining and the generative, contrastive and external
judge loops, timed end to end, with a separate traced run for per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload loop_generative --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all   # every workload, one table each

Each repetition runs in a fresh single-process interpreter with BLAS pinned to
one thread (`perfbench/worker.py`); repetitions run one at a time until
`--seconds` is used up. Repetition k of a run uses the k-th program seed of
`--seed`; a loop repetition that aborts for an episode with no valid placement
gives no values and is counted in the result (see `run_workload`). With
`--trace 0` the last stdout line carries the medians of the end-to-end
metrics, times scaled to the nominal machine speed (`e2e_values`); with
`--trace 1` it carries the per-layer metrics of the traced repetitions and the
tracing overhead against untraced repetitions of the same seeds. A readable table goes to stderr and the full record, machine
included, to `.perfbench_out/<workload>/result.json`.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before anything imports numpy
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
OUT_ROOT = ROOT / ".perfbench_out"
MIN_REPS = 3
MIN_TRACED_PAIRS = 1
REP_TIMEOUT_S = 120
# program seeds of `--seed n`: n, n + STRIDE, n + 2 * STRIDE, ...
SEED_STRIDE = 1_000_003
# A run fails once its aborted loop repetitions outnumber the completed ones by
# more than this. About one seed in seven aborts at the seed commit; with the
# margin, a chance cluster of aborts in a 30 s run has odds under 1e-4.
ABORT_MARGIN = 3


def percentile_summary(values: list[float]) -> dict:
    """Median plus the highest of p75/p90/p95/p99 with at least ten samples
    beyond it, with the sample count."""
    out = {"median": statistics.median(values), "count": len(values)}
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            break
    return out


def kill_group(pgid: int) -> None:
    """Stop whatever the repetition left in its process group and wait for it."""
    deadline = time.monotonic() + 10
    sig = signal.SIGTERM
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        time.sleep(0.05)
        sig = signal.SIGKILL


def run_rep(workload: str, seed: int, trace: bool, out_dir: Path) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        workload,
        str(seed),
        "1" if trace else "0",
        repr(time.monotonic()),
        str(out_dir),
    ]
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, _ = proc.communicate()
    finally:
        kill_group(proc.pid)
    lines = stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        import worker

        res = {
            "workload": workload,
            "seed": seed,
            "attempted": worker.OPERATIONS[workload],
            "problems": [f"worker exited {proc.returncode} without a result"],
        }
    return res


def e2e_values(res: dict) -> dict:
    """End-to-end values of one repetition, its times scaled to the nominal
    machine speed (worker.REFERENCES)."""
    import worker

    _, nominal_s = worker.REFERENCES[res["workload"]]
    speed = nominal_s / res["reference_s"]
    wall = res["wall_s"] * speed
    return {
        "setup_s": res["setup_s"] * speed,
        "wall_s": wall,
        "env_steps_per_s": res["env_steps"] / wall,
        "valid_samples_per_s": res["valid_samples"] / wall,
        "peak_rss_mb": res["peak_rss_mb"],
        "quality": res["quality"],
    }


def count_operations(results: list[dict], aborted: list[dict], too_many_aborts: bool) -> tuple[int, int]:
    """(attempted, failed) operations: env steps on pretrain, episodes on the
    loops. A repetition with any problem counts all of its operations as failed.
    Aborted repetitions count the episodes they started as attempted, and as
    failed too when the run had too many of them."""
    attempted = failed = 0
    for res in results:
        n = res["attempted"]
        attempted += n
        failed += n if res["problems"] else 0
    for res in aborted:
        attempted += res["attempted"]
        failed += res["attempted"] if too_many_aborts else 0
    return attempted, failed


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repetitions one at a time until `seconds` is used up. A loop repetition
    that aborts on the known no-valid-placement case (worker.NO_VALID_PLACEMENT)
    gives no values; the next seed is taken. If aborted repetitions outnumber
    completed ones by more than ABORT_MARGIN, the run is not correct and stops
    when its time is up."""
    out = OUT_ROOT / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    reps, traced, aborted, durations = [], [], [], []
    start = time.monotonic()
    for k in itertools.count():
        done = len(traced) if trace else len(reps)
        enough = done >= (MIN_TRACED_PAIRS if trace else MIN_REPS)
        too_many_aborts = len(aborted) > len(reps) + ABORT_MARGIN
        out_of_time = bool(durations) and time.monotonic() - start + statistics.median(durations) > seconds
        if out_of_time and (enough or too_many_aborts):
            break
        t0 = time.monotonic()
        s = seed + k * SEED_STRIDE
        plain = run_rep(workload, s, False, out / f"rep{k}")
        if plain.get("aborted"):
            aborted.append(plain)
        else:
            reps.append(plain)
            if trace:
                traced.append(run_rep(workload, s, True, out / f"rep{k}-traced"))
        durations.append(time.monotonic() - t0)
        for rep_dir in (f"rep{k}", f"rep{k}-traced"):  # keep results and spans only
            shutil.rmtree(out / rep_dir / "run", ignore_errors=True)

    for plain, res in zip(reps, traced):
        if res.get("aborted"):
            res["problems"].append(f"traced run aborted, untraced did not: {res['aborted']}")
        elif not res["problems"] and plain.get("output_digest") != res["output_digest"]:
            res["problems"].append("traced output digest differs from the untraced run")
    attempted, failed = count_operations(reps + traced, aborted, too_many_aborts)
    ok_reps = [r for r in reps if not r["problems"]]
    summary, unscaled = {}, {}
    if ok_reps:
        per_rep = [e2e_values(r) for r in ok_reps]
        summary = {k: percentile_summary([v[k] for v in per_rep]) for k in per_rep[0]}
        unscaled = {k: statistics.median(r[k] for r in ok_reps) for k in ("setup_s", "wall_s", "reference_s")}
    layers = {}
    ok_traced = [r for r in traced if not r["problems"]]
    if ok_traced:
        names = ok_traced[0]["layers"]
        layers = {k: statistics.median(r["layers"][k] for r in ok_traced) for k in names}
        plain_wall = statistics.median(e2e_values(r)["wall_s"] for r in ok_reps) if ok_reps else 0.0
        traced_wall = statistics.median(e2e_values(r)["wall_s"] for r in ok_traced)
        layers["trace.overhead_s"] = traced_wall - plain_wall
        layers["trace.overhead_ratio"] = (traced_wall - plain_wall) / plain_wall if plain_wall else 0.0
        layers["orchestrator.aborted_ratio"] = len(aborted) / (len(aborted) + len(reps))
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": (reps[0].get("machine") if reps else None),
        "program_seeds": [r["seed"] for r in reps],
        "aborted": [{"seed": r["seed"], "reason": r["aborted"]} for r in aborted],
        "too_many_aborts": too_many_aborts,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": summary,
        "unscaled_medians": unscaled,
        "layers": layers,
        "reps": reps,
        "traced_reps": traced,
    }
    (out / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def load_metric_units() -> tuple[dict, dict]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    return e2e, per_layer


def print_table(record: dict, units: dict) -> None:
    w = sys.stderr.write
    m = record["machine"] or {}
    w(
        f"\n== {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}  "
        f"reps {len(record['reps'])}  failed {record['failed']}/{record['attempted']}  "
        f"aborted seeds {len(record['aborted'])}\n"
        f"   machine: nproc {m.get('nproc')}, python {m.get('python')}, numpy {m.get('numpy')}, "
        f"{m.get('blas')}, threads {m.get('blas_threads')}\n"
    )
    raw = "  ".join(f"{k} {v:.6g} s" for k, v in record["unscaled_medians"].items())
    w(f"   unscaled medians: {raw}\n")
    for name, stats in record["end_to_end"].items():
        extra = "  ".join(f"{k} {v:.6g}" for k, v in stats.items() if k.startswith("p"))
        w(f"   {name:<22} median {stats['median']:<12.6g} {units.get(name, '')}  {extra}  n={stats['count']}\n")
    for name, unit in units.items():
        if name in record["layers"]:
            w(f"   {name:<44} {record['layers'][name]:<14.6g} {unit}\n")
    for res in record["aborted"]:
        w(f"   ABORTED rep seed {res['seed']}: {res['reason']}\n")
    if record["too_many_aborts"]:
        w(f"   FAILED: aborted repetitions outnumber completed ones by more than {ABORT_MARGIN}\n")
    for res in record["reps"] + record["traced_reps"]:
        for p in res["problems"]:
            w(f"   FAILED rep seed {res['seed']} trace {int(res.get('trace', False))}: {p}\n")


def result_line(records: list[dict], trace: bool, units: dict, prefix: bool) -> dict:
    metrics, correct = {}, True
    for record in records:
        values = record["layers"] if trace else {
            k: v["median"] for k, v in record["end_to_end"].items()
        }
        correct = correct and record["failed"] == 0 and not record["too_many_aborts"] and bool(values)
        for name, unit in units.items():
            key = f"{record['workload']}.{name}" if prefix else name
            if name in values:
                metrics[key] = {"value": values[name], "unit": unit}
            else:
                correct = False
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "rls3" / "__init__.py").is_file():
        print(f"no rls3 sources under {ROOT / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import worker

    if args.workload not in (*worker.WORKLOADS, "all"):
        parser.error(f"--workload must be one of {', '.join(worker.WORKLOADS)} or all")
    workloads = worker.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    e2e_units, layer_units = load_metric_units()
    for workload in workloads:
        record = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print_table(record, {**e2e_units, **layer_units})
        records.append(record)
    units = layer_units if args.trace else e2e_units
    line = result_line(records, bool(args.trace), units, prefix=args.workload == "all")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
