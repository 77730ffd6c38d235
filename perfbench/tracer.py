"""In-memory span tracing of the rls3 modules, installed from outside the package.

`install_rls3_tracing` wraps the public functions the benchmark traces: methods
on the class objects (so every call site sees the wrapper, and `isinstance`
checks still pass) and module functions at the module where the caller looks
the name up. Each call becomes a span (site, start, end, parent, ok); spans stay
in memory while the tracer is active and are written out when the run ends.

`layer_metrics` turns the spans and the counts taken at the same boundaries
into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.active = False
        self.sites: list[str] = []  # site index -> span name
        self.groups: list[tuple[str, ...]] = []  # extra aggregate keys per site
        self.spans: list = []  # [site, start, end, parent, ok]
        self.counts: Counter = Counter()
        self.captions: set[str] = set()
        self.wire_messages: list[tuple[dict, dict]] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, after=None, groups: tuple[str, ...] = ()):
        """Replace owner.attr with a span-recording wrapper. `after(args,
        kwargs, result)` takes counts once the span has ended."""
        fn = getattr(owner, attr)
        site = len(self.sites)
        self.sites.append(name)
        self.groups.append(groups)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [site, 0.0, 0.0, stack[-1] if stack else -1, False]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[4] = True
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, (site, start, end, parent, ok) in enumerate(self.spans):
                doc = {
                    "run": self.run_id,
                    "id": i,
                    "name": self.sites[site],
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "ok": ok,
                }
                f.write(json.dumps(doc, separators=(",", ":")) + "\n")


def _macs(net) -> int:
    """Multiply-accumulates per input row of one dense pass through `net`."""
    sizes = net.layer_sizes
    return sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))


def install_rls3_tracing(tracer: Tracer) -> None:
    from rls3 import agent, datasets, judges, nets, orchestrator, prompts, scene, wire

    c = tracer.counts
    w = tracer.wrap

    def forward_counts(args, kwargs, out):
        rows = 1 if out.ndim == 1 else out.shape[0]
        c["nets.forward.rows"] += rows
        c["nets.flops"] += 2 * rows * _macs(args[0])

    def backward_counts(args, kwargs, out):
        grad = args[1]
        rows = 1 if grad.ndim == 1 else grad.shape[0]
        c["nets.flops"] += 4 * rows * _macs(args[0])  # weight and input gradients

    # nets
    w(nets.Mlp, "forward", "nets.forward", forward_counts)
    w(nets.Mlp, "backward", "nets.backward", backward_counts)
    w(nets.Adam, "step", "nets.optimizer_step")
    w(nets.Mlp, "all_finite", "nets.all_finite")
    for mod in (nets, agent, judges):  # save_net is looked up in each caller's namespace
        w(mod, "save_net", "nets.save_net")

    # agent
    def update_counts(args, kwargs, info):
        c["agent.update.performed"] += int(info.performed)

    w(agent.SacAgent, "update", "agent.update", update_counts)
    w(agent.SacAgent, "select_action", "agent.select_action")
    w(agent.RandomAgent, "select_action", "agent.select_action")
    w(agent.ReplayBuffer, "sample", "agent.replay_sample")
    w(agent.ReplayBuffer, "push", "agent.replay_push")
    w(agent, "pretrain_intrinsic", "agent.pretrain_intrinsic")

    # scene
    def step_counts(args, kwargs, result):
        c["scene.step.valid"] += int(result.reward > 0)

    w(scene.PlacementEnv, "step", "scene.step", step_counts)
    w(scene.PlacementEnv, "reset_episode", "scene.reset_episode")
    w(scene, "sample_positions", "scene.sample_positions")
    w(datasets, "random_snapshot", "scene.random_snapshot")

    # prompts
    w(orchestrator, "build_caption_set", "prompts.build_caption_set")
    w(prompts, "build_caption_set", "prompts.build_caption_set")
    w(prompts, "parse_caption", "prompts.parse_caption")

    # judges
    for cls in (judges.GenerativeJudge, judges.ContrastiveJudge, judges.ExternalJudge):
        groups = ("judges.external",) if cls is judges.ExternalJudge else ()
        for method in ("infer", "finetune", "validation_metric"):
            w(cls, method, f"judges.{method}", groups=groups)
    w(judges, "generative_features", "judges.generative_features")
    w(judges, "image_features", "judges.image_features")

    def caption_counts(args, kwargs, out):
        tracer.captions.add(args[0])

    w(judges, "text_features", "judges.text_features", caption_counts)
    w(judges, "contrastive_loss", "judges.contrastive_loss")
    w(judges, "contrastive_loss_and_grads", "judges.contrastive_loss")
    w(judges, "rubric_score", "judges.rubric_score")

    # wire: keep the messages; their encoded size is computed after the run
    def wire_counts(args, kwargs, resp):
        tracer.wire_messages.append((args[1], resp))

    w(wire.NdjsonClient, "request", "wire.request", wire_counts)

    # datasets
    for name in ("generate_fixed_set", "record_line", "read_samples", "file_digest"):
        w(datasets, name, f"datasets.{name}")

    # orchestrator
    def episode_counts(args, kwargs, ep):
        c["orchestrator.run_episode.truncated"] += int(ep.truncated)

    w(orchestrator, "run_episode", "orchestrator.run_episode", episode_counts)
    w(orchestrator, "infer_and_reward", "orchestrator.infer_and_reward")
    w(orchestrator, "run_loop", "orchestrator.run_loop")


def _encoded_size(doc: dict) -> int:
    """Bytes of one NDJSON line as NdjsonClient and the reference stub encode it."""
    return len(json.dumps(doc, sort_keys=True).encode("utf-8")) + 1


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(tracer: Tracer, run_dir_bytes: int, padded_ratio: float) -> dict[str, float]:
    """Per-layer metrics of one traced run. Counts are exact; `self_s` is a
    span's duration minus the time its child spans cover."""
    calls: Counter = Counter()
    failed: Counter = Counter()
    total = defaultdict(float)
    self_time = defaultdict(float)
    child_time = [0.0] * len(tracer.spans)
    for site, start, end, parent, ok in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    names = tracer.sites
    for i, (site, start, end, parent, ok) in enumerate(tracer.spans):
        dur = end - start
        for key in (names[site], *tracer.groups[site]):
            calls[key] += 1
            failed[key] += int(not ok)
            total[key] += dur
            self_time[key] += dur - child_time[i]

    def ancestor_named(i: int, name: str) -> bool:
        parent = tracer.spans[i][3]
        while parent >= 0:
            if names[tracer.spans[parent][0]] == name:
                return True
            parent = tracer.spans[parent][3]
        return False

    in_finetune = sum(
        1
        for i, span in enumerate(tracer.spans)
        if names[span[0]] == "judges.validation_metric"
        and ancestor_named(i, "judges.finetune")
    )

    # one episode plus its scoring: run_episode start to the end of the
    # infer_and_reward call that follows it
    episode_ms = []
    pending = None
    for site, start, end, parent, ok in tracer.spans:
        if names[site] == "orchestrator.run_episode":
            pending = start
        elif names[site] == "orchestrator.infer_and_reward" and pending is not None:
            episode_ms.append((end - pending) * 1e3)
            pending = None

    c = tracer.counts
    steps = calls["scene.step"]
    episodes = calls["orchestrator.run_episode"]
    text_calls = calls["judges.text_features"]
    m = {}
    for name in (
        "nets.forward",
        "nets.backward",
        "nets.optimizer_step",
        "nets.save_net",
        "agent.update",
        "agent.select_action",
        "agent.replay_push",
        "scene.step",
        "scene.reset_episode",
        "scene.sample_positions",
        "prompts.build_caption_set",
        "prompts.parse_caption",
        "judges.infer",
        "judges.finetune",
        "judges.generative_features",
        "judges.image_features",
        "judges.text_features",
        "judges.rubric_score",
        "datasets.generate_fixed_set",
        "datasets.record_line",
        "orchestrator.run_episode",
    ):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_time[name]
    for name in (
        "nets.all_finite",
        "agent.replay_sample",
        "judges.contrastive_loss",
        "judges.external",
        "datasets.read_samples",
        "datasets.file_digest",
        "orchestrator.run_loop",
    ):
        m[f"{name}.self_s"] = self_time[name]
    m["nets.forward.rows"] = c["nets.forward.rows"]
    m["nets.matmul_gflop"] = c["nets.flops"] / 1e9
    m["agent.update.performed"] = c["agent.update.performed"]
    m["scene.valid_ratio"] = c["scene.step.valid"] / steps if steps else 0.0
    m["judges.validation_metric.calls"] = calls["judges.validation_metric"]
    m["judges.validation_metric.total_s"] = total["judges.validation_metric"]
    m["judges.validation_metric.in_finetune_calls"] = in_finetune
    m["judges.text_features.distinct_ratio"] = (
        len(tracer.captions) / text_calls if text_calls else 0.0
    )
    m["wire.request.calls"] = calls["wire.request"]
    m["wire.request.total_s"] = total["wire.request"]
    m["wire.request.failed"] = failed["wire.request"]
    # the client checks that a response echoes its request's id
    m["wire.bytes_sent"] = sum(
        _encoded_size({**payload, "id": resp["id"]}) for payload, resp in tracer.wire_messages
    )
    m["wire.bytes_received"] = sum(_encoded_size(resp) for _, resp in tracer.wire_messages)
    m["datasets.run_dir_bytes"] = run_dir_bytes
    m["orchestrator.episode_ms.p50"] = _quantile(episode_ms, 0.5)
    m["orchestrator.episode_ms.p90"] = _quantile(episode_ms, 0.9)
    m["orchestrator.episode_ms.count"] = len(episode_ms)
    m["orchestrator.infer_and_reward.total_s"] = total["orchestrator.infer_and_reward"]
    m["orchestrator.truncated_ratio"] = (
        c["orchestrator.run_episode.truncated"] / episodes if episodes else 0.0
    )
    m["orchestrator.padded_ratio"] = padded_ratio
    m["trace.spans"] = len(tracer.spans)
    return m
