"""Sample records, fixed validation/test sets, evaluation breakdowns, and
plot-series export.

Samples and verdicts persist as JSONL (one record per line, sorted keys);
plot series as CSV. Dataset files are content-addressed by sha256.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import prompts
from .scene import CameraPose, SceneSnapshot, SceneSuite, random_snapshot


@dataclass(frozen=True)
class SampleRecord:
    id: int
    scene_id: int
    objects: tuple[tuple[str, tuple[float, float, float], float], ...]  # (name, pos, yaw)
    camera: CameraPose
    subject: str
    reference: str
    relation: prompts.SpatialRelation
    caption: str
    question: str
    neg_term: str
    neg_object: str
    episode: int
    iteration: int

    def position_of(self, name: str) -> tuple[float, float, float]:
        for obj_name, pos, _yaw in self.objects:
            if obj_name == name:
                return pos
        raise KeyError(name)

    def truth_terms(self) -> frozenset[str]:
        return self.relation.primitives


def record_from_snapshot(
    snapshot: SceneSnapshot,
    captions: prompts.CaptionSet,
    sample_id: int,
    episode: int = 0,
    iteration: int = 0,
) -> SampleRecord:
    return SampleRecord(
        id=sample_id,
        scene_id=snapshot.scene_id,
        objects=tuple(
            (name, pos, yaw)
            for name, pos, yaw in zip(snapshot.names, snapshot.positions, snapshot.yaws)
        ),
        camera=snapshot.camera,
        subject=captions.subject,
        reference=captions.reference,
        relation=captions.relation,
        caption=captions.positive,
        question=captions.question,
        neg_term=captions.term_swapped,
        neg_object=captions.object_swapped,
        episode=episode,
        iteration=iteration,
    )


def record_to_dict(rec: SampleRecord) -> dict:
    return {
        "id": rec.id,
        "scene_id": rec.scene_id,
        "objects": [
            {"name": name, "pos": list(pos), "yaw": yaw}
            for name, pos, yaw in rec.objects
        ],
        "camera": {
            "pos": list(rec.camera.position),
            "yaw": rec.camera.yaw,
            "pitch": rec.camera.pitch,
            "roll": rec.camera.roll,
        },
        "subject": rec.subject,
        "reference": rec.reference,
        "relation": {
            "horizontal": sorted(rec.relation.horizontal),
            "vertical": rec.relation.vertical,
        },
        "caption": rec.caption,
        "question": rec.question,
        "neg_term": rec.neg_term,
        "neg_object": rec.neg_object,
        "episode": rec.episode,
        "iteration": rec.iteration,
    }


def record_from_dict(doc: dict) -> SampleRecord:
    """Rebuild a record; rejects one whose caption names other terms than its
    stored relation, since judges score against the relation alone.
    """
    cam = doc["camera"]
    rec = SampleRecord(
        id=int(doc["id"]),
        scene_id=int(doc["scene_id"]),
        objects=tuple(
            (o["name"], tuple(float(v) for v in o["pos"]), float(o["yaw"]))
            for o in doc["objects"]
        ),
        camera=CameraPose(
            tuple(float(v) for v in cam["pos"]),
            float(cam["yaw"]),
            float(cam["pitch"]),
            float(cam["roll"]),
        ),
        subject=doc["subject"],
        reference=doc["reference"],
        relation=prompts.SpatialRelation(
            frozenset(doc["relation"]["horizontal"]), doc["relation"]["vertical"]
        ),
        caption=doc["caption"],
        question=doc["question"],
        neg_term=doc["neg_term"],
        neg_object=doc["neg_object"],
        episode=int(doc["episode"]),
        iteration=int(doc["iteration"]),
    )
    if prompts.parse_caption(rec.caption).terms != rec.truth_terms():
        raise ValueError(
            f"record {rec.id}: caption {rec.caption!r} disagrees with its stored relation"
        )
    return rec


def record_line(rec: SampleRecord) -> str:
    return json.dumps(record_to_dict(rec), sort_keys=True, separators=(",", ":"))


def write_samples(records, path) -> str:
    """Write JSONL and return the file's sha256 hex digest."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for rec in records:
            f.write(record_line(rec))
            f.write("\n")
    return file_digest(path)


def read_samples(path) -> list[SampleRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                records.append(record_from_dict(json.loads(line)))
    return records


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# --- fixed set generation ------------------------------------------------------


def generate_fixed_records(
    suite: SceneSuite, count: int, seed: int | np.random.SeedSequence
) -> list[SampleRecord]:
    """Seeded random valid snapshots with caption sets, scenes round-robin."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(count):
        snapshot = random_snapshot(suite, i, rng)
        captions = prompts.build_caption_set(snapshot, rng)
        records.append(record_from_snapshot(snapshot, captions, sample_id=i))
    return records


def generate_fixed_set(
    suite: SceneSuite, count: int, seed: int | np.random.SeedSequence, path
) -> str:
    return write_samples(generate_fixed_records(suite, count, seed), path)


# --- replay verification -------------------------------------------------------


def replay_check(rec: SampleRecord) -> str | None:
    """Re-derive the relation from stored geometry; returns a reason on mismatch."""
    try:
        pos_a = rec.position_of(rec.subject)
        pos_b = rec.position_of(rec.reference)
    except KeyError as exc:
        return f"subject/reference {exc} not among objects"
    relation = prompts.relation_for_pair(pos_a, pos_b, rec.camera)
    if relation != rec.relation:
        return (
            f"stored relation {sorted(rec.relation.primitives)} != "
            f"recomputed {sorted(relation.primitives)}"
        )
    expected = prompts.render_caption(rec.subject, rec.reference, rec.relation)
    if rec.caption != expected:
        return "caption inconsistent with relation"
    if prompts.render_question(rec.subject, rec.reference) != rec.question:
        return "question inconsistent with subject/reference"
    return None


def replay_verify(records) -> tuple[int, str] | None:
    """First (index, reason) inconsistency, or None if all records replay clean."""
    for i, rec in enumerate(records):
        reason = replay_check(rec)
        if reason is not None:
            return i, reason
    return None


# --- breakdowns ----------------------------------------------------------------


@dataclass(frozen=True)
class BreakdownRow:
    key: str
    mean_score: float
    count: int


@dataclass(frozen=True)
class BreakdownTable:
    kind: str  # term | complexity
    rows: tuple[BreakdownRow, ...]


def _join(verdicts, samples):
    by_id = {rec.id: rec for rec in samples}
    joined = []
    skipped = 0
    for v in verdicts:
        rec = by_id.get(v.sample_id)
        if rec is None or v.flagged or v.rubric is None:
            skipped += 1
            continue
        joined.append((v, rec))
    return joined, skipped


def per_term_breakdown(verdicts, samples) -> BreakdownTable:
    joined, _ = _join(verdicts, samples)
    rows = []
    for term in prompts.PRIMITIVES:
        scores = [v.rubric for v, rec in joined if term in rec.truth_terms()]
        mean = float(np.mean(scores)) if scores else float("nan")
        rows.append(BreakdownRow(term, mean, len(scores)))
    return BreakdownTable("term", tuple(rows))


def complexity_breakdown(verdicts, samples) -> BreakdownTable:
    joined, _ = _join(verdicts, samples)
    rows = []
    for level in (1, 2, 3):
        scores = [v.rubric for v, rec in joined if rec.relation.complexity == level]
        mean = float(np.mean(scores)) if scores else float("nan")
        rows.append(BreakdownRow(str(level), mean, len(scores)))
    return BreakdownTable("complexity", tuple(rows))


def breakdown_to_dict(table: BreakdownTable) -> dict:
    return {
        "kind": table.kind,
        "rows": [
            {"key": r.key, "mean_score": r.mean_score, "count": r.count}
            for r in table.rows
        ],
    }


# --- plot export -----------------------------------------------------------------


def export_plot_data(run_dir) -> list[Path]:
    """Derive CSV plot series from a completed run directory.

    Emits score-vs-cumulative-samples, the concatenated fine-tune loss series
    with iteration boundary markers, and the validation curve with the
    early-stop index. Missing pieces are skipped with a warning list.
    """
    run_dir = Path(run_dir)
    out_dir = run_dir / "plots"
    out_dir.mkdir(exist_ok=True)
    written: list[Path] = []

    report_path = run_dir / "report.json"
    metrics_path = run_dir / "metrics.csv"
    if not report_path.exists():
        raise FileNotFoundError(f"missing {report_path}")
    with open(report_path, "r", encoding="utf-8") as f:
        report = json.load(f)

    if metrics_path.exists():
        with open(metrics_path, "r", encoding="utf-8") as f:
            metrics = list(csv.DictReader(f))
        path = out_dir / "score_vs_samples.csv"
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["cumulative_valid", "cumulative_attempts", "val_metric"])
            for row in metrics:
                if int(row["iteration"]) == 0:
                    continue
                w.writerow(
                    [row["cumulative_valid"], row["cumulative_attempts"], row["val_metric"]]
                )
        written.append(path)

    loss_series = report.get("finetune_losses", [])
    if loss_series:
        path = out_dir / "finetune_loss.csv"
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["global_step", "iteration", "step", "loss", "iteration_start"])
            g = 0
            for it, losses in enumerate(loss_series, start=1):
                for k, loss in enumerate(losses):
                    w.writerow([g, it, k, loss, 1 if k == 0 else 0])
                    g += 1
        written.append(path)

    history = report.get("validation_history", [])
    if history:
        path = out_dir / "validation.csv"
        stop = report.get("early_stop_iteration")
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["iteration", "val_metric", "early_stop"])
            for i, v in enumerate(history, start=1):
                w.writerow([i, v, 1 if stop == i else 0])
        written.append(path)

    return written
