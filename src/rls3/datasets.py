"""Sample records, fixed validation/test sets, evaluation breakdowns, and
plot-series export.

Samples and verdicts persist as JSONL, one per line. A record's line is
written in one pass by `SampleRecord.line`, with the bytes of compact,
sorted-key `json.dumps` of its dict, and read back through `json.loads` and
`record_from_dict`. Plot series are CSV. Dataset files are content-addressed
by sha256.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import prompts
from .scene import (
    ACTIVE_COUNT, CameraPose, SceneSnapshot, SceneSuite, _number, _vec3, random_snapshot
)

# the stored relation lists its horizontal terms in this (sorted) order
_HORIZONTAL = tuple(sorted(prompts.HORIZONTAL_PRIMITIVES))

# a string and a finite float as `json.dumps` writes them
_str = json.encoder.encode_basestring_ascii
_float = float.__repr__


@dataclass(frozen=True)
class SampleRecord:
    id: int
    scene_id: int
    objects: tuple[tuple[str, tuple[float, float, float], float], ...]  # (name, pos, yaw)
    camera: CameraPose
    subject: str
    reference: str
    terms: frozenset[str]  # the spatial primitives of the caption
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

    @functools.cached_property
    def line(self) -> str:
        """The record's JSON line, as `samples.jsonl` holds it: the bytes of
        `json.dumps` of its dict with sorted keys and compact separators,
        written in one pass. Strings are escaped to ASCII by the function
        `json.dumps` uses; floats are written by their repr, as `json.dumps`
        writes a finite float (a snapshot holds checked placements, and
        `record_from_dict` rejects a non-finite number). Encoded on first
        access and kept. Not a field, so `==`, `hash` and `replace` ignore it."""
        cam, terms = self.camera, self.terms
        cx, cy, cz = cam.position
        objects = ",".join([
            f'{{"name":{_str(name)},"pos":[{_float(x)},{_float(y)},{_float(z)}],'
            f'"yaw":{_float(yaw)}}}'
            for name, (x, y, z), yaw in self.objects
        ])
        horizontal = ",".join([f'"{t}"' for t in _HORIZONTAL if t in terms])
        vertical = '"above"' if "above" in terms else '"below"' if "below" in terms else "null"
        return (
            f'{{"camera":{{"pitch":{_float(cam.pitch)},'
            f'"pos":[{_float(cx)},{_float(cy)},{_float(cz)}],'
            f'"roll":{_float(cam.roll)},"yaw":{_float(cam.yaw)}}},'
            f'"caption":{_str(self.caption)},"episode":{self.episode},"id":{self.id},'
            f'"iteration":{self.iteration},"neg_object":{_str(self.neg_object)},'
            f'"neg_term":{_str(self.neg_term)},"objects":[{objects}],'
            f'"question":{_str(self.question)},"reference":{_str(self.reference)},'
            f'"relation":{{"horizontal":[{horizontal}],"vertical":{vertical}}},'
            f'"scene_id":{self.scene_id},"subject":{_str(self.subject)}}}'
        )


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
        objects=tuple(zip(snapshot.names, snapshot.positions, snapshot.yaws)),
        camera=snapshot.camera,
        subject=captions.subject,
        reference=captions.reference,
        terms=captions.terms,
        caption=captions.positive,
        question=captions.question,
        neg_term=captions.term_swapped,
        neg_object=captions.object_swapped,
        episode=episode,
        iteration=iteration,
    )


def record_from_dict(doc: dict) -> SampleRecord:
    """Rebuild a record from its JSON form. A missing key, a value of the wrong
    type, a vector of other than 3 finite numbers, a relation that is no valid
    term set, or a caption that names other terms than the relation (judges
    score against the relation alone) raises ValueError naming the record.
    """
    try:
        return _record_from_dict(doc)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        name = f"record {doc['id']!r}" if isinstance(doc, dict) and "id" in doc else "record"
        cause = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"malformed sample {name}: {cause}") from exc


def _typed(value, kind: type):
    if type(value) is not kind:  # a bool is no int
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def _record_from_dict(doc: dict) -> SampleRecord:
    cam, relation = _typed(doc, dict)["camera"], doc["relation"]
    horizontal = frozenset(_typed(relation["horizontal"], list))
    vertical = relation["vertical"]
    if not horizontal.issubset(_HORIZONTAL) or vertical not in (*prompts.VERTICAL_PRIMITIVES, None):
        raise ValueError(f"relation {relation!r} puts a term in the wrong slot")
    objects = tuple(
        (_typed(o["name"], str), _vec3(o["pos"]), _number(o["yaw"])) for o in doc["objects"]
    )
    if len(objects) != ACTIVE_COUNT:
        raise ValueError(f"expected {ACTIVE_COUNT} objects, got {len(objects)}")
    rec = SampleRecord(
        id=_typed(doc["id"], int),
        scene_id=_typed(doc["scene_id"], int),
        objects=objects,
        camera=CameraPose(
            _vec3(cam["pos"]), _number(cam["yaw"]), _number(cam["pitch"]), _number(cam["roll"])
        ),
        subject=_typed(doc["subject"], str),
        reference=_typed(doc["reference"], str),
        terms=prompts.check_terms(horizontal | {vertical} if vertical else horizontal),
        caption=_typed(doc["caption"], str),
        question=_typed(doc["question"], str),
        neg_term=_typed(doc["neg_term"], str),
        neg_object=_typed(doc["neg_object"], str),
        episode=_typed(doc["episode"], int),
        iteration=_typed(doc["iteration"], int),
    )
    if prompts.parse_caption(rec.caption) != rec.terms:
        raise ValueError(f"caption {rec.caption!r} disagrees with its stored relation")
    return rec


def record_line(rec: SampleRecord) -> str:
    return rec.line


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open `path` + ".tmp" for writing; when the block ends, it replaces
    `path`. A block that raises removes it instead and leaves `path` as it
    was, so `path` never holds a partial file."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_samples(records, path) -> str:
    """Write JSONL atomically and return the file's sha256 hex digest, hashed
    as written."""
    h = hashlib.sha256()
    with atomic_open(path, "wb") as f:
        for rec in records:
            line = f"{record_line(rec)}\n".encode("utf-8")
            h.update(line)
            f.write(line)
    return h.hexdigest()


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
    terms = prompts.relation_for_pair(pos_a, pos_b, rec.camera)
    if terms != rec.terms:
        return f"stored relation {sorted(rec.terms)} != recomputed {sorted(terms)}"
    expected = prompts.render_caption(rec.subject, rec.reference, rec.terms)
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


def breakdown(scores, samples) -> dict:
    """eval.json's per_term and per_complexity tables, scores[i] being
    samples[i]'s score: the mean and count of the scored samples with each
    answer term (a sample counts once for each of its truth terms) and with
    each relation complexity, its number of terms. NaN scores are left out; a
    row with no scored sample has mean_score None.
    """
    scores = np.asarray(scores, dtype=float)
    has = np.array([[t in r.terms for t in prompts.PRIMITIVES] for r in samples], dtype=bool)
    tables = {
        "term": (prompts.PRIMITIVES, has),
        "complexity": (("1", "2", "3"), has.sum(axis=1)[:, None] == np.arange(1, 4)),
    }
    out = {}
    for kind, (keys, member) in tables.items():
        rows = []
        for key, column in zip(keys, member.T):
            s = scores[column & ~np.isnan(scores)]
            rows.append({"key": key, "mean_score": float(np.mean(s)) if s.size else None,
                         "count": s.size})
        out[f"per_{kind}"] = {"kind": kind, "rows": rows}
    return out


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
        keys = ["cumulative_valid", "cumulative_attempts", "val_metric"]
        rows = [[row[k] for k in keys] for row in metrics if int(row["iteration"]) != 0]
        written.append(_write_csv(out_dir / "score_vs_samples.csv", keys, rows))

    loss_series = report.get("finetune_losses", [])
    if loss_series:
        points = [(it, k, x) for it, xs in enumerate(loss_series, start=1) for k, x in enumerate(xs)]
        rows = [[g, it, k, x, int(k == 0)] for g, (it, k, x) in enumerate(points)]
        header = ["global_step", "iteration", "step", "loss", "iteration_start"]
        written.append(_write_csv(out_dir / "finetune_loss.csv", header, rows))

    history = report.get("validation_history", [])
    if history:
        stop = report.get("early_stop_iteration")
        rows = [[i, v, 1 if stop == i else 0] for i, v in enumerate(history, start=1)]
        header = ["iteration", "val_metric", "early_stop"]
        written.append(_write_csv(out_dir / "validation.csv", header, rows))

    return written


def _write_csv(path: Path, header: list[str], rows) -> Path:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
    return path
