import dataclasses
import functools
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rls3.datasets import (
    SampleRecord,
    breakdown,
    file_digest,
    generate_fixed_records,
    generate_fixed_set,
    read_samples,
    record_from_dict,
    record_line,
    replay_check,
    replay_verify,
    write_samples,
)
from rls3.agent import RandomAgent
from rls3.judges import ContrastiveJudge, GenerativeJudge, JudgeVerdict
from rls3.orchestrator import _verdict_line, run_episode
from rls3.prompts import OPPOSITES, PRIMITIVES, render_caption, words
from rls3.scene import CameraPose, PlacementEnv, builtin_suite

from oracles import record_line_reference, record_to_dict, verdict_line_reference


@pytest.fixture(scope="module")
def train():
    return builtin_suite("train")


@pytest.fixture(scope="module")
def records(train):
    return generate_fixed_records(train, 60, seed=11)


def test_record_schema(records):
    doc = record_to_dict(records[0])
    assert set(doc) == {
        "id", "scene_id", "objects", "camera", "subject", "reference",
        "relation", "caption", "question", "neg_term", "neg_object",
        "episode", "iteration",
    }
    assert set(doc["camera"]) == {"pos", "yaw", "pitch", "roll"}
    assert set(doc["relation"]) == {"horizontal", "vertical"}
    for obj in doc["objects"]:
        assert set(obj) == {"name", "pos", "yaw"}
        assert len(obj["pos"]) == 3
    assert doc["relation"]["vertical"] in (None, "above", "below")
    assert doc["relation"]["horizontal"] == sorted(doc["relation"]["horizontal"])


def test_record_round_trip(records):
    for rec in records:
        assert record_from_dict(record_to_dict(rec)) == rec
        assert record_from_dict(json.loads(record_line(rec))) == rec


@functools.cache
def _valid_line():
    return record_line(generate_fixed_records(builtin_suite("train"), 1, seed=11)[0])


def _valid_doc():
    return json.loads(_valid_line())


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.pop("camera"),
        lambda d: d["camera"].update(pos=[0.0, 1.0]),
        lambda d: d["camera"].update(yaw="0"),
        lambda d: d["objects"][0].update(pos=[0.0, 1.0, float("nan")]),
        lambda d: d["objects"][1].update(yaw=True),
        lambda d: d["objects"].pop(),
        lambda d: d.update(id=1.5),
        lambda d: d.update(episode=True),
        lambda d: d.update(caption=7),
        lambda d: d["relation"].update(horizontal="left"),
        lambda d: d["relation"].update(horizontal=["above"], vertical=None),
        lambda d: d["relation"].update(vertical="left"),
        lambda d: d["relation"].update(horizontal=["left", "right"]),
    ],
    ids=["no-camera", "2d-camera", "string-yaw", "nan-position", "bool-yaw", "two-objects",
         "float-id", "bool-episode", "int-caption", "string-horizontal", "vertical-in-horizontal",
         "horizontal-in-vertical", "opposites"],
)
def test_malformed_record_raises_value_error_naming_it(edit):
    doc = _valid_doc()
    edit(doc)
    with pytest.raises(ValueError, match=f"malformed sample record {doc.get('id', 0)}"):
        record_from_dict(doc)


@pytest.mark.parametrize("doc", [{}, [1], None, "record", 3])
def test_record_that_is_no_record_raises_value_error(doc):
    with pytest.raises(ValueError, match="malformed sample record"):
        record_from_dict(doc)


_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
    | st.text(max_size=8) | st.sampled_from(PRIMITIVES)
)
_JSON_VALUES = (
    _SCALARS | st.lists(_SCALARS, max_size=4)
    | st.dictionaries(st.text(max_size=4), _SCALARS, max_size=3)
)


def _paths(doc, prefix=()):
    """The key path of every value inside a record document, nested ones included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_record_is_read_back_or_rejected(data):
    doc = _valid_doc()
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            parent.pop(path[-1])
        else:
            parent[path[-1]] = data.draw(_JSON_VALUES)
    try:
        rec = record_from_dict(doc)
    except ValueError:
        return
    assert record_from_dict(json.loads(record_line(rec))) == rec


def test_record_line_is_canonical(records):
    line = record_line(records[0])
    assert "\n" not in line and " " not in line.split('"caption"')[0]
    assert json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) == line


def _episode_records():
    env = PlacementEnv(builtin_suite("train"), 6, seed=0)
    return run_episode(env, RandomAgent(seed=0), 0, 1, np.random.default_rng(1), 0).records


def test_record_line_is_encoded_once_and_is_no_field(records):
    for rec in records[:10] + _episode_records():
        twin = dataclasses.replace(rec)
        line = rec.line
        assert line == json.dumps(record_to_dict(rec), sort_keys=True, separators=(",", ":"))
        assert rec.line is line and record_line(rec) is line
        assert rec == twin and hash(rec) == hash(twin)
        assert "line" not in vars(twin) and "line" not in vars(dataclasses.replace(rec))


_RELATIONS = [
    frozenset(terms)
    for k in (1, 2, 3)
    for terms in itertools.combinations(PRIMITIVES, k)
    if not any(OPPOSITES[t] in terms for t in terms)
]
# names with characters JSON escapes ('"', '\\', controls) or that ASCII lacks,
# and no spatial word, so a caption rendered from them parses to its relation
_NAMES = (
    st.text(st.sampled_from('mug é✓"\\\x01\u2028'), min_size=1, max_size=8) | st.text(max_size=8)
).filter(lambda name: not set(words(name)) & set(PRIMITIVES))
_FLOATS = st.sampled_from([-0.0, 5e-324, 1e16, 0.1, -2.5e-7]) | st.floats(
    allow_nan=False, allow_infinity=False
)
_VECTORS = st.tuples(_FLOATS, _FLOATS, _FLOATS)


@st.composite
def _records(draw):
    names = draw(st.lists(_NAMES, min_size=3, max_size=3))
    subject, reference = names[draw(st.integers(0, 2))], names[draw(st.integers(0, 2))]
    terms = draw(st.sampled_from(_RELATIONS))
    return SampleRecord(
        id=draw(st.integers()),
        scene_id=draw(st.integers()),
        objects=tuple((name, draw(_VECTORS), draw(_FLOATS)) for name in names),
        camera=CameraPose(draw(_VECTORS), draw(_FLOATS), draw(_FLOATS), draw(_FLOATS)),
        subject=subject,
        reference=reference,
        terms=terms,
        caption=render_caption(subject, reference, terms),
        question=draw(st.text()),
        neg_term=draw(st.text()),
        neg_object=draw(st.text()),
        episode=draw(st.integers()),
        iteration=draw(st.integers()),
    )


_VERDICTS = st.one_of(
    st.builds(
        JudgeVerdict, st.integers(),
        predicted_terms=st.frozensets(st.sampled_from(PRIMITIVES) | _NAMES, max_size=3),
        rubric=st.integers(1, 5),
    ),
    st.builds(JudgeVerdict, st.integers(), flagged=st.just(True)),
    st.builds(
        JudgeVerdict, st.integers(), similarities=st.tuples(st.floats(), st.floats(), st.floats()),
        ranked_correct=st.booleans(),
    ),
)


@given(_records(), _VERDICTS, st.integers(0, 10**6))
@settings(max_examples=300, deadline=None)
def test_json_lines_are_the_json_dumps_bytes(rec, verdict, iteration):
    assert rec.line == record_line_reference(rec)
    assert record_from_dict(json.loads(rec.line)) == rec
    assert _verdict_line(verdict, iteration) == verdict_line_reference(verdict, iteration)


def test_fixed_set_deterministic(tmp_path, train):
    d1 = generate_fixed_set(train, 50, 123, tmp_path / "a.jsonl")
    d2 = generate_fixed_set(train, 50, 123, tmp_path / "b.jsonl")
    d3 = generate_fixed_set(train, 50, 124, tmp_path / "c.jsonl")
    assert d1 == d2 != d3
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert d1 == file_digest(tmp_path / "a.jsonl")


def test_fixed_set_scene_round_robin(train, records):
    ids = [s.scene_id for s in train.scenes]
    for i, rec in enumerate(records):
        assert rec.scene_id == ids[i % len(ids)]


def test_write_read_round_trip(tmp_path, records):
    path = tmp_path / "s.jsonl"
    write_samples(records, path)
    assert read_samples(path) == list(records)


@pytest.mark.parametrize("old", [None, b"the set written before\n"], ids=["new", "over-old"])
def test_a_write_that_raises_midway_leaves_no_partial_file(tmp_path, records, old):
    path = tmp_path / "s.jsonl"
    if old is not None:
        path.write_bytes(old)

    def records_then_failure():
        yield from records
        # what was written so far sits in a file beside the target
        assert any(p != path and p.stat().st_size > 0 for p in tmp_path.iterdir())
        raise RuntimeError("stopped midway")

    with pytest.raises(RuntimeError, match="stopped midway"):
        write_samples(records_then_failure(), path)
    assert list(tmp_path.iterdir()) == ([] if old is None else [path])
    if old is not None:
        assert path.read_bytes() == old


def test_replay_clean(records):
    assert replay_verify(records) is None


def test_replay_detects_tampering(records):
    rec = records[3]
    # move the subject far enough to change the relation
    objects = tuple(
        (name, (pos[0] + 5.0, pos[1], pos[2]) if name == rec.subject else pos, yaw)
        for name, pos, yaw in rec.objects
    )
    tampered = dataclasses.replace(rec, objects=objects)
    assert replay_check(tampered) is not None
    bad = list(records)
    bad[3] = tampered
    idx, reason = replay_verify(bad)
    assert idx == 3 and reason


def test_replay_detects_caption_edit(records):
    tampered = dataclasses.replace(records[0], caption="The mug is on the table.")
    assert replay_check(tampered) == "caption inconsistent with relation"


def test_breakdowns(train, records):
    judge = GenerativeJudge(train.catalog_names, seed=0)
    tables = breakdown(judge.scores(judge.encode(records)), records)
    table = tables["per_term"]
    assert table["kind"] == "term"
    assert [r["key"] for r in table["rows"]] == list(PRIMITIVES)
    assert sum(r["count"] for r in table["rows"]) >= len(records)  # terms overlap
    for r in table["rows"]:
        if r["count"]:
            assert 1.0 <= r["mean_score"] <= 5.0
    ctable = tables["per_complexity"]
    assert ctable["kind"] == "complexity"
    assert [r["key"] for r in ctable["rows"]] == ["1", "2", "3"]
    assert sum(r["count"] for r in ctable["rows"]) == len(records)


def test_breakdown_of_rankings_and_flags(train, records):
    judge = ContrastiveJudge(train.catalog_names, seed=0)
    verdicts, _ = judge.infer(records)
    rows = breakdown(judge.scores(judge.encode(records)), records)["per_complexity"]["rows"]
    for row in rows:
        ranked = [
            v.ranked_correct
            for v, rec in zip(verdicts, records)
            if str(len(rec.terms)) == row["key"]
        ]
        assert row["count"] == len(ranked)
        assert row["mean_score"] == (sum(ranked) / len(ranked) if ranked else None)
    # NaN scores, those of flagged verdicts, are left out
    for table in breakdown(np.full(len(records), np.nan), records).values():
        for row in table["rows"]:
            assert row == {"key": row["key"], "mean_score": None, "count": 0}


def test_export_plot_data(tmp_path):
    run_dir = tmp_path / "run"
    (run_dir / "plots").mkdir(parents=True)
    report = {
        "finetune_losses": [[0.9, 0.8], [0.7, 0.65]],
        "validation_history": [2.1, 2.4],
        "early_stop_iteration": 2,
    }
    (run_dir / "report.json").write_text(json.dumps(report))
    (run_dir / "metrics.csv").write_text(
        "iteration,cumulative_valid,cumulative_attempts,val_metric,mean_J2,batch_size\n"
        "0,0,0,2.000000,,0\n"
        "1,40,90,2.100000,9.5,20\n"
        "2,80,185,2.400000,8.1,20\n"
    )
    from rls3.datasets import export_plot_data

    paths = export_plot_data(run_dir)
    names = {p.name for p in paths}
    assert names == {"score_vs_samples.csv", "finetune_loss.csv", "validation.csv"}
    score = (run_dir / "plots" / "score_vs_samples.csv").read_text().splitlines()
    assert score[0] == "cumulative_valid,cumulative_attempts,val_metric"
    assert len(score) == 3  # iteration 0 skipped
    loss = (run_dir / "plots" / "finetune_loss.csv").read_text().splitlines()
    assert len(loss) == 5  # header + 4 loss points
    val = (run_dir / "plots" / "validation.csv").read_text().splitlines()
    assert len(val) == 3
