import filecmp
import functools
import json
import os
import shlex
import sys
from importlib import resources

import pytest

from rls3 import cli, orchestrator, scene, wire
from rls3.datasets import file_digest, read_samples, record_line
from rls3.judges import GenerativeJudge, JudgeError
from rls3.orchestrator import desk_config, run_loop


TINY_SETS = [
    "--set", "iterations=2",
    "--set", "episodes_per_iteration=2",
    "--set", "samples_per_episode=6",
    "--set", "finetune_steps=4",
    "--set", "validation_count=12",
    "--set", "test_count=12",
]


def run_cli(*argv):
    return cli.dispatch(list(argv))


def test_usage_errors(tmp_path):
    assert run_cli("bogus-subcommand") == 1
    assert run_cli("run") == 1  # no run dir
    assert run_cli("gen-fixed-set", "--count", "5") == 1
    assert run_cli("replay") == 1
    for count in ("0", "-3"):
        run_dir = tmp_path / count
        assert run_cli("gen-fixed-set", "--count", count, "--run-dir", str(run_dir)) == 1
        assert not run_dir.exists()


def test_unknown_config_key_is_usage_error(tmp_path):
    assert (
        run_cli(
            "run",
            "--run-dir", str(tmp_path / "r"),
            "--agent", "random",
            "--set", "not_a_key=1",
        )
        == 1
    )


def test_gen_fixed_set_reproducible(tmp_path, capsys):
    args = ["gen-fixed-set", "--count", "20", "--scenes", "train", "--seed", "5"]
    assert run_cli(*args, "--run-dir", str(tmp_path / "a")) == 0
    first = json.loads(capsys.readouterr().out)
    assert run_cli(*args, "--run-dir", str(tmp_path / "b")) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["digest"] == second["digest"]
    assert run_cli(*args[:-1], "6", "--run-dir", str(tmp_path / "c")) == 0
    third = json.loads(capsys.readouterr().out)
    assert third["digest"] != first["digest"]


def test_run_dir_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RLS3_RUN_DIR", str(tmp_path / "envdir"))
    assert run_cli("gen-fixed-set", "--count", "3", "--seed", "0") == 0
    out = json.loads(capsys.readouterr().out)
    assert (tmp_path / "envdir").is_dir()
    assert out["path"].startswith(str(tmp_path / "envdir"))


def test_full_run_and_downstream_commands(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert (
        run_cli(
            "run",
            "--run-dir", str(run_dir),
            "--agent", "random",
            "--judge", "generative",
            "--seed", "3",
            *TINY_SETS,
        )
        == 0
    )
    capsys.readouterr()
    assert (run_dir / "report.json").exists()

    assert run_cli("replay", "--run-dir", str(run_dir)) == 0
    replay_out = json.loads(capsys.readouterr().out)
    assert replay_out["consistent"] is True

    assert run_cli("export-plots", "--run-dir", str(run_dir)) == 0
    plots = json.loads(capsys.readouterr().out)["written"]
    assert len(plots) == 3

    assert (
        run_cli(
            "eval",
            "--run-dir", str(run_dir),
            "--samples", str(run_dir / "validation.jsonl"),
            "--judge", "generative",
        )
        == 0
    )
    summary = json.loads(capsys.readouterr().out)
    assert 1.0 <= summary["mean_rubric"] <= 5.0
    assert (run_dir / "eval.json").exists()


def test_replay_tamper_exits_2_and_names_record(tmp_path, capsys):
    run_dir = tmp_path / "run"
    run_loop(desk_config(
        iterations=1, episodes_per_iteration=1, samples_per_episode=5,
        agent="random", finetune_steps=1, validation_count=5, test_count=5,
    ), run_dir)
    records = read_samples(run_dir / "samples.jsonl")
    import dataclasses

    tampered = dataclasses.replace(records[2], caption="The mug is on the shelf.")
    lines = [record_line(r) for r in records]
    lines[2] = record_line(tampered)
    (run_dir / "samples.jsonl").write_text("\n".join(lines) + "\n")

    assert run_cli("replay", "--run-dir", str(run_dir)) == 2
    err = capsys.readouterr().err
    assert str(tampered.id) in err


@pytest.mark.parametrize("command", ["replay", "eval"])
@pytest.mark.parametrize(
    "edit",
    [lambda d: {}, lambda d: [1], lambda d: {**d, "camera": {**d["camera"], "pos": [0.0, 1.6]}}],
    ids=["empty", "list", "2d-camera"],
)
def test_malformed_sample_line_is_one_error(tmp_path, capsys, command, edit):
    samples = tmp_path / "samples.jsonl"
    assert run_cli("gen-fixed-set", "--run-dir", str(tmp_path), "--count", "3",
                   "--out", samples.name) == 0
    lines = samples.read_text().splitlines()
    lines[1] = json.dumps(edit(json.loads(lines[1])))
    samples.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli(command, "--run-dir", str(tmp_path / "out"), "--samples", str(samples)) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: malformed sample record"), err
    assert captured.out == ""


def test_runtime_error_exit_code(tmp_path):
    assert run_cli("replay", "--samples", str(tmp_path / "missing.jsonl")) == 2
    assert run_cli("export-plots", "--run-dir", str(tmp_path / "nothing")) == 2


class _DyingJudge(GenerativeJudge):
    """Fails in its first finetune and on every call after it."""

    dead = False

    def finetune(self, samples, steps):
        self.dead = True
        raise JudgeError("judge died in finetune")

    def infer(self, samples):
        if self.dead:
            raise JudgeError("judge is still dead")
        return super().infer(samples)


def test_judge_failure_writes_report_and_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        orchestrator, "make_judge", lambda config, names, seed: _DyingJudge(names, seed=seed)
    )
    run_dir = tmp_path / "run"
    assert run_cli("run", "--run-dir", str(run_dir), "--agent", "random", *TINY_SETS) == 2
    assert "judge died in finetune" in capsys.readouterr().err
    report = json.loads((run_dir / "report.json").read_text())
    assert report["failure"] == "judge died in finetune"
    assert report["test_metric"] is None
    assert report["iterations_completed"] == 0


def _edited_checkpoint(edit, tmp_path):
    ck = tmp_path / "agent"
    orchestrator.make_sac_agent(orchestrator.RunConfig(), 0).save(ck)
    manifest = json.loads((ck / "manifest.json").read_text())
    edit(manifest)
    (ck / "manifest.json").write_text(json.dumps(manifest))
    return ck


@pytest.mark.parametrize(
    "make_checkpoint, cause",
    [
        (lambda tmp_path: "/nonexistent", "No such file"),
        (
            functools.partial(_edited_checkpoint, lambda m: m["networks"].pop("q1")),
            "manifest must name exactly the networks",
        ),
        # a 400-digit int: math.isfinite would raise OverflowError on it
        (
            functools.partial(_edited_checkpoint, lambda m: m.update(alpha=10**400)),
            "expected a finite number",
        ),
    ],
    ids=["nonexistent", "manifest-without-q1", "int-alpha-past-float-range"],
)
def test_agent_checkpoint_failure_writes_report(tmp_path, capsys, make_checkpoint, cause):
    ck = make_checkpoint(tmp_path)
    run_dir = tmp_path / "run"
    argv = ["run", "--run-dir", str(run_dir), "--agent", "sac", *TINY_SETS]
    assert run_cli(*argv, "--set", f"agent_checkpoint={ck}") == 2
    report = json.loads((run_dir / "report.json").read_text())
    assert f"cannot load agent checkpoint {ck}" in report["failure"]
    assert cause in report["failure"]
    assert report["failure"] in capsys.readouterr().err
    assert report["iterations_completed"] == 0


@pytest.mark.parametrize(
    "command, cause",
    [
        (f"{sys.executable} -c pass", ("Broken pipe", "peer closed the stream")),
        ("/nonexistent/judge", ("cannot start external judge", "No such file")),
        ("", ("empty external judge command",)),
    ],
    ids=["exits-at-once", "cannot-start", "empty-command"],
)
def test_external_judge_failure_writes_report(tmp_path, capsys, command, cause):
    run_dir = tmp_path / "run"
    argv = ["run", "--run-dir", str(run_dir), "--agent", "random", *TINY_SETS]
    assert run_cli(*argv, "--judge", f"external:{command}") == 2
    report = json.loads((run_dir / "report.json").read_text())
    assert any(c in report["failure"] for c in cause), report["failure"]
    assert report["failure"] in capsys.readouterr().err
    assert report["test_metric"] is None


def test_judge_that_ignores_sigterm_is_killed_after_the_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(wire, "_TERMINATE_GRACE_S", 0.5)
    pid_file = tmp_path / "judge.pid"
    code = (
        "import os, signal, sys, time\n"
        "from rls3.external_stub import serve_stream\n"
        "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
        f"open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
        "serve_stream(sys.stdin, sys.stdout, 'all_correct', 0.5)\n"
        "time.sleep(60)\n"
    )
    run_dir = tmp_path / "run"
    judge = f"external:{shlex.quote(sys.executable)} -c {shlex.quote(code)}"
    assert run_cli("run", "--run-dir", str(run_dir), "--agent", "random", "--judge", judge,
                   *TINY_SETS) == 0
    report = json.loads((run_dir / "report.json").read_text())
    assert report["failure"] is None and report["test_metric"] == 5.0
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)  # killed and reaped


def test_judge_that_never_reads_times_out_the_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(wire, "client_for_address",
                        functools.partial(wire.client_for_address, timeout=0.5))
    run_dir = tmp_path / "run"
    judge = f"external:{shlex.quote(sys.executable)} -c 'import time; time.sleep(60)'"
    # a 200-sample validation request is larger than a pipe holds
    assert run_cli("run", "--run-dir", str(run_dir), "--agent", "random", "--judge", judge,
                   *TINY_SETS, "--set", "validation_count=200") == 2
    report = json.loads((run_dir / "report.json").read_text())
    assert report["failure"] == "timed out sending request"
    assert report["failure"] in capsys.readouterr().err
    assert report["iterations_completed"] == 0


def test_eval_contrastive_metric(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert run_cli("gen-fixed-set", "--count", "30", "--run-dir", str(run_dir)) == 0
    capsys.readouterr()
    samples = run_dir / "fixed_set.jsonl"
    assert run_cli("eval", "--run-dir", str(run_dir), "--samples", str(samples),
                   "--judge", "contrastive") == 0
    summary = json.loads(capsys.readouterr().out)

    records = read_samples(samples)
    config = orchestrator.config_from_dict({"judge": "contrastive"})
    names = orchestrator.resolve_suite(config.train_suite).catalog_names
    judge = orchestrator.make_judge(config, names, config.seed)
    assert summary == {
        "loss": judge.infer(records)[1],
        "retrieval_accuracy": judge.validation_metric(judge.encode(records)),
    }

    for behavior, accuracy in (("all_correct", 1.0), ("echo", 0.0)):
        stub = f"{sys.executable} -m rls3.external_stub --behavior {behavior} --loss 0.8"
        assert run_cli("eval", "--run-dir", str(run_dir), "--samples", str(samples),
                       "--judge", f"external:{stub}", "--set", "external_mode=contrastive") == 0
        assert json.loads(capsys.readouterr().out) == {"loss": 0.8, "retrieval_accuracy": accuracy}


STUB_COMMAND = f"{sys.executable} -m rls3.external_stub"


@pytest.mark.parametrize(
    "judge, extra, metric",
    [
        ("generative", [], "mean_rubric"),
        ("contrastive", [], "retrieval_accuracy"),
        (f"external:{STUB_COMMAND} --behavior all_correct", [], "mean_rubric"),
        (f"external:{STUB_COMMAND} --behavior echo",
         ["--set", "external_mode=contrastive"], "retrieval_accuracy"),
    ],
    ids=["generative", "contrastive", "external-generative", "external-contrastive"],
)
def test_eval_summary_keys(tmp_path, capsys, judge, extra, metric):
    run_dir = tmp_path / "run"
    assert run_cli("gen-fixed-set", "--count", "12", "--run-dir", str(run_dir)) == 0
    capsys.readouterr()
    samples = run_dir / "fixed_set.jsonl"
    assert run_cli("eval", "--run-dir", str(run_dir), "--samples", str(samples),
                   "--judge", judge, *extra) == 0
    summary = json.loads(capsys.readouterr().out)
    assert set(summary) == {"loss", metric}
    if metric == "mean_rubric":
        assert summary["loss"] == 6.0 - summary["mean_rubric"]


# eval.json carries the judge's floats: pinned for one numpy build (2.4.6 with
# OpenBLAS, equal under 1 and 2 BLAS threads), so a change to how eval scores
# the samples or builds its rows shows here.
GOLDEN_EVAL_DIGESTS = {
    "generative": (
        ["--judge", "generative"],
        "5545c1d6ba54e28322f16000b17eaf1b7e747aaecf7d8275ac99c20f9943af16",
    ),
    "contrastive": (
        ["--judge", "contrastive"],
        "18514b5d510572c407a193f8e45cc6d4904c065f442587cf0c5d608763221c85",
    ),
    "external-contrastive": (
        ["--judge", f"external:{STUB_COMMAND} --behavior all_correct",
         "--set", "external_mode=contrastive"],
        "810e234596c52dffb4a95e0ff223e6acaf9aad9bfe2202137a303f9e1f0df45f",
    ),
}


@pytest.mark.parametrize("judge", sorted(GOLDEN_EVAL_DIGESTS))
def test_eval_json_digests(tmp_path, capsys, judge):
    run_dir = tmp_path / "run"
    assert run_cli("gen-fixed-set", "--count", "60", "--run-dir", str(run_dir)) == 0
    args, digest = GOLDEN_EVAL_DIGESTS[judge]
    assert run_cli("eval", "--run-dir", str(run_dir), "--samples",
                   str(run_dir / "fixed_set.jsonl"), *args) == 0
    assert file_digest(run_dir / "eval.json") == digest


def _rename_subject(line: str) -> str:
    """The subject renamed to `teapot` as an object and as the subject."""
    return line.replace(json.dumps(json.loads(line)["subject"]), '"teapot"')


def _subject_out_of_scene(line: str) -> str:
    """The subject set to a catalog object that is none of the record's objects."""
    doc = json.loads(line)
    in_scene = {o["name"] for o in doc["objects"]}
    catalog = scene.builtin_suite("train").catalog_names
    doc["subject"] = next(name for name in catalog if name not in in_scene)
    return json.dumps(doc)


@pytest.mark.parametrize("judge", ["generative", "contrastive"])
@pytest.mark.parametrize(
    "edit, message",
    [
        (_rename_subject, "names 'teapot', which is not in the catalog"),
        (_subject_out_of_scene, "relates '{subject}', which is none of its objects"),
    ],
    ids=["outside-catalog", "out-of-scene"],
)
def test_eval_rejects_names_the_judge_cannot_look_up(tmp_path, capsys, judge, edit, message):
    run_dir = tmp_path / "run"
    assert run_cli("gen-fixed-set", "--count", "4", "--run-dir", str(run_dir)) == 0
    samples = run_dir / "fixed_set.jsonl"
    lines = samples.read_text().splitlines()
    lines[2] = edit(lines[2])  # the caption still parses to the stored terms
    samples.write_text("\n".join(lines) + "\n")
    rec = read_samples(samples)[2]
    capsys.readouterr()
    assert run_cli("eval", "--run-dir", str(run_dir), "--samples", str(samples),
                   "--judge", judge) == 2
    captured = capsys.readouterr()
    expected = f"error: record {rec.id} " + message.format(subject=rec.subject)
    assert captured.err.splitlines() == [expected]
    assert captured.out == ""
    assert not (run_dir / "eval.json").exists()


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_contrastive_eval_json_is_strict_json(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert run_cli("gen-fixed-set", "--count", "12", "--run-dir", str(run_dir)) == 0
    assert run_cli("eval", "--run-dir", str(run_dir), "--samples",
                   str(run_dir / "fixed_set.jsonl"), "--judge", "contrastive") == 0
    doc = _strict_json((run_dir / "eval.json").read_text())
    # every contrastive verdict is scored, so each sample counts in one complexity row
    assert sum(r["count"] for r in doc["per_complexity"]["rows"]) == 12
    for r in doc["per_term"]["rows"] + doc["per_complexity"]["rows"]:
        assert (r["mean_score"] is None) == (r["count"] == 0)


@pytest.mark.parametrize(
    "judge, extra",
    [
        ("contrastive", []),
        (f"external:{STUB_COMMAND} --behavior all_correct", ["--set", "external_mode=contrastive"]),
    ],
    ids=["contrastive", "external-contrastive"],
)
def test_contrastive_eval_rows_are_ranking_shares(tmp_path, capsys, judge, extra):
    run_dir = tmp_path / "run"
    assert run_cli("gen-fixed-set", "--count", "30", "--run-dir", str(run_dir)) == 0
    samples = run_dir / "fixed_set.jsonl"
    assert run_cli("eval", "--run-dir", str(run_dir), "--samples", str(samples),
                   "--judge", judge, *extra) == 0
    capsys.readouterr()
    doc = json.loads((run_dir / "eval.json").read_text())
    records = read_samples(samples)
    if judge == "contrastive":
        config = orchestrator.config_from_dict({"judge": "contrastive"})
        names = orchestrator.resolve_suite(config.train_suite).catalog_names
        verdicts, _ = orchestrator.make_judge(config, names, config.seed).infer(records)
        ranked = {v.sample_id: v.ranked_correct for v in verdicts}
    else:
        ranked = {rec.id: True for rec in records}  # the stub ranks every positive first
    filled = [r for r in doc["per_term"]["rows"] if r["count"] > 0]
    assert filled
    for row in filled:
        shares = [ranked[rec.id] for rec in records if row["key"] in rec.terms]
        assert row["count"] == len(shares)
        assert row["mean_score"] == sum(shares) / len(shares)


def test_eval_rows_count_every_record_of_a_file_with_repeated_ids(tmp_path, capsys):
    # two fixed sets in one file: ids 0-39 each name two records
    run_dir = tmp_path / "run"
    for seed in ("0", "1"):
        assert run_cli("gen-fixed-set", "--count", "40", "--seed", seed, "--out",
                       f"set{seed}.jsonl", "--run-dir", str(run_dir)) == 0
    samples = run_dir / "both.jsonl"
    samples.write_text((run_dir / "set0.jsonl").read_text() + (run_dir / "set1.jsonl").read_text())
    assert run_cli("eval", "--run-dir", str(run_dir), "--samples", str(samples),
                   "--judge", "contrastive") == 0
    capsys.readouterr()
    doc = json.loads((run_dir / "eval.json").read_text())
    records = read_samples(samples)
    config = orchestrator.config_from_dict({"judge": "contrastive"})
    names = orchestrator.resolve_suite(config.train_suite).catalog_names
    judge = orchestrator.make_judge(config, names, config.seed)
    scores = judge.scores(judge.encode(records)).tolist()
    # each record counts once in the rows, with its own terms
    for table, counts_in in (
        ("per_term", lambda key, rec: key in rec.terms),
        ("per_complexity", lambda key, rec: str(len(rec.terms)) == key),
    ):
        for row in doc[table]["rows"]:
            mine = [s for s, rec in zip(scores, records) if counts_in(row["key"], rec)]
            assert row["count"] == len(mine), (table, row)
            assert row["mean_score"] == (pytest.approx(sum(mine) / len(mine)) if mine else None)
    assert sum(r["count"] for r in doc["per_complexity"]["rows"]) == len(records) == 80


def test_eval_rejects_an_empty_sample_file(tmp_path, capsys, monkeypatch):
    samples = tmp_path / "empty.jsonl"
    samples.write_text("\n")
    built = []
    monkeypatch.setattr(orchestrator, "make_judge", lambda *args: built.append(args))
    run_dir = tmp_path / "run"
    assert run_cli("eval", "--run-dir", str(run_dir), "--samples", str(samples),
                   "--judge", "generative") == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: sample file {samples} holds no records"]
    assert captured.out == "" and built == []
    assert not (run_dir / "eval.json").exists()


# An external contrastive judge whose infer replies are malformed as each
# case says; every other request is acknowledged.
BAD_SIMILARITIES = {
    "missing": "{'loss': 0.5}",
    "wrong-length": "{'loss': 0.5, 'similarities': [[1.0, 0.0, 0.0]] * (n + 1)}",
    "short-triple": "{'loss': 0.5, 'similarities': [[1.0, 0.0]] * n}",
    "non-finite": "{'loss': 0.5, 'similarities': [[float('nan'), 0.0, 0.0]] * n}",
    "bool": "{'loss': 0.5, 'similarities': [[True, False, False]] * n}",
}


@pytest.mark.parametrize("case", sorted(BAD_SIMILARITIES))
def test_malformed_similarities_fail_the_run(tmp_path, capsys, case):
    code = (
        "import sys, json\n"
        "for line in sys.stdin:\n"
        "    req = json.loads(line)\n"
        "    n = len(req['samples'])\n"
        f"    resp = {BAD_SIMILARITIES[case]} if req['op'] == 'infer' else {{'ok': True}}\n"
        "    print(json.dumps({**resp, 'id': req['id']}), flush=True)\n"
    )
    run_dir = tmp_path / "run"
    judge = f"external:{shlex.quote(sys.executable)} -c {shlex.quote(code)}"
    assert run_cli("run", "--run-dir", str(run_dir), "--agent", "random", "--judge", judge,
                   "--set", "external_mode=contrastive", *TINY_SETS) == 2
    report = json.loads((run_dir / "report.json").read_text())
    assert report["failure"] == "external judge returned a malformed similarities list"
    assert report["failure"] in capsys.readouterr().err
    assert report["test_metric"] is None


# An external generative judge whose infer replies hold a malformed `terms`
# entry for each sample; every other request is acknowledged.
BAD_TERMS = {
    "null-entry": "[None] * n",
    "nested-entry": "[[['left']]] * n",
    "bare-string-entry": "['left'] * n",
}


@pytest.mark.parametrize("case", sorted(BAD_TERMS))
def test_malformed_terms_fail_the_run(tmp_path, capsys, case):
    code = (
        "import sys, json\n"
        "for line in sys.stdin:\n"
        "    req = json.loads(line)\n"
        "    n = len(req['samples'])\n"
        f"    resp = {{'terms': {BAD_TERMS[case]}}} if req['op'] == 'infer' else {{'ok': True}}\n"
        "    print(json.dumps({**resp, 'id': req['id']}), flush=True)\n"
    )
    run_dir = tmp_path / "run"
    judge = f"external:{shlex.quote(sys.executable)} -c {shlex.quote(code)}"
    assert run_cli("run", "--run-dir", str(run_dir), "--agent", "random", "--judge", judge,
                   *TINY_SETS) == 2
    report = json.loads((run_dir / "report.json").read_text())
    assert report["failure"] == "external judge returned a malformed terms list"
    assert report["failure"] in capsys.readouterr().err
    assert report["test_metric"] is None


@pytest.mark.parametrize("loss", ["float('nan')", "True"], ids=["nan", "bool"])
def test_malformed_finetune_loss_fails_the_run(tmp_path, capsys, loss):
    code = (
        "import sys, json\n"
        "for line in sys.stdin:\n"
        "    req = json.loads(line)\n"
        "    sims = [[1.0, 0.0, 0.0]] * len(req['samples'])\n"
        f"    resp = {{'loss': 0.5, 'similarities': sims}} if req['op'] == 'infer' "
        f"else {{'loss': {loss}}}\n"
        "    print(json.dumps({**resp, 'id': req['id']}), flush=True)\n"
    )
    run_dir = tmp_path / "run"
    judge = f"external:{shlex.quote(sys.executable)} -c {shlex.quote(code)}"
    assert run_cli("run", "--run-dir", str(run_dir), "--agent", "random", "--judge", judge,
                   "--set", "external_mode=contrastive", *TINY_SETS) == 2
    report = _strict_json((run_dir / "report.json").read_text())
    assert report["failure"] == "external judge returned a malformed fine-tuning loss"
    assert report["failure"] in capsys.readouterr().err
    assert report["finetune_losses"] == []


def test_suite_that_seats_nothing_writes_nothing(tmp_path, capsys):
    doc = json.loads((resources.files("rls3") / "data" / "scenes_train.json").read_text())
    for surface in doc["scenes"][-1]["surfaces"]:
        surface["half_extent_x"] = surface["half_extent_z"] = 0.05
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(doc))
    run_dir = tmp_path / "run"
    assert run_cli("run", "--run-dir", str(run_dir), "--agent", "random", *TINY_SETS,
                   "--set", f"train_suite={json.dumps(str(suite))}") == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: small pot fits no surface of scene 4"
    ]
    assert not run_dir.exists()


@pytest.mark.parametrize(
    "scene_id, overrides, digests_written",
    [
        (4, [], (False, False)),  # validation samples go round the scenes: the fifth fails
        # four validation samples miss scene 4; an episode reaches it later
        (4, ["validation_count=4", "iterations=1", "episodes_per_iteration=5"], (True, True)),
        # the test suite's first scene: the test set's child fails, and the run
        # ends at the test metric, after its last iteration
        (5, [], (True, False)),
    ],
    ids=["fixed-set", "episode", "test-set"],
)
def test_scene_placement_failure_writes_report(
    tmp_path, capsys, monkeypatch, scene_id, overrides, digests_written
):
    place = scene.sample_positions

    def place_nothing_on_one_scene(suite, spec, names, rng, *args):
        if spec.scene_id == scene_id:
            raise scene.PlacementError(f"no placement found on scene {scene_id}")
        return place(suite, spec, names, rng, *args)

    monkeypatch.setattr(scene, "sample_positions", place_nothing_on_one_scene)
    run_dir = tmp_path / "run"
    argv = ["run", "--agent", "random", *TINY_SETS]
    for override in overrides:
        argv += ["--set", override]
    assert run_cli(*argv, "--run-dir", str(run_dir)) == 2
    report = _strict_json((run_dir / "report.json").read_text())
    assert f"no placement found on scene {scene_id}" in report["failure"]
    assert report["failure"] in capsys.readouterr().err
    assert report["test_metric"] is None
    written = (report["validation_digest"] is not None, report["test_digest"] is not None)
    assert written == digests_written
    if scene_id == 5:  # the test set failed
        assert report["iterations_completed"] == 2
        # where the run ends does not depend on when the child fails
        again = tmp_path / "again"
        assert run_cli(*argv, "--run-dir", str(again)) == 2
        files = _files(run_dir)
        assert _files(again) == files
        assert filecmp.cmpfiles(run_dir, again, files, shallow=False)[0] == files
    else:
        assert report["iterations_completed"] == 0


def _files(directory) -> list[str]:
    return sorted(str(p.relative_to(directory)) for p in directory.rglob("*") if p.is_file())


def test_one_sample_contrastive_finetune_fails_the_run(tmp_path, capsys):
    run_dir = tmp_path / "run"
    argv = ["run", "--run-dir", str(run_dir), "--agent", "random", "--judge", "contrastive",
            "--set", "iterations=1", "--set", "episodes_per_iteration=1",
            "--set", "samples_per_episode=2", "--set", "validation_count=20",
            "--set", "test_count=20"]
    assert run_cli(*argv) == 2
    report = _strict_json((run_dir / "report.json").read_text())
    assert "at least 2 samples" in report["failure"]
    assert report["finetune_losses"] == []


@pytest.mark.parametrize(
    "override",
    ["external_mode=contrastiv", "iterations=abc", "agent_hidden=5", "early_stop=3", "early_stop.patience=3",
     "sampling_rate=[1]", "seed=abc", "seed=1.5", "judge=5", "iterations=1.5", "seed=-1",
     'p_swap="x"', "warmup=abc", "budget=1.5", "agent_checkpoint=5", "sampling_rate=true",
     "agent=sac", "agent_hidden=[1.5,2.9]", "judge_hidden=[64,0]",
     'early_stop={"min_iterations":1,"patience":1.5,"epsilon":0.1}',
     'early_stop={"min_iterations":"x","patience":1,"epsilon":0.1}',
     'early_stop={"min_iterations":1,"patience":1,"epsilon":"x"}',
     "validation_count=0", "test_count=-3", "judge_lr=0", "temperature=0", "validation_seed=-1",
     "pretrain_update_every=0", "buffer_capacity=0", "generative_minibatch=0",
     "alpha=-1", "alpha=0", "gamma=1.5", "polyak=2", "p_swap=2", "dmax=-1", "snap_tol=-1",
     "warmup=-1", "budget=0", "reward_scale=NaN", "reward_scale=-1", "dmax=1e400",
     "snap_tol=Infinity", "agent_lr=Infinity", "judge_lr=1e400", "temperature=Infinity",
     "threshold=2", "threshold=NaN", "pretrain_steps=0",
     "sampling_rate=0.05",  # 0.05 * 6 samples per episode rounds to an empty batch
     pytest.param("p_swap=1" + "0" * 400, id="p_swap-int-past-float-range"),
     'early_stop={"min_iterations":-3,"patience":1,"epsilon":0.1}',
     'early_stop={"min_iterations":1,"patience":1,"epsilon":NaN}'],
)
def test_mistyped_config_value_is_usage_error(tmp_path, capsys, override):
    run_dir = tmp_path / "run"
    # TINY_SETS first: a later --set of the same key wins, and a missing check
    # starts a small run, not one at the default size
    assert run_cli("run", "--run-dir", str(run_dir), "--agent", "random", *TINY_SETS,
                   "--set", override) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not run_dir.exists()


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_flag_must_be_positive(tmp_path, capsys, budget):
    run_dir = tmp_path / "run"
    assert run_cli("run", "--run-dir", str(run_dir), "--agent", "random", "--budget", budget) == 1
    assert capsys.readouterr().err.splitlines() == ["error: budget must be null or positive"]
    assert not run_dir.exists()


@pytest.mark.parametrize(
    "argv", [["--steps", "0"], ["--set", "pretrain_steps=0"]], ids=["steps-flag", "pretrain-steps"]
)
def test_pretrain_steps_must_be_positive(tmp_path, capsys, argv):
    run_dir = tmp_path / "run"
    assert run_cli("pretrain", "--run-dir", str(run_dir), *argv) == 1
    assert capsys.readouterr().err.splitlines() == ["error: pretrain_steps must be positive"]
    assert not run_dir.exists()


# each subcommand's config flags that it does not read
_UNREAD_FLAGS = [
    (command, flag)
    for command, flags in (
        ("pretrain", ("--judge", "--agent", "--budget")),
        ("gen-fixed-set", ("--judge", "--agent", "--budget")),
        ("eval", ("--agent", "--budget")),
        ("export-plots", ("--config", "--seed", "--set", "--judge", "--agent", "--budget")),
        ("replay", ("--config", "--seed", "--set", "--judge", "--agent", "--budget")),
    )
    for flag in flags
]
_FLAG_VALUES = {"--config": "c.json", "--seed": "3", "--set": "foo.bar=1",
                "--judge": "generative", "--agent": "random", "--budget": "5"}
_REQUIRED = {"pretrain": ["--steps", "1"], "gen-fixed-set": ["--count", "3"],
             "eval": ["--samples", "s.jsonl"]}


@pytest.mark.parametrize("command, flag", _UNREAD_FLAGS, ids=[" ".join(c) for c in _UNREAD_FLAGS])
def test_subcommand_takes_only_the_flags_it_reads(tmp_path, capsys, command, flag):
    run_dir = tmp_path / "run"
    argv = [command, "--run-dir", str(run_dir), *_REQUIRED.get(command, [])]
    assert run_cli(*argv, flag, _FLAG_VALUES[flag]) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not run_dir.exists()


def test_eval_rejects_a_judge_checkpoint_that_does_not_fit(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert run_cli("gen-fixed-set", "--count", "4", "--run-dir", str(run_dir)) == 0
    checkpoint = tmp_path / "judge"
    checkpoint.mkdir()  # holds no classifier.net
    capsys.readouterr()
    assert run_cli("eval", "--run-dir", str(run_dir), "--samples",
                   str(run_dir / "fixed_set.jsonl"), "--judge-checkpoint", str(checkpoint)) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot load judge checkpoint {checkpoint}")
    assert captured.out == ""
    assert not (run_dir / "eval.json").exists()


def test_eval_refuses_a_checkpoint_for_an_external_judge(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert run_cli("gen-fixed-set", "--count", "4", "--run-dir", str(run_dir)) == 0
    checkpoint = tmp_path / "judge"
    checkpoint.mkdir()
    capsys.readouterr()
    assert run_cli("eval", "--run-dir", str(run_dir), "--samples",
                   str(run_dir / "fixed_set.jsonl"), "--judge-checkpoint", str(checkpoint),
                   "--judge", f"external:{STUB_COMMAND} --behavior all_correct") == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: external judges do not take local checkpoints"]
    assert captured.out == ""
    assert not (run_dir / "eval.json").exists()


@pytest.mark.parametrize(
    "config, argv",
    [
        (None, ["--seed", "3", "--set", "seed.x=1"]),
        ({"early_stop": None}, ["--set", "early_stop.patience=3"]),
        (None, ["--set", "agent_hidden=[4]", "--set", "agent_hidden.0=3"]),
        ([1], []),
    ],
    ids=["under-int", "under-null", "under-list", "config-file-list"],
)
def test_config_that_is_no_object_is_usage_error(tmp_path, capsys, config, argv):
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config))
        argv = ["--config", str(tmp_path / "c.json"), *argv]
    run_dir = tmp_path / "run"
    assert run_cli("run", "--run-dir", str(run_dir), "--agent", "random", *argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "object" in err[0], err
    assert not run_dir.exists()


@pytest.mark.parametrize("key", ["train_suite", "test_suite"])
def test_bad_suite_file_writes_nothing(tmp_path, capsys, key):
    suite = tmp_path / "bad.json"
    suite.write_text(json.dumps({"scenes": []}))
    run_dir = tmp_path / "run"
    assert run_cli("run", "--run-dir", str(run_dir), "--agent", "random",
                   "--set", f"{key}={json.dumps(str(suite))}", *TINY_SETS) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: suite is missing key 'catalog'"]
    assert not run_dir.exists()


def test_seed_flag_changes_run_digest(tmp_path, capsys):
    out = {}
    for seed in ("1", "2"):
        run_dir = tmp_path / f"s{seed}"
        assert (
            run_cli("run", "--run-dir", str(run_dir), "--agent", "random",
                    "--seed", seed, *TINY_SETS)
            == 0
        )
        capsys.readouterr()
        out[seed] = json.loads((run_dir / "report.json").read_text())["samples_digest"]
    assert out["1"] != out["2"]


def test_no_writes_outside_run_dir(tmp_path, monkeypatch, capsys):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    run_dir = tmp_path / "run"
    assert run_cli("gen-fixed-set", "--count", "4", "--run-dir", str(run_dir)) == 0
    capsys.readouterr()
    assert list(workdir.iterdir()) == []
