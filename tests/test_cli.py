import json

import pytest

from rls3 import cli, orchestrator
from rls3.datasets import read_samples, record_line
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


def test_usage_errors():
    assert run_cli("bogus-subcommand") == 1
    assert run_cli("run") == 1  # no run dir
    assert run_cli("gen-fixed-set", "--count", "5") == 1
    assert run_cli("replay") == 1


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
