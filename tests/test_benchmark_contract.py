"""The benchmark's worker (perfbench/worker.py) runs against this checkout.

It calls and traces names of the package by their current spelling and
signature (`Mlp.forward`/`backward`, `pretrain_intrinsic`, `measure_valid_rate`,
`run_loop`, `save_net`, ...), so a refactor that renames one of them or changes
how it is called fails here. The worker runs as a subprocess, as
perfbench/run.py starts it; nothing of perfbench/ is imported into this process.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# A layer each workload must exercise. loop_external's judge runs in the stub
# process, so nets.* reads zero there and its wire requests are checked instead.
BUSY_LAYER = {
    "pretrain": "nets.backward.calls",
    "loop_generative": "nets.backward.calls",
    "loop_contrastive": "nets.backward.calls",
    "loop_external": "wire.request.calls",
}


# Per-layer metrics of each loop's judge work, which a refactor could stop the
# tracer from seeing: a renamed or bypassed function reads zero calls.
JUDGE_LAYERS = {
    "loop_generative": ("judges.generative_features.calls", "judges.rubric_score.calls"),
    "loop_contrastive": ("judges.image_features.calls", "judges.text_features.calls"),
    "loop_external": (),
}
# one validation pass before the first iteration, one after each of the 10
# iterations, and the test pass
VALIDATION_PASSES = 12


@pytest.mark.parametrize("workload", sorted(BUSY_LAYER))
def test_traced_worker_run_is_correct(tmp_path, workload):
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    argv = [sys.executable, str(ROOT / "perfbench" / "worker.py"), workload, "0", "1"]
    proc = subprocess.run(
        [*argv, repr(time.monotonic()), str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["problems"] == []
    assert "aborted" not in result
    layers = result["layers"]
    assert layers[BUSY_LAYER[workload]] > 0
    if workload in JUDGE_LAYERS:
        assert layers["judges.validation_metric.calls"] == VALIDATION_PASSES
        for name in JUDGE_LAYERS[workload]:
            assert layers[name] > 0, name
