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
    assert result["layers"][BUSY_LAYER[workload]] > 0
