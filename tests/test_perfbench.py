"""The benchmark's answer checks: one short run of each workload of
``perfbench/run.py``, whose every answer is checked against its oracle
(the VASS run oracle, certificate re-verification, exit statuses)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["search", "qfield", "vass"])
def test_a_short_benchmark_run_answers_every_problem_correctly(workload):
    # a subprocess: the benchmark imports polyzero afresh from the
    # checkout, replacing the modules of the process it runs in, and
    # writes no bytecode, as it is run
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    p = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       capture_output=True, text=True, env=env)
    assert p.returncode == 0, p.stdout + p.stderr
    last = json.loads(p.stdout.splitlines()[-1])
    assert last["failed"] == 0 and last["correct"] is True
    assert last["attempted"] > 0
