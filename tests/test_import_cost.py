"""`import repro` resolves its public names lazily (PEP 562).

The serving closure must not pay for the baselines (networkx behind
Aurum) or the evaluation harness it never calls.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

UNUSED_BY_THE_SERVER = ("networkx", "repro.baselines", "repro.eval")


def test_server_import_leaves_baselines_and_eval_unloaded():
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json, sys, repro.service.server; "
            f"print(json.dumps([m for m in {UNUSED_BY_THE_SERVER!r} if m in sys.modules]))",
        ],
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout) == []

