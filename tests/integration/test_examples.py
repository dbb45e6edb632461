"""Every script in ``examples/`` runs to completion.

Each example runs in a fresh interpreter, as a reader would run it, and
must exit 0: the scripts exit non-zero themselves when a result they
demonstrate does not hold (for example an attack that escapes
detection in ``attack_gallery.py``).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_exits_cleanly(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    completed = subprocess.run([sys.executable, str(script)],
                               env=dict(os.environ, PYTHONPATH=path),
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, (completed.stdout + completed.stderr)[-3000:]
