"""docs/METRICS.md matches the instruments the code registers."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def test_metrics_doc_is_fresh():
    # A subprocess imports the instrumented modules into a fresh metric
    # registry, free of instruments other tests created at runtime.
    result = subprocess.run(
        [sys.executable, str(REPO / "tools" / "gen_metrics_doc.py"),
         "--check"], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "is fresh" in result.stdout
