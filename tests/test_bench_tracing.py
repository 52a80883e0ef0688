"""The bench's traced pass can still wrap every library function it names."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_tracer_installs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")]))
    result = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
