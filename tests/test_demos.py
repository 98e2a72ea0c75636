"""Every demo script runs to completion; draw_partition writes the goldens."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    if demo.name == "draw_partition.py":
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == sorted(f"partition_n{n}.{ext}"
                                 for n in (2, 3, 4) for ext in ("dot", "svg"))
        for name in written:
            assert (tmp_path / name).read_bytes() == \
                (ROOT / "tests" / "golden" / name).read_bytes(), name
