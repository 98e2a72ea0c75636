"""The CI cap script, `.github/caps.py`: the workflow runs each of its cases
once, and its `streamed` helper hashes and holds back what `cli.main` writes."""
import hashlib
import importlib.util
import re
from pathlib import Path

from toricgate.cli import main

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("caps", ROOT / ".github" / "caps.py")
caps = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(caps)


def test_every_cap_step_of_the_workflow_runs_one_case_of_the_script():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    steps = re.findall(r"python \.github/caps\.py (\S+)", workflow)
    assert sorted(steps) == sorted(caps.CASES)


def test_streamed_hashes_the_text_before_the_held_lines_as_main_writes(
        capsys, monkeypatch, tmp_path):
    argv = ["partition", "--n", "3", "--control", "1", "--target", "2", "--check-hypercube"]
    assert main(argv) == 0
    text = capsys.readouterr().out.encode()
    tail = b"phi1 isomorphic to Q2: yes\nphi2 isomorphic to Q2: yes\ncrossing edges: 8\n"
    assert text.endswith(tail)
    want = (0, hashlib.sha256(text[:-len(tail)]).hexdigest(), tail)
    code, _, digest, held = caps.streamed(argv, hold=len(tail))
    assert (code, digest, held) == want
    code, _, digest, held = caps.streamed(argv)
    assert (code, digest, held) == (0, hashlib.sha256(text).hexdigest(), b"")
    # read a few bytes at a time, so the held tail spans reads; every byte goes to `into`
    monkeypatch.setattr(caps, "CHUNK", 7)
    with open(tmp_path / "out", "wb") as into:
        code, _, digest, held = caps.streamed(argv, into=into, hold=len(tail))
    assert (code, digest, held) == want
    assert (tmp_path / "out").read_bytes() == text
