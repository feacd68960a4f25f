"""The README's examples run as written."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _block(heading: str, lang: str) -> str:
    """The first ```lang block under the README's `## heading`."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("\n```", 1)[0]


def test_command_line_examples(tmp_path):
    # each line runs as `python -m starpcg ...` in one directory, in order,
    # so the files written by earlier lines feed the later ones
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    lines = _block("Command line", "sh").splitlines()
    assert lines and all(line.startswith("starpcg ") for line in lines)
    for line in lines:
        words = shlex.split(line, comments=True)
        stdin = None
        if "<" in words:
            at = words.index("<")
            stdin = (tmp_path / words[at + 1]).read_text()
            del words[at:]
        proc = subprocess.run(
            [sys.executable, "-m", "starpcg", *words[1:]],
            cwd=tmp_path,
            env=env,
            input=stdin,
            capture_output=True,
            text=True,
        )
        # obstruct exits 2 when it finds no certificate, as its comment says
        allowed = {0, 2} if words[1] == "obstruct" else {0}
        assert proc.returncode in allowed, (line, proc.returncode, proc.stderr)


def test_library_quick_start():
    exec(compile(_block("Library quick start", "python"), str(README), "exec"), {})
