"""The README's examples run as written, and its option list matches the CLI."""

import argparse
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from starpcg import cli

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


def test_mink_option_list_matches_the_parser():
    # the README's sentence lists every mink search option, and no other
    text = README.read_text(encoding="utf-8")
    lead = "Each `mink` search option sets the `SearchConfig` field of its name:"
    sentence = re.split(r"\.\s", text.split(lead, 1)[1], maxsplit=1)[0]
    listed = re.findall(r"`(--[\w-]+)`", sentence)
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {s for a in sub.choices["mink"]._actions for s in a.option_strings if s.startswith("--")}
    assert sorted(listed) == sorted(options - {"--help", "--human", "--output"})
