"""The README's "Library quick start" and "Command line" blocks run as they
are written, so a renamed function, argument or flag fails here."""

import math
import shlex
from pathlib import Path

from streamdtf import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading: str, lang: str) -> str:
    """The first ```lang block under the README's `## heading`."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("\n```", 1)[0]


def test_library_quick_start_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(_block("Library quick start", "python"), "README.md", "exec"), namespace)
    assert len(namespace["series"].rows) == len(namespace["batches"])
    assert math.isfinite(namespace["mean"]) and namespace["variance"] > 0


def test_command_line_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cells.txt").write_text("0 0\n199 59\n")
    lines = _block("Command line", "bash").replace("\\\n", " ").splitlines()
    ran = []
    for line in lines:
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        argv = shlex.split(line)
        assert argv[0] == "streamdtf", line
        if argv[1] == "verify":  # test_verify_command_passes_every_check runs it
            continue
        assert cli.main(argv[1:]) == 0, line
        ran.append(argv[1])
    assert ran == ["synth", "train", "eval", "predict"]
    assert (tmp_path / "preds.csv").read_text().count("\n") == 3  # header + 2 cells
