"""The README's library quickstart runs and its CLI lines parse against the current API."""

import re
import shlex
from pathlib import Path

from fastsketch import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["result"].converged


def test_readme_cli_lines_parse():
    text = README.read_text(encoding="utf-8")
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        lines += re.sub(r"\\\n\s*", " ", block).splitlines()  # join continuation lines
    commands = [shlex.split(ln, comments=True)[1:] for ln in lines if ln.startswith("fastsketch ")]
    assert {argv[0] for argv in commands} == set(cli._COMMANDS)
    parser = cli._build_parser()
    for argv in commands:
        parser.parse_args(argv)
