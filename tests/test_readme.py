"""The README's library example runs and prints what its comments say, and
its CLI examples and its JSON config parse."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from boxdet import cli
from boxdet.experiment import ExperimentConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "[0 0]"
    assert abs(float(lines[1]) - 0.5818) <= 5e-4  # criterion 1's closed form
    assert "stderr=0.0" in lines[2]


def test_cli_examples_parse():
    # Parsed, not run: the example files do not exist.
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## CLI"):]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("boxdet ")]
    assert commands
    parser = cli.build_parser()
    for argv in commands:
        assert parser.parse_args(argv[1:]).command == argv[1]


def test_json_config_parses():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Experiment configuration (JSON)"):]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    cfg = ExperimentConfig.from_dict(json.loads(block))
    assert cfg.n == cfg.box.dim == 8
