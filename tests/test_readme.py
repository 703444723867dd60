"""README examples stay runnable: its scenario blocks parse, its python blocks
run, its commands parse, and each scenario command, with its overrides,
validates."""

import os
import re
import shlex

from nearlink.cli import build_parser, main
from nearlink.scenario import parse_scenario

ROOT = os.path.join(os.path.dirname(__file__), "..")
README = os.path.join(ROOT, "README.md")


def test_readme_scenarios_and_commands_parse(capsys):
    text = open(README).read()
    blocks = re.findall(r"```(\w*)\n(.*?)```", text, re.S)
    yaml_blocks = [body for lang, body in blocks if lang == "yaml"]
    assert yaml_blocks
    for body in yaml_blocks:
        parse_scenario(body)
    python_blocks = [body for lang, body in blocks if lang == "python"]
    assert python_blocks
    for body in python_blocks:
        exec(compile(body, README, "exec"), {})
    section = text.split("## Command line", 1)[1]
    commands = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    lines = [line for line in commands.splitlines() if line.startswith("nearlink ")]
    assert len(lines) >= 8
    for line in lines:
        args = build_parser().parse_args(shlex.split(line)[1:])
        if args.command in ("run", "validate"):
            sets = [arg for override in args.overrides for arg in ("--set", override)]
            code = main(["validate", os.path.join(ROOT, args.scenario), *sets])
            assert code == 0, (line, capsys.readouterr().err)
