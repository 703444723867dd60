"""README examples stay runnable: its scenario blocks parse, its commands parse."""

import os
import re
import shlex

from nearlink.cli import build_parser
from nearlink.scenario import parse_scenario

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_readme_scenarios_and_commands_parse():
    text = open(README).read()
    blocks = re.findall(r"```(\w*)\n(.*?)```", text, re.S)
    yaml_blocks = [body for lang, body in blocks if lang == "yaml"]
    assert yaml_blocks
    for body in yaml_blocks:
        parse_scenario(body)
    section = text.split("## Command line", 1)[1]
    commands = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    lines = [line for line in commands.splitlines() if line.startswith("nearlink ")]
    assert len(lines) >= 8
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])
