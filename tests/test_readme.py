"""README stays in sync with the config: every ``--set`` in its shell
examples loads, and every inline code span that is a dotted config key names
a key that exists."""

import re
from pathlib import Path

from invosc import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
_BLOCK = re.compile(r"^```(\w*)$(.*?)^```", flags=re.M | re.S)
_REMOVED_SECTIONS = ("grid", "verify")


def test_every_set_in_a_shell_example_loads():
    # the CLI synopsis, a plain block, writes --set path=value
    assignments = [assignment for language, block in _BLOCK.findall(README)
                   if language == "sh"
                   for assignment in re.findall(r"--set\s+(\S+)", block)]
    assert assignments
    for assignment in assignments:
        cli.load_config(None, [assignment])


def test_every_config_key_in_a_code_span_exists():
    # a span such as `packet.sigma`, `force.times[1]` or `packet.x0=1e300`,
    # in a section the config has or one it no longer has (`grid.dt`)
    sections = "|".join((*cli.DEFAULT_CONFIG, *_REMOVED_SECTIONS))
    keys = re.findall(rf"`({sections})\.(\w+)(?:\[\d+\])?(?:=[^`\s]*)?`",
                      _BLOCK.sub("", README))
    assert keys
    assert [f"{section}.{key}" for section, key in keys
            if key not in cli.DEFAULT_CONFIG.get(section, {})] == []
