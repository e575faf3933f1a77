"""README.md names the tests behind its guarantees; the names must not go stale."""

import re
import shlex
from pathlib import Path

import pytest

from fmcwhar import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
TEST_NAME = r"(?:test_|Test)\w*"
# A claim with one of these phrases must cite the test that holds it.
CLAIMS = re.compile(r"bit-identical|bit for bit|byte for byte|exits? 2")


# Each command line of the code block under "## CLI".
CLI_LINES = [line for line in re.search(r"^## CLI\n+```sh\n(.*?)^```", README, re.M | re.S)
             .group(1).splitlines() if line.startswith("fmcwhar ")]


def _defined_tests():
    names = set()
    for path in (ROOT / "tests").glob("*.py"):
        names.update(re.findall(rf"^\s*(?:def|class) ({TEST_NAME})\b", path.read_text(), re.M))
    return names


def _items(text):
    """The README's paragraphs and list items, code blocks left out. A line
    that ends in a colon leads into the list after it, whose items cite
    the tests, and is no item of its own."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    return [item for block in re.split(r"\n\s*\n", text)
            for item in re.split(r"\n(?=\s*- )", block)
            if item.strip() and not item.rstrip().endswith(":")]


def test_every_cited_test_is_defined():
    cited = set(re.findall(rf"`({TEST_NAME})`", README))
    assert cited
    assert sorted(cited - _defined_tests()) == []


def test_every_exactness_and_exit_claim_cites_a_test():
    uncited = [item for item in _items(README)
               if CLAIMS.search(item) and not re.search(rf"`{TEST_NAME}`", item)]
    assert uncited == []


def test_cli_block_is_found():
    assert CLI_LINES


@pytest.mark.parametrize("line", CLI_LINES, ids=lambda line: line.split()[1])
def test_cli_examples_parse(line):
    cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])
