"""README.md is the behaviour contract: its subcommands, options, bounds,
module names and examples are read here and checked against the code."""

import ast
import contextlib
import importlib
import io
import json
import os
import re
import shlex
from pathlib import Path

import pytest

from localsym import cli, localfield

from test_hygiene import SRC, _parsed

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(text, heading):
    """The text under the markdown heading line `heading`, up to the next
    heading of any level."""
    start = text.index(f"\n{heading}\n") + len(heading) + 2
    end = re.search(r"^#", text[start:], re.M)
    return text[start:start + end.start()] if end else text[start:]


def _fences(text, lang):
    """The bodies of the ```lang blocks of `text`."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.S | re.M)


def examples(text):
    """The lines of the one sh block under '### Examples'."""
    (block,) = _fences(_section(text, "### Examples"), "sh")
    return block.splitlines()


def commands(text):
    """(subcommand, argv) of each `localsym` line of the examples."""
    out = []
    for line in examples(text):
        words = shlex.split(line)
        if words[0] == "localsym":
            out.append((words[1], words[1:]))
    return out


def bounds(text):
    """{name: value} of the rows of the size-bound table."""
    return {name: int(value) for name, value in
            re.findall(r"^\| `(\w+\.\w+)` \| (\d+) \|", _section(text, "### Size bounds"), re.M)}


def module_rows(text):
    """{module: (names in its sentence, names in its last column)} of the
    rows of the module table."""
    rows = {}
    for line in _section(text, "## Modules").splitlines():
        if m := re.match(r"^\| `localsym\.(\w+)` \| (.*) \| (.*) \|$", line):
            module, sentence, names = m.groups()
            rows[module] = (set(re.findall(r"`(\w+)`", sentence)), re.findall(r"`(\w+)`", names))
    return rows


def public_names(module):
    """The public top-level functions and classes of src/localsym/<module>.py."""
    tree = _parsed(SRC / f"{module}.py")
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def run_examples(text, directory):
    """Run the examples in `directory` as a shell would: each `echo '...' > f`
    writes f, and each `localsym` line runs through `cli.main`.  Returns
    (argv, exit code, stdout lines) for each `localsym` line."""
    runs = []
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for line in examples(text):
            words = shlex.split(line)
            if words[0] == "echo":
                _, content, redirect, path = words
                assert redirect == ">", line
                Path(path).write_text(content + "\n")
                continue
            assert words[0] == "localsym", line
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                try:
                    code = cli.main(words[1:])
                except SystemExit as e:
                    code = e.code
            runs.append((words[1:], code, out.getvalue().splitlines()))
    finally:
        os.chdir(cwd)
    return runs


@pytest.fixture(scope="module")
def text():
    return README.read_text()


@pytest.fixture(scope="module")
def runs(text, tmp_path_factory):
    return run_examples(text, tmp_path_factory.mktemp("readme"))


def test_examples_cover_every_subcommand(text):
    assert {name for name, _ in commands(text)} == set(cli._parsers()[1])


def test_examples_use_every_option_of_their_subcommand(text):
    used = {}
    for name, argv in commands(text):
        used.setdefault(name, set()).update(w for w in argv if re.match(r"-[a-z-]", w))
    for name, parser in cli._parsers()[1].items():
        options = {o for action in parser._actions for o in action.option_strings} - {"-h", "--help"}
        assert used.get(name, set()) == options, name


def test_stated_bounds_are_the_code_bounds(text):
    assert bounds(text) == {
        "cli.MAX_BLOCKS": cli.MAX_BLOCKS,
        "cli.MAX_MATRIX_SIZE": cli.MAX_MATRIX_SIZE,
        "localfield.DIGIT_LIMIT": localfield.DIGIT_LIMIT,
        "cli.SELFTEST_BOUND": cli.SELFTEST_BOUND,
    }


def test_module_rows_name_the_public_functions_and_classes(text):
    rows = module_rows(text)
    modules = {f.stem for f in SRC.glob("*.py")} - {"__init__"}
    assert set(rows) == modules
    for module, (mentioned, listed) in rows.items():
        public = public_names(module)
        assert len(listed) == len(set(listed)), module
        assert set(listed) == public, (module, set(listed) ^ public)
        assert mentioned <= public, (module, mentioned - public)


def test_dotted_names_resolve(text):
    modules = {f.stem for f in SRC.glob("*.py")} - {"__init__"}
    refs = re.findall(rf"`({'|'.join(modules)})\.(\w+)`", text)
    assert refs
    for module, name in refs:
        assert hasattr(importlib.import_module(f"localsym.{module}"), name), f"{module}.{name}"


def test_every_example_prints_one_json_line_with_exit_0(runs):
    assert runs
    for argv, code, lines in runs:
        assert code in (0, None), (argv, lines)
        assert len(lines) == 1, argv
        envelope = json.loads(lines[0])
        assert set(envelope) == {"command", "payload", "version"}, argv
        assert envelope["command"] == argv[0]


def test_failure_log_line_is_a_line_of_the_distinguish_example(text, runs):
    (line,) = (line for block in _fences(text, "text") for line in block.splitlines()
               if line.startswith("w="))
    (log,) = (json.loads(lines[0])["payload"]["failure_log"] for argv, _, lines in runs
              if argv[0] == "distinguish")
    assert line in log
