"""The README's library quick start runs and gives the results its
comments state, and its CLI section names exactly the commands' options, so
that an API change cannot leave it stale; and the suite tests the checkout
it is run from, as the README's "Tests" section says, and reports every test
after a failing one."""

import argparse
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import swapdisc
from swapdisc import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> list[str]:
    """The lines of the python block under "## Library quick start"."""
    section = README.read_text(encoding="utf-8").split("## Library quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0].splitlines()


def test_library_quick_start_gives_its_commented_results():
    namespace: dict = {}
    checked = 0
    for line in quick_start():
        code, _, comment = line.partition("#")
        (statement,) = ast.parse(code).body or (None,)
        if isinstance(statement, ast.Expr):
            # an expression line states its value as a literal in its comment
            assert eval(code, namespace) == ast.literal_eval(comment.strip()), line
            checked += 1
        elif statement is not None:
            exec(code, namespace)
    assert checked == 2


def test_library_section_lists_exactly_what_swapdisc_exports():
    section = README.read_text(encoding="utf-8").split("## Library quick start\n", 1)[1]
    listed = section.split("`swapdisc` exports ", 1)[1].split("\n\n", 1)[0]
    # dotted module names are no exports
    assert set(re.findall(r"`(\w+)`", listed)) == set(swapdisc.__all__)


def test_cli_section_names_exactly_the_commands_options():
    section = README.read_text(encoding="utf-8").split("## CLI\n", 1)[1]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section.split("## Benchmark\n", 1)[0]))
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        option
        for sub in commands.choices.values()
        for action in sub._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert named - options == set(), "the README names options no command has"
    assert options - named == set(), "the README leaves out options of a command"


def test_no_pythonpath_entry_holds_another_swapdisc():
    # pyproject.toml's pythonpath = ["src"] puts this checkout's src ahead of
    # PYTHONPATH, so PYTHONPATH=<other tree>/src would silently test this
    # checkout instead of the other tree
    imported = Path(swapdisc.__file__).resolve().parent
    for entry in filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep)):
        package = (Path(entry) / "swapdisc").resolve()  # a relative entry from the cwd
        if (package / "__init__.py").is_file():
            assert package == imported, (
                f"PYTHONPATH holds the package {package}, but the suite imported "
                f"{imported}: run the suite from the checkout under test"
            )


# a hypothesis test that fails, then one that passes
FAILING_THEN_PASSING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_leaves_the_later_tests_running(tmp_path):
    # run with this checkout's pytest settings: its warning filters turn
    # every warning into an error, also one raised while a failure is
    # reported, which would end the session before the second test
    (tmp_path / "test_probe.py").write_text(FAILING_THEN_PASSING, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(README.parent / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1]
