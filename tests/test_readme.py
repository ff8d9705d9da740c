"""The README names exactly what ``import flapsim`` exports, the keys a scenario file
takes and the options the command line takes."""

import argparse
import inspect
import re
from pathlib import Path

import flapsim
from flapsim.cli import _build_parser
from flapsim.harness import SCENARIO_KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def library_names() -> list:
    """Names in the module bullets (``- module: `name`, ...``) of README's Library section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- [a-z]+: (.*(?:\n  .*)*)", section, flags=re.MULTILINE)
    return [name for bullet in bullets for name in re.findall(r"`(\w+)`", bullet)]


def test_readme_library_list_is_the_package_exports():
    listed = library_names()
    assert len(listed) == len(set(listed)), "a name is listed twice"
    exported = {name for name, obj in vars(flapsim).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    assert set(listed) == exported


def scenario_key_lists() -> dict:
    """Section -> (backticked keys, those before "(required)"), from the sub-bullets of
    README's Scenario YAML bullet."""
    text = README.read_text(encoding="utf-8")
    bullet = text.split("\n* **Scenario YAML**", 1)[1].split("\n\n", 1)[0]
    lists = re.findall(r"^  - ([a-z]+): (.*(?:\n    .*)*)", bullet, flags=re.MULTILINE)
    out = {}
    for section, keys in lists:
        before, marked, _ = keys.partition("(required)")
        required = re.findall(r"`(\w+)`", before) if marked else []
        out[section] = (re.findall(r"`(\w+)`", keys), required)
    return out


def test_readme_scenario_keys_are_the_loaders():
    listed = scenario_key_lists()
    assert set(listed) == set(SCENARIO_KEYS)
    for section, (keys, required) in listed.items():
        assert len(keys) == len(set(keys)), f"{section}: a key is listed twice"
        assert set(keys) == set(SCENARIO_KEYS[section]), section
        assert set(required) == {k for k, kind in SCENARIO_KEYS[section].items()
                                 if kind.endswith("!")}, section


def parser_options() -> set:
    """Every long option of every subcommand, --help aside."""
    subs = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {opt for sub in subs.choices.values() for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
            for opt in action.option_strings}


def test_readme_command_line_names_the_parsers_options():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section)) == parser_options()
