"""The README's Library section names exactly what ``import flapsim`` exports."""

import inspect
import re
from pathlib import Path

import flapsim

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
