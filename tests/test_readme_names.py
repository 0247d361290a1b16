"""Every backticked `module.name` in README.md names an attribute of that
chaoslab module, so a name deleted from the library cannot stay in the
README."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("kernel", "walsh", "chaos", "symspace", "combdim", "distribution", "report")


def test_readme_names_exist():
    pattern = re.compile(rf"`({'|'.join(MODULES)})\.([A-Za-z_]\w*)`")
    named = set(pattern.findall(README.read_text(encoding="utf-8")))
    assert named  # the README names kernel routines, so an empty match is a broken pattern
    missing = sorted(f"{mod}.{attr}" for mod, attr in named
                     if not hasattr(importlib.import_module(f"chaoslab.{mod}"), attr))
    assert missing == []
