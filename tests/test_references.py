"""Cross-references in the docs name code that exists.

Every ``:func:``, ``:class:``, ``:meth:`` and ``:data:`` target in a
``src/qpotlab`` module (its docstrings and comments), and every backticked
``<module>.<name>`` in README.md outside fenced code blocks, must resolve
to an attribute of the package, so that deleting or renaming a function
cannot leave a stale reference behind.
"""

import importlib
import re
from pathlib import Path

import qpotlab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qpotlab"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

ROLE = re.compile(r":(?:func|class|meth|data):`([\w.]+)`")
DOTTED = re.compile(r"`(?:qpotlab\.)?((?:%s)(?:\.\w+)+)(?:\(\))?`" % "|".join(MODULES))
FENCE = re.compile(r"^```.*?^```", re.DOTALL | re.MULTILINE)


def resolves(bases, target):
    """True if ``target`` is an attribute path from any of ``bases``; a
    path from the package may start with any of its modules."""
    for obj in bases:
        for part in target.split("."):
            if obj is qpotlab and part in MODULES:
                obj = importlib.import_module(f"qpotlab.{part}")
            elif hasattr(obj, part):
                obj = getattr(obj, part)
            else:
                break
        else:
            return True
    return False


def module_roles():
    """(module, target) for every role in the package's source text."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "qpotlab" if path.stem == "__init__" else f"qpotlab.{path.stem}"
        module = importlib.import_module(name)
        found.extend((module, t) for t in ROLE.findall(path.read_text()))
    return found


def readme_references():
    text = FENCE.sub("", (ROOT / "README.md").read_text())
    return sorted(set(DOTTED.findall(text)))


def test_the_scans_find_references():
    assert len(module_roles()) > 50
    # the README names the one function that forms the hierarchy's symbol
    assert {
        "grid.series_operator",
        "qpotential.complete_q_operator",
        "qpotential.hierarchy_symbol",
    } <= set(readme_references())


def test_module_roles_resolve():
    stale = [
        f"{module.__name__}: {target}"
        for module, target in module_roles()
        if not resolves([module, qpotlab], target)
    ]
    assert stale == []


def test_readme_references_resolve():
    assert [t for t in readme_references() if not resolves([qpotlab], t)] == []
