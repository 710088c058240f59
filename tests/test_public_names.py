"""Every public name is called inside figp, or README says why not."""

import ast
import pathlib
import re

import figp

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
SECTION = "## Public names that no figp command calls"


def _referenced_names():
    """The names each module of figp but `__init__.py` reads, as a bare
    name or an attribute, outside a definition of that same name."""
    names = set()
    for path in pathlib.Path(figp.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = {}  # node id -> the name of each definition enclosing it
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                for sub in ast.walk(node):
                    own.setdefault(id(sub), set()).add(node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name not in own.get(id(node), ()):
                names.add(name)
    return names


def _readme_reasons():
    """What README's list of uncalled public names gives a reason for:
    the quoted text that opens each item."""
    text = README.read_text(encoding="utf-8")
    section = text.split(SECTION, 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^- `([^`]+)`:", section, re.M))


def test_every_public_name_has_a_caller_or_a_reason():
    uncalled = set(figp.__all__) - _referenced_names()
    assert sorted(uncalled - _readme_reasons()) == []
