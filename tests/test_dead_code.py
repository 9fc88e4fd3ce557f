"""No dead code: every module-level name in the package is used somewhere."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "lightavseg").glob("*.py"))
EXEMPT = {"__all__"}


def module_level_names(tree: ast.Module) -> list[str]:
    """Functions, classes and constants a module defines at its top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n not in EXEMPT]


def foreign_modules(tree: ast.Module) -> set[str]:
    """Names a file binds to modules outside the package (``np``, ``math``, ...)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names
                      if a.name.split(".")[0] != "lightavseg"}
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] != "lightavseg"):
            names |= {a.asname or a.name for a in node.names}
    return names


def loaded_names() -> set[str]:
    """Every name read as a variable or an attribute in src/, tests/ and perfbench/.

    An attribute of a module from outside the package, such as ``np.__version__``,
    reads a name of that module, so it does not count.
    """
    loaded = set()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            tree = ast.parse(path.read_text(), filename=str(path))
            foreign = foreign_modules(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
                elif isinstance(node, ast.Attribute) and not (
                        isinstance(node.value, ast.Name) and node.value.id in foreign):
                    loaded.add(node.attr)
    return loaded


@pytest.fixture(scope="module")
def loaded():
    return loaded_names()


@pytest.mark.parametrize("path", PACKAGE, ids=[p.stem for p in PACKAGE])
def test_every_module_level_name_is_read(path, loaded):
    unread = [n for n in module_level_names(ast.parse(path.read_text())) if n not in loaded]
    assert unread == [], f"{path.name} defines names nothing reads: {unread}"
