"""Every module-level definition in ccakit is read by the program.

A stdlib stand-in for a dead-code finder: each module under src/ccakit and
bench/ is parsed with ``ast``.  A function, class or assigned name defined
at the top level of a src/ccakit module must be read outside its own
definition, in src/ccakit or in bench/.  A read is a loaded name, an
attribute access or a re-export from a package ``__init__.py``; a string
or a comment is not.  Dunders and the definitions of ``__init__.py`` are
exempt.  A definition that only tests reach counts as dead.  Names are
matched by name alone, so a read of a same-named attribute elsewhere
keeps a definition alive.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ccakit"
READERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def defined_names(stmt: ast.stmt) -> list[str]:
    """Names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [node.id for t in targets for node in ast.walk(t)
            if isinstance(node, ast.Name)]


def read_names(stmt: ast.stmt, init: bool) -> set[str]:
    """Names a statement reads; an ``__init__.py`` import re-exports."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif init and isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def dead_definitions(modules: list[str], sources: dict[str, str]
                     ) -> list[str]:
    """'module:name' for each top-level definition of the named modules
    that no statement of sources reads, its own statement aside.  sources
    maps a file name to its source and holds the modules too."""
    bodies = {name: ast.parse(source).body
              for name, source in sources.items()}
    count = Counter()
    for name, body in bodies.items():
        for stmt in body:
            count.update(read_names(stmt, name.endswith("__init__.py")))
    dead = []
    for name in modules:
        for stmt in bodies[name]:
            own = read_names(stmt, False)
            dead += [f"{name}:{defined}" for defined in defined_names(stmt)
                     if not (defined.startswith("__")
                             and defined.endswith("__"))
                     and count[defined] == (defined in own)]
    return dead


SOURCES = {str(p.relative_to(ROOT)): p.read_text() for p in READERS}
MODULES = [name for name in SOURCES if name.startswith("src/")
           and not name.endswith("__init__.py")]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: Path(m).name)
def test_no_dead_definitions(module):
    assert dead_definitions([module], SOURCES) == []


def test_the_check_catches_a_dead_definition():
    sources = {
        "m.py": ("import json\n"
                 "LIMIT = 3\n"
                 "UNREAD: int = 4\n"
                 "def f(n):\n"
                 "    return f(n - 1) if n else LIMIT\n"
                 "def g():\n"
                 "    return json.dumps('UNREAD')  # UNREAD\n"
                 "class C:\n"
                 "    pass\n"
                 "__version__ = '1'\n"),
        "__init__.py": "from .m import C\n",
        "use.py": "import m\nm.g()\n",
    }
    assert dead_definitions(["m.py"], sources) == ["m.py:UNREAD", "m.py:f"]
