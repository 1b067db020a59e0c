"""DESIGN.md §5: every constructor option and every public name has a
reader outside the tests.

A constructor takes an option only where code other than the tests
passes it; a value only tests change is a class constant, which a test
assigns on the instance after construction.  This test parses
``src/repro`` and every non-test file under ``src/``, ``bench/``,
``benchmarks/``, ``examples/`` and ``tools/`` and checks, for every
class that such code constructs, that each ``__init__`` parameter with
a default is passed somewhere:

* a keyword of that name in any call counts, so a ``**kwargs``
  pass-through (``Machine.arm_sanitizer(strict=True)``) is covered;
* so does a call to the class with enough positional arguments to
  reach the parameter;
* a subclass whose ``__init__`` only forwards ``**options`` to
  ``super()`` (or that has none) is constructed as its base:
  ``PinSanitizer`` and ``RaceDetector`` count as ``StreamChecker``.

The same files must read every top-level public class and function of
``src/repro``: a ``Name``, an ``Attribute`` or an import alias of that
name, outside the name's own definition.  The re-export imports of a
package ``__init__.py`` and the strings of ``__all__`` are not readers.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterator

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "bench", "benchmarks", "examples", "tools")
DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _caller_files() -> list[pathlib.Path]:
    return [path for name in CALLER_DIRS
            for path in sorted((ROOT / name).rglob("*.py"))
            if not path.name.startswith("test_")
            and path.name != "conftest.py"]


def _own_init(cls: ast.ClassDef) -> ast.FunctionDef | None:
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            return node
    return None


def _base_names(cls: ast.ClassDef) -> list[str]:
    return [base.id if isinstance(base, ast.Name) else base.attr
            for base in cls.bases
            if isinstance(base, (ast.Name, ast.Attribute))]


def _only_forwards(init: ast.FunctionDef) -> bool:
    """``def __init__(self, **options)`` that hands ``options`` to
    ``super().__init__(**options)``: it takes no option of its own."""
    args = init.args
    if (len(args.posonlyargs) + len(args.args) != 1 or args.vararg
            or args.kwonlyargs or args.kwarg is None):
        return False
    return any(
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
        and ast.unparse(stmt.value)
        == f"super().__init__(**{args.kwarg.arg})"
        for stmt in init.body)


def _classes() -> dict[str, list[ast.ClassDef]]:
    classes: dict[str, list[ast.ClassDef]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append(node)
    return classes


def _init_owners(name: str, classes: dict[str, list[ast.ClassDef]]
                 ) -> list[ast.ClassDef]:
    """The classes whose ``__init__`` runs when ``name`` is called."""
    owners = []
    for cls in classes.get(name, ()):
        init = _own_init(cls)
        if init is not None and not _only_forwards(init):
            owners.append(cls)
            continue
        for base in _base_names(cls):
            if base != name:
                owners.extend(_init_owners(base, classes))
    return owners


def _defaulted(init: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """``(name, position)`` of each parameter with a default; position
    (counted without ``self``) is None for keyword-only ones."""
    args = init.args
    positional = (args.posonlyargs + args.args)[1:]
    first = len(positional) - len(args.defaults)
    params = [(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
    params += [(arg.arg, None)
               for arg, default in zip(args.kwonlyargs, args.kw_defaults)
               if default is not None]
    return params


def unpassed_options() -> list[str]:
    """``Class.param`` for every defaulted parameter no caller passes."""
    classes = _classes()
    keywords: set[str] = set()
    #: id of each constructed class → (the class, the most positional
    #: arguments any call passes it)
    reach: dict[int, tuple[ast.ClassDef, float]] = {}
    for path in _caller_files():
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            keywords.update(kw.arg for kw in node.keywords if kw.arg)
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name not in classes:
                continue
            npos = (float("inf")
                    if any(isinstance(a, ast.Starred) for a in node.args)
                    else len(node.args))
            for cls in _init_owners(name, classes):
                seen = reach.get(id(cls), (cls, 0))[1]
                reach[id(cls)] = (cls, max(seen, npos))
    return sorted(f"{cls.name}.{param}"
                  for cls, npos in reach.values()
                  for param, position in _defaulted(_own_init(cls))
                  if param not in keywords
                  and (position is None or position >= npos))


def _read_names(node: ast.AST, in_init: bool) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias) and not in_init:
            yield sub.name.rpartition(".")[2]


def unread_public_names() -> list[str]:
    """Every top-level public class or function of ``src/repro`` that no
    non-test file reads outside its own definition."""
    public = {node.name
              for path in PACKAGE.rglob("*.py")
              for node in _parse(path).body
              if isinstance(node, DEFINITIONS)
              and not node.name.startswith("_")}
    read: set[str] = set()
    for path in _caller_files():
        in_init = path.name == "__init__.py"
        for stmt in _parse(path).body:
            names = set(_read_names(stmt, in_init))
            if isinstance(stmt, DEFINITIONS):
                names.discard(stmt.name)
            read |= names
    return sorted(public - read)


def test_every_constructor_option_has_a_non_test_caller():
    unpassed = unpassed_options()
    assert not unpassed, (
        "constructor options that only tests set (make each a class "
        "constant, DESIGN.md §5): " + ", ".join(unpassed))


def test_the_scan_sees_a_forwarding_subclass_as_its_base():
    classes = _classes()
    assert [cls.name for cls in _init_owners("PinSanitizer", classes)] \
        == ["StreamChecker"]
    assert [cls.name for cls in _init_owners("RaceDetector", classes)] \
        == ["StreamChecker"]


def test_every_public_name_has_a_non_test_reader():
    unread = unread_public_names()
    assert not unread, (
        "public names that only tests read (delete them, or move a "
        "test helper under tests/, DESIGN.md §5): " + ", ".join(unread))
