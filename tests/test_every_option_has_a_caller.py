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

They must also read every public member of a ``src/repro`` class: each
public non-dunder ``def`` or property in a class body, and each name
bound on a class from outside its body (``Cls.alias = Cls.method``).
A reader is an ``Attribute`` load of that name, or a ``getattr`` with
that name as a string constant, outside a ``def`` of the same name.
Matching is by name only: a member whose name another member shares
counts as read when either is.  A member that only tests read stays
only if :data:`TEST_ONLY_MEMBERS` lists it with one of the admissible
reasons in :data:`TEST_ONLY_REASONS`.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterator

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "bench", "benchmarks", "examples", "tools")
DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Why a public member may have readers only in the tests.  Nothing
#: else is admissible: not an alias of a fact another member already
#: gives, not a second path to what non-test code does another way,
#: and not a feature only tests reach.
TEST_ONLY_REASONS = {
    "hazard": "an operation or state query a paper-hazard test uses to "
              "drive or observe that hazard, which no other member gives",
    "safety": "safety code: an override that keeps an invariant on a "
              "path nothing takes today",
    "harness": "the StreamChecker feed/expect test harness, and the "
               "suppress its pytest marks call",
}

#: ``(Class.member, reason, why)`` for every public member that only
#: tests read; ``reason`` is a key of :data:`TEST_ONLY_REASONS`.
TEST_ONLY_MEMBERS = (
    ("Kernel.fork_task", "hazard",
     "fork is the COW column of the reliability matrix: the fork tests "
     "drive a copy-on-write break under a registration with it"),
    ("FrameList.reverse", "safety",
     "FrameList overrides every list mutator so that any in-place "
     "change of a region's frames drops its cached translations"),
    ("StreamChecker.feed", "harness",
     "the golden tests drive a checker with hand-built events"),
    ("StreamChecker.expect", "harness",
     "a test that provokes a finding captures it, and an expect block "
     "that captured nothing fails at disarm"),
    ("StreamChecker.suppress", "harness",
     "the san_suppress and race_suppress marks silence the kind a "
     "hazard test provokes on purpose while the suite runs strict"),
)


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


def _members() -> dict[str, list[str]]:
    """Member name → ``Class.member`` for every public member of a
    ``src/repro`` class (a class-body ``def`` or property, or a name
    bound on the class from outside its body)."""
    members: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = _parse(path)
        classes = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            classes.add(node.name)
            for stmt in node.body:
                if (isinstance(stmt, FUNCTIONS)
                        and not stmt.name.startswith("_")):
                    members.setdefault(stmt.name, []).append(
                        f"{node.name}.{stmt.name}")
        for node in ast.walk(tree):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target]
                       if isinstance(node, (ast.AnnAssign, ast.AugAssign))
                       else [])
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in classes
                        and not target.attr.startswith("_")):
                    members.setdefault(target.attr, []).append(
                        f"{target.value.id}.{target.attr}")
    return members


def _read_members(node: ast.AST, inside: frozenset[str]) -> Iterator[str]:
    """Attribute loads and ``getattr`` strings under ``node``, except
    inside a ``def`` of the name read."""
    if isinstance(node, FUNCTIONS):
        inside = inside | {node.name}
    name = None
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        name = node.attr
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr" and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)):
        name = node.args[1].value
    if name is not None and name not in inside:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _read_members(child, inside)


def unread_public_members() -> list[str]:
    """``Class.member`` for every public member no non-test file reads."""
    read: set[str] = set()
    for path in _caller_files():
        read.update(_read_members(_parse(path), frozenset()))
    return sorted(qualified for name, qualifieds in _members().items()
                  if name not in read for qualified in qualifieds)


def test_every_public_method_has_a_non_test_reader():
    exempt = {member for member, _, _ in TEST_ONLY_MEMBERS}
    unread = [m for m in unread_public_members() if m not in exempt]
    assert not unread, (
        "public members that only tests read (delete them, or list one "
        "in TEST_ONLY_MEMBERS with an admissible reason, DESIGN.md §5): "
        + ", ".join(unread))


def test_every_exemption_is_test_only_and_admissible():
    test_only = set(unread_public_members())
    for member, reason, why in TEST_ONLY_MEMBERS:
        assert reason in TEST_ONLY_REASONS, (member, reason)
        assert why, member
        assert member in test_only, (
            f"{member} has a non-test reader or is gone: drop it from "
            "TEST_ONLY_MEMBERS")
