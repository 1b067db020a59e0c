"""repro-lint: AST checks for the repo's own invariants.

A conventional linter checks style; this one checks the handful of
*semantic* conventions this codebase depends on for correctness, the
kind a reviewer has to re-derive on every PR:

``broad-except``
    A ``try`` with a bare ``except:`` / ``except Exception:`` handler
    must not swallow :class:`~repro.errors.ProcessKilled` (a crash
    point firing mid-operation) — the handler must either re-raise
    (contain a bare ``raise``, or re-raise its bound exception), or be
    preceded by an ``except ProcessKilled: raise`` /
    ``except KernelError: raise`` handler in the same ``try``.

``wall-clock``
    Nothing in ``src/repro`` may read the host's wall clock or draw
    unseeded randomness: all time comes from the
    :class:`~repro.sim.clock.SimClock` and all randomness from
    :mod:`repro.sim.rng` (the one audited seeding point, which is
    exempt).  A single ``time.time()`` makes every run unreproducible.

``instrumentation-unguarded``
    Instrumentation on a hot path must cost one branch while nobody
    is looking, and must never depend on a guard to be written:

    * direct metrics-registry access (``obs.metrics.counter(...)`` and
      friends) records even while observability is *disabled*, so it
      must sit under an ``if ....enabled:`` guard (the
      :class:`~repro.obs.Observability` facade methods, ``obs.inc`` …,
      self-guard and are always fine);
    * an :class:`~repro.analysis.events.EventHub` ``emit(...)`` builds
      its event even while nobody subscribes, so it must sit under an
      ``if ....active:`` guard (or test the hub's truthiness, which is
      the same check);
    * a hub ``record(...)`` writes the trace record, so it must *not*
      sit under a hub guard: there it would silently drop the record
      whenever nobody subscribes.

    A guard is an enclosing ``if`` (its body, not its ``else``) or an
    early bail-out (``if ...: return``) earlier in the enclosing
    function.  The obs package is exempt from the registry check and
    the analysis package (the hub, the checkers) from the hub checks.

``kernel-mutation``
    Layers above the kernel (``repro/via``, ``repro/msg``,
    ``repro/mpi``) must mutate kernel page state only through audited
    kernel entry points (``map_user_kiobuf``, ``do_mlock`` …), never by
    poking the frame table or page tables directly: no write to a
    :class:`~repro.kernel.page.FrameTable` column or an item of one
    (``counts``, ``flags``, ``pin_counts`` …; a VMA's ``flags`` too), no
    call to a ``FrameTable`` mutator (``incr_pin``, ``set_tag`` …) or to
    ``get_page``/``put_page``.  The historical backends the paper
    critiques do exactly that — on purpose — and carry
    ``allow(kernel-mutation)`` pragmas saying so.

    Anywhere in ``src/repro``, a PTE's ``present``, ``frame`` and
    ``swap_slot`` are written only by :class:`PageTable`'s methods in
    ``repro/kernel/pagetable.py``, each of which bumps the table's
    ``gen``; the invariant watchdog trusts an unchanged ``gen`` to mean
    unchanged entries.

``faultplan-validation``
    Every public knob of :class:`~repro.sim.faults.FaultPlan` must be
    validated in ``__post_init__``: a typo'd or out-of-range fault plan
    must fail at construction, not half-way through a chaos run.

``column-view``
    ``numpy.frombuffer`` may appear only in ``repro/kernel/page.py``.
    A numpy view of an ``array('q')`` frame column or of the free list
    pins the array's buffer: while the view lives, ``append`` and
    ``pop`` raise ``BufferError``, and a view caught in an exception's
    traceback can outlive its caller.  The :class:`FrameTable` audit
    passes take their views and drop them inside one method that
    returns plain Python values; every other module goes through those
    methods.

``eager-numpy``
    numpy is loaded on first use: a module may import it inside the
    function that needs it, or under ``if TYPE_CHECKING:`` for
    annotations, but not at module level (class bodies included),
    where every ``import repro`` would pay numpy's start-up time and
    resident memory though most runs never call it.

``local-import``
    A function body may not import a ``repro`` module (outside
    ``if TYPE_CHECKING:``): the import statement runs on every call,
    and on a hot path its lookup costs more than the work around it.
    Import at module level.  An import that breaks a cycle, or that
    only set-up code runs, carries ``allow(local-import)`` and says
    which.

Findings on a line carrying ``# repro-lint: allow(<rule>, ...)`` (or
whose preceding line carries it) are suppressed; rules can also be
enabled/disabled wholesale per :class:`Linter`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

#: Every rule this linter knows, with a one-line summary.
RULES: dict[str, str] = {
    "broad-except":
        "broad except handler may swallow ProcessKilled/KernelError",
    "wall-clock":
        "wall-clock time or unseeded randomness breaks reproducibility",
    "instrumentation-unguarded":
        "registry access or hub emit outside its guard, or a hub "
        "record inside one",
    "kernel-mutation":
        "kernel page state mutated above the kernel layer, or a PTE "
        "field written outside the page table",
    "faultplan-validation":
        "FaultPlan knob not validated in __post_init__",
    "column-view":
        "numpy buffer view taken outside the frame table's module",
    "eager-numpy":
        "numpy imported at module level outside `if TYPE_CHECKING:`",
    "local-import":
        "repro module imported inside a function body",
}

_PRAGMA_RE = re.compile(r"#\s*repro-lint:\s*allow\(([^)]*)\)")

#: Catching one of these (with a re-raise) before a broad handler
#: protects it: ProcessKilled can no longer reach the broad arm.
_KILL_SAFE = frozenset({"ProcessKilled", "KernelError"})
_BROAD = frozenset({"Exception", "BaseException"})

#: Wall-clock / entropy calls, by resolved dotted name.
_WALL_CLOCK_EXACT = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.clock_gettime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
})
_WALL_CLOCK_PREFIXES = ("random.", "numpy.random.", "secrets.")
#: The audited seeding point — the one module allowed to construct RNGs.
_WALL_CLOCK_EXEMPT_FILES = ("repro/sim/rng.py",)

#: Path prefixes (posix, relative to the scan root) of the layers that
#: sit above the kernel and must use its audited entry points.
_ABOVE_KERNEL_LAYERS = ("repro/via/", "repro/msg/", "repro/mpi/")
#: Frame-table columns (and a VMA's ``flags``) those layers must never
#: assign or write an item of.
_FRAME_COLUMNS = frozenset({
    "counts", "flags", "pin_counts", "cow_shares", "mappings", "tags",
})
#: PTE fields no module but the page table's own may assign.
_PTE_STATE_ATTRS = frozenset({"present", "frame", "swap_slot"})
_PTE_WRITER_FILE = "repro/kernel/pagetable.py"
#: Page map and frame table mutators those layers must never call.
_KERNEL_MUTATOR_METHODS = frozenset({
    "get_page", "put_page", "incr_pin", "decr_pin", "set_pin_count",
    "set_tag", "reset_frame", "scrub_identity",
})

#: The observability implementation itself (guards internally).
_OBS_EXEMPT_PREFIX = "repro/obs/"

#: The analysis package (hub, checkers) emits unconditionally by design.
_HUB_EXEMPT_PREFIX = "repro/analysis/"
#: Receiver names an EventHub lives under by convention.
_HUB_NAMES = frozenset({"events", "_events"})

#: Calls that take a view of a buffer, by resolved dotted name.
_COLUMN_VIEW_CALLS = frozenset({"numpy.frombuffer"})
#: The one module whose helpers may take (and must drop) such views.
_COLUMN_VIEW_EXEMPT_FILES = ("repro/kernel/page.py",)


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at one source location."""

    path: str    #: file the finding is in (as given to the linter)
    line: int    #: 1-based line
    col: int     #: 0-based column
    rule: str    #: rule name (a :data:`RULES` key)
    message: str

    def format(self) -> str:
        """``path:line:col: rule: message`` — one line per finding."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: " \
               f"{self.message}"


def _last_name(node: ast.expr | None) -> str | None:
    """The final identifier of a Name/Attribute chain (else None)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _exc_names(node: ast.expr | None) -> set[str]:
    """The exception class names a handler catches (last segments)."""
    if node is None:
        return set()
    if isinstance(node, ast.Tuple):
        return {n for e in node.elts if (n := _last_name(e))}
    name = _last_name(node)
    return {name} if name else set()


def _reraises(handler: ast.ExceptHandler) -> bool:
    """Does the handler body re-raise (bare ``raise``, or ``raise e``
    of its own bound name)?  Nested defs don't count — a ``raise``
    inside a closure does not unwind this handler."""
    bound = handler.name

    def walk(nodes: Iterable[ast.stmt]) -> bool:
        for stmt in nodes:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                if isinstance(node, ast.Raise):
                    if node.exc is None:
                        return True
                    if (bound and isinstance(node.exc, ast.Name)
                            and node.exc.id == bound
                            and node.cause is None):
                        return True
        return False

    return walk(handler.body)


def _contains_enabled(node: ast.expr) -> bool:
    """Does the expression read some ``....enabled`` attribute?"""
    return any(isinstance(n, ast.Attribute) and n.attr == "enabled"
               for n in ast.walk(node))


def _guards_hub(test: ast.expr) -> bool:
    """Does the expression test an event hub: some ``....active``, or a
    hub's truthiness (``EventHub.__bool__`` returns ``.active``)?"""
    return any((isinstance(n, ast.Attribute) and n.attr == "active")
               or _last_name(n) in _HUB_NAMES for n in ast.walk(test))


def _guarded(node: ast.AST, is_guard: Callable[[ast.expr], bool]) -> bool:
    """Does ``node`` run only when ``is_guard`` accepts some ``if`` test:
    inside such an ``if``'s body, or after an early bail-out on one in
    the enclosing function?  Needs ``_lint_parent`` links."""
    child, ancestor = node, getattr(node, "_lint_parent", None)
    func_scope = None
    while ancestor is not None:
        if isinstance(ancestor, ast.If) and child in ancestor.body \
                and is_guard(ancestor.test):
            return True
        if func_scope is None and isinstance(
                ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func_scope = ancestor
        child, ancestor = ancestor, getattr(ancestor, "_lint_parent", None)
    if func_scope is None:
        return False
    for stmt in func_scope.body:
        if stmt.lineno >= node.lineno:
            break
        if isinstance(stmt, ast.If) and is_guard(stmt.test) \
                and stmt.body and isinstance(
                    stmt.body[-1], (ast.Return, ast.Continue, ast.Raise)):
            return True
    return False


def _pte_attrs_guarded_in(rel: str) -> frozenset[str]:
    """The PTE fields a module at ``rel`` must not assign."""
    if rel.endswith(_PTE_WRITER_FILE):
        return frozenset()
    return _PTE_STATE_ATTRS


class Linter:
    """The repro-lint engine: parse, visit, report.

    ``rules`` selects which checks run (default: all of
    :data:`RULES`); unknown names raise :class:`ValueError` so a CI
    config typo cannot silently disable a check.
    """

    def __init__(self, rules: Iterable[str] | None = None) -> None:
        selected = frozenset(rules) if rules is not None \
            else frozenset(RULES)
        unknown = selected - frozenset(RULES)
        if unknown:
            raise ValueError(
                f"unknown lint rule(s) {sorted(unknown)}; "
                f"known: {sorted(RULES)}")
        self.rules = selected

    # ------------------------------------------------------------ entry points

    def check_source(self, source: str, path: str = "<string>",
                     relpath: str | None = None) -> list[LintFinding]:
        """Lint one source string.

        ``relpath`` is the file's posix path relative to the scan root
        (e.g. ``repro/via/nic.py``); path-scoped rules (wall-clock
        exemption, layer scoping) key off it.  A syntax error is itself
        reported as a finding rather than raised, so one broken file
        cannot hide the rest of a tree scan.
        """
        rel = relpath if relpath is not None else path
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            return [LintFinding(path, exc.lineno or 1, exc.offset or 0,
                                "broad-except",
                                f"file does not parse: {exc.msg}")]
        allowed = self._pragmas(source)
        findings: list[LintFinding] = []
        if "broad-except" in self.rules:
            findings += self._check_broad_except(tree, path)
        if "wall-clock" in self.rules \
                and not rel.endswith(_WALL_CLOCK_EXEMPT_FILES):
            findings += self._check_wall_clock(tree, path)
        if "instrumentation-unguarded" in self.rules:
            findings += self._check_instrumentation(
                tree, path, registry=not rel.startswith(_OBS_EXEMPT_PREFIX),
                hub=not rel.startswith(_HUB_EXEMPT_PREFIX))
        if "kernel-mutation" in self.rules:
            findings += self._check_kernel_mutation(
                tree, path,
                above_kernel=rel.startswith(_ABOVE_KERNEL_LAYERS),
                pte_attrs=_pte_attrs_guarded_in(rel))
        if "faultplan-validation" in self.rules:
            findings += self._check_faultplan(tree, path)
        if "column-view" in self.rules \
                and not rel.endswith(_COLUMN_VIEW_EXEMPT_FILES):
            findings += self._check_column_view(tree, path)
        if "eager-numpy" in self.rules:
            findings += self._check_eager_numpy(tree, path)
        if "local-import" in self.rules:
            findings += self._check_local_import(tree, path)
        findings = [f for f in findings
                    if f.rule not in allowed.get(f.line, ())
                    and f.rule not in allowed.get(f.line - 1, ())]
        return sorted(findings, key=lambda f: (f.line, f.col, f.rule))

    def check_file(self, path: str | Path,
                   root: str | Path | None = None) -> list[LintFinding]:
        """Lint one file; ``root`` anchors path-scoped rules."""
        path = Path(path)
        rel = (path.relative_to(root).as_posix() if root is not None
               else path.as_posix())
        return self.check_source(path.read_text(), str(path), rel)

    def check_tree(self, root: str | Path) -> list[LintFinding]:
        """Lint every ``*.py`` under ``root`` (sorted, deterministic).

        Path-scoped rules treat ``root``'s *parent* as the scan root
        when ``root`` itself is the ``repro`` package directory, so
        ``check_tree("src/repro")`` and ``check_tree("src")`` agree.
        """
        root = Path(root)
        anchor = root.parent if root.name == "repro" else root
        findings: list[LintFinding] = []
        for path in sorted(root.rglob("*.py")):
            findings += self.check_file(path, anchor)
        return findings

    # --------------------------------------------------------------- pragmas

    @staticmethod
    def _pragmas(source: str) -> dict[int, frozenset[str]]:
        """Per-line suppressions from ``# repro-lint: allow(...)``."""
        allowed: dict[int, frozenset[str]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _PRAGMA_RE.search(line)
            if match:
                names = frozenset(
                    part.strip() for part in match.group(1).split(",")
                    if part.strip())
                allowed[lineno] = names
        return allowed

    # ----------------------------------------------------------------- rules

    @staticmethod
    def _check_broad_except(tree: ast.AST,
                            path: str) -> list[LintFinding]:
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Try):
                continue
            protected = False
            for handler in node.handlers:
                names = _exc_names(handler.type)
                broad = handler.type is None or (names & _BROAD)
                if not broad:
                    if (names & _KILL_SAFE) and _reraises(handler):
                        protected = True
                    continue
                if protected or _reraises(handler):
                    continue
                caught = ("bare except" if handler.type is None
                          else f"except {'/'.join(sorted(names & _BROAD))}")
                findings.append(LintFinding(
                    path, handler.lineno, handler.col_offset,
                    "broad-except",
                    f"{caught} swallows ProcessKilled/KernelError; "
                    f"re-raise, or precede with "
                    f"`except ProcessKilled: raise`"))
        return findings

    @staticmethod
    def _import_aliases(tree: ast.AST) -> dict[str, str]:
        """Local name → dotted origin, from import statements."""
        aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.asname:
                        aliases[a.asname] = a.name
                    else:
                        # `import a.b` binds `a` (to package `a`).
                        head = a.name.split(".")[0]
                        aliases[head] = head
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for a in node.names:
                    aliases[a.asname or a.name] = \
                        f"{node.module}.{a.name}"
        return aliases

    @classmethod
    def _resolve_call(cls, func: ast.expr,
                      aliases: dict[str, str]) -> str | None:
        """The dotted origin of a call target, through import aliases."""
        parts: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = aliases.get(node.id, node.id)
        return ".".join([head, *reversed(parts)])

    @classmethod
    def _check_wall_clock(cls, tree: ast.AST,
                          path: str) -> list[LintFinding]:
        aliases = cls._import_aliases(tree)
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = cls._resolve_call(node.func, aliases)
            if dotted is None:
                continue
            if dotted in _WALL_CLOCK_EXACT \
                    or dotted.startswith(_WALL_CLOCK_PREFIXES):
                findings.append(LintFinding(
                    path, node.lineno, node.col_offset, "wall-clock",
                    f"`{dotted}` is nondeterministic; use the SimClock "
                    f"or repro.sim.rng"))
        return findings

    @staticmethod
    def _check_instrumentation(tree: ast.AST, path: str, *,
                               registry: bool,
                               hub: bool) -> list[LintFinding]:
        # Annotate parents so guards can be found lexically.
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                child._lint_parent = node  # type: ignore[attr-defined]
        findings = []
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            attr = node.func.attr
            receiver = node.func.value
            if registry and attr in ("counter", "gauge", "histogram") \
                    and isinstance(receiver, ast.Attribute) \
                    and receiver.attr == "metrics":
                if not _guarded(node, _contains_enabled):
                    findings.append(LintFinding(
                        path, node.lineno, node.col_offset,
                        "instrumentation-unguarded",
                        f"direct registry access "
                        f"`.metrics.{attr}(...)` records even "
                        f"while disabled; guard with `if ....enabled:` "
                        f"or use the self-guarding facade"))
            elif hub and _last_name(receiver) in _HUB_NAMES:
                if attr == "emit" and not _guarded(node, _guards_hub):
                    findings.append(LintFinding(
                        path, node.lineno, node.col_offset,
                        "instrumentation-unguarded",
                        "event-hub `.emit(...)` builds its event even "
                        "with nobody subscribed; guard with "
                        "`if ....active:` (or the hub's truthiness)"))
                elif attr == "record" and _guarded(node, _guards_hub):
                    findings.append(LintFinding(
                        path, node.lineno, node.col_offset,
                        "instrumentation-unguarded",
                        "event-hub `.record(...)` under a hub guard "
                        "drops the trace record whenever nobody "
                        "subscribes; call it unguarded"))
        return findings

    @classmethod
    def _check_column_view(cls, tree: ast.AST,
                           path: str) -> list[LintFinding]:
        aliases = cls._import_aliases(tree)
        return [
            LintFinding(path, node.lineno, node.col_offset, "column-view",
                        f"`{dotted}` outside repro/kernel/page.py; use a "
                        f"FrameTable method that drops its view before "
                        f"returning")
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (dotted := cls._resolve_call(node.func, aliases))
            in _COLUMN_VIEW_CALLS]

    @staticmethod
    def _check_eager_numpy(tree: ast.Module,
                           path: str) -> list[LintFinding]:
        findings: list[LintFinding] = []

        def visit(stmts: Iterable[ast.AST]) -> None:
            """Walk what runs at import: not function bodies, and not
            the body of an ``if TYPE_CHECKING:``."""
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(stmt, ast.If) \
                        and _last_name(stmt.test) == "TYPE_CHECKING":
                    visit(stmt.orelse)
                    continue
                if isinstance(stmt, ast.Import):
                    modules = [alias.name for alias in stmt.names]
                elif isinstance(stmt, ast.ImportFrom) and stmt.level == 0:
                    modules = [stmt.module or ""]
                else:
                    modules = []
                if any(m == "numpy" or m.startswith("numpy.")
                       for m in modules):
                    findings.append(LintFinding(
                        path, stmt.lineno, stmt.col_offset, "eager-numpy",
                        "numpy imported at module level; import it in "
                        "the function that uses it (or under "
                        "`if TYPE_CHECKING:` for annotations)"))
                for field in ("body", "orelse", "finalbody", "handlers"):
                    visit(getattr(stmt, field, ()))

        visit(tree.body)
        return findings

    @staticmethod
    def _check_local_import(tree: ast.Module,
                            path: str) -> list[LintFinding]:
        findings: list[LintFinding] = []

        def visit(stmts: Iterable[ast.AST], in_function: bool) -> None:
            """Walk every statement, noting whether a function body
            encloses it; skip the body of an ``if TYPE_CHECKING:``."""
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(stmt.body, True)
                    continue
                if isinstance(stmt, ast.If) \
                        and _last_name(stmt.test) == "TYPE_CHECKING":
                    visit(stmt.orelse, in_function)
                    continue
                if isinstance(stmt, ast.Import):
                    modules = [alias.name for alias in stmt.names]
                elif isinstance(stmt, ast.ImportFrom):
                    modules = [("." * stmt.level) + (stmt.module or "")]
                else:
                    modules = []
                local = [m for m in modules
                         if m == "repro" or m.startswith(("repro.", "."))]
                if in_function and local:
                    findings.append(LintFinding(
                        path, stmt.lineno, stmt.col_offset, "local-import",
                        f"`{local[0]}` imported inside a function runs "
                        f"the import on every call; import it at module "
                        f"level, or mark a cycle or set-up-only import "
                        f"`allow(local-import)` with the reason"))
                for field in ("body", "orelse", "finalbody", "handlers"):
                    visit(getattr(stmt, field, ()), in_function)

        visit(tree.body, False)
        return findings

    @staticmethod
    def _check_kernel_mutation(tree: ast.AST, path: str,
                               above_kernel: bool,
                               pte_attrs: frozenset[str]
                               ) -> list[LintFinding]:
        findings = []
        state_attrs = _FRAME_COLUMNS if above_kernel else frozenset()

        def is_self(expr: ast.expr) -> bool:
            node = expr
            while isinstance(node, ast.Attribute):
                node = node.value
            return isinstance(node, ast.Name) and node.id == "self"

        for node in ast.walk(tree):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if above_kernel and isinstance(target, ast.Subscript):
                    # ``table.flags[f]`` or a local alias ``flags[f]``.
                    column = target.value
                    name = getattr(column, "attr", getattr(column, "id", None))
                    if name in _FRAME_COLUMNS:
                        findings.append(LintFinding(
                            path, target.lineno, target.col_offset,
                            "kernel-mutation",
                            f"direct write to frame column `{name}[...]`;"
                            f" go through an audited kernel entry point"))
                    continue
                if not isinstance(target, ast.Attribute) \
                        or is_self(target.value):
                    continue
                if target.attr in state_attrs:
                    findings.append(LintFinding(
                        path, target.lineno, target.col_offset,
                        "kernel-mutation",
                        f"direct assignment to `.{target.attr}` of a "
                        f"kernel object; go through an audited kernel "
                        f"entry point"))
                elif target.attr in pte_attrs:
                    findings.append(LintFinding(
                        path, target.lineno, target.col_offset,
                        "kernel-mutation",
                        f"direct assignment to PTE field "
                        f"`.{target.attr}`; go through a PageTable "
                        f"method, which bumps its `gen`"))
            if above_kernel and isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _KERNEL_MUTATOR_METHODS \
                    and not is_self(node.func.value):
                findings.append(LintFinding(
                    path, node.lineno, node.col_offset,
                    "kernel-mutation",
                    f"direct call to kernel mutator "
                    f"`.{node.func.attr}()`; go through an audited "
                    f"kernel entry point"))
        return findings

    @staticmethod
    def _check_faultplan(tree: ast.AST, path: str) -> list[LintFinding]:
        findings = []
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef)
                    and node.name == "FaultPlan"):
                continue
            fields: list[tuple[str, int, int]] = []
            post: ast.FunctionDef | None = None
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) \
                        and isinstance(stmt.target, ast.Name):
                    name = stmt.target.id
                    if not name.startswith("_") and name != "stats":
                        fields.append((name, stmt.lineno,
                                       stmt.col_offset))
                elif isinstance(stmt, ast.FunctionDef) \
                        and stmt.name == "__post_init__":
                    post = stmt
            if post is None:
                if fields:
                    findings.append(LintFinding(
                        path, node.lineno, node.col_offset,
                        "faultplan-validation",
                        "FaultPlan has knobs but no __post_init__ "
                        "validating them"))
                continue
            # A knob counts as validated if __post_init__ reads it —
            # directly as `self.<knob>` or by name through getattr
            # (the string literal appears).
            seen: set[str] = set()
            for sub in ast.walk(post):
                if isinstance(sub, ast.Attribute) \
                        and isinstance(sub.value, ast.Name) \
                        and sub.value.id == "self":
                    seen.add(sub.attr)
                elif isinstance(sub, ast.Constant) \
                        and isinstance(sub.value, str):
                    seen.add(sub.value)
            for name, lineno, col in fields:
                if name not in seen:
                    findings.append(LintFinding(
                        path, lineno, col, "faultplan-validation",
                        f"FaultPlan knob `{name}` is never validated "
                        f"in __post_init__"))
        return findings



def lint_paths(paths: Iterable[str | Path],
               rules: Iterable[str] | None = None) -> list[LintFinding]:
    """Lint files and/or trees; the one-call API the CLI and tests use."""
    linter = Linter(rules)
    findings: list[LintFinding] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            findings += linter.check_tree(path)
        else:
            findings += linter.check_file(path, path.parent)
    return findings
