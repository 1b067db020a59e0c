"""repro-lint: fixture corpus, pragma handling, and repo cleanliness."""

from pathlib import Path

import pytest

from repro.analysis.lint import RULES, Linter, lint_paths

FIXTURES = Path(__file__).parent / "lint_fixtures"
SRC = Path(__file__).parent.parent / "src"


def lint_fixture(name: str, relpath: str = "repro/fixture.py",
                 rules=None) -> list:
    """Lint one fixture file under a chosen virtual relpath."""
    source = (FIXTURES / name).read_text()
    return Linter(rules).check_source(source, path=name, relpath=relpath)


def rules_of(findings) -> list:
    return [f.rule for f in findings]


# ---------------------------------------------------------------- broad-except

def test_broad_except_flags_swallowing_handlers():
    findings = lint_fixture("bad_broad_except.py")
    assert rules_of(findings) == ["broad-except"] * 3
    # One finding per handler, at the handler's line.
    assert len({f.line for f in findings}) == 3


def test_broad_except_accepts_reraise_and_protection():
    assert lint_fixture("good_broad_except.py") == []


# ------------------------------------------------------------------ wall-clock

def test_wall_clock_flags_time_and_randomness():
    findings = lint_fixture("bad_wall_clock.py")
    assert rules_of(findings) == ["wall-clock"] * 6
    messages = " ".join(f.message for f in findings)
    # Aliased and from-imported call sites resolve to their origin.
    assert "time.time" in messages
    assert "time.monotonic" in messages
    assert "numpy.random.default_rng" in messages


def test_wall_clock_accepts_sim_time_and_seeded_rng():
    assert lint_fixture("good_wall_clock.py") == []


def test_wall_clock_exempts_the_rng_module():
    source = "import numpy as np\nrng = np.random.default_rng(0)\n"
    linter = Linter(["wall-clock"])
    assert linter.check_source(source, relpath="repro/sim/rng.py") == []
    assert len(linter.check_source(
        source, relpath="repro/sim/clock.py")) == 1


# --------------------------------------------------- instrumentation-unguarded
# One rule, three call shapes: registry access and hub emits need their
# guard, hub records must not sit under one.

def test_obs_unguarded_flags_bare_registry_access():
    findings = lint_fixture("bad_obs_unguarded.py")
    assert rules_of(findings) == ["instrumentation-unguarded"] * 3
    assert [f.line for f in findings] == [5, 6, 11]


def test_obs_unguarded_accepts_guards_facade_and_pragma():
    assert lint_fixture("good_obs_unguarded.py") == []


def test_obs_unguarded_exempts_the_obs_package():
    source = "def f(self):\n    self.metrics.counter('x').inc()\n"
    linter = Linter(["instrumentation-unguarded"])
    assert linter.check_source(
        source, relpath="repro/obs/__init__.py") == []
    assert len(linter.check_source(
        source, relpath="repro/via/nic.py")) == 1


# ------------------------------------------------------------- kernel-mutation

def test_kernel_mutation_flags_driver_layer_pokes():
    findings = lint_fixture(
        "bad_kernel_mutation.py", relpath="repro/via/locking/bad.py")
    assert rules_of(findings) == ["kernel-mutation"] * 9
    assert [f.line for f in findings] == [9, 10, 14, 18, 19, 21, 22, 23, 24]


def test_kernel_mutation_accepts_audited_entry_points():
    assert lint_fixture(
        "good_kernel_mutation.py",
        relpath="repro/via/locking/good.py") == []


def test_kernel_mutation_scoped_to_layers_above_the_kernel():
    # The same pokes inside the kernel layer are the kernel's business.
    assert lint_fixture(
        "bad_kernel_mutation.py", relpath="repro/kernel/paging.py") == []


def test_kernel_mutation_keeps_pte_writes_in_the_page_table():
    # Anywhere in the tree, not only above the kernel.
    for relpath in ("repro/kernel/fault.py", "repro/via/nic.py"):
        findings = lint_fixture("bad_pte_write.py", relpath=relpath)
        assert rules_of(findings) == ["kernel-mutation"] * 3
        assert [f.line for f in findings] == [10, 11, 12]
    assert lint_fixture("bad_pte_write.py",
                        relpath="repro/kernel/pagetable.py") == []
    # The frame table's module has no exemption.
    findings = lint_fixture("bad_pte_write.py",
                            relpath="repro/kernel/page.py")
    assert [f.line for f in findings] == [10, 11, 12]


# -------------------------------------------------------- faultplan-validation

def test_faultplan_flags_unvalidated_knobs():
    findings = lint_fixture("bad_faultplan.py")
    assert rules_of(findings) == ["faultplan-validation"] * 2
    flagged = " ".join(f.message for f in findings)
    assert "burst_len" in flagged and "jitter_rate" in flagged


def test_faultplan_flags_missing_post_init():
    findings = lint_fixture("bad_faultplan_no_post_init.py")
    assert rules_of(findings) == ["faultplan-validation"]
    assert "no __post_init__" in findings[0].message


def test_faultplan_accepts_direct_and_getattr_validation():
    assert lint_fixture("good_faultplan.py") == []


def test_hub_emit_flags_unguarded_emissions():
    findings = lint_fixture("bad_hub_emit.py")
    assert rules_of(findings) == ["instrumentation-unguarded"] * 3
    assert [f.line for f in findings] == [5, 10, 16]


def test_hub_emit_accepts_guards_truthiness_and_pragma():
    assert lint_fixture("good_hub_emit.py") == []


def test_hub_emit_exempts_the_analysis_package():
    source = ("def f(self, frame):\n"
              "    self.events.emit('pin', frames=(frame,))\n")
    linter = Linter(["instrumentation-unguarded"])
    assert linter.check_source(
        source, relpath="repro/analysis/events.py") == []
    assert len(linter.check_source(
        source, relpath="repro/kernel/kernel.py")) == 1


def test_hub_record_flags_records_under_a_hub_guard():
    findings = lint_fixture("bad_hub_record.py")
    assert rules_of(findings) == ["instrumentation-unguarded"] * 3
    assert [f.line for f in findings] == [6, 11, 18]
    assert all("drops the trace record" in f.message for f in findings)


def test_instrumentation_rule_exemptions_are_per_call_shape():
    # The obs package is exempt from the registry check only, the
    # analysis package from the hub checks only.
    source = ("def f(self, events):\n"
              "    self.metrics.counter('x').inc()\n"
              "    if events.active:\n"
              "        events.record('swap_out')\n")
    linter = Linter(["instrumentation-unguarded"])
    assert [f.line for f in linter.check_source(
        source, relpath="repro/obs/metrics.py")] == [4]
    assert [f.line for f in linter.check_source(
        source, relpath="repro/analysis/races.py")] == [2]
    assert [f.line for f in linter.check_source(
        source, relpath="repro/via/nic.py")] == [2, 4]


def test_merged_guard_rules_are_gone():
    assert "instrumentation-unguarded" in RULES
    assert "obs-unguarded" not in RULES
    assert "hub-emit-unguarded" not in RULES
    assert len(RULES) == 8


# ----------------------------------------------------------------- column-view

def test_column_view_flags_frombuffer_outside_the_frame_table():
    findings = lint_fixture("bad_column_view.py")
    assert rules_of(findings) == ["column-view"] * 3
    assert len({f.line for f in findings}) == 3
    assert all("numpy.frombuffer" in f.message for f in findings)


def test_column_view_accepts_table_methods_copies_and_pragma():
    assert lint_fixture("good_column_view.py") == []


def test_column_view_exempts_the_frame_table_module():
    source = "import numpy as np\nv = np.frombuffer(b'', dtype='q')\n"
    linter = Linter(["column-view"])
    assert linter.check_source(source, relpath="repro/kernel/page.py") == []
    assert len(linter.check_source(
        source, relpath="repro/kernel/pagemap.py")) == 1


# ----------------------------------------------------------------- eager-numpy

def test_eager_numpy_flags_module_level_imports():
    findings = lint_fixture("bad_eager_numpy.py")
    assert rules_of(findings) == ["eager-numpy"] * 6
    assert [f.line for f in findings] == [3, 4, 5, 9, 16, 20]


def test_eager_numpy_accepts_local_type_checking_and_pragma():
    assert lint_fixture("good_eager_numpy.py") == []


# ---------------------------------------------------------------- local-import

def test_local_import_flags_repro_imports_in_function_bodies():
    findings = lint_fixture("bad_local_import.py")
    assert rules_of(findings) == ["local-import"] * 5
    assert [f.line for f in findings] == [14, 20, 29, 34, 42]
    assert "`repro.via.cq`" in findings[0].message
    assert "`.`" in findings[2].message


def test_local_import_accepts_module_level_type_checking_and_pragma():
    source = (FIXTURES / "bad_local_import.py").read_text()
    flagged = {f.line for f in lint_fixture("bad_local_import.py")}
    lines = source.splitlines()
    # Module-level, TYPE_CHECKING, numpy and pragma'd imports: unflagged.
    for needle in ("from repro.errors import ViaError",
                   "    from repro.via.nic import VIANic",
                   "import numpy as np",
                   "from repro.via.vi import VirtualInterface",
                   "from repro.via.machine import hosts_of"):
        line = next(i for i, text in enumerate(lines, 1) if needle in text)
        assert line not in flagged, needle


# ------------------------------------------------------------------- machinery

def test_rules_are_individually_toggleable():
    source = (FIXTURES / "bad_wall_clock.py").read_text()
    only_broad = Linter(["broad-except"]).check_source(
        source, relpath="repro/fixture.py")
    assert only_broad == []


def test_unknown_rule_name_is_rejected():
    with pytest.raises(ValueError, match="unknown lint rule"):
        Linter(["wall-clok"])


def test_pragma_on_preceding_line_suppresses():
    source = ("def f(obs):\n"
              "    # repro-lint: allow(instrumentation-unguarded)\n"
              "    obs.metrics.counter('x').inc()\n")
    assert Linter(["instrumentation-unguarded"]).check_source(
        source, relpath="repro/via/x.py") == []


def test_syntax_error_is_a_finding_not_a_crash():
    findings = Linter().check_source("def broken(:\n",
                                     relpath="repro/x.py")
    assert len(findings) == 1
    assert "does not parse" in findings[0].message


def test_finding_format_is_path_line_col():
    findings = lint_fixture("bad_faultplan.py")
    assert findings[0].format().startswith("bad_faultplan.py:")
    assert ": faultplan-validation: " in findings[0].format()


# -------------------------------------------------------------- the repo itself

def test_src_repro_is_lint_clean():
    """The gate CI enforces: the whole package passes every rule."""
    findings = lint_paths([SRC / "repro"])
    assert findings == [], "\n".join(f.format() for f in findings)


def test_real_faultplan_validates_every_knob():
    findings = Linter(["faultplan-validation"]).check_tree(SRC / "repro")
    assert findings == []
