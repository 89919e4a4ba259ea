"""Static servant analysis: purity, marshallability, privacy."""

import os
import textwrap

import pytest

import repro
from repro.lint import Severity, lint_servant_source, lint_sources
from repro.lint.servants import (default_pure_methods,
                                 marshallable_type_names)

FIXTURES = os.path.join(os.path.dirname(__file__), "servant_fixtures.py")


def lint_text(source, **kwargs):
    return lint_servant_source(textwrap.dedent(source), **kwargs)


def codes(findings):
    return sorted(f.code for f in findings)


class TestFixtureFile:
    """The seeded-defect fixture trips every servant rule."""

    def setup_method(self):
        self.findings = lint_sources([FIXTURES])

    def by_code(self, code):
        return [f for f in self.findings if f.code == code]

    def test_impure_pure_method_flagged(self):
        impure = self.by_code("JCD010")
        messages = " | ".join(f.message for f in impure)
        assert "ImpureCatalogServant.describe" in messages
        assert "assigns to servant state" in messages
        assert "calls mutating append()" in messages
        # reset_stats is NOT pure, so its mutation is fine.
        assert "reset_stats" not in messages

    def test_privacy_leaks_flagged(self):
        leaks = self.by_code("JCD012")
        messages = " | ".join(f.message for f in leaks)
        assert "internals" in messages and "gate_dump" in messages
        # Data-sheet scalars (name, gate_count()) are not leaks.
        assert "summary" not in messages

    def test_inherited_leak_flagged_on_the_declaring_base(self):
        """A subclass servant cannot carry a remote method out from
        under the rules: the base that defines the body declares
        ``REMOTE_METHODS`` itself and is linted as a servant."""
        messages = [f.message for f in self.by_code("JCD012")]
        assert any("LeakyBaseServant.inherited_dump" in message
                   for message in messages)
        assert not any("own_summary" in message for message in messages)

    def test_unmarshallable_return_flagged(self):
        bad = self.by_code("JCD011")
        messages = " | ".join(f.message for f in bad)
        assert "fetch_netlist" in messages and "Netlist" in messages
        # DetectionTable is a registered value type.
        assert "fetch_table" not in messages

    def test_stale_whitelist_flagged(self):
        stale = self.by_code("JCD013")
        messages = " | ".join(f.message for f in stale)
        assert "vanished" in messages
        assert "local_only" in messages
        assert all(f.severity is Severity.WARNING for f in stale)

    def test_inline_waiver_respected(self):
        messages = " | ".join(f.message for f in self.findings)
        assert "WaivedCounterServant" not in messages

    def test_findings_carry_file_and_line(self):
        for item in self.findings:
            assert item.target == FIXTURES
            assert item.line is not None and item.line > 0


class TestPurityRule:
    def test_global_and_nonlocal_flagged(self):
        findings = lint_text("""
            class S:
                REMOTE_METHODS = ("describe",)
                def describe(self):
                    global hits
                    hits = 1
                    return {}
        """)
        assert "JCD010" in codes(findings)
        assert "global" in findings[0].message

    def test_del_of_servant_state_flagged(self):
        findings = lint_text("""
            class S:
                REMOTE_METHODS = ("evaluate",)
                def evaluate(self, x):
                    del self.cache[x]
                    return x
        """)
        assert codes(findings) == ["JCD010"]

    def test_local_mutation_is_fine(self):
        findings = lint_text("""
            class S:
                REMOTE_METHODS = ("describe",)
                def describe(self):
                    rows = []
                    rows.append(1)
                    table = {}
                    table.update(a=1)
                    return {"rows": rows}
        """)
        assert findings == []

    def test_class_pure_methods_literal_overrides_stock(self):
        # "fetch" is not in the stock whitelist, but the class
        # declares it pure -- so its mutation must be flagged.
        findings = lint_text("""
            class S:
                REMOTE_METHODS = ("fetch",)
                PURE_METHODS = ("fetch",)
                def fetch(self):
                    self.n = 1
                    return {}
        """)
        assert "JCD010" in codes(findings)

    def test_waiver_on_def_line_covers_whole_method(self):
        findings = lint_text("""
            class S:
                REMOTE_METHODS = ("describe",)
                def describe(self):  # lint: allow(JCD010)
                    self.a = 1
                    self.b = 2
                    return {}
        """)
        assert findings == []


class TestMarshalRule:
    def test_optional_registered_type_is_clean(self):
        findings = lint_text("""
            from typing import Optional
            class S:
                REMOTE_METHODS = ("fault_list",)
                def fault_list(self) -> Optional[str]:
                    return None
        """)
        assert findings == []

    def test_unknown_type_is_a_warning_not_error(self):
        findings = lint_text("""
            class S:
                REMOTE_METHODS = ("describe",)
                def describe(self) -> Widget:
                    return Widget()
        """)
        assert codes(findings) == ["JCD011"]
        assert findings[0].severity is Severity.WARNING

    def test_quoted_annotation_is_resolved(self):
        findings = lint_text("""
            class S:
                REMOTE_METHODS = ("describe",)
                def describe(self) -> "Netlist":
                    return self._impl
        """)
        assert "JCD011" in codes(findings)
        assert findings[0].severity is Severity.ERROR

    def test_syntax_error_reported_as_finding(self):
        findings = lint_servant_source("def broken(:\n    pass\n",
                                       path="bad.py")
        assert codes(findings) == ["JCD011"]
        assert "cannot parse" in findings[0].message

    def test_registered_types_visible(self):
        names = marshallable_type_names()
        assert {"DetectionTable", "ParamValue", "Frame"} <= names

    def test_default_pure_methods_matches_cache_policy(self):
        assert "detection_table" in default_pure_methods()


class TestPrivacyRule:
    def test_annotated_protected_param_taints_attribute(self):
        findings = lint_text("""
            class S:
                REMOTE_METHODS = ("dump",)
                def __init__(self, impl: "Netlist"):
                    self._thing = impl
                def dump(self):
                    return self._thing
        """)
        assert codes(findings) == ["JCD012"]

    def test_structure_method_call_flagged(self):
        findings = lint_text("""
            class S:
                REMOTE_METHODS = ("dump",)
                def __init__(self, netlist):
                    self._n = netlist
                def dump(self):
                    return tuple(self._n.nets())
        """)
        assert codes(findings) == ["JCD012"]

    def test_scalar_summaries_are_clean(self):
        findings = lint_text("""
            class S:
                REMOTE_METHODS = ("describe",)
                def __init__(self, netlist):
                    self._n = netlist
                def describe(self):
                    return {"name": self._n.name,
                            "area": self._n.area(),
                            "gates": self._n.gate_count()}
        """)
        assert findings == []

    def test_passing_structure_as_argument_is_not_a_return_leak(self):
        findings = lint_text("""
            class S:
                REMOTE_METHODS = ("evaluate",)
                def __init__(self, netlist):
                    self._n = netlist
                def evaluate(self, pattern):
                    return simulate(self._n, pattern)
        """)
        assert findings == []


class TestRepoIsClean:
    """Acceptance: the repo's own servants pass their own analyzers."""

    def test_src_repro_has_no_servant_errors(self):
        package_dir = os.path.dirname(os.path.abspath(repro.__file__))
        findings = lint_sources([package_dir])
        errors = [f for f in findings if f.severity >= Severity.ERROR]
        assert errors == [], "\n".join(f.format() for f in errors)

    def test_inherited_power_servant_bodies_are_linted(self):
        """The analyzers read a class's own body only, so every remote
        method of the two power servants must be defined in a class
        that lists it in its own ``REMOTE_METHODS``."""
        from repro.ip.provider import BitPowerServant, PowerServant

        for servant in (PowerServant, BitPowerServant):
            for name in servant.REMOTE_METHODS:
                owner = next(cls for cls in servant.__mro__
                             if name in vars(cls))
                assert name in vars(owner).get("REMOTE_METHODS", ()), \
                    f"{owner.__name__}.{name} escapes JCD010-013"


class TestDiscovery:
    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_sources(["/no/such/path"])

    def test_classes_without_remote_methods_ignored(self):
        findings = lint_text("""
            class NotAServant:
                def describe(self):
                    self.calls += 1
                    return {}
        """)
        assert findings == []
