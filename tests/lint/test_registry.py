"""The rule registry: codes, severities, suppression, findings."""

import pytest

from repro.lint import Finding, Severity, all_rules, finding, rule
from repro.lint.registry import (check_codes, filter_suppressed,
                                 register_rule)

# JCD004 and JCD010-JCD019 are retired, not renumbered: 8 rules.
EXPECTED_CODES = [f"JCD{i:03d}" for i in range(1, 10) if i != 4]


class TestCatalog:
    def test_all_shipped_rules_registered(self):
        assert [r.code for r in all_rules()] == EXPECTED_CODES

    def test_rule_lookup(self):
        declared = rule("JCD001")
        assert declared.name == "unconnected-input-port"
        assert declared.severity is Severity.ERROR

    def test_unknown_code_raises(self):
        with pytest.raises(ValueError, match="unknown rule code"):
            rule("JCD999")

    def test_retired_code_is_unknown(self):
        with pytest.raises(ValueError, match="unknown rule code"):
            check_codes({"JCD004"})

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_rule("JCD001", "again", Severity.INFO, "dup")

    def test_malformed_code_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            register_rule("XYZ1", "bad", Severity.INFO, "bad code")


class TestFindings:
    def test_finding_inherits_rule_severity(self):
        item = finding("JCD001", "boom", "c.m.p")
        assert item.severity is Severity.ERROR
        assert item.target == "c.m.p"

    def test_severity_override(self):
        item = finding("JCD003", "soft case", "c.n",
                       severity=Severity.WARNING)
        assert item.severity is Severity.WARNING
        assert item.format() == "c.n: warning JCD003 soft case"

    def test_as_dict_round_trips_severity_name(self):
        item = finding("JCD002", "msg", "t")
        assert item.as_dict()["severity"] == "warning"

    def test_severity_ordering(self):
        assert Severity.ERROR > Severity.WARNING > Severity.INFO


class TestSuppression:
    def _findings(self):
        return [finding("JCD001", "a", "x"),
                finding("JCD002", "b", "y"),
                finding("JCD001", "c", "z")]

    def test_filter_by_code(self):
        kept, dropped = filter_suppressed(self._findings(), {"JCD001"})
        assert [f.code for f in kept] == ["JCD002"]
        assert dropped == 2

    def test_empty_suppression_keeps_everything(self):
        kept, dropped = filter_suppressed(self._findings())
        assert len(kept) == 3 and dropped == 0

    def test_unknown_suppression_code_raises(self):
        with pytest.raises(ValueError, match="unknown rule code"):
            check_codes({"JCD001", "JCD777"})

    def test_findings_are_frozen(self):
        item = finding("JCD001", "a", "x")
        with pytest.raises(AttributeError):
            item.code = "JCD002"
        assert isinstance(item, Finding)
