"""Static rule analyzer tests: every RCxxx code fires on a seeded
broken rule, and the shipped rule-sets stay ERROR-free (the CI
acceptance bar for ``python -m repro check-rules``)."""

import pytest

from repro.check import (
    CODES,
    Severity,
    analyze_rules,
    analyze_ruleset,
    has_errors,
    render_json,
    render_text,
)
from repro.check.rules import RULESETS, collect_suppressions
from repro.egraph.rewrite import rewrite
from repro.rules.dsl import (
    PNode,
    n,
    padd,
    pbuild,
    pconst,
    pdb,
    pindex,
    plam,
    pmul,
    pv,
)


def _codes(findings):
    return {f.code for f in findings}


def _rule_codes(findings, rule):
    return {f.code for f in findings if f.rule == rule}


class TestSeededBrokenRules:
    """Each analyzer check fires on a rule seeded with exactly its
    defect."""

    def test_rc101_unbound_rhs_var(self):
        findings = analyze_rules(
            [rewrite("B-Unbound", pv("x"), pv("y"))]
        )
        assert "RC101" in _rule_codes(findings, "B-Unbound")
        assert has_errors(findings)

    def test_rc102_binder_capture(self):
        # LHS binds ?a outside the lambda (shift=1); the RHS uses it
        # unshifted under the binder — a De Bruijn capture.
        findings = analyze_rules([
            rewrite(
                "B-Capture",
                pbuild(n("N"), plam(pv("a", 1))),
                pbuild(n("N"), plam(pv("a"))),
            )
        ])
        assert "RC102" in _rule_codes(findings, "B-Capture")

    def test_rc103_wrong_arity(self):
        findings = analyze_rules([
            rewrite("B-Arity", PNode("index", None, (pv("x"),)), pv("x"))
        ])
        assert "RC103" in _rule_codes(findings, "B-Arity")

    def test_rc104_shape_change(self):
        # build N (lam 0) is an Array(N); rewriting it to the scalar 0
        # changes the shape of every matched class.
        findings = analyze_rules([
            rewrite(
                "B-ShapeChange",
                pbuild(n("N"), plam(pconst(0))),
                pconst(0),
            )
        ])
        assert "RC104" in _rule_codes(findings, "B-ShapeChange")
        assert has_errors(findings)

    def test_rc201_never_fires(self):
        # index(1, 2) indexes a scalar: shape inference rejects every
        # possible instantiation, so the rule cannot match well-typed
        # graphs.
        findings = analyze_rules([
            rewrite("B-NeverFires", pindex(pconst(1), pconst(2)), pconst(0))
        ])
        assert "RC201" in _rule_codes(findings, "B-NeverFires")

    def test_rc202_pure_expansion(self):
        findings = analyze_rules([
            rewrite("B-Expansion", pv("x"), padd(pv("x"), pconst(0)))
        ])
        assert "RC202" in _rule_codes(findings, "B-Expansion")

    def test_rc203_duplicate_modulo_commutativity(self):
        findings = analyze_rules([
            rewrite("commute", pmul(pv("a"), pv("b")), pmul(pv("b"), pv("a"))),
            rewrite("mul-one-l", pmul(pconst(1), pv("x")), pv("x")),
            rewrite("mul-one-r", pmul(pv("x"), pconst(1)), pv("x")),
        ])
        dup = [f for f in findings if f.code == "RC203"]
        assert len(dup) == 1
        assert dup[0].rule == "mul-one-r"
        assert "mul-one-l" in dup[0].message

    def test_rc204_nonlinear_term_mode_pattern(self):
        findings = analyze_rules([
            rewrite(
                "B-Nonlinear",
                pbuild(n("N"), plam(padd(pv("x", 1), pv("x", 1)))),
                pv("x"),
            )
        ])
        assert "RC204" in _rule_codes(findings, "B-Nonlinear")

    def test_rc206_dynamic_applier_is_opaque(self):
        from repro.egraph.rewrite import dynamic_rule

        findings = analyze_rules([
            dynamic_rule(
                "B-Dynamic", pv("x"), lambda eg, match: []
            )
        ])
        assert "RC206" in _rule_codes(findings, "B-Dynamic")
        assert not has_errors(findings)


class TestShippedRulesets:
    @pytest.mark.parametrize("name", sorted(RULESETS))
    def test_no_errors(self, name):
        findings = analyze_ruleset(name)
        errors = [f for f in findings if f.severity is Severity.ERROR]
        assert errors == [], render_text(findings)

    def test_scalar_golden_warnings(self):
        # The one expected warning: E-MulOneR duplicates E-MulOneL
        # modulo E-CommuteMul.  Anything beyond it is a regression.
        findings = analyze_ruleset("scalar")
        warnings_ = [f for f in findings if f.severity is Severity.WARNING]
        assert [(f.code, f.rule) for f in warnings_] == [
            ("RC203", "E-MulOneR")
        ]

    def test_dynamic_rules_are_notes_only(self):
        for name in sorted(RULESETS):
            for finding in analyze_ruleset(name):
                if finding.code == "RC206":
                    assert finding.severity is Severity.NOTE


class TestSuppressions:
    def test_ignore_comment_filters_finding(self):
        def factory():
            return [
                rewrite("B-Expansion", pv("x"), padd(pv("x"), pconst(0))),  # repro: ignore[RC202]
            ]

        suppressions = collect_suppressions(factory)
        # Every string literal on the tagged line is treated as a
        # potential rule name; the rule's own name must be among them.
        assert suppressions["B-Expansion"] == {"RC202"}
        findings = analyze_rules(factory(), suppressions=suppressions)
        assert "RC202" not in _codes(findings)

    def test_unsuppressed_rules_unaffected(self):
        findings = analyze_rules(
            [rewrite("B-Expansion", pv("x"), padd(pv("x"), pconst(0)))],
            suppressions={"OtherRule": {"RC202"}},
        )
        assert "RC202" in _codes(findings)


class TestDiagnosticsFramework:
    def test_every_code_is_registered(self):
        for code in ("RC101", "RC102", "RC103", "RC104", "RC201",
                     "RC202", "RC203", "RC204", "RC205", "RC206",
                     "EG101", "EG102", "EG103", "EG104", "EG105",
                     "EG107"):
            assert code in CODES
        # Retired with the snapshot store, and never reused.
        assert "EG106" not in CODES

    def test_unknown_code_rejected(self):
        from repro.check import Diagnostic

        with pytest.raises(ValueError):
            Diagnostic("RC999", Severity.ERROR, "nope")

    def test_render_json_round_trips(self):
        import json

        findings = analyze_rules(
            [rewrite("B-Unbound", pv("x"), pv("y"))]
        )
        payload = json.loads(render_json(findings))
        assert payload[0]["code"] == "RC101"
        assert payload[0]["severity"] == "error"
        assert payload[0]["rule"] == "B-Unbound"

    def test_render_text_summarizes(self):
        text = render_text(
            analyze_rules([rewrite("B-Unbound", pv("x"), pv("y"))])
        )
        assert "1 error(s)" in text

    def test_severity_ordering(self):
        findings = analyze_rules([
            rewrite("ok-dup-a", pmul(pconst(1), pv("x")), pv("x")),
            rewrite("B-Unbound", pv("x"), pv("y")),
        ])
        rendered = render_text(findings)
        # Errors sort before warnings/notes in the rendered report.
        assert rendered.index("RC101") < len(rendered)
        severities = [f.severity.rank for f in sorted(
            findings, key=lambda f: (f.severity.rank, f.code)
        )]
        assert severities == sorted(severities)


class TestRC205ProfilePruning:
    def test_unknown_profile_rule_emits_rc205(self, tmp_path):
        import json as json_

        from repro.saturation.pruning import (
            RuleProfile,
            UnknownRuleWarning,
            prune_rules,
        )

        profile_path = tmp_path / "prof.json"
        profile_path.write_text(json_.dumps({
            "schema": "repro-rule-profile/1",
            "runs": [{
                "kernel": "gemv", "target": "blas",
                "rule_stats": {"I-Retired": {
                    "name": "I-Retired", "matches_found": 5, "unions": 1,
                }},
            }],
        }))
        profile = RuleProfile.load(profile_path)
        collected = []
        with pytest.warns(UnknownRuleWarning, match="RC205"):
            prune_rules(
                [rewrite("E-Current", pv("x"), pv("x"))],
                profile, kernel="gemv", target="blas",
                diagnostics=collected,
            )
        assert [f.code for f in collected] == ["RC205"]
        assert collected[0].severity is Severity.WARNING
        assert "I-Retired" in collected[0].message

    def test_rc205_warning_deduped_per_profile(self, tmp_path):
        import json as json_
        import warnings as warnings_

        from repro.saturation.pruning import RuleProfile, prune_rules

        profile_path = tmp_path / "prof.json"
        profile_path.write_text(json_.dumps({
            "schema": "repro-rule-profile/1",
            "runs": [{
                "kernel": "gemv", "target": "blas",
                "rule_stats": {"I-Retired": {
                    "name": "I-Retired", "matches_found": 5, "unions": 1,
                }},
            }],
        }))
        profile = RuleProfile.load(profile_path)
        rules = [rewrite("E-Current", pv("x"), pv("x"))]

        def run():
            collected = []
            with warnings_.catch_warnings(record=True) as caught:
                warnings_.simplefilter("always")
                prune_rules(
                    rules, profile, kernel="gemv", target="blas",
                    diagnostics=collected,
                )
            return collected, caught

        first_diags, first_warnings = run()
        second_diags, second_warnings = run()
        # Diagnostics ride on every call; the warning fires once.
        assert len(first_diags) == len(second_diags) == 1
        assert len(first_warnings) == 1
        assert len(second_warnings) == 0


class TestSessionSurface:
    def test_session_check_rules_all(self):
        from repro.api import Session

        findings = Session().check_rules()
        assert not has_errors(findings)
        assert findings  # the golden RC203 + RC206 notes

    def test_session_check_rules_named_target(self):
        from repro.api import Session

        findings = Session().check_rules("blas")
        assert not has_errors(findings)
