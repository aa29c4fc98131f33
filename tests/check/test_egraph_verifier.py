"""E-graph invariant verifier tests: healthy graphs come back clean,
seeded corruptions trigger their specific EGxxx codes, and the
``Limits(check=True)`` / ``REPRO_CHECK=1`` wiring aborts a run at the
step that broke an invariant."""

import pytest

from repro.check import CheckFailure, verify, verify_or_raise
from repro.check.diagnostics import Severity
from repro.egraph import EGraph
from repro.egraph.analysis import ShapeAnalysis
from repro.ir import parse
from repro.kernels import registry
from repro.saturation import Runner
from repro.targets import blas_target


def _healthy_egraph():
    """A saturated dot/blas graph: merges, payload variety, parents."""
    kernel = registry.get("dot")
    target = blas_target()
    eg = EGraph(ShapeAnalysis(kernel.symbol_shapes))
    root = eg.add_term(kernel.term)
    Runner(eg, target.rules, step_limit=3, node_limit=4000).run(
        root, cost_model=target.cost_model
    )
    return eg


def _codes(findings):
    return {f.code for f in findings}


class TestHealthyGraphs:
    def test_saturated_graph_is_clean(self):
        assert verify(_healthy_egraph()) == []

    def test_empty_graph_is_clean(self):
        assert verify(EGraph()) == []

    def test_fresh_term_graph_is_clean(self):
        eg = EGraph()
        eg.add_term(parse("(x + 0) * y"))
        assert verify(eg) == []

    def test_dirty_graph_is_rebuilt_first(self):
        eg = EGraph()
        a = eg.add_term(parse("a"))
        b = eg.add_term(parse("b"))
        eg.add_term(parse("a + b"))
        eg.merge(a, b)
        assert eg._pending  # invariants undefined pre-rebuild
        assert verify(eg) == []
        assert not eg._pending

    def test_verify_or_raise_passes_clean_graph(self):
        verify_or_raise(_healthy_egraph(), context="test")


class TestSeededCorruption:
    def test_eg101_memo_remapped(self):
        eg = _healthy_egraph()
        ids = eg.class_ids()
        node = next(iter(eg._memo))
        victim = eg._memo[node]
        other = next(
            cid for cid in ids if not eg.same(cid, victim)
        )
        eg._memo[node] = other
        findings = verify(eg)
        assert "EG101" in _codes(findings)

    def test_eg102_congruence_split(self):
        # The same canonical node planted in a second class.
        eg = _healthy_egraph()
        donor_id, donor = next(
            (cid, ec) for cid, ec in eg._classes.items() if ec.nodes
        )
        node = next(iter(donor.nodes))
        other = next(
            ec for cid, ec in eg._classes.items()
            if not eg.same(cid, donor_id)
        )
        other.nodes[node] = None
        findings = verify(eg)
        assert "EG102" in _codes(findings)

    def test_eg103_class_record_mismatch(self):
        eg = _healthy_egraph()
        cid = eg.class_ids()[0]
        eg._classes[cid].class_id = cid + 999_999
        findings = verify(eg)
        assert "EG103" in _codes(findings)

    def test_eg104_slot_owner_corrupted(self):
        eg = _healthy_egraph()
        slot = next(
            s for ec in eg._classes.values() for s in ec.parents
        )
        eg._slot_class[slot] = 999_999_999
        findings = verify(eg)
        assert "EG104" in _codes(findings)

    def test_eg104_slot_columns_diverge(self):
        eg = _healthy_egraph()
        eg._slot_class.append(0)
        findings = verify(eg)
        assert "EG104" in _codes(findings)

    def test_eg105_parent_entry_dropped(self):
        # Remove every parent entry of a class that has parents: its
        # parent nodes are then unreachable from the worklist.
        eg = _healthy_egraph()
        eclass = next(
            ec for ec in eg._classes.values() if ec.parents
        )
        eclass.parents = []
        findings = verify(eg)
        assert "EG105" in _codes(findings)

    def test_eg107_leaf_index_missing_class(self):
        # Drop a var class from the leaf-class index: the intro rules'
        # candidate strategy would silently stop offering it.
        eg = _healthy_egraph()
        var_class = min(eg._leaf_classes["var"])
        eg._leaf_classes["var"].discard(var_class)
        findings = [f for f in verify(eg) if f.code == "EG107"]
        assert findings and findings[0].severity is Severity.ERROR
        assert f"class {var_class}" in findings[0].message

    def test_eg107_leaf_index_lists_dead_class(self):
        # A merged-away id left behind in the index (merge forgot to
        # move the loser's membership to the winner).
        eg = _healthy_egraph()
        dead = next(
            i for i in range(len(eg._uf)) if not eg.has_class(i)
        )
        eg._leaf_classes["const"].add(dead)
        findings = [f for f in verify(eg) if f.code == "EG107"]
        assert len(findings) == 1
        assert f"class {dead}" in findings[0].message

    def test_all_corruption_findings_are_errors(self):
        eg = _healthy_egraph()
        slot = next(
            s for ec in eg._classes.values() for s in ec.parents
        )
        eg._slot_class[slot] = 999_999_999
        for finding in verify(eg):
            if finding.code != "EG104":
                continue
            assert finding.severity is Severity.ERROR

    def test_finding_flood_is_capped(self):
        from repro.check.egraph import MAX_PER_CODE

        eg = _healthy_egraph()
        for cid in eg.class_ids():
            eg._classes[cid].class_id = cid + 999_999
        findings = verify(eg)
        errors = [f for f in findings if f.code == "EG103"
                  and f.severity is Severity.ERROR]
        notes = [f for f in findings if f.code == "EG103"
                 and f.severity is Severity.NOTE]
        assert len(errors) <= MAX_PER_CODE
        assert notes  # "N further findings suppressed"

    def test_verify_or_raise_carries_diagnostics(self):
        eg = _healthy_egraph()
        cid = eg.class_ids()[0]
        eg._classes[cid].class_id = cid + 999_999
        with pytest.raises(CheckFailure) as excinfo:
            verify_or_raise(eg, context="after step 2")
        assert "after step 2" in str(excinfo.value)
        assert any(d.code == "EG103" for d in excinfo.value.diagnostics)


class TestRunnerWiring:
    def test_check_true_runs_hook_every_step(self):
        kernel = registry.get("dot")
        target = blas_target()
        eg = EGraph(ShapeAnalysis(kernel.symbol_shapes))
        root = eg.add_term(kernel.term)
        runner = Runner(
            eg, target.rules, step_limit=2, node_limit=3000, check=True
        )
        seen = []
        runner.on_step_end.append(
            lambda _r, step, _rec: seen.append(step)
        )
        result = runner.run(root, cost_model=target.cost_model)
        assert seen == list(range(1, result.num_steps + 1))

    def test_corruption_mid_run_aborts_at_that_step(self):
        kernel = registry.get("dot")
        target = blas_target()
        eg = EGraph(ShapeAnalysis(kernel.symbol_shapes))
        root = eg.add_term(kernel.term)
        runner = Runner(
            eg, target.rules, step_limit=4, node_limit=4000, check=True
        )

        def corrupt(runner_, step, _record):
            if step == 2:
                cid = runner_.egraph.class_ids()[0]
                runner_.egraph._classes[cid].class_id = cid + 999_999

        # Corrupt *before* the verifier hook sees step 2's state.
        runner.on_step_end.insert(0, corrupt)
        with pytest.raises(CheckFailure, match="after step 2"):
            runner.run(root, cost_model=target.cost_model)

    def test_limits_check_flows_from_env(self, monkeypatch):
        from repro.api import Limits

        monkeypatch.setenv("REPRO_CHECK", "1")
        assert Limits.from_env().check is True
        monkeypatch.setenv("REPRO_CHECK", "0")
        assert Limits.from_env().check is False

    def test_check_excluded_from_cache_key(self):
        from repro.api import Limits

        limits = Limits()
        assert limits.key() == limits.override(check=True).key()

    def test_session_check_egraph(self):
        from repro.api import Session

        assert Session().check_egraph(_healthy_egraph()) == []
