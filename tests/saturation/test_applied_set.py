"""The runner's incremental applied-match set.

:class:`repro.saturation.runner.AppliedSet` re-canonicalizes only the
signatures that embed a class id merged away since the previous
rebuild.  After every step it must equal the wholesale
re-canonicalization ``{_canonicalize_signature(eg, s) for s in set}``
of the set it held before the rebuild, and its per-class index must
list exactly the ids each signature embeds.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.egraph import EGraph, ENode
from repro.egraph.analysis import ShapeAnalysis
from repro.ir.terms import Symbol
from repro.kernels import registry
from repro.saturation import Runner
from repro.saturation.runner import (
    AppliedSet,
    _canonicalize_signature,
    _signature_classes,
)
from repro.targets import blas_target


def _assert_index_consistent(applied: AppliedSet) -> None:
    expected = {}
    for signature in applied.signatures:
        for class_id in _signature_classes(signature):
            expected.setdefault(class_id, set()).add(signature)
    assert applied._by_class == expected


def _checked_recanonicalize(monkeypatch):
    """Wrap AppliedSet.recanonicalize with the wholesale oracle; returns
    the list of per-call set sizes."""
    original = AppliedSet.recanonicalize
    calls = []

    def checked(self, egraph, merged):
        wholesale = {
            _canonicalize_signature(egraph, s) for s in self.signatures
        }
        original(self, egraph, merged)
        assert self.signatures == wholesale
        _assert_index_consistent(self)
        calls.append(len(self.signatures))

    monkeypatch.setattr(AppliedSet, "recanonicalize", checked)
    return calls


def test_gemv_blas_matches_wholesale_every_step(monkeypatch):
    calls = _checked_recanonicalize(monkeypatch)
    kernel = registry.get("gemv")
    target = blas_target()
    eg = EGraph(ShapeAnalysis(kernel.symbol_shapes))
    root = eg.add_term(kernel.term)
    result = Runner(
        eg, target.rules, step_limit=8, node_limit=5000
    ).run(root, cost_model=target.cost_model)
    assert len(calls) == result.num_steps
    assert max(calls) > 0
    assert "gemv" in result.final.library_calls


def _signature(eg, rng, ids, rule_index):
    """A runner-shaped signature over canonical ids: a root class, and
    class / term / size bindings."""
    parts = []
    for name in sorted(rng.sample("abcd", rng.randint(0, 3))):
        kind = rng.choice("ctv")
        if kind == "c":
            parts.append((name, "c", eg.find(rng.choice(ids))))
        elif kind == "t":
            parts.append((name, "t", Symbol(rng.choice("xy"))))
        else:
            parts.append((name, "v", rng.randint(1, 3)))
    return (rule_index, None, (eg.find(rng.choice(ids)), tuple(parts)))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_random_merge_schedule_matches_wholesale(seed):
    """Random admissions, merges (with and without a rebuild between
    them), rebuilds and cap clears: after every rebuild the incremental
    set equals the wholesale re-canonicalization."""
    rng = random.Random(seed)
    eg = EGraph()
    ids = [eg.add_enode(ENode("symbol", f"s{i}", ())) for i in range(6)]
    for i in range(4):
        ids.append(eg.add_enode(
            ENode("f", None, (rng.choice(ids), rng.choice(ids)))
        ))
    eg.pop_merged()
    applied = AppliedSet()
    for _ in range(rng.randint(1, 12)):
        for _ in range(rng.randint(0, 6)):
            applied.add(_signature(eg, rng, ids, rng.randint(0, 2)))
        for _ in range(rng.randint(0, 3)):
            eg.merge(rng.choice(ids), rng.choice(ids))
        before = set(applied.signatures)
        eg.rebuild()
        applied.recanonicalize(eg, eg.pop_merged())
        assert applied.signatures == {
            _canonicalize_signature(eg, s) for s in before
        }
        _assert_index_consistent(applied)
        if rng.random() < 0.1:
            applied.clear()
            assert len(applied) == 0 and applied._by_class == {}


def test_readding_a_present_signature_is_a_no_op():
    eg = EGraph()
    a = eg.add_term(Symbol("a"))
    applied = AppliedSet()
    signature = (0, None, (a, (("x", "c", a),)))
    applied.add(signature)
    applied.add(signature)
    assert len(applied) == 1 and signature in applied
    _assert_index_consistent(applied)


@pytest.mark.parametrize("cap", [0, 10])
def test_applied_cap_clears_set_and_index(cap, monkeypatch):
    cleared = []
    original = AppliedSet.clear

    def clear(self):
        original(self)
        assert self._by_class == {}
        cleared.append(True)

    monkeypatch.setattr(AppliedSet, "clear", clear)
    kernel = registry.get("vsum")
    target = blas_target()
    eg = EGraph(ShapeAnalysis(kernel.symbol_shapes))
    root = eg.add_term(kernel.term)
    Runner(eg, target.rules, step_limit=3, node_limit=2000,
           applied_cap=cap).run(root, cost_model=target.cost_model)
    assert cleared
