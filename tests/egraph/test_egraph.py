"""Tests for the e-graph core: hashcons, merge, congruence closure,
smallest-term extraction, ClassRef splicing, slotted hashcons repair,
and randomized invariant checking via repro.check."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.egraph import ClassRef, EGraph, ENode
from repro.ir import builders as b, parse, pretty
from repro.egraph.rewrite import rewrite
from repro.ir.terms import Call, Const, Symbol, Term
from repro.rules.dsl import padd, pconst, pmul, pv
from repro.saturation import Runner


class TestAddAndHashcons:
    def test_identical_terms_share_class(self):
        eg = EGraph()
        a = eg.add_term(parse("x + 1"))
        b_ = eg.add_term(parse("x + 1"))
        assert a == b_

    def test_distinct_terms_get_distinct_classes(self):
        eg = EGraph()
        a = eg.add_term(parse("x + 1"))
        b_ = eg.add_term(parse("x + 2"))
        assert not eg.same(a, b_)

    def test_shared_subterms_are_shared(self):
        eg = EGraph()
        eg.add_term(parse("(a + b) * (a + b)"))
        # a, b, a+b, (a+b)*(a+b): 4 classes.
        assert eg.num_classes == 4

    def test_num_nodes_counts_unique_enodes(self):
        eg = EGraph()
        eg.add_term(parse("a + a"))
        assert eg.num_nodes == 2  # symbol a, plus node

    def test_known_sizes_collects_build_and_ifold(self):
        eg = EGraph()
        eg.add_term(parse("build 4 (λ ifold 8 0 (λ λ •0))"))
        assert eg.known_sizes == {4, 8}


class TestMergeAndRebuild:
    def test_merge_makes_equivalent(self):
        eg = EGraph()
        a = eg.add_term(Symbol("a"))
        b_ = eg.add_term(Symbol("b"))
        eg.merge(a, b_)
        eg.rebuild()
        assert eg.same(a, b_)

    def test_congruence_upward_merge(self):
        # a = b must force f(a) = f(b).
        eg = EGraph()
        fa = eg.add_term(Call("f", (Symbol("a"),)))
        fb = eg.add_term(Call("f", (Symbol("b"),)))
        assert not eg.same(fa, fb)
        eg.merge(eg.add_term(Symbol("a")), eg.add_term(Symbol("b")))
        eg.rebuild()
        assert eg.same(fa, fb)

    def test_congruence_cascades(self):
        eg = EGraph()
        ffa = eg.add_term(Call("f", (Call("f", (Symbol("a"),)),)))
        ffb = eg.add_term(Call("f", (Call("f", (Symbol("b"),)),)))
        eg.merge(eg.add_term(Symbol("a")), eg.add_term(Symbol("b")))
        eg.rebuild()
        assert eg.same(ffa, ffb)

    def test_merge_is_idempotent(self):
        eg = EGraph()
        a = eg.add_term(Symbol("a"))
        b_ = eg.add_term(Symbol("b"))
        eg.merge(a, b_)
        version = eg.version
        eg.merge(a, b_)
        assert eg.version == version

    def test_hashcons_respects_merges(self):
        # After a = b, adding f(b) must land in f(a)'s class.
        eg = EGraph()
        fa = eg.add_term(Call("f", (Symbol("a"),)))
        eg.merge(eg.add_term(Symbol("a")), eg.add_term(Symbol("b")))
        eg.rebuild()
        fb = eg.add_term(Call("f", (Symbol("b"),)))
        assert eg.same(fa, fb)

    def test_classic_fx_eq_x_loop(self):
        # Merge f(x) with x: the e-graph becomes cyclic but stays sound.
        eg = EGraph()
        fx = eg.add_term(Call("f", (Symbol("x"),)))
        x = eg.add_term(Symbol("x"))
        eg.merge(fx, x)
        eg.rebuild()
        ffx = eg.add_term(Call("f", (Call("f", (Symbol("x"),)),)))
        assert eg.same(ffx, x)


class TestExtractSmallest:
    def test_single_term(self):
        eg = EGraph()
        term = parse("a + 1")
        root = eg.add_term(term)
        assert eg.extract_smallest(root) == term

    def test_prefers_smaller_after_merge(self):
        eg = EGraph()
        big = eg.add_term(parse("a + (b * 0)"))
        small = eg.add_term(parse("a"))
        eg.merge(big, small)
        eg.rebuild()
        assert eg.extract_smallest(big) == Symbol("a")

    def test_cyclic_class_still_extracts_finite_term(self):
        eg = EGraph()
        fx = eg.add_term(Call("f", (Symbol("x"),)))
        x = eg.add_term(Symbol("x"))
        eg.merge(fx, x)
        eg.rebuild()
        assert eg.extract_smallest(x) == Symbol("x")

    def test_extract_candidates_contains_alternatives(self):
        eg = EGraph()
        a = eg.add_term(parse("a + 0"))
        b_ = eg.add_term(parse("a"))
        eg.merge(a, b_)
        eg.rebuild()
        candidates = eg.extract_candidates(a, limit=4)
        assert Symbol("a") in candidates
        assert parse("a + 0") in candidates


class TestClassRef:
    def test_classref_splices_existing_class(self):
        eg = EGraph()
        inner = eg.add_term(parse("a + b"))
        wrapped = eg.add_term(Call("f", (ClassRef(inner),)))
        direct = eg.add_term(parse("f(a + b)"))
        assert eg.same(wrapped, direct)

    def test_classref_follows_merges(self):
        eg = EGraph()
        a = eg.add_term(Symbol("a"))
        b_ = eg.add_term(Symbol("b"))
        eg.merge(a, b_)
        eg.rebuild()
        fa = eg.add_term(Call("f", (ClassRef(a),)))
        fb = eg.add_term(Call("f", (ClassRef(b_),)))
        assert eg.same(fa, fb)


class TestEquivalentHelper:
    def test_equivalent_adds_terms(self):
        eg = EGraph()
        eg.merge(eg.add_term(parse("a")), eg.add_term(parse("b")))
        eg.rebuild()
        assert eg.equivalent(parse("a"), parse("b"))
        assert not eg.equivalent(parse("a"), parse("c"))


# ---------------------------------------------------------------------------
# Property: random merges keep congruence (validated by checking that
# structurally congruent nodes end up in equal classes).
# ---------------------------------------------------------------------------

_SYMBOLS = ["a", "b", "c", "d"]


@st.composite
def _term(draw, depth=0):
    if depth > 2 or draw(st.booleans()):
        return Symbol(draw(st.sampled_from(_SYMBOLS)))
    fn = draw(st.sampled_from(["f", "g"]))
    arity = draw(st.integers(1, 2))
    args = tuple(draw(_term(depth=depth + 1)) for _ in range(arity))
    return Call(fn, args)


@given(
    st.lists(st.tuples(_term(), _term()), min_size=1, max_size=8),
    st.lists(_term(), min_size=1, max_size=8),
)
@settings(max_examples=50, deadline=None)
def test_congruence_invariant_under_random_merges(merges, probes):
    eg = EGraph()
    for left, right in merges:
        eg.merge(eg.add_term(left), eg.add_term(right))
        eg.rebuild()
    # Invariant: for every probe f(t), re-adding it lands in the same
    # class as its hashconsed original, and congruent probes coincide.
    for probe in probes:
        first = eg.add_term(probe)
        second = eg.add_term(probe)
        assert first == second
    # Full congruence check over the memo: canonical enodes map to
    # canonical classes, and no two equal canonical enodes disagree.
    seen = {}
    for eclass in eg.classes():
        for node in eclass.nodes:
            canonical = eg.canonicalize(node)
            if canonical in seen:
                assert eg.find(seen[canonical]) == eg.find(eclass.class_id)
            seen[canonical] = eclass.class_id


class TestHashconsRepair:
    """The rebuild repair must pop each e-node's *current* memo key.

    Under the old recorded-form scheme, a node re-keyed by an earlier
    merge left its stale entry behind when a later merge re-keyed it
    again; the retired object store papered over that miss with a full
    memo sweep each rebuild.
    """

    @staticmethod
    def _memo_is_canonical(eg):
        for node, class_id in eg._memo.items():
            assert eg.canonicalize(node) == node, node
            assert eg.has_class(eg.find(class_id))

    @pytest.mark.parametrize("rebuild_between", [True, False])
    def test_double_rekey_leaves_no_stale_entry(self, rebuild_between):
        # n = f(a, b): merging a (re-keying n) and then b (re-keying n
        # again) must pop the intermediate form, whether the merges are
        # separated by a rebuild or repaired within a single one.
        eg = EGraph()
        a = eg.add_enode(ENode("symbol", "a", ()))
        b_ = eg.add_enode(ENode("symbol", "b", ()))
        c = eg.add_enode(ENode("symbol", "c", ()))
        d = eg.add_enode(ENode("symbol", "d", ()))
        eg.add_enode(ENode("f", None, (a, b_)))
        eg.merge(a, c)
        if rebuild_between:
            eg.rebuild()
        eg.merge(b_, d)
        eg.rebuild()
        self._memo_is_canonical(eg)
        # Exactly one entry for f remains, keyed by the current form.
        f_entries = [n for n in eg._memo if n.op == "f"]
        assert f_entries == [
            ENode("f", None, (eg.find(a), eg.find(b_)))
        ]

    def test_congruence_found_through_stale_key(self):
        # f(a,b) and f(c,d) become congruent only after both merges;
        # a repair that popped the recorded (stale) form would miss
        # the second node's unification.
        eg = EGraph()
        a = eg.add_enode(ENode("symbol", "a", ()))
        b_ = eg.add_enode(ENode("symbol", "b", ()))
        c = eg.add_enode(ENode("symbol", "c", ()))
        d = eg.add_enode(ENode("symbol", "d", ()))
        fab = eg.add_enode(ENode("f", None, (a, b_)))
        fcd = eg.add_enode(ENode("f", None, (c, d)))
        assert not eg.same(fab, fcd)
        eg.merge(a, c)
        eg.rebuild()
        eg.merge(b_, d)
        eg.rebuild()
        assert eg.same(fab, fcd)
        self._memo_is_canonical(eg)

    def test_flat_repair_is_complete_under_check_mode(self, monkeypatch):
        # REPRO_EGRAPH_CHECK=1 asserts inside rebuild() that the sweep
        # safety net finds nothing left to do after the slot repair.
        monkeypatch.setenv("REPRO_EGRAPH_CHECK", "1")
        eg = EGraph()
        root = eg.add_term(parse("(x + 0) * (y + 0)"))
        rules = [
            rewrite("add-zero", padd(pv("x"), pconst(0)), pv("x")),
            rewrite("commute", pmul(pv("a"), pv("b")), pmul(pv("b"), pv("a"))),
        ]
        from repro.extraction import AstSizeCost

        Runner(eg, rules, step_limit=4).run(root, cost_model=AstSizeCost())
        self._memo_is_canonical(eg)


@st.composite
def _merge_programs(draw):
    """A random DAG of e-nodes plus a random merge schedule."""
    n_leaves = draw(st.integers(2, 5))
    n_inner = draw(st.integers(0, 6))
    merges = draw(
        st.lists(
            st.tuples(st.integers(0, 10), st.integers(0, 10)), max_size=8
        )
    )
    inner = [
        (draw(st.integers(0, 1)), draw(st.integers(0, 20)), draw(st.integers(0, 20)))
        for _ in range(n_inner)
    ]
    return n_leaves, inner, merges


@given(_merge_programs())
@settings(max_examples=60, deadline=None)
def test_random_merge_schedules_keep_invariants(program):
    """Property: any node/merge schedule leaves a rebuilt graph that
    passes the full repro.check invariant sweep (hashcons, congruence,
    union-find, slot store, parent lists)."""
    from repro.check import verify

    n_leaves, inner, merges = program
    eg = EGraph()
    ids = [
        eg.add_enode(ENode("symbol", f"s{i}", ())) for i in range(n_leaves)
    ]
    for op_choice, left, right in inner:
        op = "f" if op_choice == 0 else "g"
        ids.append(
            eg.add_enode(
                ENode(op, None, (ids[left % len(ids)], ids[right % len(ids)]))
            )
        )
    for a, b_ in merges:
        eg.merge(ids[a % len(ids)], ids[b_ % len(ids)])
        eg.rebuild()
        assert verify(eg) == []


def test_runner_and_extraction_names_are_not_reexported():
    """The runner lives in repro.saturation and extraction in
    repro.extraction; repro.egraph neither re-exports their names nor
    keeps the old shim modules, and every name it lists resolves."""
    import repro.egraph as eg

    for name in ("Runner", "RunResult", "StopReason", "CostModel",
                 "AstSizeCost", "Extractor"):
        with pytest.raises(AttributeError):
            getattr(eg, name)
    with pytest.raises(ImportError):
        import repro.egraph.runner  # noqa: F401
    with pytest.raises(ImportError):
        import repro.egraph.extract  # noqa: F401
    for name in eg.__all__:
        assert getattr(eg, name) is not None, name
