"""The e-graph: hash-consed e-nodes partitioned into e-classes.

Follows the design of egg (Willsey et al., POPL 2021): a union-find
over e-class ids, a hashcons mapping canonical e-nodes to their class,
per-class parent lists, and deferred congruence-closure maintenance via
:meth:`EGraph.rebuild`.

Extras needed by LIAR:

* an optional per-class *analysis* (used for shape inference, which the
  cost models consume);
* ``add_term`` / ``extract_smallest`` to move between terms and
  classes — rule application in LIAR extracts terms to run the De
  Bruijn ``shift``/``subst`` operators on them (§IV-B3, approach 2);
* :class:`ClassRef`, a pseudo-term that references an existing e-class
  so rule right-hand sides can mention matched classes without
  extracting them;
* ``known_sizes``, the set of array sizes present in the graph, used to
  instantiate the free size variable of ``R-INTRO-INDEXBUILD``.

Storage layout — the slotted store:

Every e-node is assigned a dense integer **slot** when it is first
hash-consed.  ``_slot_form[slot]`` tracks the node's *current*
canonical form (its live hashcons key) and ``_slot_class[slot]`` its
class; per-class parent lists hold plain slot ints instead of
``(ENode, class_id)`` pairs.  This buys **complete hashcons repair**:
:meth:`rebuild` pops a parent's *current* memo key (``_slot_form``),
not the form recorded when the parent was registered, so repair can no
longer miss entries that were re-keyed by an earlier merge and the
O(memo) safety sweep the previous object store needed every rebuild is
gone.

Indices and caches, each with its invalidation key:

* **leaf-class index** — one set of canonical class ids per leaf op
  (``var``, ``const``, ``symbol``).  :meth:`EGraph.add_enode` adds to
  it and :meth:`EGraph.merge` moves the loser's membership to the
  winner, so it is never stale; :meth:`EGraph.leaf_classes` serves the
  intro rules' candidate strategies without a scan of the class table.
* **smallest-term table** (:meth:`EGraph._size_table`) and the
  **op index** (:meth:`EGraph.classes_by_op`) — keyed on
  :attr:`EGraph.generation`, so one table serves a whole saturation
  step.
* **candidate memo** (:meth:`EGraph.extract_candidates`) and
  **unshift memo** (:meth:`EGraph.unshifted_candidates`) — per
  canonical class, keyed on ``(version, generation)``: any mutation
  bumps ``version``, and a rebuild that merges nothing still bumps
  ``generation``, which changes the size table the candidates are
  built from.  Both tables are dropped whenever the key moves, so they
  hold one graph state at most.
* **merge log** (:meth:`EGraph.pop_merged`) — the class ids merged
  away since the last call; the saturation runner re-canonicalizes
  only the applied-match signatures that embed one of them.

:func:`repro.check.egraph.verify` sweeps every representation
invariant of this layout on demand (``Limits(check=True)`` /
``REPRO_CHECK=1`` runs it after every saturation step).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple as TupleT

from ..ir.debruijn import try_unshift
from ..ir.terms import Term
from .enode import LEAF_OPS, ENode, enode_to_term_shallow, term_to_parts
from .unionfind import UnionFind

__all__ = ["EGraph", "EClass", "ClassRef", "Analysis"]


@dataclass(frozen=True, slots=True)
class ClassRef(Term):
    """Pseudo-term wrapping an e-class id.

    Only meaningful inside :meth:`EGraph.add_term`: it splices a
    reference to an existing class into a term under construction.
    Never appears in extracted expressions.
    """

    class_id: int


class Analysis:
    """Base class for e-class analyses (egg-style).

    ``make`` computes the analysis data of a fresh e-node from its
    children's data; ``join`` combines the data of two merged classes.
    The default implementation stores nothing.
    """

    def make(self, egraph: "EGraph", enode: ENode) -> object:
        return None

    def join(self, a: object, b: object) -> object:
        return None


@dataclass
class EClass:
    """One equivalence class of e-nodes.

    ``nodes`` is a dict used as an insertion-ordered set: iteration
    order is deterministic across processes (a plain set would iterate
    in PYTHONHASHSEED-dependent order, making saturation runs — and
    hence extracted solutions — irreproducible).

    ``parents`` holds slot ints (resolve through ``EGraph._slot_form``
    / ``_slot_class``).  Consumers outside this module should use
    :meth:`EGraph.parents_of`.
    """

    class_id: int
    nodes: Dict[ENode, None] = field(default_factory=dict)
    parents: List[int] = field(default_factory=list)
    data: object = None


class EGraph:
    """A congruence-closed e-graph with hash-consing.

    Invariants (after :meth:`rebuild`):

    * every e-node in ``self._memo`` is canonical (children are
      union-find roots) and maps to a canonical class id;
    * congruent e-nodes (same op/payload, same canonical children)
      are in the same class.
    """

    def __init__(self, analysis: Optional[Analysis] = None) -> None:
        # slot -> the e-node's current canonical form (live memo key)
        self._slot_form: List[ENode] = []
        # slot -> the e-node's class id (kept find-compressed by repair)
        self._slot_class: List[int] = []
        self._uf = UnionFind()
        self._memo: Dict[ENode, int] = {}
        self._classes: Dict[int, EClass] = {}
        self._pending: List[int] = []
        self._analysis = analysis
        self._analysis_pending: List[int] = []
        self.known_sizes: Set[int] = set()
        # Classes created or merged since the last pop_dirty(); the
        # saturation engine's incremental e-matching restricts rule
        # search to these classes and their parent closure.
        self._dirty: Set[int] = set()
        # Union-origin log for rule provenance: while origin_tag is a
        # rule name (the saturation runner sets it around each rule
        # application), every e-node creation and class union appends
        # (tag, class_id, other_class_id_or_-1).  Untagged mutations —
        # initial term construction, congruence repair — are not
        # logged; repro.extraction.provenance walks this log.
        self.origin_tag: Optional[str] = None
        self.union_origins: List[TupleT[str, int, int]] = []
        # Bumped on every mutation; used for fixpoint detection.
        self.version = 0
        # Bumped only by rebuild(); the smallest-term table caches off
        # this so that rule appliers running inside one saturation step
        # share a single table instead of recomputing per mutation.
        # Terms read from a slightly stale table are still valid class
        # members (classes only ever grow).
        self.generation = 0
        # Leaf op -> canonical ids of the classes holding an e-node with
        # that op; add_enode() and merge() keep it current.
        self._leaf_classes: Dict[str, Set[int]] = {op: set() for op in LEAF_OPS}
        # Class ids merged away (union losers) since the last
        # pop_merged(); each id enters at most once.
        self._merged: List[int] = []
        # (generation, table) caches; see _size_table / classes_by_op.
        self._size_cache: Optional[TupleT[int, Dict[int, TupleT[int, ENode]]]] = None
        self._op_index_cache: Optional[TupleT[int, Dict[str, List[int]]]] = None
        # Candidate and unshift memos, valid for one (version,
        # generation) key; see extract_candidates.
        self._candidate_key: TupleT[int, int] = (-1, -1)
        self._candidates: Dict[TupleT[int, int], TupleT[Term, ...]] = {}
        self._unshifted: Dict[TupleT[int, int], TupleT[Term, ...]] = {}
        # Smallest term per raw class id, shared by the memoized
        # candidates (same key).
        self._terms: Dict[int, Optional[Term]] = {}

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    def find(self, class_id: int) -> int:
        """Canonical id of the class containing ``class_id``."""
        return self._uf.find(class_id)

    def canonicalize(self, enode: ENode) -> ENode:
        """Canonicalize an e-node's children."""
        return enode.map_children(self._uf.find)

    def classes(self) -> Iterable[EClass]:
        """Iterate over all canonical e-classes."""
        return self._classes.values()

    def class_ids(self) -> List[int]:
        """All canonical class ids (snapshot list, safe to mutate over)."""
        return list(self._classes.keys())

    def nodes_of(self, class_id: int):
        """The e-nodes of the class containing ``class_id`` (an
        insertion-ordered, set-like view)."""
        return self._classes[self.find(class_id)].nodes

    def data_of(self, class_id: int) -> object:
        """Analysis data of the class containing ``class_id``."""
        return self._classes[self.find(class_id)].data

    @property
    def num_classes(self) -> int:
        return len(self._classes)

    @property
    def num_nodes(self) -> int:
        """Number of unique (canonical) e-nodes in the graph."""
        return len(self._memo)

    def same(self, a: int, b: int) -> bool:
        """True when classes ``a`` and ``b`` have been merged."""
        return self._uf.same(a, b)

    def has_class(self, class_id: int) -> bool:
        """True when ``class_id`` is a live canonical class id."""
        return class_id in self._classes

    def parents_of(self, class_id: int) -> List[int]:
        """Canonical class ids of the parents of ``class_id``'s class
        (classes containing an e-node with a child in the class).  May
        contain duplicates; callers canonicalize-and-dedup anyway."""
        eclass = self._classes.get(self._uf.find(class_id))
        if eclass is None:
            return []
        find = self._uf.find
        slot_class = self._slot_class
        return [find(slot_class[slot]) for slot in eclass.parents]

    def _parent_entries(
        self, eclass: EClass
    ) -> List[TupleT[ENode, int]]:
        """The class's parents as ``(current form, class id)`` pairs
        (internal; analysis propagation)."""
        slot_form, slot_class = self._slot_form, self._slot_class
        return [(slot_form[slot], slot_class[slot]) for slot in eclass.parents]

    def pop_dirty(self) -> Set[int]:
        """Canonical ids of every class created or merged since the
        previous call, clearing the log.  Consumed once per saturation
        step by the incremental e-matcher."""
        dirty = {self._uf.find(class_id) for class_id in self._dirty}
        self._dirty.clear()
        return dirty

    def pop_merged(self) -> List[int]:
        """Ids of every class merged away (no longer canonical) since
        the previous call, clearing the log.  Consumed at each rebuild
        by the saturation runner's applied-match index."""
        merged, self._merged = self._merged, []
        return merged

    def leaf_classes(self, *ops: str) -> List[int]:
        """Ascending canonical ids of the classes holding an e-node whose
        op is one of the leaf ``ops`` (``var``, ``const``, ``symbol``).

        Read off the per-op index.  Class ids are allocated
        monotonically and a merge winner keeps its slot in the class
        table, so the order equals a scan of :meth:`classes`.
        """
        if len(ops) == 1:
            return sorted(self._leaf_classes[ops[0]])
        members: Set[int] = set()
        for op in ops:
            members |= self._leaf_classes[op]
        return sorted(members)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def add_enode(self, enode: ENode) -> int:
        """Insert an e-node (children must be valid class ids); returns
        the id of its class, reusing an existing class when hash-consing
        finds the node already present."""
        enode = self.canonicalize(enode)
        existing = self._memo.get(enode)
        if existing is not None:
            return self._uf.find(existing)
        class_id = self._uf.make_set()
        eclass = EClass(class_id)
        eclass.nodes[enode] = None
        self._classes[class_id] = eclass
        self._memo[enode] = class_id
        slot = len(self._slot_form)
        self._slot_form.append(enode)
        self._slot_class.append(class_id)
        for child in enode.children:
            self._classes[self._uf.find(child)].parents.append(slot)
        if enode.op in ("build", "ifold"):
            self.known_sizes.add(enode.payload)  # type: ignore[arg-type]
        leaf = self._leaf_classes.get(enode.op)
        if leaf is not None:
            leaf.add(class_id)
        if self._analysis is not None:
            eclass.data = self._analysis.make(self, enode)
        self._dirty.add(class_id)
        if self.origin_tag is not None:
            self.union_origins.append((self.origin_tag, class_id, -1))
        self.version += 1
        return class_id

    def add_term(self, term: Term) -> int:
        """Insert a term bottom-up; returns the id of the root's class.

        ``ClassRef`` leaves splice in existing classes.
        """
        if isinstance(term, ClassRef):
            return self._uf.find(term.class_id)
        op, payload, child_terms = term_to_parts(term)
        children = tuple(self.add_term(child) for child in child_terms)
        return self.add_enode(ENode(op, payload, children))

    # ------------------------------------------------------------------
    # Merging and rebuilding
    # ------------------------------------------------------------------

    def merge(self, a: int, b: int) -> int:
        """Union two classes; congruence repair is deferred to
        :meth:`rebuild`."""
        root_a = self._uf.find(a)
        root_b = self._uf.find(b)
        if root_a == root_b:
            return root_a
        if self.origin_tag is not None:
            self.union_origins.append((self.origin_tag, root_a, root_b))
        self.version += 1
        new_root = self._uf.union(root_a, root_b)
        other = root_b if new_root == root_a else root_a
        winner = self._classes[new_root]
        loser = self._classes.pop(other)
        winner.nodes.update(loser.nodes)
        winner.parents.extend(loser.parents)
        for members in self._leaf_classes.values():
            if other in members:
                members.discard(other)
                members.add(new_root)
        self._merged.append(other)
        if self._analysis is not None:
            winner.data = self._analysis.join(winner.data, loser.data)
            self._analysis_pending.append(new_root)
        self._pending.append(new_root)
        self._dirty.add(new_root)
        return new_root

    def rebuild(self) -> int:
        """Restore the congruence invariant; returns the number of
        congruence-induced unions performed."""
        unions = 0
        # Slot-based repair pops each parent's *current* memo key
        # (``_slot_form``), so it cannot miss entries re-keyed by an
        # earlier merge — no O(memo) safety sweep is needed per
        # rebuild.  ``REPRO_EGRAPH_CHECK=1`` re-enables it as an
        # assertion.
        while self._pending:
            todo = {self._uf.find(class_id) for class_id in self._pending}
            self._pending.clear()
            for class_id in todo:
                unions += self._repair_flat(class_id)
        if os.environ.get("REPRO_EGRAPH_CHECK", "").strip() == "1":
            swept = self._sweep_memo()
            assert not swept and not self._pending, (
                "flat-store repair left stale hashcons entries"
            )
        if self._analysis is not None:
            self._propagate_analysis()
        self.generation += 1
        # The memos went stale with the generation; free them now rather
        # than at the next lookup, so a finished graph holds none.
        self._drop_memos()
        return unions

    def _sweep_memo(self) -> int:
        unions = 0
        stale = [
            (node, class_id)
            for node, class_id in self._memo.items()
            if self.canonicalize(node) != node or self._uf.find(class_id) != class_id
        ]
        for node, class_id in stale:
            del self._memo[node]
        for node, class_id in stale:
            canonical = self.canonicalize(node)
            class_id = self._uf.find(class_id)
            existing = self._memo.get(canonical)
            if existing is not None and not self._uf.same(existing, class_id):
                class_id = self.merge(existing, class_id)
                unions += 1
            self._memo[canonical] = self._uf.find(class_id)
        return unions

    def _repair_flat(self, class_id: int) -> int:
        """Re-canonicalize the parents of a recently merged class,
        merging classes of now-congruent parents (egg's ``repair``).

        Pass 1 pops ``_slot_form[slot]`` — the parent's *current*
        canonical form, i.e. the key that is actually in the hashcons
        right now — not the form recorded when the parent was
        registered.  A form re-keyed by an earlier merge is therefore
        always found and removed, closing the repair gap that would
        otherwise require an O(memo) sweep after every rebuild.
        """
        unions = 0
        class_id = self._uf.find(class_id)
        eclass = self._classes.get(class_id)
        if eclass is None:
            return 0
        old_parents = eclass.parents
        # Take the parent list out before any merging below: if this
        # class itself gets merged mid-repair, the surviving class's
        # other parents must not be clobbered.
        eclass.parents = []
        slot_form, slot_class = self._slot_form, self._slot_class
        # Pass 1: refresh the hashcons for every parent slot.
        for slot in old_parents:
            current = slot_form[slot]
            self._memo.pop(current, None)
            canonical = self.canonicalize(current)
            refreshed = self._uf.find(slot_class[slot])
            slot_form[slot] = canonical
            slot_class[slot] = refreshed
            self._memo[canonical] = refreshed
        # Pass 2: merge classes of parents that became congruent; the
        # first slot per canonical form survives as the parent entry.
        # Dropped duplicates stay congruent to the keeper forever (their
        # classes are merged here, and congruent forms canonicalize
        # identically), so the keeper maintains the shared memo key on
        # behalf of all of them.
        new_parents: Dict[ENode, int] = {}
        for slot in old_parents:
            canonical = slot_form[slot]
            previous = new_parents.get(canonical)
            if previous is not None:
                if not self._uf.same(slot_class[previous], slot_class[slot]):
                    self.merge(slot_class[previous], slot_class[slot])
                    unions += 1
                continue
            new_parents[canonical] = slot
        survivor = self._classes.get(self._uf.find(class_id))
        if survivor is not None:
            survivor.parents.extend(new_parents.values())
            survivor.nodes = {
                self.canonicalize(node): None for node in survivor.nodes
            }
            for slot in new_parents.values():
                refreshed = self._uf.find(slot_class[slot])
                slot_class[slot] = refreshed
                self._memo[slot_form[slot]] = refreshed
        return unions

    def _propagate_analysis(self) -> None:
        """Re-run ``make`` upwards from classes whose data changed."""
        assert self._analysis is not None
        worklist = [self._uf.find(c) for c in self._analysis_pending]
        self._analysis_pending.clear()
        seen_rounds = 0
        while worklist and seen_rounds < 1000:
            seen_rounds += 1
            next_work: List[int] = []
            for class_id in worklist:
                class_id = self._uf.find(class_id)
                eclass = self._classes.get(class_id)
                if eclass is None:
                    continue
                for parent_node, parent_class in self._parent_entries(eclass):
                    parent_class = self._uf.find(parent_class)
                    parent = self._classes.get(parent_class)
                    if parent is None:
                        continue
                    made = self._analysis.make(self, self.canonicalize(parent_node))
                    joined = self._analysis.join(parent.data, made)
                    if joined != parent.data:
                        parent.data = joined
                        next_work.append(parent_class)
            worklist = next_work

    # ------------------------------------------------------------------
    # Extraction of small representative terms (used by rule appliers)
    # ------------------------------------------------------------------

    def _size_table(self) -> Dict[int, TupleT[int, ENode]]:
        """Smallest-term size and witness e-node per class (fixpoint).

        Cached per :attr:`generation` (bumped by every rebuild), so the
        rule appliers of one saturation step share one table.
        """
        cached = self._size_cache
        if cached is not None and cached[0] == self.generation:
            return cached[1]
        table: Dict[int, TupleT[int, ENode]] = {}
        changed = True
        while changed:
            changed = False
            for class_id, eclass in self._classes.items():
                best = table.get(class_id)
                for node in eclass.nodes:
                    size = 1
                    ok = True
                    for child in node.children:
                        entry = table.get(self._uf.find(child))
                        if entry is None:
                            ok = False
                            break
                        size += entry[0]
                    if ok and (best is None or size < best[0]):
                        best = (size, node)
                        table[class_id] = best
                        changed = True
        self._size_cache = (self.generation, table)
        return table

    def extract_smallest(self, class_id: int) -> Optional[Term]:
        """Smallest term represented by ``class_id`` (node count), or
        ``None`` when the class has no finite (acyclic) term."""
        table = self._size_table()
        return self._build_term(self._uf.find(class_id), table)

    def _build_term(
        self,
        class_id: int,
        table: Dict[int, TupleT[int, ENode]],
        memo: Optional[Dict[int, Optional[Term]]] = None,
    ) -> Optional[Term]:
        """The smallest term of ``class_id`` under ``table``.  With a
        ``memo`` (raw class id -> term, valid for one graph state),
        subterms are built once and shared between the terms built."""
        if memo is not None and class_id in memo:
            return memo[class_id]
        # The table may be one rebuild stale; try both the canonical id
        # and the raw id (one of a merged pair keeps its id as root).
        entry = table.get(self._uf.find(class_id))
        if entry is None:
            entry = table.get(class_id)
        term: Optional[Term] = None
        if entry is not None:
            node = entry[1]
            children = []
            for child in node.children:
                child_term = self._build_term(child, table, memo)
                if child_term is None:
                    break
                children.append(child_term)
            else:
                term = enode_to_term_shallow(
                    node.op, node.payload, tuple(children)
                )
        if memo is not None:
            memo[class_id] = term
        return term

    def classes_by_op(self) -> Dict[str, List[int]]:
        """Map each operator tag to the classes containing an e-node
        with that tag.  Cached per generation; pattern search uses it to
        skip classes that cannot match a pattern's root."""
        cached = self._op_index_cache
        if cached is not None and cached[0] == self.generation:
            return cached[1]
        index: Dict[str, List[int]] = {}
        for class_id, eclass in self._classes.items():
            seen_ops = {node.op for node in eclass.nodes}
            for op in seen_ops:
                index.setdefault(op, []).append(class_id)
        self._op_index_cache = (self.generation, index)
        return index

    def _refresh_memos(self) -> None:
        """Drop the candidate and unshift memos when the graph moved
        past the ``(version, generation)`` state they were built in."""
        key = (self.version, self.generation)
        if key != self._candidate_key:
            self._candidate_key = key
            self._drop_memos()

    def _drop_memos(self) -> None:
        self._candidates = {}
        self._unshifted = {}
        self._terms = {}

    def extract_candidates(self, class_id: int, limit: int = 4) -> TupleT[Term, ...]:
        """A few small distinct terms represented by ``class_id``.

        The smallest term comes first; the remainder vary the root
        e-node (children still use smallest subterms).  Rule appliers
        use these when matching shifted pattern variables: if the
        smallest representative mentions a forbidden bound variable, an
        alternative representative may still avoid it.

        Memoized per canonical class and ``limit`` for one
        ``(version, generation)`` state (see the module docstring); the
        result is a tuple, so no caller can alter the memo.
        """
        self._refresh_memos()
        key = (self._uf.find(class_id), limit)
        cached = self._candidates.get(key)
        if cached is None:
            cached = self._candidates[key] = tuple(
                self._build_candidates(key[0], limit, self._terms)
            )
        return cached

    def unshifted_candidates(self, class_id: int, shift: int) -> TupleT[Term, ...]:
        """The distinct successful ``try_unshift(candidate, shift)``
        results over :meth:`extract_candidates` (default limit), in
        candidate order; the candidates themselves when ``shift`` is 0.

        This is what a shifted pattern variable (``A↑…↑``) can bind to
        in the class.  Memoized per (canonical class, ``shift``) under
        the same key as :meth:`extract_candidates`.
        """
        self._refresh_memos()
        key = (self._uf.find(class_id), shift)
        cached = self._unshifted.get(key)
        if cached is None:
            candidates = self.extract_candidates(key[0])
            if shift == 0:
                cached = candidates
            else:
                terms: Dict[Term, None] = {}
                for candidate in candidates:
                    term = try_unshift(candidate, shift)
                    if term is not None:
                        terms[term] = None
                cached = tuple(terms)
            self._unshifted[key] = cached
        return cached

    def _build_candidates(
        self,
        class_id: int,
        limit: int,
        memo: Optional[Dict[int, Optional[Term]]] = None,
    ) -> List[Term]:
        """:meth:`extract_candidates` without its memo (``class_id``
        must be canonical); ``memo`` shares subterms (see
        :meth:`_build_term`)."""
        table = self._size_table()
        results: List[Term] = []
        smallest = self._build_term(class_id, table, memo)
        if smallest is not None:
            results.append(smallest)
        if class_id not in self._classes:
            return results
        ranked = []
        for node in self._classes[class_id].nodes:
            size = 1
            ok = True
            for child in node.children:
                entry = table.get(self._uf.find(child))
                if entry is None:
                    ok = False
                    break
                size += entry[0]
            if ok:
                ranked.append((size, node))
        ranked.sort(key=lambda pair: pair[0])
        for _, node in ranked:
            if len(results) >= limit:
                break
            children = []
            ok = True
            for child in node.children:
                child_term = self._build_term(child, table, memo)
                if child_term is None:
                    ok = False
                    break
                children.append(child_term)
            if not ok:
                continue
            term = enode_to_term_shallow(node.op, node.payload, tuple(children))
            if term not in results:
                results.append(term)
        return results

    # ------------------------------------------------------------------
    # Equality checking helpers (used heavily by tests)
    # ------------------------------------------------------------------

    def equivalent(self, term_a: Term, term_b: Term) -> bool:
        """True when both terms are currently in the same e-class."""
        return self.same(self.add_term(term_a), self.add_term(term_b))
