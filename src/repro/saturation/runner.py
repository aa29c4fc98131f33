"""The saturation engine: scheduled, incremental, instrumented.

One *saturation step* (the paper's unit of progress, §II-b) consists of
searching rules against the e-graph, applying the admitted batch of
matches, and rebuilding the congruence closure.  After each step the
runner can extract the current best expression with a target cost
model, which is how the paper's "solutions over time" data (fig. 4)
and per-step tables are produced.

On top of the naive search-everything loop this engine adds the three
pillars of the saturation subsystem:

* **rule scheduling** (:mod:`repro.saturation.schedulers`) — an
  egg-style backoff scheduler can ban explosive rules, selected via
  ``Limits(scheduler=...)`` / ``REPRO_SCHEDULER`` / ``--scheduler``;
* **incremental e-matching** (:mod:`repro.saturation.ematch`) — from
  step 2 on, rule search is restricted to the classes dirtied since
  the rule's previous search plus their parent closure, with full-scan
  fallbacks whenever correctness or selectivity demands it;
* **telemetry** (:mod:`repro.saturation.telemetry`) — per-rule search
  time / match / union / ban counters and per-step phase timings ride
  on :class:`StepRecord` / :class:`RunResult` and surface in the
  Session API's JSON reports.

Stop conditions: fixpoint (a full step changed nothing and no rule is
banned), step limit, e-node limit, or wall-clock time limit — the time
limit is enforced *inside* the search and apply loops, so one huge
step cannot overshoot the budget.

Everything runs in one process, one rule at a time, as in egg's runner
(Willsey et al., POPL 2021).

The runner never re-applies a match it already applied: each admitted
match's signature (rule, context, canonical class ids, bound terms)
goes into an :class:`AppliedSet`.  Merges make embedded class ids
stale, so at every rebuild the set re-canonicalizes exactly the
signatures that embed an id from :meth:`EGraph.pop_merged`, found
through a per-class index, instead of rebuilding the whole set.  The
rest of the engine's caches live on the e-graph (see
:mod:`repro.egraph.egraph`).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..ir.terms import Term, collect_calls
from ..egraph.egraph import EGraph
from ..extraction import CostModel, contributing_events, make_extractor
from ..egraph.pattern import ClassBinding, TermBinding
from ..egraph.rewrite import Match, Rule
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.trace import (
    CAT_EXTRACT,
    CAT_PHASE,
    CAT_RULE,
    CAT_STEP,
    NULL_TRACER,
    Tracer,
)
from .ematch import IncrementalMatcher, search_rule
from .schedulers import RuleScheduler, make_scheduler
from .telemetry import PhaseTimings, RuleStats

__all__ = [
    "AppliedSet",
    "StepRecord",
    "RunResult",
    "Runner",
    "StopReason",
    "library_calls_of",
    "SCALAR_OPS",
]

#: How many applications between deadline polls in the apply loop.
_APPLY_DEADLINE_STRIDE = 16


def _binding_signature(egraph: EGraph, match: Match) -> tuple:
    """Hashable, canonicalized signature of a match, used to avoid
    re-applying the same rule to the same match every step."""
    parts = []
    for name in sorted(match.bindings):
        value = match.bindings[name]
        if isinstance(value, ClassBinding):
            parts.append((name, "c", egraph.find(value.class_id)))
        elif isinstance(value, TermBinding):
            parts.append((name, "t", value.term))
        else:
            parts.append((name, "v", value))
    return (egraph.find(match.class_id), tuple(parts))


def _canonicalize_signature(egraph: EGraph, signature: tuple) -> tuple:
    """Re-canonicalize the class ids embedded in an applied-match
    signature.  Signatures are captured at match time; after later
    merges their ids go stale and the same logical match would look
    unseen forever, getting re-applied every subsequent step."""
    rule_index, context, (root, parts) = signature
    new_root = egraph.find(root)
    new_parts = tuple(
        (name, kind, egraph.find(value)) if kind == "c" else (name, kind, value)
        for name, kind, value in parts
    )
    return (rule_index, context, (new_root, new_parts))


def _signature_classes(signature: tuple) -> set:
    """The class ids an applied-match signature embeds."""
    _, _, (root, parts) = signature
    ids = {root}
    for _, kind, value in parts:
        if kind == "c":
            ids.add(value)
    return ids


class AppliedSet:
    """The signatures of every match applied so far, indexed by each
    class id they embed.

    :meth:`recanonicalize` takes the ids merged away since its previous
    call and re-canonicalizes only the signatures that embed one of
    them; afterwards the set equals
    ``{_canonicalize_signature(egraph, s) for s in previous_set}``.
    That holds because signatures are captured with canonical ids, and
    an id only goes stale by being merged away.
    """

    __slots__ = ("signatures", "_by_class")

    def __init__(self) -> None:
        self.signatures: Set[tuple] = set()
        self._by_class: Dict[int, Set[tuple]] = {}

    def __contains__(self, signature: object) -> bool:
        return signature in self.signatures

    def __len__(self) -> int:
        return len(self.signatures)

    def add(self, signature: tuple) -> None:
        if signature in self.signatures:
            return
        self.signatures.add(signature)
        by_class = self._by_class
        for class_id in _signature_classes(signature):
            bucket = by_class.get(class_id)
            if bucket is None:
                by_class[class_id] = {signature}
            else:
                bucket.add(signature)

    def clear(self) -> None:
        self.signatures.clear()
        self._by_class.clear()

    def recanonicalize(self, egraph: EGraph, merged: Sequence[int]) -> None:
        """Re-canonicalize the signatures embedding a ``merged`` id."""
        by_class = self._by_class
        stale: Set[tuple] = set()
        for class_id in merged:
            bucket = by_class.pop(class_id, None)
            if bucket:
                stale |= bucket
        for signature in stale:
            self.signatures.discard(signature)
            for class_id in _signature_classes(signature):
                bucket = by_class.get(class_id)
                if bucket is not None:
                    bucket.discard(signature)
                    if not bucket:
                        del by_class[class_id]
        for signature in stale:
            self.add(_canonicalize_signature(egraph, signature))


class StopReason:
    SATURATED = "saturated"
    STEP_LIMIT = "step_limit"
    NODE_LIMIT = "node_limit"
    TIME_LIMIT = "time_limit"


@dataclass
class StepRecord:
    """Statistics and the best solution after one saturation step.

    ``step`` 0 records the initial e-graph before any rewriting (the
    paper's step-0 data points in fig. 4).
    """

    step: int
    enodes: int
    eclasses: int
    seconds: float
    matches: int
    unions: int
    best_term: Optional[Term] = None
    best_cost: float = float("inf")
    library_calls: Dict[str, int] = field(default_factory=dict)
    #: Wall-clock split of the step (search/apply/rebuild/extract);
    #: ``None`` on the step-0 record.
    phases: Optional[PhaseTimings] = None
    #: Names of the rules whose unions/creations touched a class of
    #: this step's extracted solution (rule provenance; empty on the
    #: step-0 record and when no cost model extracts).
    solution_rules: tuple = ()

    @property
    def solution_summary(self) -> str:
        """Human-readable call summary, e.g. ``"2 × axpy, 1 × dot"``."""
        if not self.library_calls:
            return "(no library calls)"
        parts = [
            f"{count} × {name}"
            for name, count in sorted(self.library_calls.items())
        ]
        return ", ".join(parts)


@dataclass
class RunResult:
    """Everything a saturation run produced."""

    steps: List[StepRecord]
    stop_reason: str
    root_class: int
    #: Per-rule telemetry, keyed by rule name.
    rule_stats: Dict[str, RuleStats] = field(default_factory=dict)
    #: Name of the scheduler that drove the run.
    scheduler: str = "simple"
    #: Name of the extractor that produced the per-step solutions.
    extractor: str = "greedy"

    @property
    def final(self) -> StepRecord:
        return self.steps[-1]

    @property
    def solution_rules(self) -> tuple:
        """Provenance of the final solution (see StepRecord)."""
        return self.final.solution_rules

    @property
    def num_steps(self) -> int:
        """Number of rewriting steps performed (excludes the step-0 record)."""
        return len(self.steps) - 1

    def total_phases(self) -> PhaseTimings:
        """Phase timings summed over every step."""
        total = PhaseTimings()
        for record in self.steps:
            if record.phases is not None:
                total.add(record.phases)
        return total


# Named functions that are *not* library calls: scalar arithmetic and
# comparisons live in every target.
SCALAR_OPS = frozenset({"+", "-", "*", "/", ">", "<", ">=", "<=", "==", "max", "min", "neg"})


def library_calls_of(term: Optional[Term]) -> Dict[str, int]:
    """Count library calls (non-scalar named functions) in a term."""
    if term is None:
        return {}
    return {
        name: count
        for name, count in collect_calls(term).items()
        if name not in SCALAR_OPS
    }


def _incremental_default() -> bool:
    """Incremental e-matching is on unless ``REPRO_INCREMENTAL=0``."""
    return os.environ.get("REPRO_INCREMENTAL", "1").strip() != "0"


class Runner:
    """Drives equality saturation over an :class:`EGraph`."""

    def __init__(
        self,
        egraph: EGraph,
        rules: Sequence[Rule],
        *,
        step_limit: int = 12,
        node_limit: int = 50_000,
        time_limit: float = 300.0,
        scheduler: Union[str, RuleScheduler, None] = None,
        incremental: Optional[bool] = None,
        applied_cap: int = 500_000,
        extractor: Union[str, type, None] = None,
        check: bool = False,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.egraph = egraph
        self.rules = list(rules)
        self.step_limit = step_limit
        self.node_limit = node_limit
        self.time_limit = time_limit
        self.scheduler = scheduler
        # Per-step extraction strategy; resolved eagerly so a typo'd
        # name fails at construction, not on the first record.
        self.extractor_cls = make_extractor(extractor)
        self.incremental = (
            _incremental_default() if incremental is None else incremental
        )
        # The applied-match cache is cleared when it outgrows this;
        # re-application is semantically idempotent, so the bound trades
        # a little rework for bounded memory on enormous runs.
        self.applied_cap = applied_cap
        # Observability (repro.obs): both default to the shared no-op
        # forms, so the instrumentation below costs nothing unless a
        # caller opted in via Limits(trace=..., metrics=True).  Phase
        # timings are *derived from the tracer's phase spans* — one
        # clock discipline whether or not the trace is retained.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        # Step-boundary hooks, called as ``hook(runner, step, record)``
        # after each step's record lands (telemetry, tracing, the
        # invariant verifier all attach here).  A hook that raises
        # aborts the run.
        self.on_step_end: List[Callable[["Runner", int, StepRecord], None]] = []
        if check:
            from ..check.egraph import verify_or_raise

            self.on_step_end.append(
                lambda runner, step, _record: verify_or_raise(
                    runner.egraph, context=f"after step {step}"
                )
            )

    def run(
        self,
        root_class: int,
        cost_model: Optional[CostModel] = None,
        extract_each_step: bool = True,
    ) -> RunResult:
        """Saturate, recording statistics (and, when a cost model is
        given, the best expression) after every step."""
        egraph = self.egraph
        scheduler = make_scheduler(self.scheduler)
        stats = self._fresh_stats()
        matcher = (
            IncrementalMatcher(egraph, len(self.rules))
            if self.incremental else None
        )
        contexts: List[object] = [None] * len(self.rules)
        records: List[StepRecord] = []
        # Union of every recorded solution's provenance events, keyed
        # by rule telemetry name; event indices dedup contributions
        # shared between steps (see repro.extraction.provenance).
        contributed: Dict[str, Set[int]] = {}
        start = time.perf_counter()
        deadline = start + self.time_limit
        records.append(self._record(
            0, 0.0, 0, 0, root_class, cost_model, extract_each_step,
            contributed,
        ))
        stop_reason = StopReason.STEP_LIMIT
        tracer = self.tracer
        m = self.metrics
        applied = AppliedSet()
        # Merges before the run cannot stale a signature of this run.
        egraph.pop_merged()
        for step in range(1, self.step_limit + 1):
            phases = PhaseTimings()
            step_span = tracer.span(f"step {step}", cat=CAT_STEP)
            step_span.__enter__()
            version_before = egraph.version

            # --- search -------------------------------------------------
            # Phase walls are read off the tracer's phase spans (which
            # measure whether or not the trace is retained): the spans
            # are the single clock, PhaseTimings their consumer.
            with tracer.span("search", cat=CAT_PHASE) as search_span:
                if matcher is not None:
                    matcher.begin_step()
                matches, restricted, timed_out = self._search_step(
                    step, scheduler, matcher, contexts, applied, stats,
                    deadline,
                )
                if (
                    matcher is not None and restricted and not matches
                    and not timed_out
                ):
                    # A restricted step that finds nothing could be a false
                    # fixpoint; verify with a full scan inside the same step
                    # so step counts match the naive engine's.
                    matcher.force_full_all()
                    matches, _, timed_out = self._search_step(
                        step, scheduler, matcher, contexts, applied, stats,
                        deadline, verify_pass=True,
                    )
                    restricted = False
            phases.search = search_span.duration

            # --- apply --------------------------------------------------
            with tracer.span("apply", cat=CAT_PHASE) as apply_span:
                unions = 0
                for index, (rule_stats, rule, match) in enumerate(matches):
                    if (
                        index % _APPLY_DEADLINE_STRIDE == 0
                        and time.perf_counter() > deadline
                    ):
                        timed_out = True
                        break
                    # Tag mutations with the applying rule so the
                    # e-graph's union-origin log can attribute them
                    # (provenance).
                    egraph.origin_tag = rule_stats.name
                    made = rule.apply(egraph, match)
                    rule_stats.matches_applied += 1
                    rule_stats.unions += made
                    unions += made
                    if egraph.num_nodes > self.node_limit:
                        break
                egraph.origin_tag = None
            phases.apply = apply_span.duration

            # --- rebuild ------------------------------------------------
            with tracer.span("rebuild", cat=CAT_PHASE) as rebuild_span:
                congruence_unions = egraph.rebuild()
                # Merged-away class ids went stale: re-canonicalize the
                # signatures that embed them so later merges cannot
                # resurrect matches.
                applied.recanonicalize(egraph, egraph.pop_merged())
                if len(applied) > self.applied_cap:
                    applied.clear()
            phases.rebuild = rebuild_span.duration

            # --- record (+ extract) ------------------------------------
            with tracer.span("extract", cat=CAT_EXTRACT) as extract_span:
                record = self._record(
                    step, 0.0, len(matches), unions, root_class, cost_model,
                    extract_each_step, contributed,
                )
            phases.extract = extract_span.duration
            step_span.set(
                matches=len(matches), unions=unions, enodes=egraph.num_nodes,
            )
            step_span.done()
            record.seconds = step_span.duration
            record.phases = phases
            records.append(record)
            if m.enabled:
                m.inc("runner", "steps_total",
                      help="saturation steps executed")
                m.inc("runner", "matches_total", len(matches),
                      help="matches admitted for application")
                m.inc("runner", "unions_total", unions,
                      help="unions performed by rule applications")
                m.inc("store", "rebuild_repairs_total", congruence_unions,
                      help="congruence-induced unions during rebuild")
                m.set_max("store", "peak_enodes", egraph.num_nodes,
                          help="highest e-node count any step reached")
                m.observe("runner", "step_seconds", record.seconds,
                          help="wall seconds per saturation step")
            for hook in self.on_step_end:
                hook(self, step, record)

            # --- stop conditions ---------------------------------------
            if egraph.version == version_before and not timed_out:
                if scheduler.has_bans():
                    # Not a true fixpoint: banned rules may still have
                    # work.  Lift every ban and run another step.
                    scheduler.unban_all()
                    if matcher is not None:
                        matcher.force_full_all()
                    continue
                if restricted:
                    # Applied matches were all no-ops but the search was
                    # restricted; re-verify with a full step before
                    # declaring saturation.
                    matcher.force_full_all()
                    continue
                stop_reason = StopReason.SATURATED
                break
            if egraph.num_nodes > self.node_limit:
                stop_reason = StopReason.NODE_LIMIT
                break
            if timed_out or time.perf_counter() > deadline:
                stop_reason = StopReason.TIME_LIMIT
                break
        # Provenance feeds telemetry: how many of each rule's logged
        # events touched a class of any recorded per-step solution.
        for rule_stats in stats:
            events = contributed.get(rule_stats.name)
            if events:
                rule_stats.solution_unions = len(events)
        if m.enabled:
            m.set("runner", "stop_reason", 1,
                  help="why the run stopped (label carries the reason)",
                  reason=stop_reason)
            m.set("store", "enodes", egraph.num_nodes,
                  help="e-nodes in the final graph")
            m.set("store", "eclasses", egraph.num_classes,
                  help="canonical e-classes in the final graph")
            slots = len(egraph._slot_form)
            m.set("store", "slots", slots,
                  help="allocated e-node slots")
            m.set("store", "slot_occupancy",
                  egraph.num_nodes / slots if slots else 0.0,
                  help="live e-nodes per allocated slot")
        return RunResult(
            records,
            stop_reason,
            self.egraph.find(root_class),
            rule_stats={s.name: s for s in stats},
            scheduler=scheduler.name,
            extractor=self.extractor_cls.name,
        )

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------

    def _fresh_stats(self) -> List[RuleStats]:
        """One RuleStats per rule, with duplicate names disambiguated so
        the name-keyed telemetry dict never silently merges two rules."""
        seen: Dict[str, int] = {}
        stats: List[RuleStats] = []
        for rule in self.rules:
            count = seen.get(rule.name, 0)
            seen[rule.name] = count + 1
            name = rule.name if count == 0 else f"{rule.name}#{count + 1}"
            stats.append(RuleStats(name))
        return stats

    def _search_step(
        self,
        step: int,
        scheduler: RuleScheduler,
        matcher: Optional[IncrementalMatcher],
        contexts: List[object],
        applied: AppliedSet,
        stats: List[RuleStats],
        deadline: float,
        verify_pass: bool = False,
    ) -> Tuple[List[Tuple[RuleStats, Rule, Match]], bool, bool]:
        """Search every schedulable rule once, in rule order.

        Each rule is scheduled, searched, deduplicated against
        ``applied`` and admitted before the next rule starts.  Every
        piece of state this touches (matcher dirt, scheduler state,
        contexts, signatures) is per rule, and searching never mutates
        the e-graph, so rule order alone fixes the result.

        Returns ``(matches, any_restricted, timed_out)`` where
        ``matches`` carries ``(rule_stats, rule, match)`` triples whose
        signatures have been committed to ``applied``.  The fixpoint
        verification re-search (``verify_pass``) performs real work —
        its search time and match counts accumulate — but must not
        count the same step as banned twice.
        """
        egraph = self.egraph
        m = self.metrics
        trace = self.tracer.enabled
        matches: List[Tuple[RuleStats, Rule, Match]] = []
        any_restricted = False
        searched = False
        for rule_index, rule in enumerate(self.rules):
            if time.perf_counter() > deadline:
                return matches, any_restricted, True
            rule_stats = stats[rule_index]
            if not scheduler.should_search(step, rule_index, rule):
                if not verify_pass:
                    rule_stats.banned_steps += 1
                    if m.enabled:
                        m.inc("runner", "banned_steps_total",
                              help="rule-steps skipped under a backoff ban",
                              rule=rule_stats.name)
                if matcher is not None:
                    # The rule missed this step's matches; its next
                    # search must be a full scan.
                    matcher.force_full(rule_index)
                continue
            context = rule.context_key(egraph) if rule.context_key else None
            if matcher is not None and context != contexts[rule_index]:
                # Applier output depends on e-graph context beyond the
                # match (the enumerating intro rules); a changed context
                # can create matches anywhere.
                matcher.force_full(rule_index)
            contexts[rule_index] = context
            restrict = None
            if matcher is not None and step >= 2:
                restrict = matcher.restrict_for(rule_index)
            any_restricted |= restrict is not None

            started = time.perf_counter()
            found = search_rule(egraph, rule, restrict, deadline)
            seconds = time.perf_counter() - started
            searched = True
            if trace:
                # The rule is timed anyway; record the span after the
                # fact instead of wrapping the hot loop.
                self.tracer.add_complete(
                    f"search:{rule.name}", CAT_RULE, started, seconds,
                    matches=len(found),
                )
            rule_stats.search_seconds += seconds
            rule_stats.searches += 1
            rule_stats.matches_found += len(found)
            if m.enabled:
                m.observe("runner", "rule_search_seconds", seconds,
                          help="per-rule e-matching wall seconds",
                          rule=rule_stats.name)
            if matcher is not None:
                matcher.note_searched(rule_index, restrict is not None)
            # Dedup against everything already applied *before* the
            # scheduler counts: the match budget meters new work, not
            # the rediscovery of old matches.
            fresh: List[Tuple[tuple, Match]] = []
            seen: Set[tuple] = set()
            for match in found:
                signature = (
                    rule_index, context, _binding_signature(egraph, match)
                )
                if signature in applied or signature in seen:
                    continue
                seen.add(signature)
                fresh.append((signature, match))
            admitted = scheduler.admit_matches(step, rule_index, rule, fresh)
            if not admitted and fresh:
                # Banned: the discarded matches must be re-found once
                # the ban lifts.
                rule_stats.bans += 1
                if m.enabled:
                    m.inc("runner", "bans_total",
                          help="backoff bans issued",
                          rule=rule_stats.name)
                if matcher is not None:
                    matcher.force_full(rule_index)
                continue
            for signature, match in admitted:
                applied.add(signature)
                matches.append((rule_stats, rule, match))
        # A search past the deadline aborts early and returns a partial
        # (possibly empty) match list; without this flag an empty-handed
        # truncated step could masquerade as a fixpoint and stop the run
        # as SATURATED.
        timed_out = searched and time.perf_counter() > deadline
        return matches, any_restricted, timed_out

    def _record(
        self,
        step: int,
        seconds: float,
        matches: int,
        unions: int,
        root_class: int,
        cost_model: Optional[CostModel],
        extract_each_step: bool,
        contributed: Optional[Dict[str, Set[int]]] = None,
    ) -> StepRecord:
        record = StepRecord(
            step=step,
            enodes=self.egraph.num_nodes,
            eclasses=self.egraph.num_classes,
            seconds=seconds,
            matches=matches,
            unions=unions,
        )
        if cost_model is not None and extract_each_step:
            extractor = self.extractor_cls(self.egraph, cost_model)
            result = extractor.extract(root_class)
            record.best_term = result.term
            record.best_cost = result.cost
            if self.metrics.enabled:
                self.metrics.inc(
                    "extraction", "extractions_total",
                    help="per-step extractions performed",
                    extractor=self.extractor_cls.name,
                )
                self.metrics.set(
                    "extraction", "best_cost", float(result.cost),
                    help="cost of the most recent extracted solution",
                )
            record.library_calls = library_calls_of(result.term)
            if result.chosen:
                events = contributing_events(self.egraph, result.chosen)
                record.solution_rules = tuple(sorted(events))
                if contributed is not None:
                    for name, indices in events.items():
                        contributed.setdefault(name, set()).update(indices)
        return record
