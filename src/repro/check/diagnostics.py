"""Shared diagnostics framework for the static checkers.

A :class:`Diagnostic` is one finding with a stable machine-readable
code.  Codes never change meaning once shipped (suppression tags and CI
golden files reference them):

* ``RC1xx`` — rule-soundness **errors** (the rule can rewrite a term to
  something that is not equal to it);
* ``RC2xx`` — rule lints: warnings and notes about rules that are
  legal but wasteful, redundant, or only partially checkable;
* ``EG1xx`` — e-graph invariant violations (always errors: the store
  is corrupt and any further result is untrustworthy).

Renderers: :func:`render_text` produces one ``severity code [rule]
message`` line per finding (compiler style); :func:`render_json`
produces a JSON array of objects with the same fields.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional

__all__ = [
    "Severity",
    "Diagnostic",
    "CODES",
    "has_errors",
    "render_text",
    "render_json",
]


class Severity(str, Enum):
    """Finding severity, ordered most severe first."""

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]


_SEVERITY_RANK = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.NOTE: 2}


#: Stable code registry: code → one-line description.  Append-only.
CODES: Dict[str, str] = {
    # -- rule analyzer: soundness errors --------------------------------
    "RC101": "right-hand side uses a metavariable or size variable "
             "not bound on the left-hand side",
    "RC102": "binder hygiene violation: a metavariable crosses binders "
             "without a compensating shift (De Bruijn capture)",
    "RC103": "malformed pattern node: wrong operator arity or payload "
             "for the IR constructor",
    "RC104": "shape-changing rewrite: the two sides infer conflicting "
             "shapes under a common instantiation",
    # -- rule analyzer: lints -------------------------------------------
    "RC201": "never-firing rule: the left-hand side is ill-shaped and "
             "cannot match any well-typed term",
    "RC202": "expansion-only rule: the left-hand side strictly embeds "
             "in the right-hand side (saturation blowup risk)",
    "RC203": "duplicate rule: identical to an earlier rule modulo "
             "metavariable renaming and commutativity",
    "RC204": "nonlinear pattern with term-mode repeats: match relies "
             "on structural term equality, not class equality",
    "RC205": "rule profile names a rule absent from the current rule "
             "set (profile recorded against different rules?)",
    "RC206": "dynamic applier: right-hand side is opaque Python, only "
             "left-hand-side checks apply",
    # -- e-graph invariant verifier -------------------------------------
    "EG101": "hashcons bijectivity violation: memo key non-canonical, "
             "orphaned, or missing for a live e-node",
    "EG102": "congruence violation: congruent e-nodes live in "
             "different classes after rebuild",
    "EG103": "union-find inconsistency: a live class id is not its own "
             "root, or a root resolves to no live class",
    "EG104": "slot-store corruption: the slot columns disagree or "
             "a parent slot is out of range / stale",
    "EG105": "parent-list incompleteness: an e-node is missing from "
             "some child class's parent list",
    # EG106 (snapshot disagreement) is retired with the columnar
    # snapshot store; the code is not reused.
    "EG107": "leaf-class index drift: the per-op leaf-class index "
             "disagrees with a scan of the class table",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static checker."""

    code: str
    severity: Severity
    message: str
    #: Rule name (rule analyzer) — ``None`` for e-graph findings.
    rule: Optional[str] = None
    #: Where: a rule-set / module name, or an e-graph locus such as
    #: ``"class 12"`` / ``"slot 40"``.
    location: Optional[str] = None

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    def render(self) -> str:
        """One compiler-style text line."""
        parts = [self.severity.value.upper(), self.code]
        if self.rule:
            parts.append(f"[{self.rule}]")
        line = " ".join(parts) + f": {self.message}"
        if self.location:
            line += f"  ({self.location})"
        return line

    def to_dict(self) -> dict:
        data = asdict(self)
        data["severity"] = self.severity.value
        return data


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    """Whether any finding is an :data:`Severity.ERROR`."""
    return any(d.severity is Severity.ERROR for d in diagnostics)


def _sorted(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    return sorted(
        diagnostics,
        key=lambda d: (d.severity.rank, d.code, d.rule or "", d.message),
    )


def render_text(diagnostics: Iterable[Diagnostic]) -> str:
    """Render findings as text, most severe first, with a summary line."""
    ordered = _sorted(diagnostics)
    lines = [d.render() for d in ordered]
    errors = sum(1 for d in ordered if d.severity is Severity.ERROR)
    warnings = sum(1 for d in ordered if d.severity is Severity.WARNING)
    notes = len(ordered) - errors - warnings
    lines.append(
        f"{errors} error(s), {warnings} warning(s), {notes} note(s)"
    )
    return "\n".join(lines)


def render_json(diagnostics: Iterable[Diagnostic]) -> str:
    """Render findings as a JSON array (stable field names and order)."""
    return json.dumps(
        [d.to_dict() for d in _sorted(diagnostics)], indent=2, sort_keys=True
    )
