"""Shared pieces of the LIAR benchmark: checkout discovery, the
environment guard, output digests, reference checks, and statistics.

Every module of the benchmark lives in this directory and imports the
program under test (``repro``) from the checkout's ``src`` directory;
nothing under ``src`` is modified.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path
from typing import (
    Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (git-ignored): temporary cache
#: dirs, daemon configs, and written traces live here.
WORK_DIR = ROOT / ".bench_build" / "liarbench"
DIGESTS_PATH = BENCH_DIR / "digests.json"

#: Metric and workload names may only use these characters.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: The saturation budget every saturate workload runs at: the Limits
#: defaults except the e-node budget, spelled out field by field so a
#: change of default cannot silently change the workload.  At the
#: default 12 000 e-nodes one gemv/blas pass takes 35-48 s, so a run
#: could hold a single pass; at 5000 it takes about 10 s and reaches
#: the same solution, so a run reports the median of several passes.
#: Search and apply run serially.
SATURATE_LIMITS = dict(
    step_limit=8, node_limit=5_000, time_limit=120.0, scheduler="simple",
    search_workers=1, rule_profile=None, extractor="greedy", top_k=1,
    apply_workers=1, check=False, trace=None, metrics=False,
)

#: The 16 table-I kernels and the two library targets the serve
#: workload draws from (at ``SERVE_NODE_LIMIT`` e-nodes).
TABLE_KERNELS = (
    "2mm", "atax", "doitgen", "gemm", "gemver", "gesummv", "jacobi1d",
    "mvt", "1mm", "axpy", "blur1d", "gemv", "memset", "slim-2mm",
    "stencil2d", "vsum",
)
SERVE_TARGETS = ("blas", "pytorch")
SERVE_NODE_LIMIT = 2000


class BenchError(RuntimeError):
    """The benchmark cannot run here (wrong directory, bad environment)."""


def import_program() -> None:
    """Put the checkout's ``src`` on ``sys.path``, refusing to run
    without it or with a ``REPRO_*`` variable set."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program sources under {SRC}: run from a full checkout"
        )
    refuse_repro_env()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def refuse_repro_env() -> None:
    """``REPRO_*`` variables override Limits (and ``REPRO_INCREMENTAL``
    bypasses it entirely), so a benchmark run under any of them would
    not measure the pinned configuration."""
    names = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if names:
        raise BenchError(
            f"refusing to run with {', '.join(names)} set: "
            "REPRO_* variables change what the program computes"
        )


def child_env() -> Dict[str, str]:
    """Environment for subprocesses that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def pair_key(kernel: str, target: str, node_limit: int) -> str:
    return f"{kernel}/{target}@{node_limit}"


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------

def _cost_text(cost: Any) -> str:
    if cost is None:
        return "inf"
    return repr(float(cost))


def steps_digest(result) -> str:
    """Digest of every StepRecord of an in-process run (enodes,
    eclasses, matches, unions, best cost, printed best term) plus the
    stop reason."""
    from repro.ir.printer import pretty

    digest = hashlib.sha256()
    for record in result.run.steps:
        term = None if record.best_term is None else pretty(record.best_term)
        digest.update(json.dumps([
            record.step, record.enodes, record.eclasses, record.matches,
            record.unions, _cost_text(record.best_cost), term,
        ]).encode("utf-8") + b"\n")
    digest.update(result.run.stop_reason.encode("utf-8"))
    return digest.hexdigest()[:32]


def report_digest(report: Mapping[str, Any]) -> str:
    """Digest of the outcome fields an OptimizationReport carries over
    the wire (the serve path sees reports, not StepRecords)."""
    calls = sorted((report.get("library_calls") or {}).items())
    payload = json.dumps([
        report.get("solution"), _cost_text(report.get("best_cost")),
        report.get("steps"), report.get("enodes"),
        report.get("stop_reason"), calls,
    ])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def load_digests(path: Optional[Path] = None) -> Dict[str, Dict[str, Any]]:
    data = json.loads(Path(path or DIGESTS_PATH).read_text())
    return data["pairs"]


# ---------------------------------------------------------------------------
# reference semantics
# ---------------------------------------------------------------------------

def reference_ok(kernel_name: str, target_name: str, term, seed: int) -> bool:
    """Run the extracted term on inputs drawn from ``seed`` and compare
    with the kernel's reference implementation."""
    from repro.api.registry import target_registry
    from repro.backend.executor import verify_solution
    from repro.kernels import registry

    if term is None:
        return False
    kernel = registry.get(kernel_name)
    runtime = target_registry.get(target_name).runtime
    return bool(verify_solution(kernel, term, runtime=runtime, seed=seed))


# ---------------------------------------------------------------------------
# statistics and reporting
# ---------------------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return float("nan")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(count: int, wanted: float = 90.0) -> float:
    """The highest percentile up to ``wanted`` that leaves at least ten
    samples above it (0 when there are too few samples for any)."""
    if count <= 10:
        return 0.0
    best = math.floor(100.0 * (count - 10) / count)
    return float(min(wanted, best))


def environment() -> Dict[str, Any]:
    """nproc, Python, numpy, and the git commit (when the checkout is a
    git repository), recorded with every result."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy ships with the program
        numpy_version = None
    commit = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and \
                Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    # A checkout without git history still identifies its program.
    sources = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sources.update(str(path.relative_to(SRC)).encode() + b"\0")
        sources.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "src_sha256": sources.hexdigest()[:16],
    }


# ---------------------------------------------------------------------------
# per-layer saturation metrics
# ---------------------------------------------------------------------------

PHASES = ("search", "apply", "rebuild", "extract")

#: The rules that spent the most search time on gemv/blas (at the
#: saturate budget) at the seed commit; their per-rule search seconds
#: are per-layer metrics.
TOP_RULES = ("I-Gemv", "R-BetaReduce", "I-Axpy", "I-Gemm", "R-IntroLambda")


def rule_metric(name: str) -> str:
    safe = "".join(ch if ch.isalnum() or ch in "_.-" else "_" for ch in name)
    return f"rule.{safe}.search_s"


def put_saturation_layers(
    out: "Metrics",
    runs: Iterable[Tuple[Mapping[str, float], Mapping[str, Mapping[str, Any]]]],
) -> Dict[str, float]:
    """Phase, waste and per-rule metrics summed over saturations.

    Each run is (phase seconds by phase name, rule name -> RuleStats
    fields as a dict); in-process runs and serve reports both reduce to
    that shape.  Returns the phase totals.
    """
    phases = dict.fromkeys(PHASES, 0.0)
    found = applied = unions = count = 0
    rule_search: Dict[str, float] = {}
    for phase_seconds, rule_stats in runs:
        count += 1
        for phase in PHASES:
            phases[phase] += float(phase_seconds.get(phase, 0.0))
        for name, stats in rule_stats.items():
            found += stats.get("matches_found", 0)
            applied += stats.get("matches_applied", 0)
            unions += stats.get("unions", 0)
            rule_search[name] = rule_search.get(name, 0.0) + \
                stats.get("search_seconds", 0.0)
    for phase, value in phases.items():
        out.put(f"saturation.{phase}_s", value, "s", count)
    out.put("saturation.matches_found", found, "count")
    out.put("saturation.matches_applied", applied, "count")
    out.put("saturation.applied_per_found", applied / found if found else 0.0,
            "ratio", found)
    out.put("saturation.unions_per_applied",
            unions / applied if applied else 0.0, "ratio", applied)
    for rule in TOP_RULES:
        out.put(rule_metric(rule), rule_search.get(rule, 0.0), "s", count)
    return phases


class Metrics:
    """Named metrics with units and sample counts."""

    def __init__(self) -> None:
        self.values: Dict[str, Dict[str, Any]] = {}

    def put(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        if not NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        self.values[name] = {
            "value": float(value), "unit": unit, "samples": int(samples),
        }

    def select(self, names: Iterable[str]) -> Dict[str, Dict[str, Any]]:
        # A failed run can leave a statistic without samples (NaN),
        # which strict JSON cannot carry; the run is marked incorrect.
        return {
            name: {"value": self.values[name]["value"]
                   if math.isfinite(self.values[name]["value"]) else 0.0,
                   "unit": self.values[name]["unit"]}
            for name in names
        }

    def table(self, names: Iterable[str]) -> List[str]:
        lines = []
        for name in names:
            entry = self.values[name]
            lines.append(f"  {name:<34} {entry['value']:>14.6g} "
                         f"{entry['unit']:<6} n={entry['samples']}")
        return lines
