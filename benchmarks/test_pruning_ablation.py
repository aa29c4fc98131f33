"""Telemetry-driven pruning ablation: baseline vs profile-pruned runs.

For each tier-1 kernel (gemv, vsum, axpy) against the BLAS target this
records a profile from the baseline run's own telemetry, re-optimizes
with ``rule_profile`` pruning, and writes the search-volume /
search-time / best-cost deltas plus the pruned rule names to
``pruning_ablation.csv`` under ``benchmarks/out/`` (or ``out/subset/``
under any ``REPRO_*`` knob).

The asserted bar is the feature's safety contract: pruning must *never*
change the extracted best cost or the library-call breakdown — it may
only shed search volume (asserted to strictly drop: the profile always
exposes at least one heavy zero-union rule on these kernels).
"""

import io
import json

import pytest

from repro.experiments import optimize_pair, selected_kernels, session
from repro.saturation import rule_stats_to_dict

from conftest import write_artifact

ABLATION_KERNELS = ("gemv", "vsum", "axpy")
TARGET = "blas"


def _kernels():
    selected = set(selected_kernels())
    return [name for name in ABLATION_KERNELS if name in selected]


@pytest.fixture(scope="module")
def ablation_runs(tmp_path_factory):
    """(baseline, pruned) per kernel, pruning from the baseline's own
    recorded telemetry — the CLI's record-then-prune workflow."""
    runs = {}
    profile_dir = tmp_path_factory.mktemp("rule-profiles")
    for kernel in _kernels():
        baseline = optimize_pair(kernel, TARGET)
        profile = {
            "schema": "repro-rule-profile/1",
            "limits": {},
            "runs": [{
                "kernel": kernel,
                "target": TARGET,
                "rule_stats": rule_stats_to_dict(baseline.run.rule_stats),
            }],
        }
        path = profile_dir / f"{kernel}.json"
        path.write_text(json.dumps(profile))
        pruned = session().optimize(
            kernel, TARGET, rule_profile=str(path)
        )
        runs[kernel] = (baseline, pruned)
    return runs


def _search_matches(result) -> int:
    return sum(s.matches_found for s in result.run.rule_stats.values())


def _search_seconds(result) -> float:
    """Summed per-rule e-matching seconds (the ``*_search_cpu_s``
    columns)."""
    return sum(s.search_seconds for s in result.run.rule_stats.values())


def test_pruning_ablation_csv(ablation_runs):
    out = io.StringIO()
    out.write(
        "kernel,target,pruned_rule_count,pruned_rules,"
        "base_search_cpu_s,pruned_search_cpu_s,"
        "base_matches,pruned_matches,"
        "base_best_cost,pruned_best_cost,cost_delta\n"
    )
    for kernel, (baseline, pruned) in ablation_runs.items():
        base_cpu = _search_seconds(baseline)
        pruned_cpu = _search_seconds(pruned)
        out.write(
            f"{kernel},{TARGET},{len(pruned.pruned_rules)},"
            f"\"{' '.join(pruned.pruned_rules)}\","
            f"{base_cpu:.3f},{pruned_cpu:.3f},"
            f"{_search_matches(baseline)},{_search_matches(pruned)},"
            f"{baseline.final.best_cost:.1f},{pruned.final.best_cost:.1f},"
            f"{pruned.final.best_cost - baseline.final.best_cost:.1f}\n"
        )
    write_artifact("pruning_ablation.csv", out.getvalue())


def test_pruning_preserves_solutions(ablation_runs):
    for kernel, (baseline, pruned) in ablation_runs.items():
        assert pruned.final.best_cost == pytest.approx(
            baseline.final.best_cost
        ), kernel
        assert pruned.final.library_calls == baseline.final.library_calls, kernel


def test_pruning_sheds_search_volume(ablation_runs):
    for kernel, (baseline, pruned) in ablation_runs.items():
        assert pruned.pruned_rules, kernel
        assert _search_matches(pruned) < _search_matches(baseline), kernel
