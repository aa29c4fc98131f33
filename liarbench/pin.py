"""Compute, check, or re-pin the output digests of every benchmark pair.

    python3 liarbench/pin.py --check            # compare with digests.json
    python3 liarbench/pin.py --hashseeds 1,2    # pin, confirming that two
                                                # PYTHONHASHSEED values agree
    python3 liarbench/pin.py --node-limit 500 --out PATH   # tiny budgets

Each pair runs in a fresh Session at the benchmark's explicit Limits.
A pair's entry holds the StepRecord digest (checked by the saturate
workloads), the report digest (checked by the serve workload, which
only sees reports), the final cost and solution summary, and the five
rules that spent the most search time.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    DIGESTS_PATH, ROOT, SATURATE_LIMITS, SERVE_NODE_LIMIT, SERVE_TARGETS, TABLE_KERNELS,
    BenchError, import_program, pair_key, report_digest, steps_digest,
)
from saturate import PAIRS, limits_kwargs  # noqa: E402


def all_pairs(node_limit=None):
    """(kernel, target, node_limit) for every pair a workload can run
    (every pair at ``node_limit`` when one is given)."""
    saturate = [p for pairs in PAIRS.values() for p in pairs]
    serve = [(k, t) for k in TABLE_KERNELS for t in SERVE_TARGETS]
    saturate_limit = node_limit or SATURATE_LIMITS["node_limit"]
    serve_limit = node_limit or SERVE_NODE_LIMIT
    return [(k, t, saturate_limit) for k, t in saturate] + \
        [(k, t, serve_limit) for k, t in serve]


def compute(pairs, log) -> dict:
    from repro.api import Limits, Session
    from repro.api.types import OptimizationReport

    entries = {}
    for kernel, target, node_limit in pairs:
        key = pair_key(kernel, target, node_limit)
        if key in entries:
            continue
        limits = Limits(**limits_kwargs(node_limit))
        session = Session(limits)
        start = perf_counter()
        result = session.optimize(kernel, target)
        seconds = perf_counter() - start
        report = OptimizationReport.from_result(result, limits, seconds)
        rules = sorted(result.run.rule_stats.values(),
                       key=lambda s: -s.search_seconds)
        entries[key] = {
            "steps": steps_digest(result),
            "report": report_digest(report.to_dict()),
            "cost": result.final.best_cost,
            "solution": result.solution_summary,
            "stop_reason": result.run.stop_reason,
            "top_rules": [s.name for s in rules[:5]],
        }
        log(f"{key:<28} {seconds:7.2f}s  cost {result.final.best_cost:<10g}"
            f" {result.solution_summary}")
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the pinned file, write nothing")
    parser.add_argument("--hashseeds", default=None,
                        help="comma-separated PYTHONHASHSEED values to "
                             "compute under (in subprocesses) and compare")
    parser.add_argument("--node-limit", type=int, default=None,
                        help="one e-node budget for every pair")
    parser.add_argument("--out", type=Path, default=DIGESTS_PATH)
    parser.add_argument("--emit", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        import_program()
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.hashseeds:
        runs = []
        for hashseed in args.hashseeds.split(","):
            env = dict(os.environ, PYTHONHASHSEED=hashseed.strip())
            cmd = [sys.executable, __file__, "--emit"]
            if args.node_limit is not None:
                cmd += ["--node-limit", str(args.node_limit)]
            out = subprocess.run(cmd, cwd=ROOT, env=env, check=True,
                                 capture_output=True, text=True)
            runs.append(json.loads(out.stdout.splitlines()[-1]))
            print(f"PYTHONHASHSEED={hashseed}: {len(runs[-1])} pairs",
                  file=sys.stderr)
        differing = sorted(k for k in runs[0]
                           if any(r.get(k, {}).get("steps") !=
                                  runs[0][k]["steps"] or
                                  r.get(k, {}).get("report") !=
                                  runs[0][k]["report"] for r in runs[1:]))
        if differing:
            print(f"DIGESTS DIFFER across hash seeds: {differing}",
                  file=sys.stderr)
            return 1
        entries = runs[0]
    else:
        log = (lambda *_: None) if args.emit else \
            (lambda line: print(line, file=sys.stderr))
        entries = compute(all_pairs(args.node_limit), log)
    if args.emit:
        print(json.dumps(entries))
        return 0

    if args.check:
        pinned = json.loads(args.out.read_text())["pairs"]
        bad = [key for key, entry in entries.items()
               if pinned.get(key, {}).get("steps") != entry["steps"] or
               pinned.get(key, {}).get("report") != entry["report"]]
        for key in bad:
            print(f"MISMATCH {key}", file=sys.stderr)
        print(f"{len(entries) - len(bad)}/{len(entries)} pairs match",
              file=sys.stderr)
        return 1 if bad else 0
    args.out.write_text(json.dumps(
        {"schema": "liarbench-digests/1", "pairs": entries},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} digests to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
