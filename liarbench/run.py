"""The LIAR benchmark: one command per workload.

    python3 liarbench/run.py --workload saturate-matvec --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the workload again with every layer wrapped (see
layers.py) and prints the per-layer metrics instead.  Every output is
checked against the pinned digests and the kernels' reference
semantics; any failure makes the command exit non-zero.  The last line
of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    DIGESTS_PATH, NAME_RE, ROOT, SATURATE_LIMITS, SERVE_NODE_LIMIT, BenchError,
    Metrics, environment, import_program, load_digests,
)

WORKLOADS = ("saturate-matvec", "saturate-vector", "serve-mixed")


def declared_metrics() -> tuple:
    """(end-to-end names, per-layer names with units) from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([m["name"] for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Development options (the harness self-test runs tiny budgets).
    parser.add_argument("--node-limit", type=int, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--requests", type=int, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--digests", type=Path, default=DIGESTS_PATH,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        import_program()
        end_to_end, per_layer = declared_metrics()
        pinned = load_digests(args.digests)  # fail early on a bad file
    except (BenchError, OSError, ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    def log(line: str) -> None:
        print(line, flush=True)

    log(f"liarbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}")
    log("env: " + json.dumps(environment(), sort_keys=True))
    metrics = Metrics()
    if args.workload == "serve-mixed":
        import serve

        attempted, failed = serve.run(
            args.workload, args.seed, args.seconds, bool(args.trace), pinned,
            args.node_limit or SERVE_NODE_LIMIT, metrics, log, args.requests)
    else:
        import saturate

        attempted, failed = saturate.run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.digests.resolve(),
            args.node_limit or SATURATE_LIMITS["node_limit"], metrics, log)

    if args.trace:
        # A layer this workload does not exercise reads 0 (n=0).
        for name, unit in per_layer:
            if name not in metrics.values:
                metrics.put(name, 0.0, unit, 0)
        names = [name for name, _ in per_layer]
    else:
        names = end_to_end
    for line in metrics.table(names):
        log(line)
    bad_names = [n for n in names if not NAME_RE.match(n)]
    correct = failed == 0 and not bad_names
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics.select(names),
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
