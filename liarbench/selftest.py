"""Self-test of the benchmark harness at a tiny budget.

    python3 liarbench/selftest.py

Pins digests at 500 e-nodes into a scratch file, then drives both
saturate workloads and the serve workload (3 requests) through the real
command, untraced and traced.  It asserts that every run passes and
prints every declared metric, that every emitted name uses only
letters, digits, ``_``, ``.`` and ``-``, that a planted digest mismatch
makes the command fail, that a ``REPRO_*`` variable is refused, and
that the command fails without printing a result when the program's
sources are absent.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BENCH_DIR, NAME_RE, ROOT, WORK_DIR  # noqa: E402

NODES = "500"
RUN = [sys.executable, str(BENCH_DIR / "run.py")]


def run(args, env=None, cwd=ROOT):
    proc = subprocess.run(RUN + args, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


def check(condition: bool, message: str, detail: str = "") -> None:
    if not condition:
        raise AssertionError(f"{message}\n{detail}")
    print(f"ok  {message}", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for name in [w["name"] for w in spec["workloads"]] + end_to_end + \
            per_layer:
        check(bool(NAME_RE.match(name)), f"declared name {name!r} is valid")

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK_DIR))
    try:
        digests = scratch / "digests.json"
        subprocess.run([sys.executable, str(BENCH_DIR / "pin.py"),
                        "--node-limit", NODES, "--out", str(digests)],
                       cwd=ROOT, check=True, capture_output=True, timeout=600)
        tiny = ["--node-limit", NODES, "--digests", str(digests)]

        for workload in ("saturate-matvec", "saturate-vector", "serve-mixed"):
            extra = ["--requests", "3"] if workload == "serve-mixed" else []
            for trace, names in (("0", end_to_end), ("1", per_layer)):
                proc, result = run(["--workload", workload, "--seed", "7",
                                    "--seconds", "1", "--trace", trace]
                                   + tiny + extra)
                label = f"{workload} --trace {trace}"
                check(proc.returncode == 0 and result is not None
                      and result["correct"],
                      f"{label} passes", proc.stdout[-2000:] + proc.stderr)
                check(sorted(result) == ["attempted", "correct", "failed",
                                         "metrics"],
                      f"{label} prints exactly the four result keys")
                check(list(result["metrics"]) == names,
                      f"{label} prints every declared metric")
                check(all(NAME_RE.match(n) for n in result["metrics"]),
                      f"{label} emits only valid names")

        planted = json.loads(digests.read_text())
        planted["pairs"][f"gemv/blas@{NODES}"]["steps"] = "0" * 32
        for entry in planted["pairs"].values():
            entry["report"] = "0" * 32
        bad = scratch / "planted.json"
        bad.write_text(json.dumps(planted))
        for workload, extra in (("saturate-matvec", []),
                                ("serve-mixed", ["--requests", "3"])):
            proc, result = run(["--workload", workload, "--seed", "7",
                                "--seconds", "1", "--trace", "0",
                                "--node-limit", NODES, "--digests", str(bad)]
                               + extra)
            check(proc.returncode != 0 and result is not None
                  and not result["correct"] and result["failed"] > 0,
                  f"{workload}: a planted digest mismatch fails the run",
                  proc.stdout[-2000:] + proc.stderr)

        env = dict(os.environ, REPRO_INCREMENTAL="0")
        proc, result = run(["--workload", "saturate-matvec", "--seed", "1",
                            "--seconds", "1", "--trace", "0"], env=env)
        check(proc.returncode != 0 and result is None,
              "a REPRO_* variable is refused")

        bare = scratch / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(bare / BENCH_DIR.name / "run.py"),
             "--workload", "saturate-matvec", "--seed", "1", "--seconds",
             "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "without the program's sources the command fails silently")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
