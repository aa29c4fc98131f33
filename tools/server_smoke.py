#!/usr/bin/env python
"""CI smoke test for the ``repro serve`` daemon.

Starts the daemon as a real subprocess on an ephemeral port (with a
serve.toml enabling the full observability stack), drives the batch
CLI through it (``--remote``), runs the same batch in-process, and
asserts the CSV artifacts are byte-identical — the
service-equals-one-shot contract from docs/SERVER.md — then checks
the health and metrics endpoints and the observability contract from
docs/OBSERVABILITY.md: a trace id on every response, a JSONL event
log with exactly one ``request.completed`` per optimize request, the
``/v1/debug/requests`` flight recorder, and a merged per-request
Chrome trace whose lanes span the daemon and a fork-pool worker pid.
Finally it stops the daemon with SIGTERM and asserts that it exits
cleanly and that none of its fork-pool workers outlives it.

Run from the repository root:
``PYTHONPATH=src python tools/server_smoke.py``

Set ``REPRO_SMOKE_ARTIFACTS=<dir>`` to keep the event log and the
merged trace after the run (CI uploads them as artifacts).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Tiny saturation profile: ~0.3s per kernel instead of ~10s.
ENV = {
    **os.environ,
    "PYTHONPATH": str(ROOT / "src"),
    "REPRO_STEP_LIMIT": "3",
    "REPRO_NODE_LIMIT": "2500",
    "REPRO_TIME_LIMIT": "30",
}

KERNELS = ["vsum", "dot"]

SMOKE_TRACE_ID = "smoke-trace-0001"


def fail(message: str) -> "None":
    print(f"server_smoke: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def http(url: str, data: bytes = None, headers: dict = None):
    """One request → (status, parsed JSON body, response headers)."""
    request = urllib.request.Request(url, data=data,
                                     headers=headers or {})
    with urllib.request.urlopen(request, timeout=10) as response:
        text = response.read().decode("utf-8")
        ctype = response.headers.get("Content-Type", "")
        body = (json.loads(text) if ctype.startswith("application/json")
                else text)
        return response.status, body, dict(response.headers)


def wait_for_announce(daemon, log_path: Path, timeout: float = 30.0) -> str:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if daemon.poll() is not None:
            fail(f"daemon exited early:\n{log_path.read_text()}")
        match = re.search(r"listening on (http://[0-9.]+:\d+)",
                          log_path.read_text())
        if match:
            return match.group(1)
        time.sleep(0.2)
    fail(f"no announce line within {timeout}s:\n{log_path.read_text()}")


def run_cli(arguments, cwd: Path) -> None:
    result = subprocess.run(
        [sys.executable, "-m", "repro", *arguments],
        env=ENV, cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    if result.returncode != 0:
        fail(f"repro {' '.join(arguments)} exited "
             f"{result.returncode}:\n{result.stderr}")


def check_observability(url: str, work: Path, health: dict) -> None:
    """The docs/OBSERVABILITY.md contract, end to end."""
    event_log = work / "events.jsonl"
    trace_dir = work / "traces"

    # Every response carries a trace id; a well-formed supplied one is
    # honored.
    for endpoint in ("/v1/healthz", "/v1/metrics", "/v1/targets"):
        _, _, headers = http(url + endpoint)
        if not headers.get("X-Repro-Trace-Id"):
            fail(f"{endpoint} response has no X-Repro-Trace-Id header")
    # A kernel the CSV batch did NOT run, so this request actually
    # saturates (a cache hit would skip the engine and leave no
    # worker lane to assert on).
    status, answer, headers = http(
        url + "/v1/optimize",
        data=json.dumps({"kernel": "memset", "target": "blas"}).encode(),
        headers={"Content-Type": "application/json",
                 "X-Repro-Trace-Id": SMOKE_TRACE_ID})
    if status != 202:
        fail(f"traced optimize answered {status}")
    if headers.get("X-Repro-Trace-Id") != SMOKE_TRACE_ID:
        fail(f"supplied trace id not echoed: {headers!r}")
    job_id = answer["job"]["id"]
    deadline = time.monotonic() + 60
    while True:
        _, answer, _ = http(f"{url}/v1/jobs/{job_id}")
        if answer["job"]["status"] in ("done", "failed"):
            break
        if time.monotonic() > deadline:
            fail("traced job did not finish in 60s")
        time.sleep(0.1)
    if answer["job"]["status"] != "done":
        fail(f"traced job failed: {answer['job'].get('error')}")
    print("server_smoke: trace id echoed on every response")

    # The event log parses as JSONL with the documented schema, with
    # exactly one request.completed per optimize request.
    if not event_log.exists():
        fail("serve.toml event_log was configured but never written")
    events = []
    for line in event_log.read_text().splitlines():
        event = json.loads(line)
        if event.get("schema") != "repro-events/1":
            fail(f"event with wrong schema: {line}")
        if "ts" not in event or "event" not in event:
            fail(f"event missing ts/event: {line}")
        events.append(event)
    kinds = {e["event"] for e in events}
    if "server.started" not in kinds or "request.accepted" not in kinds:
        fail(f"expected lifecycle events, saw kinds {sorted(kinds)}")
    completed = [e for e in events if e["event"] == "request.completed"
                 and e.get("trace_id") == SMOKE_TRACE_ID]
    if len(completed) != 1:
        fail(f"expected exactly 1 request.completed for "
             f"{SMOKE_TRACE_ID}, found {len(completed)}")
    if completed[0].get("status") != "done":
        fail(f"completed event not done: {completed[0]}")
    print(f"server_smoke: event log has {len(events)} valid "
          "repro-events/1 lines, one completed per request")

    # The flight recorder shows the smoke requests.
    _, answer, _ = http(f"{url}/v1/debug/requests?n=100")
    entries = [e for e in answer["requests"]
               if e.get("trace_id") == SMOKE_TRACE_ID]
    if len(entries) != 1 or entries[0].get("outcome") != "done":
        fail(f"flight recorder missing the traced request: {entries}")
    if len(answer["requests"]) < len(KERNELS) + 1:
        fail(f"flight recorder shows {len(answer['requests'])} requests; "
             f"expected at least {len(KERNELS) + 1}")
    print("server_smoke: flight recorder shows the smoke requests")

    # The merged per-request Chrome trace: daemon spans and — when the
    # fork pool is warm — at least one worker lane in the same file.
    trace_path = trace_dir / f"{SMOKE_TRACE_ID}.trace.json"
    if not trace_path.exists():
        fail(f"no merged trace at {trace_path}")
    trace = json.loads(trace_path.read_text())
    spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    names = {e["name"] for e in spans}
    if "queue_wait" not in names or "run" not in names:
        fail(f"daemon spans missing from the trace: {sorted(names)}")
    if not any(n.startswith("saturate:") for n in names):
        fail(f"engine spans missing from the trace: {sorted(names)}")
    lanes = {e["tid"] for e in spans}
    if health["pool"]["warm"] and len(lanes) < 2:
        fail(f"pool is warm but the trace has one lane: {lanes}")
    print(f"server_smoke: merged trace spans {len(lanes)} process lanes")


def descendants(pid: int) -> list:
    """Pids of every live descendant of ``pid`` (read from /proc)."""
    children: dict = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    found, index = [pid], 0
    while index < len(found):
        found.extend(children.get(found[index], []))
        index += 1
    return found[1:]


def running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def stop_and_check_no_orphans(daemon, health: dict) -> None:
    """SIGTERM the daemon; it must exit 0 and take its pool with it."""
    workers = descendants(daemon.pid)
    if health["pool"]["warm"] and not workers:
        fail("pool is warm but the daemon has no worker processes")
    daemon.terminate()
    try:
        code = daemon.wait(timeout=30)
    except subprocess.TimeoutExpired:
        fail("daemon did not exit within 30s of SIGTERM")
    if code != 0:
        fail(f"daemon exited {code} on SIGTERM, expected a clean 0")
    deadline = time.monotonic() + 10
    while True:
        alive = [pid for pid in workers if running(pid)]
        if not alive:
            break
        if time.monotonic() > deadline:
            for pid in alive:
                os.kill(pid, 9)
            fail(f"pool workers {alive} outlived the daemon")
        time.sleep(0.1)
    print(f"server_smoke: SIGTERM stopped the daemon and its "
          f"{len(workers)} pool worker(s)")


def export_artifacts(work: Path) -> None:
    """Copy the event log + merged trace out for CI artifact upload."""
    destination = os.environ.get("REPRO_SMOKE_ARTIFACTS")
    if not destination:
        return
    target = Path(destination)
    target.mkdir(parents=True, exist_ok=True)
    for source in (work / "events.jsonl",
                   work / "traces" / f"{SMOKE_TRACE_ID}.trace.json"):
        if source.exists():
            (target / source.name).write_bytes(source.read_bytes())
    print(f"server_smoke: artifacts exported to {target}")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as raw:
        work = Path(raw)
        (work / "serve.toml").write_text(
            "[observability]\n"
            f'event_log = "{work / "events.jsonl"}"\n'
            f'trace_dir = "{work / "traces"}"\n'
        )
        log_path = work / "serve.log"
        with open(log_path, "w") as log:
            daemon = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--config", str(work / "serve.toml"), "-q"],
                env=ENV, cwd=work, stdout=log, stderr=subprocess.STDOUT,
            )
        try:
            url = wait_for_announce(daemon, log_path)
            print(f"server_smoke: daemon at {url}")

            run_cli([*KERNELS, "-t", "blas", "-q",
                     "--remote", url, "--out", str(work / "remote")], work)
            run_cli([*KERNELS, "-t", "blas", "-q",
                     "--out", str(work / "local")], work)

            remote_csv = (work / "remote" / "blas-overview.csv").read_bytes()
            local_csv = (work / "local" / "blas-overview.csv").read_bytes()
            if remote_csv != local_csv:
                fail("remote and local blas-overview.csv differ:\n"
                     f"--- remote ---\n{remote_csv.decode()}\n"
                     f"--- local ----\n{local_csv.decode()}")
            print("server_smoke: remote CSV is byte-identical to local")

            with urllib.request.urlopen(f"{url}/v1/healthz", timeout=10) as r:
                health = json.load(r)
            if health["status"] != "ok":
                fail(f"healthz status {health['status']!r}")
            if health["jobs"]["done"] < len(KERNELS):
                fail(f"expected >= {len(KERNELS)} done jobs, "
                     f"got {health['jobs']}")
            if health["pool"]["workers"] > 0 and not health["pool"]["warm"]:
                fail("pool workers configured but pool is not warm")

            with urllib.request.urlopen(f"{url}/v1/metrics", timeout=10) as r:
                metrics = r.read().decode("utf-8")
            for needle in ("http_requests_total", "jobs_completed_total",
                           "repro_cache", "e2e_seconds_p50"):
                if needle not in metrics:
                    fail(f"/v1/metrics is missing {needle!r}")
            print("server_smoke: healthz and metrics look sane")

            check_observability(url, work, health)
            export_artifacts(work)
            stop_and_check_no_orphans(daemon, health)
        finally:
            if daemon.poll() is None:
                daemon.terminate()
                try:
                    daemon.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    daemon.kill()
    print("server_smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
