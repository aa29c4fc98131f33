"""The serve-mixed workload: an open-loop load generator against a
``repro serve`` daemon.

The daemon runs as a subprocess with the committed ``serve.toml`` (2
queue workers, a warm fork pool of 2) and a fresh temporary cache
directory.  One generator process with two threads drives it: a sender
that POSTs each request when it is due on a seeded, jittered schedule
(first requests of a pair spaced so saturations do not overlap, see
:func:`make_schedule`), and a poller that polls each unfinished job
(``GET /v1/jobs/<id>``) every 50 ms and keeps its report once it is
done.  Every request is timed from when it was due to the job record's
``finished`` stamp (the daemon runs on the same host and clock), so a
stall in the daemon or a late generator shows as latency while the
poller's tick does not; the generator's own lateness is reported.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from common import (
    BENCH_DIR, ROOT, SERVE_NODE_LIMIT, WORK_DIR, Metrics, child_env,
    median, pair_key, percentile, put_saturation_layers, reference_ok,
    report_digest, tail_percentile,
)

#: The 32 table-I pairs with their saturation seconds at 2000 e-nodes
#: on the seed commit (2-core box, serial), cheapest first.  The
#: request mix is stratified over this order, so every seed saturates
#: about the same amount of work.
PAIRS_BY_COST: Tuple[Tuple[str, str, float], ...] = (
    ("memset", "pytorch", 0.15), ("memset", "blas", 0.23),
    ("vsum", "pytorch", 0.66), ("vsum", "blas", 0.90),
    ("axpy", "pytorch", 1.62), ("2mm", "blas", 1.75),
    ("atax", "pytorch", 1.80), ("blur1d", "blas", 1.86),
    ("jacobi1d", "blas", 2.00), ("blur1d", "pytorch", 2.01),
    ("1mm", "pytorch", 2.02), ("doitgen", "pytorch", 2.11),
    ("atax", "blas", 2.24), ("axpy", "blas", 2.27), ("1mm", "blas", 2.38),
    ("jacobi1d", "pytorch", 2.48), ("gesummv", "pytorch", 2.63),
    ("gemv", "pytorch", 2.68), ("mvt", "blas", 2.76),
    ("doitgen", "blas", 2.81), ("slim-2mm", "pytorch", 3.24),
    ("gemv", "blas", 3.36), ("mvt", "pytorch", 3.41),
    ("gemver", "pytorch", 3.65), ("gemver", "blas", 3.75),
    ("stencil2d", "pytorch", 4.22), ("stencil2d", "blas", 4.37),
    ("slim-2mm", "blas", 4.73), ("gemm", "pytorch", 4.91),
    ("2mm", "pytorch", 5.10), ("gemm", "blas", 5.55),
    ("gesummv", "blas", 8.92),
)
#: Kernels that share one IR term: the session answers the second of
#: such a pair from its cache, so a run never draws both as new pairs.
SAME_TERM = {"jacobi1d": "blur1d"}

#: Offered load, requests per second (all kinds).
RATE_RPS = 13.33
#: First requests of a pair (cache misses) per second of the run.
NEW_PAIR_RATE = 0.24
#: A first request is due this many times the previous first request's
#: seed-commit saturation time (plus 0.5 s) after it.
SLOT_MARGIN = 1.3
#: A repeat names a pair whose first request was due at least this
#: many times the pair's seed-commit saturation time (plus 2 s) before.
REPEAT_AFTER = 3.0
#: A request counts toward goodput when it completes within this many
#: seconds of being due.
LATENCY_LIMIT_S = 10.0
POLL_INTERVAL_S = 0.05
#: How often the poller samples the daemon's queue depth.
DEPTH_SAMPLE_S = 0.5
#: Daemon boots per run; the median boot-to-warm time is setup_s.  One
#: more boot goes first and is not counted (the first start after a
#: checkout compiles the program's bytecode).
SETUP_SAMPLES = 11
#: The run is invalid when the queue grew by more than this between
#: the first and the last request of the schedule.
BACKLOG_SLACK = 4
#: Warm-up request: a budget no workload request uses, so it forks the
#: pool without caching anything the mix asks for.
WARMUP = {"kernel": "memset", "target": "blas", "step_limit": 1,
          "node_limit": SERVE_NODE_LIMIT}


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def make_schedule(seed: int, seconds: float,
                  requests: Optional[int] = None) -> List[Tuple[float, str, str]]:
    """(due seconds, kernel, target) for one run.

    ``distinct`` pairs are drawn one per cost stratum of
    :data:`PAIRS_BY_COST` (so every seed saturates about the same
    work) and requested in rising cost order, each first request due
    when the previous one should be done: saturations do not overlap,
    so their times, and the latencies of requests that arrive
    meanwhile, hardly vary between seeds.  Every other request repeats
    a pair whose first request was due long enough before
    (:data:`REPEAT_AFTER` times its seed-commit saturation time plus
    two seconds) to have finished.  Repeats begin once the first pair
    can be repeated and arrive one per equal share of the rest of the
    run at a seeded offset within it.  A repeat that still finds its
    pair in flight misses the cache legitimately; the report, not this
    schedule, says which it was.
    """
    rng = random.Random(seed)
    count = requests if requests is not None else max(
        1, round(RATE_RPS * seconds))
    distinct = min(len(PAIRS_BY_COST), max(2, count),
                   max(2, round(seconds * NEW_PAIR_RATE)))
    # The costliest pair (gesummv/blas, about twice the next) is a
    # stratum of its own.
    rest = PAIRS_BY_COST[:-1]
    strata = [rest[len(rest) * i // (distinct - 1):
                   len(rest) * (i + 1) // (distinct - 1)]
              for i in range(distinct - 1)] + [PAIRS_BY_COST[-1:]]
    picks: List[Tuple[str, str, float]] = []
    for stratum in strata:
        terms = {(SAME_TERM.get(k, k), t) for k, t, _ in picks}
        choices = [p for p in stratum
                   if (SAME_TERM.get(p[0], p[0]), p[1]) not in terms]
        picks.append(rng.choice(choices or stratum))
    # Each first request is due once the previous one should be done
    # (seed-commit time with a margin), compressed if that overruns.
    slots = [0.0]
    for _, _, cost in picks[:-1]:
        slots.append(slots[-1] + SLOT_MARGIN * cost + 0.5)
    scale = min(1.0, 0.8 * seconds / slots[-1]) if slots[-1] else 1.0
    firsts = [(slot * scale, pick) for slot, pick in zip(slots, picks)]
    schedule = [(due, kernel, target)
                for due, (kernel, target, _) in firsts][:count]
    # Repeats start once the first pair (slot 0, the cheapest stratum)
    # is ready to be repeated.
    start = min(REPEAT_AFTER * firsts[0][1][2] + 2.0, seconds / 2)
    repeats = count - len(schedule)
    for due in [start + (seconds - start) * (i + rng.random()) / repeats
                for i in range(repeats)]:
        ready = [(k, t) for first, (k, t, cost) in firsts
                 if first + REPEAT_AFTER * cost + 2.0 <= due]
        kernel, target = rng.choice(ready) if ready else firsts[0][1][:2]
        schedule.append((due, kernel, target))
    return sorted(schedule)


# ---------------------------------------------------------------------------
# HTTP
# ---------------------------------------------------------------------------

def _http(method: str, url: str, body: Optional[dict] = None,
          timeout: float = 30.0) -> Tuple[int, Any]:
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read() or b"null")
    except urllib.error.HTTPError as error:
        try:
            payload = json.loads(error.read() or b"null")
        except ValueError:
            payload = None
        return error.code, payload


# ---------------------------------------------------------------------------
# daemon lifecycle
# ---------------------------------------------------------------------------

class Daemon:
    """A ``repro serve`` subprocess in its own process group."""

    def __init__(self, workdir: Path, traced: bool = False) -> None:
        self.workdir = workdir
        cache = workdir / "cache"
        config = (BENCH_DIR / "serve.toml").read_text().replace(
            "[server]\n", f"[server]\ncache_dir = {json.dumps(str(cache))}\n", 1)
        self.config_path = workdir / "serve.toml"
        self.config_path.write_text(config)
        self.counters_path = workdir / "layers.json"
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "daemon.py"),
                   str(self.counters_path)]
        else:
            cmd = [sys.executable, "-m", "repro"]
        cmd += ["serve", "--config", str(self.config_path), "-q"]
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, start_new_session=True,
        )
        self.url = self._await_url()

    def _await_url(self) -> str:
        line = self.proc.stdout.readline()
        marker = "listening on "
        if marker not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        return line.split(marker, 1)[1].split()[0]

    def warm(self) -> float:
        """Run the warm-up request; returns seconds since spawn."""
        status, payload = _http("POST", self.url + "/v1/optimize", WARMUP)
        if status != 202:
            raise RuntimeError(f"warm-up refused: {status} {payload}")
        job = payload["job"]["id"]
        deadline = perf_counter() + 30.0
        while perf_counter() < deadline:
            status, payload = _http("GET", f"{self.url}/v1/jobs/{job}")
            if status == 200 and payload["job"]["status"] in ("done", "failed"):
                return perf_counter() - self.started
            time.sleep(0.01)
        raise RuntimeError("warm-up job did not finish within 30 s")

    def tree_peak_rss_mb(self) -> float:
        """Largest VmHWM among the daemon and its descendants."""
        pids = [self.proc.pid]
        children: Dict[int, List[int]] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
                ppid = int(stat.rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
            children.setdefault(ppid, []).append(int(entry))
        index = 0
        while index < len(pids):
            pids.extend(children.get(pids[index], []))
            index += 1
        peak = 0
        for pid in pids:
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
            except OSError:
                continue
        return peak / 1024.0

    def stop(self) -> None:
        """SIGINT (clean shutdown), then SIGKILL the whole group."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()
        # Pool workers are grandchildren: wait until none is left.
        deadline = time.time() + 10
        while time.time() < deadline and _group_alive(self.proc.pid):
            time.sleep(0.05)


def _group_alive(pgid: int) -> bool:
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            if os.getpgid(int(entry)) == pgid:
                return True
        except (ProcessLookupError, PermissionError):
            continue
    return False


# ---------------------------------------------------------------------------
# the open-loop generator
# ---------------------------------------------------------------------------

class Generator:
    def __init__(self, url: str, schedule, node_limit: int) -> None:
        self.url = url
        self.schedule = schedule
        self.node_limit = node_limit
        n = len(schedule)
        self.sent_at: List[Optional[float]] = [None] * n
        self.submit_s: List[Optional[float]] = [None] * n
        self.status: List[Optional[int]] = [None] * n
        self.job_of: List[Optional[str]] = [None] * n
        self.seen_at: Dict[str, float] = {}
        self.records: Dict[str, dict] = {}
        self.polls = 0
        self.depth_max = 0
        self.sending_done = threading.Event()
        self.lock = threading.Lock()
        self.errors: List[str] = []

    def run(self, drain_timeout: float) -> None:
        self.t0 = perf_counter() + 0.05
        self.t0_wall = time.time() + 0.05
        sender = threading.Thread(target=self._send, name="loadgen-send")
        sender.start()
        try:
            self._poll(drain_timeout)
        finally:
            sender.join()

    def _send(self) -> None:
        try:
            for index, (due, kernel, target) in enumerate(self.schedule):
                wait = self.t0 + due - perf_counter()
                if wait > 0:
                    time.sleep(wait)
                start = perf_counter()
                self.sent_at[index] = start
                status, payload = _http(
                    "POST", self.url + "/v1/optimize",
                    {"kernel": kernel, "target": target,
                     "node_limit": self.node_limit},
                )
                self.submit_s[index] = perf_counter() - start
                self.status[index] = status
                if status == 202:
                    with self.lock:
                        self.job_of[index] = payload["job"]["id"]
        except Exception as exc:  # recorded; the poller must still stop
            self.errors.append(f"sender: {exc!r}")
        finally:
            self.sending_done.set()

    def done_at(self, job_id: str) -> float:
        """Seconds from t0 to the job's end: the record's ``finished``
        stamp, or when the poller saw a job that has none."""
        finished = self.records[job_id].get("finished")
        if finished is not None:
            return float(finished) - self.t0_wall
        return self.seen_at[job_id] - self.t0

    def _poll(self, drain_timeout: float) -> None:
        """Poll every submitted, unfinished job until all are done."""
        hard_stop = None
        next_depth = 0.0
        while True:
            time.sleep(POLL_INTERVAL_S)
            with self.lock:
                pending = [j for j in self.job_of
                           if j is not None and j not in self.records]
            for job_id in pending:
                status, payload = _http("GET", f"{self.url}/v1/jobs/{job_id}")
                self.polls += 1
                if status != 200:
                    self.records[job_id] = {
                        "id": job_id, "status": "failed",
                        "error": f"GET job -> {status}"}
                    self.seen_at[job_id] = perf_counter()
                elif payload["job"]["status"] in ("done", "failed"):
                    self.seen_at[job_id] = perf_counter()
                    self.records[job_id] = payload["job"]
            now = perf_counter()
            if now >= next_depth:
                self.depth_max = max(self.depth_max,
                                     _healthz_depth(self.url))
                next_depth = now + DEPTH_SAMPLE_S
            if self.sending_done.is_set() and not pending:
                with self.lock:
                    if all(j is None or j in self.records
                           for j in self.job_of):
                        return
            if self.sending_done.is_set():
                if hard_stop is None:
                    hard_stop = now + drain_timeout
                elif now > hard_stop:
                    self.errors.append(f"{len(pending)} jobs never finished")
                    return


# ---------------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------------

def _healthz_depth(url: str) -> int:
    status, payload = _http("GET", url + "/v1/healthz")
    return int(payload["queue_depth"]) if status == 200 else -1


def _metrics_snapshot(url: str) -> dict:
    status, payload = _http("GET", url + "/v1/metrics?format=json")
    return payload if status == 200 else {}


def _counter(snapshot: dict, family: str, name: str) -> float:
    """A counter's value summed over its label sets."""
    metric = snapshot.get("families", {}).get(family, {}).get(name, {})
    return float(sum(sample.get("value", 0)
                     for sample in metric.get("samples", [])))


def run(workload: str, seed: int, seconds: float, trace: bool,
        pinned: Dict[str, dict], node_limit: int, metrics_out: Metrics,
        log, requests: Optional[int] = None) -> Tuple[int, int]:
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="serve-", dir=WORK_DIR))
    daemons: List[Daemon] = []
    try:
        return _run(workdir, daemons, seed, seconds, trace, pinned,
                    node_limit, metrics_out, log, requests)
    finally:
        for daemon in daemons:
            daemon.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workdir, daemons, seed, seconds, trace, pinned, node_limit,
         metrics_out, log, requests) -> Tuple[int, int]:
    setups = []
    for boot in range(SETUP_SAMPLES + 1):
        bootdir = workdir / f"boot{boot}"
        bootdir.mkdir()
        daemon = Daemon(bootdir, traced=trace and boot == SETUP_SAMPLES)
        daemons.append(daemon)
        seconds_to_warm = daemon.warm()
        if boot > 0:
            setups.append(seconds_to_warm)
        if boot < SETUP_SAMPLES:
            daemon.stop()
            daemons.remove(daemon)
    daemon = daemons[-1]
    metrics_out.put("setup_s", median(setups), "s", len(setups))

    schedule = make_schedule(seed, seconds, requests)
    depth_start = _healthz_depth(daemon.url)
    generator = Generator(daemon.url, schedule, node_limit)
    last_due = schedule[-1][0]
    ender = threading.Timer(
        max(0.0, last_due + 0.05), lambda: setattr(
            generator, "depth_end", _healthz_depth(daemon.url)))
    ender.start()
    generator.run(drain_timeout=LATENCY_LIMIT_S + 60.0)
    ender.join()
    depth_end = getattr(generator, "depth_end", -1)
    snapshot = _metrics_snapshot(daemon.url)
    peak_rss = daemon.tree_peak_rss_mb()
    daemon.stop()
    daemons.remove(daemon)

    # --- outcomes (outside the timed region) ---------------------------
    failed = 0
    e2e, hit_lat, miss_lat, queue_waits, job_runs, late = [], [], [], [], [], []
    compile_total = 0.0
    good = 0
    tail: List[Tuple[float, str, float]] = []
    misses: List[dict] = []
    checked: Dict[str, bool] = {}
    for index, (due, kernel, target) in enumerate(schedule):
        key = pair_key(kernel, target, node_limit)
        if generator.sent_at[index] is not None:
            late.append(max(0.0, generator.sent_at[index] -
                            (generator.t0 + due)))
        job_id = generator.job_of[index]
        record = generator.records.get(job_id) if job_id else None
        problem = None
        if job_id is None:
            problem = f"POST refused with {generator.status[index]}"
        elif record is None:
            problem = "never finished"
        elif record.get("status") != "done" or not record.get("report"):
            problem = f"job {record.get('status')}: {record.get('error')}"
        report = (record or {}).get("report") or {}
        if problem is None:
            if report.get("stop_reason") == "time_limit":
                problem = "stopped on the time limit"
            elif report_digest(report) != pinned.get(key, {}).get("report"):
                problem = (f"report digest {report_digest(report)} != pinned "
                           f"{pinned.get(key, {}).get('report')}")
            else:
                if key not in checked:
                    from repro.ir.parser import parse

                    checked[key] = reference_ok(
                        kernel, target, parse(report["solution"]), seed)
                if not checked[key]:
                    problem = "solution differs from the reference"
        if problem is not None:
            failed += 1
            log(f"FAIL request {index} {key}: {problem}")
        if record is None:
            continue
        latency = generator.done_at(job_id) - due
        e2e.append(latency)
        if problem is not None:
            continue
        if latency <= LATENCY_LIMIT_S:
            good += 1
        (hit_lat if report.get("cache_hit") else miss_lat).append(latency)
        tail.append((latency, "h" if report.get("cache_hit") else "m", due))
        if not report.get("cache_hit"):
            compile_total += float(report.get("seconds") or 0.0)
            misses.append(report)
        queue_waits.append(max(0.0, record["started"] - record["created"]))
        job_runs.append(max(0.0, record["finished"] - record["started"]))
    for error in generator.errors:
        log(f"FAIL loadgen: {error}")
    attempted = len(schedule)
    invalid = depth_end < 0 or depth_end - depth_start > BACKLOG_SLACK
    if invalid:
        log(f"INVALID: queue depth {depth_start} -> {depth_end} over the run")
        failed = max(failed, 1)
    if generator.errors:
        failed = max(failed, 1)
    ok = attempted - failed
    q = tail_percentile(len(e2e))
    log("serve misses: " + ", ".join(
        f"{r['kernel']}/{r['target']} {float(r.get('seconds') or 0):.2f}s"
        for r in misses))
    log("serve slowest: " + " ".join(
        f"{lat:.2f}{kind}@{due:.1f}" for lat, kind, due in
        sorted(tail, reverse=True)[:max(12, len(tail) // 8)]))
    log(f"serve: {attempted} requests, {len(miss_lat)} misses, "
        f"{len(hit_lat)} hits, tail percentile p{q:g}, queue depth "
        f"{depth_start}->{depth_end} (max {generator.depth_max})")

    metrics_out.put("compile_s", compile_total, "s", len(misses))
    metrics_out.put("peak_rss_mb", peak_rss, "MB", 1)
    metrics_out.put("ok_frac", ok / attempted, "ratio", attempted)
    metrics_out.put("e2e_p50_s", median(e2e), "s", len(e2e))
    metrics_out.put("e2e_p90_s", percentile(e2e, q or 100.0), "s", len(e2e))
    # Per second of the run as served: first due time to last report.
    span = max((generator.done_at(j) for j in generator.records), default=0.0)
    metrics_out.put("goodput_rps", good / span if span > 0 else 0.0, "1/s",
                    attempted)
    if trace:
        _fill_layers(metrics_out, generator, snapshot, misses, hit_lat,
                     miss_lat, queue_waits, job_runs, late, daemon)
    return attempted, failed


def _fill_layers(out: Metrics, generator: Generator, snapshot: dict,
                 misses: List[dict], hit_lat, miss_lat, queue_waits,
                 job_runs, late, daemon: Daemon) -> None:
    """Per-layer metrics of a traced serve run."""
    def med(values):
        return median(values) if values else 0.0

    submits = [s for s in generator.submit_s if s is not None]
    jobs = max(1, len(generator.records))
    out.put("server.submit_p50_s", med(submits), "s", len(submits))
    out.put("server.job_run_p50_s", med(job_runs), "s", len(job_runs))
    out.put("server.queue_wait_p50_s", med(queue_waits), "s",
            len(queue_waits))
    out.put("server.queue_depth_max", generator.depth_max, "count",
            generator.polls)
    out.put("server.rejected",
            sum(1 for s in generator.status if s is not None and s >= 400),
            "count", len(generator.status))
    out.put("server.polls_per_job", generator.polls / jobs, "ratio", jobs)
    out.put("api.hit_p50_s", med(hit_lat), "s", len(hit_lat))
    out.put("api.miss_p50_s", med(miss_lat), "s", len(miss_lat))
    hits = _counter(snapshot, "cache", "hits_total")
    cache_misses = _counter(snapshot, "cache", "misses_total")
    out.put("api.cache_hits", hits, "count")
    out.put("api.cache_misses", cache_misses, "count")
    out.put("api.hit_ratio", hits / (hits + cache_misses)
            if hits + cache_misses else 0.0, "ratio", int(hits + cache_misses))
    out.put("api.pool_restarts",
            _counter(snapshot, "server", "pool_restarts_total"), "count")
    out.put("bench.loadgen_late_p90_s", percentile(late, 90) if late else 0.0,
            "s", len(late))
    out.put("bench.loadgen_late_max_s", max(late) if late else 0.0, "s",
            len(late))

    # Saturation happens in the daemon's pool workers; what reaches the
    # generator is each miss report's phase split and rule telemetry.
    put_saturation_layers(out, (
        (report.get("phase_seconds") or {}, report.get("rule_stats") or {})
        for report in misses))
    out.put("egraph.enodes", sum(int(r.get("enodes") or 0) for r in misses),
            "count", len(misses))

    # Server and api layer self time from the daemon's own wrappers.
    layer_self: Dict[str, float] = {}
    counters: Dict[str, dict] = {}
    try:
        data = json.loads(daemon.counters_path.read_text())
        layer_self = data.get("layer_self", {})
        counters = data.get("counters", {})
    except (OSError, ValueError):
        pass
    optimize = counters.get("api.optimize_many", {})
    out.put("api.optimize_s", optimize.get("seconds", 0.0), "s",
            optimize.get("calls", 0))
    for layer in ("ir", "egraph", "saturation", "extraction", "api",
                  "server"):
        out.put(f"self_s.{layer}", layer_self.get(layer, 0.0), "s")
