#!/usr/bin/env python3
"""End-to-end benchmark of the pnrule CLI on KDD-like rare-class data.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train|batch|online --seed N \
        --seconds S --trace 0|1

The benchmark builds the CLI and its in-process probe with dune, draws
every input from --seed (two 100k-row KDD-like training feeds and a
100k-row test feed, target class r2l at about 0.2%), and drives the built
`pnrule` binary as child processes, so the program's GC and domains never
share a runtime with the load generator.

Every run prints every end-to-end metric, so every run walks the whole
user journey, each stage consuming the previous one's output:

  train   `pnrule train` (PNrule) and sampled boosted training on each
          of two training feeds
  batch   `pnrule predict` on the CSV and the .pnc feed, `pnrule ingest`
  online  open-loop Poisson POST /predict on a rate ladder, direct against
          `pnrule serve` and, in the online workload and traced runs,
          routed through `pnrule shard`

The workload names the stage the run measures in depth: that stage gets
one more pass and is passed again (for online, its first rung lengthened)
until --seconds of it have been measured. Times are medians over the
passes; batch rows/s are taken over all of a run's commands of a kind.
With --trace 1 the run also runs the probe, which times the calls
into each layer's public functions on the same inputs, and prints each
stage's ledger.

Every user-visible figure is printed. Set-up time has a bound, as do the
figures whose spread over ten seeds stayed within 0.25 on every
workload: peak memory, the share of operations that succeeded, the test
F-measure and the highest rate met. On a shared 2-vCPU machine whose
speed shifts by up to 2x for minutes at a time no other timing did, so
the training times (PNrule's also follows the number of rules a draw
yields), the batch rows/s and the online p50, tail and routed figures
are per-layer metrics without a bound.

Correctness gates: CSV and .pnc predictions must be byte-identical to each
other and to the probe's in-process reference; every online response must
equal the expected bytes for its slice; rule counts and the test
F-measure are checked, and in the train workload, which trains every
feed more than once, repeated-training determinism. A mismatch is a failed
operation, never a silent number. A stage that fails records its reason,
its metrics are null, and the run goes on.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Raw records (fingerprint, ladder steps, ledger, spans)
are written under perfbench/_work/.
"""

import argparse
import hashlib
import http.client
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
WORK = os.path.join(ROOT, "perfbench", "_work")
CLI = os.path.join(ROOT, "_build", "default", "bin", "pnrule_cli.exe")
PROBE = os.path.join(ROOT, "_build", "default", "perfbench", "probe", "probe.exe")

# Rows per feed. Every run walks the whole journey, so a run costs the
# sum of all stages; 100k rows leave room for repeated samples of each
# within the runs the benchmark is given.
ROWS = 100_000
TARGET = "r2l"
SLICE_ROWS = 16
LADDER = (100, 300, 1000, 3000)
LATENCY_LIMIT_MS = 100.0
# A step whose oldest unsent request is this overdue has a growing
# backlog: it ends early and counts as not met.
BACKLOG_ABORT_S = 0.5
# Each rung runs in windows of WINDOW_S; its p50 and tail are the
# medians of the windows' p50s and tails. The first rung gets BASE_WINDOWS (more in the online
# workload), the rungs above it UPPER_WINDOWS, long enough for a backlog
# near capacity to show.
WINDOW_S = 1.0
BASE_WINDOWS = 4
UPPER_WINDOWS = 3
MAX_WINDOWS = 10
TAIL_BEYOND = 10
# The generator's own lateness (gen.lag_ms) past which a first-rung
# measurement is invalid.
MAX_GEN_LAG_MS = LATENCY_LIMIT_MS / 2
UNLOADED_REQUESTS = 300
WARMUP_REQUESTS = 100
# Passes every run makes of the train and batch stages. One train pass
# trains each of the two feeds once. One batch pass runs, BATCH_ROUNDS
# times, the short .pnc predict PNC_REPEATS times, the CSV predict and
# ingest, so that every kind is sampled across the pass.
TRAIN_PASSES = 1
BATCH_PASSES = 1
BATCH_ROUNDS = 2
PNC_REPEATS = 5
# Extra passes of the workload's own stage stop once the run would be
# this old, so a slow machine cannot stretch a run without bound.
RUN_BUDGET_S = 30.0
# Hard limit on a run after the build; the watchdog stops it past this.
RUN_LIMIT_S = 170
BOOSTED = ["--method", "boosted", "--instance-sample", "strat:0.1:50",
           "--feature-sample", "sqrt"]
WORKLOADS = ("train", "batch", "online")

NPROC = len(os.sched_getaffinity(0))
ENV = dict(os.environ, PNRULE_DOMAINS=str(NPROC))
CONNECTIONS = min(2, NPROC)

# Metric names and units come from BENCHMARK.json; every run reports all
# end-to-end metrics, and a traced run all per-layer ones.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

# The end-to-end metric each per-layer metric should move, and where.
LAYER_MOVES = {
    "data.columnar_load_ms": "train_s (train), small share",
    "data.sort_cache_ms": "train_s, train_boosted_s (train)",
    "induct.best_condition_ms": "train_s, train_boosted_s (train)",
    "core.p_phase_s": "train_s (train)",
    "core.n_phase_s": "train_s (train)",
    "core.evaluate_ms": "train_s (train)",
    "core.ensemble_train_s": "train_boosted_s (train)",
    "core.serialize_ms": "train_s (train)",
    "cli.train_residual_ms": "train_s (train): residual row",
    "core.p_rules": "exact count, must not move",
    "core.n_rules": "exact count, must not move",
    "rules.conditions": "exact count, must not move",
    "core.ensemble_members": "exact count, must not move",
    "induct.candidate_space": "exact count, must not move",
    "data.stream_decode_ms": "predict_csv_rows_per_s, ingest_rows_per_s (batch)",
    "data.csv_load_ms": "ingest_rows_per_s (batch)",
    "data.columnar_write_ms": "ingest_rows_per_s (batch)",
    "data.columnar_read_ms": "predict_pnc_rows_per_s (batch)",
    "rules.eval_batch_ms": "predict_pnc_rows_per_s (batch)",
    "core.predict_csv_ms": "predict_csv_rows_per_s (batch)",
    "core.predict_pnc_ms": "predict_pnc_rows_per_s (batch)",
    "core.model_load_ms": "predict_csv_rows_per_s, predict_pnc_rows_per_s (batch)",
    "core.serve_residual_ms": "predict_csv_rows_per_s (batch): residual row",
    "cli.process_ms": "predict_csv_rows_per_s (batch): residual row",
    "core.chunks": "exact count, must not move",
    "data.stream_decode_us": "direct_p50_ms, direct_max_ok_rps (online)",
    "rules.eval_batch_us": "direct_p50_ms, direct_max_ok_rps (online)",
    "core.predict_stream_us": "direct_p50_ms, direct_max_ok_rps (online)",
    "server.unloaded_ms": "direct_p50_ms (online)",
    "server.hop_ms": "direct_p50_ms (online)",
    "server.queue_ms": "direct_p50_ms, direct_tail_ms (online): residual row",
    "shard.proxy_hop_ms": "routed_p50_ms, routed_max_ok_rps (online)",
    "gen.lag_ms": "validity check of the load generator",
    "server.requests": "reconciles with requests sent",
    "server.shed": "direct_max_ok_rps (online)",
    "server.io_retries": "direct_tail_ms (online)",
    "shard.failovers": "routed_tail_ms (online)",
    "shard.proxy_io_retries": "routed_tail_ms (online)",
    "trace.overhead_us": "cost of one traced call (traced minus untraced)",
}
for _name in ("train_s", "train_boosted_s", "predict_csv_rows_per_s", "predict_pnc_rows_per_s", "ingest_rows_per_s",
              "direct_p50_ms", "direct_tail_ms", "routed_p50_ms", "routed_tail_ms",
              "routed_max_ok_rps"):
    LAYER_MOVES[_name] = "user-visible figure without a bound: its 10-seed spread exceeded 0.25"
# The user-visible figures, printed together by the report. BENCHMARK.json
# declares some of them per-layer, without a bound (see LAYER_MOVES).
FIGURES = ("setup_s", "peak_rss_mb", "ok_share", "train_s", "train_boosted_s", "r2l_test_f",
           "predict_csv_rows_per_s", "predict_pnc_rows_per_s", "ingest_rows_per_s",
           "direct_p50_ms", "direct_tail_ms", "direct_max_ok_rps",
           "routed_p50_ms", "routed_tail_ms", "routed_max_ok_rps")


class BuildError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(xs):
    return statistics.median(xs) if xs else None


def tail(samples):
    """The highest percentile with TAIL_BEYOND samples beyond it, and
    that percentile."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None, None
    ordered = sorted(samples)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# ---------------------------------------------------------------------------
# Build and fingerprint
# ---------------------------------------------------------------------------

def build():
    for need in ("dune-project", os.path.join("bin", "pnrule_cli.ml"), "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BuildError(f"{need} not found: run from the root of a pnrule checkout")
    if shutil.which("dune") is None:
        raise BuildError("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "bin/pnrule_cli.exe", "perfbench/probe/probe.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=840)
    if proc.returncode != 0:
        raise BuildError("dune build failed:\n" + proc.stdout.decode(errors="replace")[-4000:])


def source_digest():
    h = hashlib.sha256()
    for top in ("dune-project", "bin", "lib", "perfbench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, subdirs, files in os.walk(base)
            if not os.path.relpath(d, ROOT).startswith(os.path.join("perfbench", "_work"))
            for f in files)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(args):
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    try:
        ocaml = subprocess.run(["ocamlopt", "-version"], capture_output=True, text=True).stdout.strip()
    except OSError:
        ocaml = None
    return {
        "commit": commit, "source_sha256": source_digest(), "nproc": NPROC,
        "PNRULE_DOMAINS": ENV["PNRULE_DOMAINS"],
        "ocaml": ocaml or None, "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "rows_per_feed": ROWS,
        "slice_rows": SLICE_ROWS, "rate_ladder": list(LADDER),
        "connections": CONNECTIONS, "latency_limit_ms": LATENCY_LIMIT_MS,
    }


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

# Children to stop if the run is cut short (see watchdog()).
LIVE = set()


def watchdog(seconds):
    """Stops every child and exits non-zero if the run overstays or is
    told to stop."""
    def expire(signum, frame):
        log(f"perfbench: stopping on signal {signum}")
        for child in list(LIVE):
            child.kill()
        os._exit(3)
    for sig in (signal.SIGALRM, signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, expire)
    signal.alarm(seconds)


class Result:
    def __init__(self, wall, code, rss_mb, out, err):
        self.wall, self.code, self.rss_mb, self.out, self.err = wall, code, rss_mb, out, err


def run_cli(argv, timeout=120):
    """Runs one CLI command; returns its wall time and peak RSS."""
    out_path, err_path = os.path.join(WORK, "cmd.out"), os.path.join(WORK, "cmd.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ENV, cwd=ROOT)
        LIVE.add(proc)
        box = {}

        def reap():
            _, status, usage = os.wait4(proc.pid, 0)
            box["wall"] = time.perf_counter() - t0
            box["status"], box["usage"] = status, usage

        waiter = threading.Thread(target=reap)
        waiter.start()
        waiter.join(timeout)
        if waiter.is_alive():
            proc.kill()
            waiter.join()
        LIVE.discard(proc)
        if "status" not in box or waiter.is_alive():
            raise RuntimeError(f"{argv[1]} timed out after {timeout}s")
        proc.returncode = os.waitstatus_to_exitcode(box["status"])
    with open(out_path, errors="replace") as f:
        out_text = f.read()
    with open(err_path, errors="replace") as f:
        err_text = f.read()
    return Result(box["wall"], proc.returncode, box["usage"].ru_maxrss / 1024.0, out_text, err_text)


def run_probe(*argv, timeout=120):
    r = run_cli([PROBE, *argv], timeout=timeout)
    if r.code != 0:
        raise RuntimeError(f"probe {argv[0]} exited {r.code}: {r.err.strip()[-500:]}")
    return json.loads(r.out.strip().splitlines()[-1])


def vm_hwm_mb(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid):
    kids = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as f:
                kids += [int(x) for x in f.read().split()]
    except OSError:
        pass
    return kids


class Daemon:
    """A `pnrule serve` or `pnrule shard` process on an ephemeral port."""

    def __init__(self, argv, name):
        self.name = name
        self.log_path = os.path.join(WORK, f"{name}.log")
        self.log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(argv, stdout=self.log, stderr=subprocess.STDOUT,
                                     env=ENV, cwd=ROOT)
        LIVE.add(self)
        self.port = None
        self.backends = []
        deadline = time.monotonic() + 30
        while self.port is None:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"{name} did not start: {self.read_log()[-500:]}")
            m = re.search(r"listening on http://[0-9.]+:(\d+)/", self.read_log())
            if m:
                self.port = int(m.group(1))
            else:
                time.sleep(0.01)

    def read_log(self):
        with open(self.log_path, errors="replace") as f:
            return f.read()

    def wait_healthy(self, expect=b"ok"):
        # The router gives a starting backend 30s before it respawns it.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                status, body = get(self.port, "/healthz")
                if status == 200 and body.startswith(expect):
                    self.backends = child_pids(self.proc.pid)
                    return
            except (OSError, http.client.HTTPException):
                pass
            time.sleep(0.02)
        raise RuntimeError(f"{self.name} never became healthy: {self.read_log()[-300:]}")

    def peak_rss_mb(self):
        return vm_hwm_mb(self.proc.pid) + sum(vm_hwm_mb(p) for p in self.backends)

    def stop(self):
        """SIGTERM drains the daemon (the router rolls it across its
        backends); anything still up after 10s is killed."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(10)
            except subprocess.TimeoutExpired:
                pass
        self.kill()
        self.log.close()
        LIVE.discard(self)

    def kill(self):
        for pid in [self.proc.pid] + self.backends:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.proc.wait()


# ---------------------------------------------------------------------------
# HTTP client
# ---------------------------------------------------------------------------

def connect(port):
    """One keep-alive HTTP/1.1 connection (http.client sets TCP_NODELAY)."""
    return http.client.HTTPConnection("127.0.0.1", port, timeout=30)


def request(conn, method, path, body=None):
    conn.request(method, path, body, {"Content-Type": "text/csv"})
    resp = conn.getresponse()
    return resp.status, resp.read()


def get(port, path):
    conn = connect(port)
    try:
        return request(conn, "GET", path)
    finally:
        conn.close()


def scrape(port):
    """Parses /metrics into {series: value}."""
    _, body = get(port, "/metrics")
    values = {}
    for line in body.decode().splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


def counter_delta(before, after, prefix):
    return sum(v - before.get(k, 0.0) for k, v in after.items() if k.startswith(prefix))


# ---------------------------------------------------------------------------
# Open-loop load generator
# ---------------------------------------------------------------------------

class Slices:
    """Distinct 16-row request bodies cut from the test feed, with the
    reference response each must produce."""

    def __init__(self):
        with open(os.path.join(WORK, "test.csv"), "rb") as f:
            lines = f.read().split(b"\n")
        with open(os.path.join(WORK, "reference.csv"), "rb") as f:
            ref = f.read().split(b"\n")
        header, rows, ref_head, preds = lines[0], lines[1:1 + ROWS], ref[0], ref[1:1 + ROWS]
        self.n = ROWS // SLICE_ROWS
        self.bodies = [b"\n".join([header] + rows[k * SLICE_ROWS:(k + 1) * SLICE_ROWS]) + b"\n"
                       for k in range(self.n)]
        self.expected = [b"\n".join([ref_head] + preds[k * SLICE_ROWS:(k + 1) * SLICE_ROWS]) + b"\n"
                         for k in range(self.n)]
        self.next = 0
        self.lock = threading.Lock()

    def take(self):
        with self.lock:
            k = self.next % self.n
            self.next += 1
        return k


def open_loop_step(port, rate, windows, slices, rng):
    """Poisson arrivals at `rate` for `windows` x WINDOW_S seconds over
    CONNECTIONS keep-alive connections. Each request is timed from when
    it was due. The step ends early when its backlog grows, or, past the
    first rung, once TAIL_BEYOND + 1 requests missed the latency limit
    (it can no longer be met)."""
    due, t = [], rng.expovariate(rate)
    while t < windows * WINDOW_S:
        due.append(t)
        t += rng.expovariate(rate)
    state = {"next": 0, "backlog_grew": False, "late": 0}
    lock = threading.Lock()
    records = []
    give_up = rate != LADDER[0]
    start = time.perf_counter() + 0.02

    def worker():
        conn = connect(port)
        free_since = time.perf_counter()
        try:
            while True:
                with lock:
                    if (state["backlog_grew"] or state["next"] >= len(due)
                            or (give_up and state["late"] > TAIL_BEYOND)):
                        return
                    i = state["next"]
                    state["next"] += 1
                at = start + due[i]
                now = time.perf_counter()
                if now < at:
                    time.sleep(at - now)
                sent = time.perf_counter()
                if sent - at > BACKLOG_ABORT_S:
                    state["backlog_grew"] = True
                    return
                k = slices.take()
                outcome = "ok"
                try:
                    status, body = request(conn, "POST", "/predict", slices.bodies[k])
                    if status in (429, 503):
                        outcome = "refused"
                    elif status != 200:
                        outcome = "failed"
                    elif body != slices.expected[k]:
                        outcome = "mismatched"
                except (OSError, http.client.HTTPException):
                    outcome = "failed"
                    conn.close()
                done = time.perf_counter()
                lag = sent - max(at, free_since)
                free_since = done
                with lock:
                    records.append((int(due[i] // WINDOW_S), (done - at) * 1e3, lag * 1e3, outcome))
                    state["late"] += (done - at) * 1e3 > LATENCY_LIMIT_MS
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    ok = [r for r in records if r[3] == "ok"]
    # p50 and tail are taken per window and reported as the median window,
    # so one disturbed window moves neither.
    windowed = [[r[1] for r in ok if r[0] == w] for w in range(windows)]
    tails = [tail(w) for w in windowed]
    tails = [tv for tv in tails if tv[0] is not None]
    lags = sorted(r[2] for r in records)
    step = {
        "rate": rate, "scheduled": len(due), "sent": len(records),
        **{o: sum(1 for r in records if r[3] == o) for o in ("ok", "failed", "refused", "mismatched")},
        "late": state["late"], "backlog_grew": state["backlog_grew"],
        "p50_ms": median([median(w) for w in windowed if w]),
        "tail_ms": median([tv[0] for tv in tails]) if len(tails) == windows else None,
        "tail_pct": median([tv[1] for tv in tails]) if tails else None,
        "tail_n": len(ok) // max(1, windows),
        "lag_p99_ms": lags[int(0.99 * (len(lags) - 1))] if lags else None,
    }
    step["met"] = (not step["backlog_grew"] and step["sent"] == step["ok"] == len(due)
                   and step["tail_ms"] is not None and step["tail_ms"] <= LATENCY_LIMIT_MS)
    return step


def closed_loop(port, slices, n):
    """Single-connection closed loop: latency with nothing queued."""
    conn, lat, bad = connect(port), [], 0
    try:
        for _ in range(n):
            k = slices.take()
            t0 = time.perf_counter()
            status, body = request(conn, "POST", "/predict", slices.bodies[k])
            lat.append((time.perf_counter() - t0) * 1e3)
            bad += status != 200 or body != slices.expected[k]
    finally:
        conn.close()
    return median(lat), bad


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

class Run:
    def __init__(self, args):
        self.args = args
        self.primary = args.workload
        self.metrics = {}
        self.layers = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.records = {"steps": []}
        self.rss = {w: 0.0 for w in WORKLOADS}
        self.rng = random.Random(args.seed)
        self.started = time.monotonic()

    # -- bookkeeping --------------------------------------------------------

    def op(self, ok, what):
        """Counts one operation; a failed one records its reason."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def ops(self, n, bad, what):
        """Counts `n` operations of which `bad` failed."""
        self.attempted += n
        self.failed += bad
        if bad:
            self.failures.append(what)

    def stage(self, name, fn):
        try:
            fn()
        except Exception as e:  # isolate: record, leave metrics null, go on
            self.op(False, f"{name}: {type(e).__name__}: {e}")

    def cli(self, stage, argv):
        r = run_cli([CLI, *argv])
        self.rss[stage] = max(self.rss[stage], r.rss_mb)
        if not self.op(r.code == 0, f"pnrule {argv[0]} exited {r.code}: {r.err.strip()[-300:]}"):
            raise RuntimeError(f"pnrule {argv[0]} failed")
        return r

    def repeat(self, stage, once, base):
        """Runs `base` passes of a stage. The workload's own stage runs one
        more, and is passed again until --seconds of it have been
        measured."""
        spent, n = 0.0, 0
        while True:
            t0 = time.perf_counter()
            once()
            spent += time.perf_counter() - t0
            n += 1
            if stage != self.primary:
                if n >= base:
                    return n
            elif n > base and (
                    spent >= self.args.seconds
                    or time.monotonic() - self.started + spent / n > RUN_BUDGET_S):
                return n

    # -- stages -------------------------------------------------------------

    def setup(self):
        os.makedirs(WORK, exist_ok=True)
        out = run_probe("gen", "--seed", str(self.args.seed), "--rows", str(ROWS), "--dir", WORK)
        self.records["setup_s"] = out["setup_s"]
        self.metrics["setup_s"] = median(out["setup_s"])

    def train(self):
        """Training time follows the number of rules the draw yields (7 to
        14 P-rules on 100k rows), so each pass trains two feeds drawn from
        the seed and a figure is the mean of the two feeds' medians. Feed
        A's models are the ones checked, served and traced. Where a feed is
        trained more than once (the train workload), the models must be
        identical."""
        w = WORK
        feeds = [("train.pnc", "model.pn", "boosted.pn"),
                 ("train-b.pnc", "model-b.pn", "boosted-b.pn")]
        walls, boosted_walls = [[], []], [[], []]
        digests, printed = [set(), set()], [set(), set()]

        def once():
            for i, names in enumerate(feeds):
                data, model, boosted = (os.path.join(w, f) for f in names)
                r = self.cli("train", ["train", "--target", TARGET, data, "-o", model])
                walls[i].append(r.wall)
                m = re.search(r"\((\d+) P-rules, (\d+) N-rules\)", r.out)
                printed[i].add(m.groups() if m else None)
                b = self.cli("train", ["train", "--target", TARGET, *BOOSTED, data, "-o", boosted])
                boosted_walls[i].append(b.wall)
                digests[i].add((file_digest(model), file_digest(boosted)))

        passes = self.repeat("train", once, TRAIN_PASSES)
        self.records["train_walls_s"] = {"a": walls[0], "b": walls[1]}
        self.records["train_boosted_walls_s"] = {"a": boosted_walls[0], "b": boosted_walls[1]}
        if passes > 1:
            for i in (0, 1):
                self.op(len(digests[i]) == 1, f"train: repeated training on {feeds[i][0]} changed the models")
        model, boosted = (os.path.join(w, f) for f in feeds[0][1:])
        check = run_probe("check", "--dir", w, "--model", model, "--boosted", boosted)
        self.records["check"] = check
        counts = (str(check["p_rules"]), str(check["n_rules"]))
        self.op(printed[0] == {counts}, f"train: CLI printed rule counts {printed[0]}, model file has {counts}")
        self.op(all(p and int(p[0]) >= 1 for p in printed[1]), f"train: feed B rule counts {printed[1]}")
        self.op(check["p_rules"] >= 1 and check["members"] >= 1, "train: empty model")
        self.op(check["rows_out"] == ROWS, f"train: reference scored {check['rows_out']} rows")
        self.metrics["train_s"] = statistics.mean(median(x) for x in walls)
        self.metrics["train_boosted_s"] = statistics.mean(median(x) for x in boosted_walls)
        self.reference_f = check["f"]

    def batch(self):
        w = WORK
        model = os.path.join(w, "model.pn")
        with open(os.path.join(w, "reference.csv"), "rb") as f:
            reference = f.read()
        csv_walls, pnc_walls, ingest_walls, fs = [], [], [], set()

        def predict(src, walls):
            out = os.path.join(w, "predictions.csv")
            r = self.cli("batch", ["predict", model, os.path.join(w, src), "-o", out])
            walls.append(r.wall)
            with open(out, "rb") as f:
                self.op(f.read() == reference, f"batch: predictions on {src} differ from the reference")
            m = re.search(r"F=([0-9.]+)", r.err)
            fs.add(m.group(1) if m else None)

        def once():
            for _ in range(BATCH_ROUNDS):
                for _ in range(PNC_REPEATS):
                    predict("test.pnc", pnc_walls)
                predict("test.csv", csv_walls)
                r = self.cli("batch", ["ingest", os.path.join(w, "test.csv"), "-o", os.path.join(w, "ingest.pnc")])
                ingest_walls.append(r.wall)
                self.op(f"wrote {ROWS} records" in r.out, f"batch: ingest reported {r.out.strip()!r}")

        self.repeat("batch", once, BATCH_PASSES)
        self.records["batch_walls_s"] = {"csv": csv_walls, "pnc": pnc_walls, "ingest": ingest_walls}
        self.op(fs == {f"{self.reference_f:.4f}"},
                f"batch: CLI F-measures {fs} differ from the reference {self.reference_f:.4f}")
        self.metrics["r2l_test_f"] = self.reference_f
        # Rows per second over all of the run's commands of a kind: they
        # are short, and their times are bimodal, so a median jumps
        # between the modes where the total does not.
        for name, walls in (("predict_csv", csv_walls), ("predict_pnc", pnc_walls),
                            ("ingest", ingest_walls)):
            self.metrics[f"{name}_rows_per_s"] = ROWS * len(walls) / sum(walls)
        self.cli_predict_csv_s = statistics.mean(csv_walls)

    def online(self):
        reg = os.path.join(WORK, "registry")
        shutil.rmtree(reg, ignore_errors=True)
        os.makedirs(reg)
        shutil.copy(os.path.join(WORK, "model.pn"), os.path.join(reg, "gen-1.model"))
        with open(os.path.join(reg, "CURRENT"), "w") as f:
            f.write("gen-1.model\n")
        self.slices = Slices()
        domains = str(NPROC)
        self.stage("online.direct", lambda: self.target(
            "direct", [CLI, "serve", "--registry", reg, "--domains", domains, "--port", "0"], b"ok"))
        # The routed figures are per-layer metrics, so an untraced run of
        # another workload has no use for them.
        if self.primary == "online" or self.args.trace:
            self.stage("online.routed", lambda: self.target(
                    "routed", [CLI, "shard", "--registry", reg, "--backends", "1", "--domains", domains,
                           "--port", "0"], b"ok 1/1"))

    def target(self, name, argv, healthy):
        daemon = Daemon(argv, name)
        try:
            daemon.wait_healthy(healthy)
            # Warm-up, then (traced runs) the unloaded closed loop.
            for n in (WARMUP_REQUESTS, UNLOADED_REQUESTS if self.args.trace else 0):
                if n:
                    p50, bad = closed_loop(daemon.port, self.slices, n)
                    self.ops(n, bad, f"online.{name}: {bad} closed-loop responses wrong")
            if self.args.trace:
                self.records[f"{name}_unloaded_ms"] = p50
            before = scrape(daemon.port)
            steps = self.ladder(name, daemon.port)
            sent = sum(s["sent"] for s in steps)
            # A counter may lag the response it counts by a moment.
            settle = time.monotonic() + 2.0
            while True:
                after = scrape(daemon.port)
                served = counter_delta(before, after, 'pnrule_requests_total{endpoint="predict"}')
                routed = counter_delta(before, after, 'pnrule_router_requests_total{endpoint="predict"}')
                if (served >= sent and (name == "direct" or routed >= sent)) or time.monotonic() > settle:
                    break
                time.sleep(0.02)
        finally:
            self.rss["online"] = max(self.rss["online"], daemon.peak_rss_mb())
            daemon.stop()
        self.op(served == sent, f"online.{name}: sent {sent} but the daemon counted {served}")
        if name == "routed":
            self.op(routed == sent, f"online.routed: sent {sent} but the router counted {routed}")
            self.counters_routed = {
                "shard.failovers": counter_delta(before, after, "pnrule_router_failovers_total"),
                "shard.proxy_io_retries": counter_delta(before, after, "pnrule_router_proxy_io_retries_total"),
            }
        else:
            self.counters_direct = {
                "server.requests": served,
                "server.shed": counter_delta(before, after, "pnrule_shed_total"),
                "server.io_retries": counter_delta(before, after, "pnrule_io_retries_total"),
            }
        first = steps[0]
        self.metrics[f"{name}_p50_ms"] = first["p50_ms"]
        self.metrics[f"{name}_tail_ms"] = first["tail_ms"]
        met = [s["rate"] for s in steps if s["met"]]
        self.metrics[f"{name}_max_ok_rps"] = float(max(met)) if met else 0.0

    def ladder(self, name, port):
        """Climbs the rate ladder until a rung is not met. In the online
        workload the first rung is lengthened so that the two targets
        together measure --seconds of it."""
        first = BASE_WINDOWS
        if self.primary == "online":
            first = max(first, min(MAX_WINDOWS, math.ceil(self.args.seconds / (2 * WINDOW_S))))
        steps = []
        for rate in LADDER:
            windows = first if rate == LADDER[0] else UPPER_WINDOWS
            step = open_loop_step(port, rate, windows, self.slices, self.rng)
            step["target"] = name
            steps.append(step)
            self.records["steps"].append(step)
            bad = step["failed"] + step["refused"] + step["mismatched"]
            self.ops(step["sent"], bad, f"online.{name} @{rate}/s: {bad} failed, refused or mismatched")
            if rate == LADDER[0]:
                lag = step["lag_p99_ms"]
                self.op(lag is not None and lag <= MAX_GEN_LAG_MS,
                        f"online.{name}: generator sent {lag} ms late at p99, so the step is invalid")
            if not step["met"]:
                break
            time.sleep(0.1)
        return steps

    # -- per-layer ------------------------------------------------------------

    def trace(self):
        out = {}
        for stage in ("train", "batch", "ingest", "online"):
            part = run_probe("trace", "--stage", stage, "--dir", WORK,
                             "--model", os.path.join(WORK, "model.pn"),
                             "--boosted", os.path.join(WORK, "boosted.pn"),
                             "--spans", os.path.join(WORK, f"spans-{stage}.json"),
                             "--slice-rows", str(SLICE_ROWS))
            for f in part.pop("failures"):
                self.op(False, f"trace.{stage}: {f}")
            self.attempted += 1
            out.update(part)
        for k in ("data.csv_rows", "data.ingest_rows"):
            self.op(out.get(k) == ROWS, f"trace: {k} = {out.get(k)}, expected {ROWS}")
        L = self.layers
        for k, v in out.items():
            if k in PER_LAYER:
                L[k] = v
        L["cli.train_residual_ms"] = (median(self.records["train_walls_s"]["a"]) - out["ledger.train_in_process_s"]) * 1e3
        L["cli.process_ms"] = self.cli_predict_csv_s * 1e3 - L["core.model_load_ms"] - L["core.predict_csv_ms"]

    def online_layers(self):
        L = self.layers
        unloaded = self.records.get("direct_unloaded_ms")
        routed_unloaded = self.records.get("routed_unloaded_ms")
        if unloaded is not None and "core.predict_stream_us" in L:
            L["server.unloaded_ms"] = unloaded
            L["server.hop_ms"] = unloaded - L["core.predict_stream_us"] / 1e3
        if unloaded is not None and self.metrics.get("direct_p50_ms") is not None:
            L["server.queue_ms"] = self.metrics["direct_p50_ms"] - unloaded
        if unloaded is not None and routed_unloaded is not None:
            L["shard.proxy_hop_ms"] = routed_unloaded - unloaded
        lags = [s["lag_p99_ms"] for s in self.records["steps"] if s["lag_p99_ms"] is not None]
        if lags:
            L["gen.lag_ms"] = max(lags)
        L.update(getattr(self, "counters_direct", {}))
        L.update(getattr(self, "counters_routed", {}))

    # -- the run ------------------------------------------------------------

    def execute(self):
        self.stage("setup", self.setup)
        if self.failed:
            return
        self.stage("train", self.train)
        if self.metrics.get("train_s") is None:
            return
        self.stage("batch", self.batch)
        self.stage("online", self.online)
        self.metrics["peak_rss_mb"] = self.rss[self.primary] or None
        if self.args.trace:
            self.stage("trace", self.trace)
            self.online_layers()

    def result(self):
        self.metrics["ok_share"] = (self.attempted - self.failed) / self.attempted if self.attempted else None
        if self.args.trace:
            names, units, values = PER_LAYER, PER_LAYER, dict(self.metrics, **self.layers)
        else:
            names, units, values = END_TO_END, END_TO_END, self.metrics
        metrics = {k: {"value": values.get(k), "unit": units[k]} for k in names}
        missing = [k for k, v in metrics.items() if v["value"] is None]
        if missing:
            self.failures.append("no value for " + ", ".join(missing))
        return {
            "correct": self.failed == 0 and not missing,
            "attempted": max(1, self.attempted),
            "failed": self.failed + (1 if missing and self.failed == 0 else 0),
            "metrics": metrics,
        }


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def fmt(v):
    return "null" if v is None else f"{v:.4g}"


def print_report(run, fp):
    m, L, rec = run.metrics, run.layers, run.records
    print(f"fingerprint: {json.dumps(fp, sort_keys=True)}")
    for name in FIGURES:
        unit, gated = (END_TO_END[name], "") if name in END_TO_END else (PER_LAYER[name], "  (no bound)")
        print(f"  {name:<24} {fmt(m.get(name)):>12} {unit}{gated}")
    for s in rec["steps"]:
        print("  {target:<6} {rate:>5}/s sent={sent} ok={ok} failed={failed} refused={refused} "
              "mismatched={mismatched} late={late} backlog_grew={backlog_grew} met={met} "
              "p50={p50} tail=p{pct}:{tail} (n={n}) lag_p99={lag}".format(
                  p50=fmt(s["p50_ms"]), pct=fmt(s["tail_pct"]), tail=fmt(s["tail_ms"]),
                  n=s["tail_n"], lag=fmt(s["lag_p99_ms"]), **s))
    if run.args.trace and L:
        print_ledgers(m, L, rec)
    for f in run.failures:
        print(f"  FAILED: {f}")


def ledger(title, total_name, total, rows, residual):
    """Prints `rows` and the named residual row, which together sum to
    `total` (all in ms)."""
    rest = total - sum(v for _, v in rows)
    print(f"ledger {title}: {total_name} = {fmt(total)} ms")
    for name, v in rows + [(residual, rest)]:
        print(f"    {name:<30} {fmt(v):>10} ms {100.0 * v / total:6.1f}%")


def print_ledgers(m, L, rec):
    g = L.get
    walls = rec["batch_walls_s"]
    try:
        ledger("train", "feed A train wall", median(rec["train_walls_s"]["a"]) * 1e3, [
            ("data.columnar_load_ms", g("data.columnar_load_ms")),
            ("data.sort_cache_ms", g("data.sort_cache_ms")),
            ("core.p_phase_s", g("core.p_phase_s") * 1e3),
            ("core.n_phase_s", g("core.n_phase_s") * 1e3),
            ("core.serialize_ms", g("core.serialize_ms")),
        ], "cli.train_residual_ms")
        ledger("train (boosted)", "feed A boosted wall", median(rec["train_boosted_walls_s"]["a"]) * 1e3, [
            ("data.columnar_load_ms", g("data.columnar_load_ms")),
            ("data.sort_cache_ms", g("data.sort_cache_ms")),
            ("core.ensemble_train_s", g("core.ensemble_train_s") * 1e3),
            ("core.serialize_ms", g("core.serialize_ms")),
        ], "residual (CLI process)")
        ledger("batch (CSV)", "predict wall", statistics.mean(walls["csv"]) * 1e3, [
            ("core.model_load_ms", g("core.model_load_ms")),
            ("data.stream_decode_ms", g("data.stream_decode_ms")),
            ("rules.eval_batch_ms", g("rules.eval_batch_ms")),
            ("core.serve_residual_ms", g("core.serve_residual_ms")),
        ], "cli.process_ms")
        ledger("batch (.pnc)", "predict wall", statistics.mean(walls["pnc"]) * 1e3, [
            ("core.model_load_ms", g("core.model_load_ms")),
            ("data.columnar_read_ms", g("data.columnar_read_ms")),
            ("rules.eval_batch_ms", g("rules.eval_batch_ms")),
            ("predict_pnc - read - eval", g("core.predict_pnc_ms") - g("data.columnar_read_ms")
             - g("rules.eval_batch_ms")),
        ], "residual (CLI process)")
        ledger("batch (ingest)", "ingest wall", statistics.mean(walls["ingest"]) * 1e3, [
            ("data.csv_load_ms", g("data.csv_load_ms")),
            ("data.columnar_write_ms", g("data.columnar_write_ms")),
        ], "residual (CLI process)")
        ledger("online (direct)", "direct_p50_ms", m["direct_p50_ms"], [
            ("core.predict_stream_us", g("core.predict_stream_us") / 1e3),
            ("server.hop_ms", g("server.hop_ms")),
        ], "server.queue_ms")
        ledger("online (routed)", "routed_p50_ms", m["routed_p50_ms"], [
            ("server.unloaded_ms", g("server.unloaded_ms")),
            ("shard.proxy_hop_ms", g("shard.proxy_hop_ms")),
        ], "residual (router queueing)")
        print(f"    inside core.predict_stream: data.stream_decode_us={fmt(g('data.stream_decode_us'))}, "
              f"rules.eval_batch_us={fmt(g('rules.eval_batch_us'))}")
        print(f"    tracing overhead: trace.overhead_us={fmt(g('trace.overhead_us'))} per traced call "
              "(traced minus untraced pass of the same calls)")
    except (TypeError, KeyError) as e:
        print(f"  ledger incomplete: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build()
    except (BuildError, subprocess.TimeoutExpired, OSError) as e:
        log(f"perfbench: {e}")
        return 2
    watchdog(RUN_LIMIT_S)
    os.makedirs(WORK, exist_ok=True)
    fp = fingerprint(args)
    run = Run(args)
    run.execute()
    result = run.result()
    print_report(run, fp)
    with open(os.path.join(WORK, f"result-{args.workload}-{args.seed}-{args.trace}.json"), "w") as f:
        json.dump({"fingerprint": fp, "result": result, "records": run.records,
                   "layers": run.layers, "failures": run.failures,
                   "layer_moves": LAYER_MOVES}, f, indent=1)
    for name in ("train.pnc", "train-b.pnc", "test.pnc", "test.csv", "ingest.pnc", "trace-ingest.pnc"):
        try:
            os.remove(os.path.join(WORK, name))
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
