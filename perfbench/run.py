#!/usr/bin/env python3
"""perfbench: the dmnet benchmark (see perfbench/README.md).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload replay-drift --seed 1 --seconds 20 --trace 0

Workloads: replay-drift, replay-churn, serve-durable. The script builds
dmnet and the benchmark driver (perfbench/drv.ml) with dune into
.bench_build, writes the seeded inputs into .bench_work, prints their
digests, runs the workload, checks the outputs, and prints one metric
per line followed by a final JSON line with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones.
"""

import argparse
import gc
import hashlib
import json
import os
import re
import select
import shutil
import socket
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402

BUILD = ".bench_build"
WORK = ".bench_work"
DMNET = os.path.join(BUILD, "default", "bin", "dmnet.exe")
DRV = os.path.join(BUILD, "default", "perfbench", "drv.exe")

# ROADMAP baseline instance shape; --instance-seed picks the instance.
INSTANCE = ["-n", "100", "--objects", "12", "--topology", "geometric", "--workload", "zipf"]
DEFAULT_INSTANCE_SEED = 3
# Seed later PRs use to re-check a claim, never used while tuning.
HELD_OUT_SEED = 7919
EPOCH = 1000

REPLAY = {
    "replay-drift": {"scenario": "drifting", "events": 100000, "phases": 10},
    "replay-churn": {"scenario": "diurnal", "events": 50000, "phases": 12},
}
WRITE_FRACTION = 0.2
PROCESSES = 3  # driver processes per untraced replay run
SETUPS = 5  # set-ups timed in each of them
# The reference kernel's time (drv.ml, [reference_kernel]) on a quiet
# host of the 2.0 GHz box the benchmark was tuned on. Replay and set-up
# times are rescaled to this host speed (harness.at_reference).
REF_S = 0.0015

# serve-durable: three fixed offered rates (requests/s). The middle one
# carries the commit-latency samples and runs MID_EPOCHS epochs.
RATES = (25000, 50000, 75000)
MID_EPOCHS = 1000
# The top rate runs a fixed, short span: checkpoints grow with uptime,
# so a longer span would judge a different daemon.
HIGH_EPOCHS = 375
LOW_EPOCHS_MIN = 100
# closed-loop capacity runs: epochs per daemon, requests in flight, and
# the least gap between stats probes. Each probe costs the daemon CPU
# time, so the probes are few and their number barely follows the wall
# time; the window holds enough work to outlast the gap many times.
CAPACITY_EPOCHS = 500
WINDOW = 12 * EPOCH
CAPACITY_PROBE_GAP_S = 0.01
# reference kernel runs timed around each daemon's set-up
KERNEL_REPS = 10
CHUNK = 50  # requests handed to the socket at once; divides EPOCH
PROBE_GAP_S = 0.001
LIMITS = {"late_p99_ms": 5.0, "commit_p99_ms": 100.0, "backlog_slack": 2 * EPOCH}
EXTRA_SETUPS = 5

END_TO_END = [
    ("setup_s", "s"),
    ("events_per_s", "events/s"),
    ("total_cost", "cost"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("trace.parse_s", "s"),
    ("trace.items", "count"),
    ("engine.step_begin_s", "s"),
    ("engine.solve_pending_s", "s"),
    ("engine.step_commit_s", "s"),
    ("engine.finish_write_s", "s"),
    ("engine.epochs", "count"),
    ("engine.solver_calls", "count"),
    ("engine.solve_ms_per_call", "ms"),
    ("engine.solve_skip_frac", "ratio"),
    ("engine.solve_fallbacks", "count"),
    ("approx.phase1_ms", "ms"),
    ("radii.compute_ms", "ms"),
    ("approx.phase23_ms", "ms"),
    ("instance.of_metric_ms", "ms"),
    ("churn.apply_us", "us"),
    ("churn.events", "count"),
    ("server.push_line_us", "us"),
    ("server.maybe_step_ms", "ms"),
    ("server.shed", "count"),
    ("server.queue_depth_max", "count"),
    ("journal.add_us", "us"),
    ("journal.sync_ms", "ms"),
    ("journal.bytes_peak", "bytes"),
    ("ckpt.bytes_first", "bytes"),
    ("ckpt.bytes_last", "bytes"),
    ("ckpt.serialize_ms", "ms"),
    ("ckpt.save_ms", "ms"),
    ("layers.coverage_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("serve.max_rate_eps", "events/s"),
    ("commit.p50_ms", "ms"),
    ("commit.p95_ms", "ms"),
    ("commit.p99_ms", "ms"),
    ("gen.late_p99_ms", "ms"),
    ("failed_frac", "ratio"),
]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


def sha(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def run(cmd, **kw):
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **kw)
    if r.returncode != 0:
        raise BenchError("%s exited %d: %s" % (" ".join(cmd), r.returncode, r.stderr.strip()[-800:]))
    return r.stdout


def drv(*args):
    out = run([DRV] + [str(a) for a in args])
    return json.loads(out.strip().splitlines()[-1])


def build():
    for need in ("dune-project", "bin/dmnet.ml", "lib/engine/engine.ml", "perfbench/drv.ml"):
        if not os.path.exists(need):
            raise BenchError("not a dmnet source checkout: %s is missing" % need)
    # no shared dune cache: the build reads and writes only this checkout
    run(["dune", "build", "--root", ".", "--profile", "release", "--build-dir", BUILD,
         "--cache=disabled", "bin/dmnet.exe", "perfbench/drv.exe"])


def make_instance(work, seed):
    path = os.path.join(work, "inst.dmn")
    run([DMNET, "gen"] + INSTANCE + ["--seed", str(seed), "-o", path])
    return path


def make_trace(work, inst, scenario, events, phases, seed):
    path = os.path.join(work, scenario + ".trace")
    drv("gen-trace", "--inst", inst, "--scenario", scenario, "--events", events,
        "--phases", phases, "--write-fraction", WRITE_FRACTION, "--seed", seed, "--out", path)
    return path


def cli_replay(work, inst, trace):
    """The correctness reference: dmnet replay --trace at the CLI defaults."""
    out = os.path.join(work, "cli.json")
    run([DMNET, "replay", inst, "--trace", trace, "--domains", "1", "--metrics-out", out])
    return hashlib.md5(open(out, "rb").read()).hexdigest()


def tail(metrics, commit_ms):
    """Log per-epoch commit latency and put it into the per-layer metrics."""
    ps = [harness.percentile(commit_ms, p) for p in (50, 95, 99)]
    log("commit latency over %d epochs: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms"
        % tuple([len(commit_ms)] + ps))
    metrics["commit.p50_ms"], metrics["commit.p95_ms"], metrics["commit.p99_ms"] = ps


# ---------- replay workloads ----------

def replay_workload(work, inst, trace, seconds, traced):
    ref = cli_replay(work, inst, trace)
    log("digest dmnet-replay-metrics %s" % ref)
    out = os.path.join(work, "drv.json")
    if not traced:
        # the medians pool several driver processes, so one process's
        # heap layout or one noisy spell moves them less
        parts = [drv("replay", "--inst", inst, "--trace", trace, "--seconds", seconds / PROCESSES,
                     "--setups", SETUPS, "--metrics-out", out) for _ in range(PROCESSES)]
        r = {k: sum((p[k] for p in parts), [])
             for k in ("setup_s", "setup_kernel_s", "wall_s", "kernel_s", "commit_ms", "digests")}
        for k in ("requests", "total_cost", "solve_fallbacks"):
            r[k] = parts[0][k]
        r["vmhwm_kb"] = max(p["vmhwm_kb"] for p in parts)
    else:
        r = drv("traced", "--inst", inst, "--trace", trace, "--seconds", seconds,
                "--metrics-out", out, "--stride", 5)
    for d in r["digests"]:
        log("digest drv-metrics %s" % d)
    correct = all(d == ref for d in r["digests"])
    reps = len(r["digests"])
    attempted = r["requests"] * reps
    failed = r.get("solve_fallbacks", r.get("engine.solve_fallbacks", 0)) * reps
    if not correct:
        failed = attempted
    if not traced:
        log("%d replays, %d epoch commit samples (replay_events_per_s is events_per_s)"
            % (len(r["wall_s"]), len(r["commit_ms"])))
        log("wall-clock %.6g events/s and set-up %.4g s, reference kernel %.4g ms (medians)"
            % (statistics.median([r["requests"] / w for w in r["wall_s"]]),
               statistics.median(r["setup_s"]), 1000 * statistics.median(r["kernel_s"])))
        metrics = {
            "setup_s": statistics.median(
                [harness.at_reference(s, k, REF_S) for s, k in zip(r["setup_s"], r["setup_kernel_s"])]),
            "events_per_s": statistics.median(
                [r["requests"] / harness.at_reference(w, f, REF_S)
                 for w, f in zip(r["wall_s"], r["kernel_s"])]),
            "total_cost": r["total_cost"],
            "peak_rss_mb": r["vmhwm_kb"] / 1024,
        }
    else:
        layers = [r[k] for k in ("trace.parse_s", "engine.step_begin_s", "engine.solve_pending_s",
                                 "engine.step_commit_s", "engine.finish_write_s")]
        metrics = {k: r.get(k, 0) for k, _ in PER_LAYER}
        metrics["layers.coverage_frac"] = harness.coverage(layers, r["traced_wall_s"])
        metrics["trace.overhead_frac"] = harness.overhead(r["traced_wall_s"], r["plain_wall_s"])
        metrics["gen.late_p99_ms"] = 0.0
    tail(metrics if traced else {}, r["commit_ms"])
    return correct, attempted, failed, metrics


# ---------- serve-durable ----------

class Daemon:
    """One dmnet serve child on an AF_UNIX socket, journal and checkpoints in work."""

    def __init__(self, work, inst, tag, cpu=None, kernel=None):
        self.dir = os.path.join(work, tag)
        os.makedirs(self.dir)
        self.sock = os.path.join(self.dir, "s.sock")
        self.journal = os.path.join(self.dir, "journal")
        self.ckpt = os.path.join(self.dir, "ckpt")
        self.metrics = os.path.join(self.dir, "metrics.json")
        self.err = open(os.path.join(self.dir, "stderr"), "w")
        k0 = kernel.mean_s(KERNEL_REPS) if kernel else None
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [DMNET, "serve", inst, "--socket", self.sock, "--policy", "static",
             "--journal", self.journal, "--ckpt", self.ckpt, "--metrics-out", self.metrics,
             "--domains", "1"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=self.err)
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})
        self.ctl = None
        while self.ctl is None:
            if self.proc.poll() is not None:
                raise BenchError("dmnet serve exited %d at start" % self.proc.returncode)
            if time.perf_counter() - t0 > 30:
                raise BenchError("dmnet serve did not come up")
            try:
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                s.connect(self.sock)
                self.ctl = s
            except OSError:
                s.close()
                time.sleep(0.002)
        self.buf = b""
        if not self.ask("health").startswith("ok"):
            raise BenchError("dmnet serve is not healthy")
        self.setup_s = time.perf_counter() - t0
        # with a kernel: the set-up time at reference host speed, by the
        # kernel's mean before the spawn and after the health reply
        self.setup_ref_s = None
        if kernel:
            k = (k0 + kernel.mean_s(KERNEL_REPS)) / 2
            self.setup_ref_s = harness.at_reference(self.setup_s, k, REF_S)

    def ask(self, word):
        self.ctl.sendall(word.encode() + b"\n")
        return self.reply()

    def reply(self):
        while b"\n" not in self.buf:
            chunk = self.ctl.recv(65536)
            if not chunk:
                raise BenchError("dmnet serve closed the control connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()

    def stop(self):
        """Graceful shutdown: final checkpoint, journal fsync, metrics file."""
        try:
            if self.proc.poll() is None:
                self.ask("shutdown")
            self.proc.wait(timeout=60)
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise BenchError("dmnet serve exited %d" % self.proc.returncode)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.ctl is not None:
            self.ctl.close()
        self.err.close()


def load_requests(path):
    """The trace body and the byte offset of every CHUNK-th request line."""
    with open(path, "rb") as f:
        blob = f.read()
    body = blob.index(b"\n", blob.index(b"\n") + 1) + 1
    offsets = [body]
    count = 0
    for m in re.finditer(b"\n", blob[body:]):
        count += 1
        if count % CHUNK == 0:
            offsets.append(body + m.end())
    return blob, offsets


def open_loop(d, blob, offsets, rate, epochs):
    """Offer epochs * EPOCH requests at a fixed rate over one data connection.

    Chunk i (requests i*CHUNK .. (i+1)*CHUNK-1) is due when its last
    request is due, at t0 + (i+1)*CHUNK/rate, whatever the daemon does:
    the socket is non-blocking and unsent bytes wait in a user-space
    buffer. Stats probes run on the control connection, one in flight at
    a time, while a sent epoch is not yet seen served. An epoch's commit
    latency runs from its last request's due time to the reply of the
    first probe that shows it served.
    """
    data = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    data.connect(d.sock)
    data.setblocking(False)
    gc.disable()  # no collector pauses inside the schedule
    try:
        nchunks = epochs * EPOCH // CHUNK
        per_epoch = EPOCH // CHUNK
        t0 = time.perf_counter() + 0.01
        due = lambda i: t0 + (i + 1) * CHUNK / rate  # noqa: E731
        late, commit, backlog = [], [], []
        out = bytearray()
        nxt = 0
        seen = 0
        probing = None
        last_probe = 0.0
        peak = {"rss_kb": 0, "queue_depth": 0}
        final = {}
        deadline = t0 + 3 * epochs * EPOCH / rate + 30
        while seen < epochs:
            now = time.perf_counter()
            if now > deadline:
                raise BenchError("rate %d: daemon did not finish in time" % rate)
            while nxt < nchunks and due(nxt) <= now:
                out += blob[offsets[nxt]:offsets[nxt + 1]]
                late.append(now - due(nxt))
                nxt += 1
            if out:
                try:
                    sent = data.send(out)
                    del out[:sent]
                except BlockingIOError:
                    pass
            sent_epochs = nxt // per_epoch
            if probing is None and seen < sent_epochs and now - last_probe >= PROBE_GAP_S:
                d.ctl.sendall(b"stats\n")
                probing = now
                last_probe = now
            wait = due(nxt) - now if nxt < nchunks else 0.05
            if probing is not None:
                wait = min(wait, 0.05)
            else:
                wait = min(wait, max(0.0, last_probe + PROBE_GAP_S - now))
            r, w, _ = select.select([d.ctl], [data] if out else [], [], max(0.0, wait))
            if r:
                chunk = d.ctl.recv(65536)
                if not chunk:
                    raise BenchError("dmnet serve closed the control connection")
                d.buf += chunk
                while b"\n" in d.buf:
                    line, d.buf = d.buf.split(b"\n", 1)
                    t = time.perf_counter()
                    st = json.loads(line)
                    probing = None
                    for e in range(seen, min(st["epochs"], epochs)):
                        commit.append(t - due((e + 1) * per_epoch - 1))
                    seen = max(seen, st["epochs"])
                    backlog.append(nxt * CHUNK - st["served"])
                    for k in peak:
                        peak[k] = max(peak[k], st[k])
                    final = st
        return {
            "late_p99_ms": 1000 * harness.percentile(late, 99),
            "commit_ms": [1000 * c for c in commit],
            "backlog": backlog,
            "shed": final["shed"],
            "malformed": final["malformed"],
            "served": final["served"],
            "rss_kb": peak["rss_kb"],
            "queue_depth_max": peak["queue_depth"],
            "wall_s": time.perf_counter() - t0,
        }
    finally:
        gc.enable()
        data.close()


def cpu_s(pid):
    """User + system CPU time of a live process, in seconds."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Kernel:
    """A drv kernel child: times the host-speed reference kernel on request."""

    def __init__(self, cpu):
        self.proc = subprocess.Popen([DRV, "kernel"], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})

    def mean_s(self, reps):
        self.proc.stdin.write("%d\n" % reps)
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the reference kernel exited")
        return float(line)

    def close(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def closed_loop(d, blob, offsets, epochs):
    """Offer epochs * EPOCH requests as fast as the daemon serves them.

    At most WINDOW requests are sent but not yet seen served. That is
    below --queue, so nothing is shed. Stats probes run one at a time
    and at most one per CAPACITY_PROBE_GAP_S. The wall time runs from
    the first send to the reply that shows the last epoch served. The
    daemon's CPU time is read from /proc at the start and once the last
    epoch is seen served.
    """
    data = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    data.connect(d.sock)
    data.setblocking(False)
    gc.disable()
    try:
        total = epochs * EPOCH
        nchunks = total // CHUNK
        out = bytearray()
        nxt = served = 0
        probing = False
        last_probe = 0.0
        final = {}
        rss = 0
        cpu0 = cpu_s(d.proc.pid)
        t0 = time.perf_counter()
        while served < total:
            now = time.perf_counter()
            if now - t0 > 120:
                raise BenchError("capacity run did not finish in time")
            while nxt < nchunks and nxt * CHUNK - served < WINDOW:
                out += blob[offsets[nxt]:offsets[nxt + 1]]
                nxt += 1
            if out:
                try:
                    del out[:data.send(out)]
                except BlockingIOError:
                    pass
            if not probing and now - last_probe >= CAPACITY_PROBE_GAP_S:
                d.ctl.sendall(b"stats\n")
                probing = True
                last_probe = now
            wait = 0.05 if probing else max(0.0, last_probe + CAPACITY_PROBE_GAP_S - now)
            r, _, _ = select.select([d.ctl], [data] if out else [], [], wait)
            if r:
                chunk = d.ctl.recv(65536)
                if not chunk:
                    raise BenchError("dmnet serve closed the control connection")
                d.buf += chunk
                while b"\n" in d.buf:
                    line, d.buf = d.buf.split(b"\n", 1)
                    final = json.loads(line)
                    probing = False
                    served = final["served"]
                    rss = max(rss, final["rss_kb"])
        wall = time.perf_counter() - t0
        return {"served": served, "shed": final["shed"], "malformed": final["malformed"],
                "rss_kb": rss, "wall_s": wall, "cpu_s": cpu_s(d.proc.pid) - cpu0}
    finally:
        gc.enable()
        data.close()


def verify(d, inst, trace, epochs, tag):
    """Stop a daemon and check it against an offline replay of what it was sent."""
    d.stop()
    v = drv("verify-serve", "--inst", inst, "--trace", trace, "--count", epochs * EPOCH,
            "--metrics", d.metrics, "--journal", d.journal)
    log("digest %s daemon-metrics %s offline-replay %s journal items %d from %d: %s"
        % (tag, v["daemon_digest"], v["offline_digest"], v["journal_items"], v["journal_base"],
           "match" if v["journal_match"] else "MISMATCH"))
    return v


def checked(res, v, epochs):
    res["correct"] = v["metrics_match"] and v["journal_match"] and res["served"] == epochs * EPOCH
    res["total_cost"] = v["total_cost"]
    res["fallbacks"] = v["solve_fallbacks"]
    return res


def serve_point(work, inst, trace, blob, offsets, rate, epochs, daemons):
    d = Daemon(work, inst, "r%d" % rate)
    daemons.append(d)
    res = open_loop(d, blob, offsets, rate, epochs)
    checked(res, verify(d, inst, trace, epochs, "serve-%d" % rate), epochs)
    p99 = harness.percentile(res["commit_ms"], 99)
    res["valid"], res["met"], why = harness.rate_point(
        res["shed"], res["backlog"], p99, res["late_p99_ms"], LIMITS)
    log("rate %d: %d epochs, commit p50 %.2f ms, p95 %.2f ms, p99 %.2f ms, generator late p99 "
        "%.3f ms, shed %d: %s"
        % (rate, epochs, harness.percentile(res["commit_ms"], 50),
           harness.percentile(res["commit_ms"], 95), p99, res["late_p99_ms"], res["shed"], why))
    return res


def capacity_point(work, inst, trace, blob, offsets, i, daemons, kernel, cpu):
    d = Daemon(work, inst, "c%d" % i, cpu, kernel)
    daemons.append(d)
    res = closed_loop(d, blob, offsets, CAPACITY_EPOCHS)
    checked(res, verify(d, inst, trace, CAPACITY_EPOCHS, "capacity-%d" % i), CAPACITY_EPOCHS)
    res["setup_ref_s"] = d.setup_ref_s
    log("capacity %d: %d requests served in %.3f s wall-clock = %.0f events/s, daemon CPU %.2f s "
        "= %.0f events/s, shed %d"
        % (i, res["served"], res["wall_s"], res["served"] / res["wall_s"], res["cpu_s"],
           res["served"] / res["cpu_s"], res["shed"]))
    return res


def serve_plan(seconds):
    """Epochs offered at each rate: MID_EPOCHS at the middle rate,
    HIGH_EPOCHS at the top one, and the rest of the run's seconds at the
    lowest."""
    low, mid, high = RATES
    rest = seconds - MID_EPOCHS * EPOCH / mid - HIGH_EPOCHS * EPOCH / high
    return {low: max(LOW_EPOCHS_MIN, int(rest * low / EPOCH)), mid: MID_EPOCHS, high: HIGH_EPOCHS}


def traced_epochs(seconds):
    return max(LOW_EPOCHS_MIN, int(0.3 * seconds * RATES[1] / EPOCH))


def serve_cpus():
    """(daemon CPU, client CPU) for the capacity runs, or (None, None).

    The daemon and the reference kernel share one CPU, so the kernel
    times the CPU the daemon starts on; the generator runs on another.
    With a single CPU nothing is pinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else (None, None)


def serve_workload(work, inst, trace, seconds, traced):
    blob, offsets = load_requests(trace)
    daemons = []
    if traced:
        try:
            return serve_traced(work, inst, trace, blob, offsets, seconds, daemons)
        finally:
            for d in daemons:
                d.kill()
    cpu, client_cpu = serve_cpus()
    mask = os.sched_getaffinity(0)
    kernel = None
    try:
        if client_cpu is not None:
            os.sched_setaffinity(0, {client_cpu})
        kernel = Kernel(cpu)
        setups = []
        for i in range(EXTRA_SETUPS):
            d = Daemon(work, inst, "setup%d" % i, cpu, kernel)
            daemons.append(d)
            setups.append(d.setup_ref_s)
            d.stop()
        # daemons, each with its set-up and its check, while one more
        # fits in the run's seconds; at least two
        runs = []
        t_start = time.perf_counter()
        last = 0.0
        while len(runs) < 2 or time.perf_counter() - t_start + last <= seconds:
            t0 = time.perf_counter()
            runs.append(capacity_point(work, inst, trace, blob, offsets, len(runs), daemons,
                                       kernel, cpu))
            last = time.perf_counter() - t0
        setups += [r["setup_ref_s"] for r in runs]
        log("wall-clock set-up %.4g s (median)" % statistics.median(d.setup_s for d in daemons))
        correct = all(r["correct"] for r in runs)
        attempted = sum(r["served"] + r["shed"] for r in runs)
        failed = sum(r["shed"] + r["malformed"] + r["fallbacks"] for r in runs)
        if not correct:
            failed = attempted
        metrics = {
            "setup_s": statistics.median(setups),
            "events_per_s": statistics.median([r["served"] / r["cpu_s"] for r in runs]),
            "total_cost": runs[0]["total_cost"],
            "peak_rss_mb": max(r["rss_kb"] for r in runs) / 1024,
        }
        return correct, attempted, failed, metrics
    finally:
        for d in daemons:
            d.kill()
        if kernel is not None:
            kernel.close()
        os.sched_setaffinity(0, mask)


def serve_traced(work, inst, trace, blob, offsets, seconds, daemons):
    points = {rate: serve_point(work, inst, trace, blob, offsets, rate, epochs, daemons)
              for rate, epochs in serve_plan(seconds).items()}
    mid = points[RATES[1]]
    best = harness.max_met_rate([(r, p["valid"], p["met"]) for r, p in points.items()])
    log("serve_max_rate_eps %s events/s" % best)
    epochs = traced_epochs(seconds)
    core = drv("serve-probe", "--inst", inst, "--trace", trace, "--count", epochs * EPOCH,
               "--seconds", 0.3 * seconds, "--work", os.path.join(work, "core"))
    metrics = {k: core.get(k, 0) for k, _ in PER_LAYER}
    metrics["layers.coverage_frac"] = harness.coverage(
        [core["push_s"], core["step_s"]], core["traced_wall_s"])
    metrics["trace.overhead_frac"] = harness.overhead(core["traced_wall_s"], core["plain_wall_s"])
    metrics["gen.late_p99_ms"] = max(p["late_p99_ms"] for p in points.values())
    metrics["server.shed"] = sum(p["shed"] for p in points.values())
    metrics["server.queue_depth_max"] = max(p["queue_depth_max"] for p in points.values())
    metrics["serve.max_rate_eps"] = best or 0
    tail(metrics, mid["commit_ms"])
    correct = all(p["correct"] for p in points.values())
    attempted = sum(p["served"] + p["shed"] for p in points.values())
    failed = sum(p["shed"] + p["malformed"] + p["fallbacks"] for p in points.values())
    if not correct:
        failed = attempted
    return correct, attempted, failed, metrics


# ---------- main ----------

def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(list(REPLAY) + ["serve-durable"]))
    ap.add_argument("--seed", type=int, required=True, help="trace seed")
    ap.add_argument("--instance-seed", type=int, default=DEFAULT_INSTANCE_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    try:
        build()
        os.makedirs(WORK, exist_ok=True)
        work = os.path.join(WORK, "%s-s%d-%d" % (a.workload, a.seed, os.getpid()))
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        try:
            inst = make_instance(work, a.instance_seed)
            if a.workload in REPLAY:
                w = REPLAY[a.workload]
                trace = make_trace(work, inst, w["scenario"], w["events"], w["phases"], a.seed)
            else:
                plan = list(serve_plan(a.seconds).values())
                need = max(plan + [traced_epochs(a.seconds), CAPACITY_EPOCHS]) * EPOCH
                trace = make_trace(work, inst, "stationary", need, 1, a.seed)
            log("input instance seed %d sha256 %s" % (a.instance_seed, sha(inst)))
            log("input trace seed %d sha256 %s (held-out seed: %d)" % (a.seed, sha(trace), HELD_OUT_SEED))
            if a.workload in REPLAY:
                res = replay_workload(work, inst, trace, a.seconds, a.trace == 1)
            else:
                res = serve_workload(work, inst, trace, a.seconds, a.trace == 1)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("perfbench: error: %s" % e, file=sys.stderr)
        return 2
    correct, attempted, failed, values = res
    names = END_TO_END if a.trace == 0 else PER_LAYER
    values["failed_frac"] = failed / attempted
    if a.trace == 0:
        log("failed_frac %.6g ratio (%d of %d requests)" % (values["failed_frac"], failed, attempted))
    metrics = {}
    for name, unit in names:
        metrics[name] = {"value": float(values[name]), "unit": unit}
        log("%s %.6g %s" % (name, values[name], unit))
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
