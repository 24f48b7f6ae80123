#!/usr/bin/env python3
"""End-to-end benchmark of divrel: four workloads over the served
assessment request, the run-log ingest and the paper reproduction.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. It builds bin/experiments_cli.exe
and perfbench/pbench.exe with dune, runs workload W on inputs made from
seed N for about T seconds, checks every output, and prints one JSON
object as its last stdout line: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics (measured with no
tracing); --trace 1 makes the separate traced run and reports the
per-layer metrics. The exit code is 0 only when every check passed.
RATIONALE.md explains the workloads, metrics and predictions.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import select
import shutil
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI = os.path.join("_build", "default", "bin", "experiments_cli.exe")
PBENCH = os.path.join("_build", "default", "perfbench", "pbench.exe")
WORK = os.path.join(".bench_build", "perfbench")

WORKLOADS = {
    # workers / domains the workload asks of the host. serve-compute runs
    # one worker: with two, every batch and every minor GC waits for both
    # domains, and when the shared host stalls one vCPU the p99 grew up
    # to fourfold between runs (34 to 135 ms), while one worker's p99
    # stayed within 54-79 ms over the same minutes.
    "serve-codec": {"workers": 1},
    "serve-compute": {"workers": 1},
    "ingest": {"workers": 1},
    "reproduce": {"workers": None},  # the default pool: DIVREL_DOMAINS or all cores
}
# serve-codec pins the daemon and the load generator to one shared core.
# With one request in flight the round trip is then the sum of both
# sides' work; left to the scheduler, runs land on the same core or on
# two cores at random, and the cross-core wake-up moves throughput by
# a third (about 20k against 14k requests/s on a 2-core host).
PIN_ONE_CORE = {"serve-codec"}
# reproduce always reproduces the paper at the CLI's default seed: the
# report's cost depends on the seed far more than on the code (E27
# simulates missions until the developed systems fail, and over seeds
# 11-15 `all` took 7 to 22 s), so a seed-varied reproduce would measure
# the seed. The checker self-test runs a held-out reproduction seed.
REPRODUCE_SEED = 42
SERVE_SETUPS = 16
REPRODUCE_SETUPS = 60
# The ingest log's lines, and the demand space its runner.run events
# cover (E26's, declared to the verb as uniform:1600). At about 3 kB a
# line, one pass takes about 2 s on a 2-core host.
INGEST_EVENTS = 15_000
INGEST_PROFILE = 1600
INGEST_SETUPS = 25
EXPERIMENTS = 31

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
]

SERVE_LAYERS = [
    ("obs.json.parse_us", "us"),
    ("obs.json.parse_alloc_w", "words"),
    ("proto.parse_line_us", "us"),
    ("proto.parse_line_alloc_w", "words"),
    ("engine.eval_us", "us"),
    ("engine.eval_alloc_w", "words"),
    ("exec.pool.create_shutdown_us", "us"),
    ("obs.json.render_us", "us"),
    ("obs.json.render_alloc_w", "words"),
    ("proto.ok_line_us", "us"),
    ("proto.ok_line_alloc_w", "words"),
    ("client.round_trip_us", "us"),
    ("server.loop_us", "us"),
    ("core.moments_us", "us"),
    ("core.voting_us", "us"),
    ("core.pfd_dist_us", "us"),
    ("simulator.fleet_us", "us"),
    ("dispatcher.run_batch_us", "us"),
    ("dispatcher.speedup", "ratio"),
    ("server.batches", "count"),
    ("server.mean_batch", "count"),
    ("server.rejected", "count"),
    ("server.malformed", "count"),
]
INGEST_LAYERS = [
    ("evidence.source.next_line_us", "us"),
    ("evidence.schema.parse_json_us", "us"),
    ("evidence.assessor.ingest_parsed_us", "us"),
    ("evidence.verdict.of_assessor_ms", "ms"),
    ("evidence.verdict.render_json_ms", "ms"),
    ("evidence.bytes_per_event", "bytes"),
    ("evidence.accepted", "count"),
    ("evidence.skipped", "count"),
    ("evidence.malformed", "count"),
]
REPRODUCE_LAYERS = [("experiments.E%02d_s" % i, "s") for i in range(1, EXPERIMENTS + 1)] + [
    ("gc.minor_collections", "count"),
    ("gc.major_collections", "count"),
    ("gc.minor_words", "words"),
    ("exec.pool.domains", "count"),
]
COMMON_LAYERS = [
    ("trace.overhead", "ratio"),
    ("failed_frac", "ratio"),
    ("latency.samples", "count"),
]
# Every workload reports every per-layer metric; a layer the workload
# never reaches reads 0.
PER_LAYER = SERVE_LAYERS + INGEST_LAYERS + REPRODUCE_LAYERS + COMMON_LAYERS


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------
# Build, provenance, process helpers
# ---------------------------------------------------------------------


def check_tree():
    for need in ("dune-project", os.path.join("bin", "experiments_cli.ml"), "lib",
                 os.path.join("perfbench", "pbench.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("not a divrel source checkout: %s is missing" % need)
    if shutil.which("dune") is None:
        raise BenchError("dune is not on PATH")


def build():
    r = subprocess.run(["dune", "build", "--root", ".", "./" + CLI, "./" + PBENCH],
                       cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if r.returncode != 0:
        raise BenchError("build failed (dune exit %d)" % r.returncode)


def source_digest():
    """sha256 over every source file under lib/ and bin/ (path and bytes)."""
    h = hashlib.sha256()
    for top in ("lib", "bin"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for f in sorted(files):
                if f == ".merlin" or f.endswith(".install"):
                    continue
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode() + b"\0")
                with open(p, "rb") as fh:
                    h.update(fh.read())
                h.update(b"\0")
    return h.hexdigest()


def pbench(*args, timeout=170, pin=None):
    r = subprocess.run([PBENCH] + [str(a) for a in args], cwd=ROOT, capture_output=True,
                       text=True, timeout=timeout, preexec_fn=pin)
    if r.returncode != 0:
        raise BenchError("pbench %s failed: %s" % (args[0], r.stderr.strip()[-2000:]))
    return json.loads(r.stdout.strip().splitlines()[-1])


def provenance(workload, seed, info):
    nproc = len(os.sched_getaffinity(0))
    counts = {w: (c["workers"] or info["auto_domains"]) for w, c in WORKLOADS.items()}
    return {
        "workload": workload,
        "seed": seed,
        "reproduce_seed": REPRODUCE_SEED,
        "nproc": nproc,
        "recommended_domain_count": info["recommended_domain_count"],
        "ocaml_version": info["ocaml_version"],
        "word_size": info["word_size"],
        "os": "%s (%s)" % (platform.platform(), info["os_type"]),
        "source_digest": source_digest(),
        "workers_or_domains": counts,
        "oversubscribed": sorted(w for w, n in counts.items() if n > nproc),
    }


def child_rusage(cmd, env=None, timeout=170):
    """Run cmd to completion, reaping it with wait4 so that its own CPU
    time and peak RSS (ru_maxrss, i.e. VmHWM) are known. Returns (stdout
    bytes, exit code, wall s, cpu s, peak RSS MB)."""
    out_path = os.path.join(WORK, "stdout-%d" % os.getpid())
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=out, env=env)
    try:
        while True:
            pid, status, ru = os.wait4(p.pid, os.WNOHANG)
            if pid:
                wall = time.perf_counter() - t0
                break
            if time.perf_counter() - t0 > timeout:
                p.kill()
                os.wait4(p.pid, 0)
                raise BenchError("timed out: %s" % " ".join(cmd))
            time.sleep(0.001)
        p.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as f:
            data = f.read()
    finally:
        os.unlink(out_path)
    return data, p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def proc_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


def percentile(xs, q):
    """Nearest-rank percentile."""
    s = sorted(xs)
    k = max(0, min(len(s) - 1, int(-(-q * len(s) // 1)) - 1))
    return s[k]


# ---------------------------------------------------------------------
# Serve workloads: the real daemon in its own process
# ---------------------------------------------------------------------


def one_core():
    cpu = min(os.sched_getaffinity(0))
    return lambda: os.sched_setaffinity(0, {cpu})


class Daemon:
    def __init__(self, sock, seed, workers, pin=None):
        if os.path.exists(sock):
            os.unlink(sock)
        self.sock = sock
        self.t0 = time.perf_counter()
        self.p = subprocess.Popen(
            [CLI, "serve", "--socket", sock, "--seed", str(seed), "--workers", str(workers),
             "--queue-depth", "64", "--batch", "8"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, preexec_fn=pin)
        self.ready = False

    def connect(self, timeout=20.0):
        # The daemon announces on stdout that it listens; waiting for that
        # line, rather than polling connect(), leaves the CPU to the
        # daemon while it starts.
        if not self.ready:
            ready, _, _ = select.select([self.p.stdout], [], [], timeout)
            if not ready or not self.p.stdout.readline().startswith("serve: listening"):
                raise BenchError("daemon did not start listening")
            self.ready = True
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(self.sock)
        return s

    @staticmethod
    def round_trip(s, line):
        s.sendall(line.encode() + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            b = s.recv(65536)
            if not b:
                break
            buf += b
        return buf.decode().rstrip("\n")

    def first_reply(self, line):
        s = self.connect()
        try:
            reply = self.round_trip(s, line)
        finally:
            s.close()
        return reply, time.perf_counter() - self.t0

    def stop(self):
        """Shut the daemon down; return its session counters."""
        try:
            s = self.connect(timeout=5.0)
            self.round_trip(s, '{"id":"bye","verb":"shutdown"}')
            s.close()
            out, _ = self.p.communicate(timeout=60)
        finally:
            if self.p.poll() is None:
                self.p.kill()
            self.p.wait()
        m = re.search(r"served=(\d+) rejected=(\d+) malformed=(\d+) batches=(\d+)", out or "")
        if not m:
            raise BenchError("daemon exit line missing")
        return dict(zip(("served", "rejected", "malformed", "batches"), map(int, m.groups())))

    def kill(self):
        if self.p.poll() is None:
            self.p.kill()
            self.p.wait()


def run_serve(workload, seed, seconds, trace, run_dir, spans, inject):
    workers = WORKLOADS[workload]["workers"]
    pin = one_core() if workload in PIN_ONE_CORE else None
    pbench("serve-gen", "--workload", workload, "--seed", seed, "--dir", run_dir)
    with open(os.path.join(ROOT, run_dir, "requests.jsonl")) as f:
        first_req = f.readline().rstrip("\n")
    with open(os.path.join(ROOT, run_dir, "expected.jsonl")) as f:
        first_exp = f.readline().rstrip("\n")
    sock = os.path.join(run_dir, "d.sock")
    setups, failed = [], 0

    def setups_alone():
        # Set-up: daemon spawn until the first correct reply. Half the
        # spawns come before the load and half after it, so that the
        # median spans the run.
        nonlocal failed
        for _ in range(SERVE_SETUPS // 2):
            d = Daemon(sock, seed, workers, pin)
            try:
                reply, t = d.first_reply(first_req)
                d.stop()
            finally:
                d.kill()
            setups.append(t)
            failed += reply != first_exp

    setups_alone()
    d = Daemon(sock, seed, workers, pin)
    try:
        reply, t = d.first_reply(first_req)
        setups.append(t)
        failed += reply != first_exp
        args = ["serve-load", "--workload", workload, "--seed", seed, "--dir", run_dir,
                "--socket", sock, "--daemon-pid", d.p.pid, "--workers", workers,
                "--seconds", seconds, "--trace", trace]
        if spans:
            args += ["--spans", spans]
        if inject:
            args.append("--corrupt")
        load = pbench(*args, pin=pin)
        hwm = proc_hwm_mb(d.p.pid)
        stats = d.stop()
    finally:
        d.kill()
    setups_alone()
    attempted = load["attempted"] + len(setups)
    failed += load["failed"]
    e2e = {
        "setup_s": statistics.median(setups),
        # Medians over ten windows of the run, robust to a burst of
        # interference from other tenants of the host.
        "throughput_ops_s": statistics.median(load.get("window_rps", [load["rps"]])),
        "latency_p50_us": load["p50_us"],
        "latency_p99_us": load["p99_us"],
        "cpu_us_per_op": statistics.median(load.get("window_cpu_us", [0.0])),
        "peak_rss_mb": hwm,
    }
    layers = dict(load.get("layers", {}))
    if trace:
        layers.update({
            "server.batches": stats["batches"],
            "server.mean_batch": stats["served"] / max(1, stats["batches"]),
            "server.rejected": stats["rejected"],
            "server.malformed": stats["malformed"],
            "trace.overhead": load["traced_rps"] / load["rps"],
        })
    layers["latency.samples"] = load["samples"]
    extra = {"throughput_rps": e2e["throughput_ops_s"], "latency_samples": load["samples"]}
    return attempted, failed, e2e, layers, extra


# ---------------------------------------------------------------------
# Ingest: the evidence verb in its own process, one pass per spawn
# ---------------------------------------------------------------------

# Verdict fields that must equal the generator's tallies. A difference
# in the accepted, skipped or malformed count is that many failed
# events; any other differing field is one.
VERDICT_COUNTED = [("events", k) for k in ("accepted", "skipped", "malformed")]
VERDICT_CHECKED = [("events", "skipped_kinds")] + [
    ("run", k) for k in ("starts", "ends", "seed", "shards", "target")] + [
    ("fleet", k) for k in ("plants", "demands", "failures", "reconciled")] + [
    ("runner", k) for k in ("runs", "demands", "failures", "coincident", "rng_draws")] + [
    ("sprt", k) for k in ("accepts", "rejects", "undecided", "demands", "failures")]


def verdict_mismatches(verdict, tally):
    n = 0
    for sec, key in VERDICT_COUNTED:
        got = verdict.get(sec, {}).get(key)
        n += abs(got - tally[sec][key]) if isinstance(got, int) else 1
    for sec, key in VERDICT_CHECKED:
        n += verdict.get(sec, {}).get(key) != tally[sec][key]
    return n


def drop_first_runner(src, dst):
    """The checker self-test: a copy of the log without its first
    runner.run line."""
    dropped = False
    with open(src, "rb") as fi, open(dst, "wb") as fo:
        for line in fi:
            if not dropped and line.startswith(b'{"event":"runner.run"'):
                dropped = True
                continue
            fo.write(line)


def run_ingest(seed, seconds, trace, run_dir, spans, inject):
    pbench("ingest-gen", "--seed", seed, "--events", INGEST_EVENTS, "--dir", run_dir)
    log_path = os.path.join(run_dir, "run.jsonl")
    with open(os.path.join(ROOT, run_dir, "tally.json")) as f:
        tally = json.load(f)
    if inject:
        drop_first_runner(log_path, os.path.join(run_dir, "dropped.jsonl"))
        log_path = os.path.join(run_dir, "dropped.jsonl")
    cmd = [CLI, "evidence", "--json", "--profile", "uniform:%d" % INGEST_PROFILE, log_path]
    setups, passes, verdicts = [], [], set()
    attempted = failed = 0
    # Half the run is traced when --trace 1; the untraced passes still
    # give the overhead's denominator.
    t_end = time.perf_counter() + (0.5 * seconds if trace else seconds)
    while not passes or time.perf_counter() < t_end:
        # Set-up samples are taken before every pass, so that they span
        # the run as the passes do.
        setups += pbench("ingest-setup", "--dir", run_dir, "--count", INGEST_SETUPS)["setup_ns"]
        out, code, wall, cpu, rss = child_rusage(cmd)
        if code != 0:
            raise BenchError("evidence verb exited %d" % code)
        verdicts.add(out)
        passes.append((wall, cpu, rss))
        attempted += INGEST_EVENTS
        failed += verdict_mismatches(json.loads(out), tally)
    # The verdict is a pure function of the log: every pass must print
    # the same bytes.
    failed += len(verdicts) - 1
    walls = [w for w, _, _ in passes]
    e2e = {
        "setup_s": statistics.median(setups) / 1e9,
        "throughput_ops_s": statistics.median(INGEST_EVENTS / w for w in walls),
        "latency_p50_us": percentile(walls, 0.5) * 1e6,
        "latency_p99_us": percentile(walls, 0.99) * 1e6,
        "cpu_us_per_op": statistics.median(c for _, c, _ in passes) * 1e6 / INGEST_EVENTS,
        "peak_rss_mb": statistics.median(r for _, _, r in passes),
    }
    layers = {"latency.samples": len(passes)}
    if trace:
        verdict_out = os.path.join(run_dir, "verdict-traced.json")
        args = ["ingest-trace", "--dir", run_dir, "--seconds", 0.5 * seconds,
                "--verdict-out", verdict_out]
        if spans:
            args += ["--spans", spans]
        r = pbench(*args)
        attempted += r["attempted"]
        failed += r["failed"]
        # The in-process pass must reach the verb's verdict, byte for byte.
        with open(os.path.join(ROOT, verdict_out), "rb") as f:
            failed += f.read() not in verdicts
        layers.update(r["layers"])
        layers["trace.overhead"] = r["traced_events_per_s"] / e2e["throughput_ops_s"]
    extra = {"events_per_s": e2e["throughput_ops_s"], "latency_samples": len(passes)}
    return attempted, failed, e2e, layers, extra


# ---------------------------------------------------------------------
# Reproduce: experiments_cli all, checked against DIVREL_DOMAINS=1
# ---------------------------------------------------------------------

SECTION = re.compile(rb"\n################ (E\d\d) ")


def sections(text):
    """Per-experiment sha256 of the report, keyed by experiment id."""
    marks = [(m.start(), m.group(1).decode()) for m in SECTION.finditer(text)]
    out = {}
    for i, (start, eid) in enumerate(marks):
        end = marks[i + 1][0] if i + 1 < len(marks) else len(text)
        out[eid] = hashlib.sha256(text[start:end]).hexdigest()
    return out


def cli_env(domains=None):
    env = dict(os.environ)
    env.pop("DIVREL_DOMAINS", None)
    if domains:
        env["DIVREL_DOMAINS"] = str(domains)
    return env


def reference_sections(seed):
    """The same seed's report at DIVREL_DOMAINS=1 — the domain-invariance
    contract — cached per source digest and seed."""
    cache_dir = os.path.join(ROOT, WORK, "cache")
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, "reference-%s-%d.json" % (source_digest()[:16], seed))
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    out, code, _, _, _ = child_rusage([CLI, "all", "--seed", str(seed)], env=cli_env(1))
    if code != 0:
        raise BenchError("reference run exited %d" % code)
    ref = sections(out)
    with open(path + ".tmp", "w") as f:
        json.dump(ref, f)
    os.replace(path + ".tmp", path)
    return ref


def compare_sections(got, ref):
    return sum(1 for eid, h in ref.items() if got.get(eid) != h) + sum(
        1 for eid in got if eid not in ref)


def run_reproduce(seed, seconds, trace, run_dir, spans, inject, repro_seed=REPRODUCE_SEED):
    del seed  # see REPRODUCE_SEED
    setups, failed, attempted = [], 0, 0

    def setups_alone():
        # Set-up: process spawn until the first output byte. `all` prints
        # only when done, so the spawn is timed on `list`, which prints
        # at once: binary load, every library's initialisers, argument
        # parsing. Half the spawns come before the `all` passes and half
        # after them, so that the median spans the run.
        nonlocal failed, attempted
        for _ in range(REPRODUCE_SETUPS // 2):
            t0 = time.perf_counter()
            p = subprocess.Popen([CLI, "list"], cwd=ROOT, stdout=subprocess.PIPE)
            first = p.stdout.read(1)
            setups.append(time.perf_counter() - t0)
            p.stdout.read()
            p.stdout.close()
            attempted += 1
            failed += (p.wait() != 0) or not first

    setups_alone()
    ref = reference_sections(repro_seed)
    if inject:
        eid = sorted(ref)[0]
        ref = dict(ref, **{eid: "0" * 64})
    walls, cpus, rss = [], [], 0.0
    t_end = time.perf_counter() + seconds
    # Another pass only if it should end within the run's time: one
    # pass takes about 20 s on a 2-core host.
    while not walls or time.perf_counter() + walls[-1] <= t_end:
        out, code, wall, cpu, peak = child_rusage([CLI, "all", "--seed", str(repro_seed)],
                                                  env=cli_env())
        walls.append(wall)
        cpus.append(cpu)
        rss = max(rss, peak)
        attempted += len(ref)
        failed += len(ref) if code != 0 else compare_sections(sections(out), ref)
    setups_alone()
    wall = statistics.median(walls)
    e2e = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": len(ref) / wall,
        "latency_p50_us": percentile(walls, 0.5) * 1e6,
        "latency_p99_us": percentile(walls, 0.99) * 1e6,
        "cpu_us_per_op": statistics.median(cpus) * 1e6 / len(ref),
        "peak_rss_mb": rss,
    }
    layers = {"latency.samples": len(walls)}
    if trace:
        report = os.path.join(run_dir, "report.txt")
        args = ["reproduce-trace", "--seed", repro_seed, "--out", report]
        if spans:
            args += ["--spans", spans]
        r = pbench(*args, timeout=120)
        with open(os.path.join(ROOT, report), "rb") as f:
            attempted += len(ref)
            failed += compare_sections(sections(f.read()), ref)
        layers.update(r["layers"])
        layers["trace.overhead"] = wall / r["wall_s"]
    extra = {"wall_s": wall, "latency_samples": len(walls)}
    return attempted, failed, e2e, layers, extra


# ---------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------

RUNNERS = {
    "serve-codec": lambda *a: run_serve("serve-codec", *a),
    "serve-compute": lambda *a: run_serve("serve-compute", *a),
    "ingest": run_ingest,
    "reproduce": run_reproduce,
}


def run_workload(workload, seed, seconds, trace, inject=False, **kw):
    """Run one workload; return (result dict for the last line, report)."""
    info = pbench("info")
    prov = provenance(workload, seed, info)
    run_dir = os.path.join(WORK, "run-%d" % os.getpid())
    results = os.path.join(WORK, "results")
    os.makedirs(os.path.join(ROOT, run_dir), exist_ok=True)
    os.makedirs(os.path.join(ROOT, results), exist_ok=True)
    spans = os.path.join(results, "spans-%s-seed%d.tsv" % (workload, seed)) if trace else None
    try:
        attempted, failed, e2e, layers, extra = RUNNERS[workload](
            seed, seconds, trace, run_dir, spans, inject, **kw)
    finally:
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    failed_frac = failed / max(1, attempted)
    layers["failed_frac"] = failed_frac
    if trace:
        metrics = {n: {"value": float(layers.get(n, 0.0)), "unit": u} for n, u in PER_LAYER}
    else:
        metrics = {n: {"value": float(e2e[n]), "unit": u} for n, u in END_TO_END}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report = dict(extra, failed_frac=failed_frac, provenance=prov)
    with open(os.path.join(ROOT, results, "%s-seed%d-trace%d.json" % (workload, seed, trace)),
              "w") as f:
        json.dump({"result": result, "report": report}, f, indent=1)
    return result, report


def print_report(workload, result, report):
    print("workload %s  seed %d  provenance %s" % (
        workload, report["provenance"]["seed"], json.dumps(report["provenance"])))
    for k, v in sorted(report.items()):
        if k != "provenance":
            print("  %-34s %s" % (k, v))
    for name, m in result["metrics"].items():
        print("  %-34s %-14.6g %s" % (name, m["value"], m["unit"]))
    print("  correct=%s attempted=%d failed=%d" % (
        result["correct"], result["attempted"], result["failed"]))


def selftest():
    """The checker must catch a corrupted reply, a dropped event and a
    wrong digest, and a held-out seed must pass every check."""
    held_out = 7919
    runs = [
        ("serve-codec", {}), ("serve-compute", {}), ("ingest", {}),
        ("reproduce", {"repro_seed": held_out}),
    ]
    ok = True
    for workload, kw in runs:
        clean, _ = run_workload(workload, held_out, 2, 0, **kw)
        passed = clean["correct"] and clean["failed"] == 0
        line = "selftest %-13s held-out seed %d %s" % (
            workload, held_out, "passes" if passed else "FAILS")
        ok = ok and passed
        if workload != "serve-compute":
            bad, _ = run_workload(workload, held_out, 2, 0, inject=True, **kw)
            caught = bad["failed"] > 0 and not bad["correct"]
            line += "; injected %s %s" % (
                {"serve-codec": "corrupted reply", "ingest": "dropped event",
                 "reproduce": "wrong digest"}[workload], "caught" if caught else "MISSED")
            ok = ok and caught
        print(line, flush=True)
    print("selftest %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    # Every path below is relative to the checkout root, which also keeps
    # the daemon's socket path short.
    os.chdir(ROOT)
    try:
        check_tree()
        build()
        if a.selftest:
            return selftest()
        if not a.workload:
            ap.error("--workload is required")
        result, report = run_workload(a.workload, a.seed, a.seconds, a.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 2
    print_report(a.workload, result, report)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
