#!/usr/bin/env python3
"""The mds benchmark: end-to-end workloads and a traced layer run.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload serve_zipf --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --make-reference

It builds `reproduce`, `mds-serve` and the benchmark's own helper
packages from source (into $CARGO_TARGET_DIR, default `.bench_build`),
runs the workload, checks every output, prints a human-readable report on
stderr and, as the last stdout line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are the per-layer
ones. See perfbench/README.md for the metric definitions.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ("paper_sweep", "warm_replay", "serve_zipf")
WORK_DIR = Path(".perfbench_work")

# A single process may run this long before it is killed and counted
# as failed; every run must end within 180 s.
PROC_TIMEOUT_S = 150.0
# Set-up-only spawns of `reproduce` per run, besides the measured reps.
SETUP_PROBES = 3
# Ping round trips sampled before the traced run's serve session.
SERVE_PINGS = 200

# `reproduce` reports on stderr that the suite is generated with this
# line, printed right before the first experiment runs.
READY_RE = re.compile(r"^(simulating on |running )")
RUNNING_RE = re.compile(r"^running (\S+?)\.\.\.")
DONE_RE = re.compile(r"^done: ")

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "sim_minst_per_s": "Minst/s",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
}

POLICY_KEYS = {
    "NAS/NO": "nas_no",
    "NAS/NAV": "nas_nav",
    "NAS/SEL": "nas_sel",
    "NAS/STORE": "nas_store",
    "NAS/SYNC": "nas_sync",
    "NAS/SSET": "nas_sset",
    "NAS/ORACLE": "nas_oracle",
    "AS/NO": "as_no",
    "AS/NAV": "as_nav",
}
INT_BENCHMARKS = {
    "099.go", "124.m88ksim", "126.gcc", "129.compress",
    "130.li", "132.ijpeg", "134.perl", "147.vortex",
}
# Section 4 summary rows: (metric key, numerator policy, denominator).
SUMMARY_ROWS = [
    ("oracle_over_no", "NAS/ORACLE", "NAS/NO"),
    ("nav_over_no", "NAS/NAV", "NAS/NO"),
    ("asnav_over_asno", "AS/NAV", "AS/NO"),
    ("sync_over_nav", "NAS/SYNC", "NAS/NAV"),
    ("oracle_over_nav", "NAS/ORACLE", "NAS/NAV"),
]
EXPERIMENT_KEYS = ("fig1", "fig3", "ablations", "stability")

# `unit` of every per-layer metric, in report order.
LAYER_UNITS = {
    "gen.s": "s", "gen.minst_per_s": "Minst/s",
    "prep.s": "s", "prep.ns_per_inst": "ns",
    "sim.s": "s", "sim.runs": "count", "sim.committed": "count",
    "sim.cycles": "count", "sim.skipped_frac": "ratio",
    "sim.ns_per_inst": "ns", "sim.ns_per_stepped_cycle": "ns",
    **{f"sim.ns_per_inst.{k}": "ns" for k in POLICY_KEYS.values()},
    "sim.refetched_per_kinst": "count",
    "lanes.batches": "count", "lanes.mean_width": "count",
    "runner.simulations": "count", "runner.memory_hits": "count",
    "runner.pool_idle_frac": "ratio",
    **{f"exp.{k}.s": "s" for k in EXPERIMENT_KEYS},
    "disk.hits": "count", "disk.writes": "count", "disk.load_us_per_entry": "us",
    "serve.requests": "count", "serve.cold_pairs": "count",
    "serve.dedup_joined": "count", "serve.rtt_ping_us_p50": "us",
    "serve.handle_hit_us_p50": "us", "serve.handle_cold_ms_p50": "ms",
    "render.s": "s",
    "model.ipc_geomean_int": "IPC", "model.ipc_geomean_fp": "IPC",
    **{f"model.{row[0]}.{part}_pct": "%" for row in SUMMARY_ROWS for part in ("int", "fp")},
    "obs.trace_overhead_frac": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values)


def percentile(values, q):
    """Nearest-rank percentile of `values` (q in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Ledger:
    """Attempted and failed operations of one run, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, problems):
        """Counts one operation; it failed if `problems` is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                log(f"FAIL: {p}")

    def ops(self, count, failed, why):
        self.attempted += count
        if failed:
            self.failed += failed
            log(f"FAIL: {failed} of {count} {why}")


class Proc:
    """A child process timed from spawn, through a stderr ready line,
    to exit, with its own CPU time and peak RSS from wait4."""

    def __init__(self, argv, cwd, stdout_path=None, ready_re=None):
        self.lines = []
        self.t_ready = None
        self.ready_re = ready_re
        self.stdout = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
        self.t_spawn = time.perf_counter()
        self.p = subprocess.Popen(
            argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=self.stdout,
            stderr=subprocess.PIPE)
        self.timed_out = False
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        self.timer = threading.Timer(PROC_TIMEOUT_S, self._kill)
        self.timer.start()

    def _read(self):
        for raw in self.p.stderr:
            t = time.perf_counter()
            line = raw.decode(errors="replace").rstrip("\n")
            self.lines.append((t, line))
            if self.ready_re and self.t_ready is None and self.ready_re.search(line):
                self.t_ready = t

    def _kill(self):
        self.timed_out = True
        try:
            self.p.kill()
        except OSError:
            pass

    def wait(self):
        """Reaps the process; returns its exit code."""
        _, status, usage = os.wait4(self.p.pid, 0)
        self.t_exit = time.perf_counter()
        self.p.returncode = os.waitstatus_to_exitcode(status)
        self.timer.cancel()
        self.reader.join()
        self.p.stderr.close()
        if self.stdout is not subprocess.DEVNULL:
            self.stdout.close()
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        return self.p.returncode

    def stderr_tail(self, n=5):
        return " | ".join(line for _, line in self.lines[-n:])


# ---------------------------------------------------------------- build


def build(root, trace):
    """Builds the binaries the workload needs; returns their paths."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "mds-harness",
         "--bin", "reproduce", "--bin", "mds-serve"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", str(HERE / "load" / "Cargo.toml")],
    ]
    if trace:
        steps.append(["cargo", "build", "--release", "--offline", "-q",
                      "--manifest-path", str(HERE / "layers" / "Cargo.toml")])
    for argv in steps:
        done = subprocess.run(argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
                              stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise SystemExit(f"build failed: {' '.join(argv)}")
    release = target / "release"
    return {name: release / name for name in
            ("reproduce", "mds-serve", "perfbench-load", "perfbench-layers")}


# ------------------------------------------------------------ reproduce


def reproduce(bins, cwd, out, jobs, extra=()):
    """Runs `reproduce` once into `out`; returns the finished Proc and
    the parsed BENCH record ({} if absent)."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    argv = [str(bins["reproduce"]), "--jobs", str(jobs), "--out", str(out.resolve()), *extra]
    proc = Proc(argv, cwd, stdout_path=out.parent / (out.name + ".stdout"), ready_re=READY_RE)
    proc.wait()
    try:
        bench = json.loads((out / "BENCH_reproduce.json").read_text())
    except (OSError, ValueError):
        bench = {}
    return proc, bench


def check_reproduce(proc, out, reference, what):
    """Problems with one full `reproduce` run's outputs."""
    problems = []
    if proc.timed_out:
        problems.append(f"{what}: timed out")
    if proc.p.returncode != 0:
        problems.append(f"{what}: exit {proc.p.returncode}: {proc.stderr_tail()}")
        return problems
    if proc.t_ready is None:
        problems.append(f"{what}: no ready line on stderr")
    stdout = out.parent / (out.name + ".stdout")
    if sha256_file(stdout) != reference["stdout_sha256"]:
        problems.append(f"{what}: stdout differs from the reference digest")
    tables = {p.name: sha256_file(p) for p in out.glob("*.txt")}
    want = reference["txt_sha256"]
    for name in sorted(set(tables) | set(want)):
        if tables.get(name) != want.get(name):
            problems.append(f"{what}: {name} differs from the reference digest")
    return problems


def experiment_seconds(proc):
    """Per-experiment seconds from the timestamps of the
    "running X..." stderr lines (each ends where the next starts)."""
    marks = []
    for t, line in proc.lines:
        m = RUNNING_RE.match(line)
        if m:
            marks.append((m.group(1), t))
        elif DONE_RE.match(line):
            marks.append((None, t))
    if marks and marks[-1][0] is not None:
        marks.append((None, proc.t_exit))
    return {name: t1 - t0 for (name, t0), (_, t1) in zip(marks, marks[1:]) if name}


def work_counters(bench):
    """Exact work counters a `reproduce` BENCH record carries."""
    keys = ("simulations", "cache_hits", "disk_hits", "disk_writes",
            "skipped_cycles", "lane_batches", "artifact_builds")
    counters = {k: bench[k] for k in keys if k in bench}
    if "cache_hits" in bench:
        counters["memory_hits"] = bench["cache_hits"] - bench.get("disk_hits", 0)
    return counters


def warm_fixture(bins, root, jobs, reference, ledger):
    """The disk cache warm_replay reads: filled once per reproduce
    binary by an untimed cold run, reused by later runs."""
    tag = sha256_file(bins["reproduce"])[:16]
    base = root / WORK_DIR / "warm" / tag
    marker = base / "fixture.json"
    if marker.exists():
        return base / "cache", json.loads(marker.read_text())
    if base.parent.exists():
        shutil.rmtree(base.parent)
    base.mkdir(parents=True)
    log("warm_replay: filling the disk cache once (untimed)...")
    proc, bench = reproduce(bins, base, base / "fill", jobs, ["--cache-dir", str(base / "cache")])
    problems = check_reproduce(proc, base / "fill", reference, "fixture fill")
    ledger.op(problems)
    if problems:
        raise SystemExit("warm_replay fixture failed")
    fixture = {"disk_writes": bench.get("disk_writes")}
    marker.write_text(json.dumps(fixture))
    return base / "cache", fixture


def batch_workload(name, bins, root, run_dir, jobs, seconds, reference, ledger):
    """paper_sweep or warm_replay: set-up probes, then whole `reproduce`
    runs until `seconds` are used."""
    extra = []
    fixture = None
    if name == "warm_replay":
        cache, fixture = warm_fixture(bins, root, jobs, reference, ledger)
        extra = ["--cache-dir", str(cache.resolve())]
    setups = []
    for i in range(SETUP_PROBES):
        proc, _ = reproduce(bins, run_dir, run_dir / f"probe{i}", jobs, [*extra, "--only", "table2"])
        problems = [] if proc.p.returncode == 0 and proc.t_ready else [
            f"set-up probe: exit {proc.p.returncode}: {proc.stderr_tail()}"]
        ledger.op(problems)
        if not problems:
            setups.append(proc.t_ready - proc.t_spawn)
    reps = []
    counters = None
    began = time.perf_counter()
    while True:
        out = run_dir / f"rep{len(reps)}"
        proc, bench = reproduce(bins, run_dir, out, jobs, extra)
        problems = check_reproduce(proc, out, reference, f"{name} rep {len(reps)}")
        rep_counters = work_counters(bench)
        if counters is None:
            counters = rep_counters
        elif rep_counters != counters:
            problems.append(f"work counters drifted: {rep_counters} vs {counters}")
        if fixture is not None:
            if bench.get("simulations", 0) != 0:
                problems.append(f"warm replay simulated {bench['simulations']} pairs")
            if "disk_hits" in bench and bench["disk_hits"] != fixture["disk_writes"]:
                problems.append(f"warm replay disk hits {bench['disk_hits']} != "
                                f"fixture disk writes {fixture['disk_writes']}")
        ledger.op(problems)
        if not problems:
            lookups = bench.get("simulations", 0) + bench.get("cache_hits", 0)
            if lookups == 0:
                lookups = reference["plan_lookups"]
            wall = proc.t_exit - proc.t_ready
            setups.append(proc.t_ready - proc.t_spawn)
            reps.append({
                "wall": wall, "latency": proc.t_exit - proc.t_spawn,
                "cpu": proc.cpu_s, "rss": proc.rss_mb, "lookups": lookups})
        shutil.rmtree(out, ignore_errors=True)
        if time.perf_counter() - began >= seconds or ledger.failed >= 20:
            break
    if not reps:
        raise SystemExit(f"{name}: no successful repetition")
    committed = reference["plan_committed"]
    metrics = {
        "setup_s": median(setups),
        "wall_s": median(r["wall"] for r in reps),
        "cpu_s": median(r["cpu"] for r in reps),
        "peak_rss_mb": median(r["rss"] for r in reps),
        "sim_minst_per_s": median(committed / r["wall"] / 1e6 for r in reps),
        "req_per_s": median(r["lookups"] / r["wall"] for r in reps),
        "latency_p50_ms": median(r["latency"] for r in reps) * 1e3,
        "latency_p99_ms": percentile([r["latency"] for r in reps], 99) * 1e3,
    }
    samples = {"setup_s": len(setups), "latency": len(reps), "reps": len(reps)}
    return metrics, samples, counters or {}


# ---------------------------------------------------------------- serve


def wait_ready(sock_path, proc):
    """Polls the server with `ping` until it answers; returns the time,
    or None once the server has closed its stderr (exited)."""
    while True:
        if not proc.reader.is_alive():
            return None
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                s.connect(sock_path)
                s.sendall(b'{"op":"ping"}\n')
                reply = b""
                while not reply.endswith(b"\n"):
                    chunk = s.recv(4096)
                    if not chunk:
                        break
                    reply += chunk
            if reply.startswith(b'{"ok":true'):
                return time.perf_counter()
        except OSError:
            pass
        time.sleep(0.001)


def request_shutdown(sock_path):
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(10)
            s.connect(sock_path)
            s.sendall(b'{"op":"shutdown"}\n')
            s.recv(4096)
    except OSError:
        pass


def check_replies(replies):
    """Problems with the first reply of every distinct pair, plus the
    sum of committed instructions and cycles over the rows."""
    problems = []
    committed = cycles = 0
    for item in replies:
        want = json.loads(item["request"])
        config = want["configs"][0]
        try:
            reply = json.loads(item["reply"])
            rows = reply["rows"]
            row = rows[0]
            ok = (reply.get("ok") is True and len(rows) == 1
                  and row["benchmark"] == want["benchmarks"][0]
                  and row["policy"] == config["policy"]
                  and row["window_size"] == config["window_size"])
            committed += row["committed"]
            cycles += row["cycles"]
        except (ValueError, KeyError, IndexError, TypeError):
            ok = False
        if not ok:
            problems.append(f"reply does not carry the requested row: {item['reply'][:200]}")
    return problems, committed, cycles


def serve_session(bins, run_dir, jobs, seed, pings, ledger, index):
    """One fresh server, one closed-loop Zipf session, shutdown."""
    session = run_dir / f"session{index}"
    session.mkdir(parents=True)
    argv = [str(bins["mds-serve"]), "--socket", "s.sock", "--scale", "test",
            "--jobs", str(jobs), "--cache-dir", "cache"]
    server = Proc(argv, session)
    sock_path = str(session / "s.sock")
    load = None
    try:
        ready = wait_ready(sock_path, server)
        if ready is None:
            server.wait()
            ledger.op([f"mds-serve did not come up: {server.stderr_tail()}"])
            return None
        load_argv = [str(bins["perfbench-load"]), "--socket", "s.sock", "--seed", str(seed),
                     "--connections", str(jobs), "--pings", str(pings)]
        load = subprocess.run(load_argv, cwd=session, stdin=subprocess.DEVNULL,
                              capture_output=True, timeout=PROC_TIMEOUT_S)
    finally:
        request_shutdown(sock_path)
        if server.p.returncode is None:
            server.wait()
    if load.returncode != 0:
        ledger.op([f"load client exit {load.returncode}: {load.stderr.decode()[-300:]}"])
        return None
    result = json.loads(load.stdout.decode().strip().splitlines()[-1])
    problems, committed, cycles = check_replies(result["replies"])
    before = json.loads(result["stats_before"])["stats"]
    after = json.loads(result["stats_after"])["stats"]
    metrics = json.loads(result["metrics"]).get("metrics", {})
    delta = {k: after[k] - before[k] for k in after if isinstance(after[k], int)}
    counters = {
        "requests": result["requests"],
        "distinct_pairs": result["distinct"],
        "cold_pairs": delta.get("simulations"),
        "dedup_joined": metrics.get("dedup.joined"),
        "memory_hits": delta.get("cache_hits", 0) - delta.get("disk_hits", 0),
        "disk_hits": delta.get("disk_hits"),
        "disk_writes": delta.get("disk_writes"),
        "committed": committed,
        "cycles": cycles,
        "skipped_cycles": delta.get("skipped_cycles"),
        "lane_batches": delta.get("lane_batches"),
    }
    if counters["cold_pairs"] != result["distinct"]:
        problems.append(f"stats simulations delta {counters['cold_pairs']} != "
                        f"{result['distinct']} distinct pairs requested")
    if "service.pairs_requested" in metrics:
        joined = sum(metrics.get(k, 0) for k in
                     ("dedup.claimed", "dedup.joined", "dedup.served_from_cache"))
        if metrics["service.pairs_requested"] != joined:
            problems.append("dedup ledger does not balance: pairs_requested "
                            f"{metrics['service.pairs_requested']} != {joined}")
    if server.p.returncode != 0:
        problems.append(f"mds-serve exit {server.p.returncode}: {server.stderr_tail()}")
    errors = len(result["errors"])
    ledger.ops(result["requests"], result["mismatches"] + errors,
               "requests failed or differed from the pair's first reply")
    for p in problems:
        ledger.op([p])
    shutil.rmtree(session, ignore_errors=True)
    return {
        "setup": ready - server.t_spawn,
        "wall": result["wall_ns"] / 1e9,
        "requests": result["requests"],
        "latencies": result["latencies_ns"],
        "pings": result["ping_ns"],
        "cpu": server.cpu_s,
        "rss": server.rss_mb,
        "committed": committed,
        "counters": counters,
        "failed": bool(problems) or errors > 0 or result["mismatches"] > 0,
    }


def serve_workload(bins, run_dir, jobs, seed, seconds, ledger):
    sessions = []
    counters = None
    began = time.perf_counter()
    while True:
        s = serve_session(bins, run_dir, jobs, seed, 0, ledger, len(sessions))
        if s is not None:
            if counters is None:
                counters = s["counters"]
            elif s["counters"] != counters:
                ledger.op([f"work counters drifted: {s['counters']} vs {counters}"])
            if not s["failed"]:
                sessions.append(s)
        if time.perf_counter() - began >= seconds or ledger.failed >= 20:
            break
    if not sessions:
        raise SystemExit("serve_zipf: no successful session")
    latencies = [ns for s in sessions for ns in s["latencies"]]
    metrics = {
        "setup_s": median(s["setup"] for s in sessions),
        "wall_s": median(s["wall"] for s in sessions),
        "cpu_s": median(s["cpu"] for s in sessions),
        "peak_rss_mb": median(s["rss"] for s in sessions),
        "sim_minst_per_s": median(s["committed"] / s["wall"] / 1e6 for s in sessions),
        "req_per_s": median(s["requests"] / s["wall"] for s in sessions),
        "latency_p50_ms": percentile(latencies, 50) / 1e6,
        "latency_p99_ms": percentile(latencies, 99) / 1e6,
    }
    samples = {"setup_s": len(sessions), "latency": len(latencies), "reps": len(sessions)}
    return metrics, samples, counters


# --------------------------------------------------------- traced layers


def self_times(spans):
    """Self time of each span: its duration minus the part of its
    interval that its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    result = {}
    for s in spans:
        covered = 0
        edge = s["start_ns"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            lo, hi = max(c["start_ns"], edge), min(c["end_ns"], s["end_ns"])
            if hi > lo:
                covered += hi - lo
                edge = hi
        result[s["id"]] = (s["end_ns"] - s["start_ns"] - covered) / 1e9
    return result


def layer_metrics(spans):
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name):
        return sum(own[s["id"]] for s in by_name.get(name, []))

    def field(name, key):
        return sum(s["fields"].get(key, 0) for s in by_name.get(name, []))

    m = {}
    gen_s = total("Benchmark::trace")
    m["gen.s"] = gen_s
    m["gen.minst_per_s"] = field("Benchmark::trace", "insts") / gen_s / 1e6
    prep_s = total("TraceArtifacts::build")
    m["prep.s"] = prep_s
    m["prep.ns_per_inst"] = prep_s * 1e9 / field("TraceArtifacts::build", "insts")

    sims = by_name["Simulator::run_with_artifacts"]
    sim_s = total("Simulator::run_with_artifacts")
    committed = field("Simulator::run_with_artifacts", "committed")
    cycles = field("Simulator::run_with_artifacts", "cycles")
    skipped = field("Simulator::run_with_artifacts", "skipped")
    m["sim.s"] = sim_s
    m["sim.runs"] = len(sims)
    m["sim.committed"] = committed
    m["sim.cycles"] = cycles
    m["sim.skipped_frac"] = skipped / cycles
    m["sim.ns_per_inst"] = sim_s * 1e9 / committed
    m["sim.ns_per_stepped_cycle"] = sim_s * 1e9 / (cycles - skipped)
    ipc = {}
    for policy, key in POLICY_KEYS.items():
        mine = [s for s in sims if s["label"].split("|")[0] == policy]
        m[f"sim.ns_per_inst.{key}"] = (sum(own[s["id"]] for s in mine) * 1e9
                                       / sum(s["fields"]["committed"] for s in mine))
        for s in mine:
            bench = s["label"].split("|")[1]
            ipc[(policy, bench)] = s["fields"]["committed"] / s["fields"]["cycles"]
    m["sim.refetched_per_kinst"] = field("Simulator::run_with_artifacts", "squashed") * 1e3 / committed

    benches = sorted({b for _, b in ipc})
    groups = {"int": [b for b in benches if b in INT_BENCHMARKS],
              "fp": [b for b in benches if b not in INT_BENCHMARKS]}
    for part, members in groups.items():
        m[f"model.ipc_geomean_{part}"] = geomean([ipc[("NAS/NAV", b)] for b in members])
    for key, num, den in SUMMARY_ROWS:
        for part, members in groups.items():
            ratio = geomean([ipc[(num, b)] / ipc[(den, b)] for b in members])
            m[f"model.{key}.{part}_pct"] = (ratio - 1.0) * 100.0

    warm = [s for s in by_name["Runner::run_pairs"] if s["label"] == "warm"]
    m["disk.load_us_per_entry"] = (sum(own[s["id"]] for s in warm) * 1e6
                                   / sum(s["fields"]["pairs"] for s in warm))
    handles = by_name["SweepService::handle_line"]
    m["serve.handle_hit_us_p50"] = median(own[s["id"]] for s in handles if s["label"] == "hit") * 1e6
    m["serve.handle_cold_ms_p50"] = median(own[s["id"]] for s in handles if s["label"] == "cold") * 1e3
    return m


def run_layers(bins, run_dir, jobs, seed, spans_path):
    argv = [str(bins["perfbench-layers"]), "--seed", str(seed), "--jobs", str(jobs),
            "--work", str(run_dir / "layers")]
    if spans_path:
        argv += ["--spans", str(spans_path)]
    done = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True,
                          timeout=PROC_TIMEOUT_S)
    if done.returncode != 0:
        return None, done.stderr.decode()[-300:]
    return json.loads(done.stdout.decode().strip().splitlines()[-1]), None


def traced_workload(name, bins, root, run_dir, jobs, seed, reference, ledger):
    """The traced layer run: one cold and one warm `reproduce`, one
    serve session, and the in-process layer program run untraced and
    then traced. Returns per-layer metrics and the exact counters."""
    m = {}
    counters = {}

    out = run_dir / "cold"
    proc, bench = reproduce(bins, run_dir, out, jobs)
    ledger.op(check_reproduce(proc, out, reference, "traced cold reproduce"))
    exp = experiment_seconds(proc)
    for key in EXPERIMENT_KEYS:
        if key in exp:
            m[f"exp.{key}.s"] = exp[key]
    if "simulations" in bench:
        m["runner.simulations"] = bench["simulations"]
        m["runner.memory_hits"] = bench["cache_hits"] - bench.get("disk_hits", 0)
    if proc.t_ready and "simulation_seconds" in bench:
        busy = bench["simulation_seconds"] + bench.get("prep_seconds", 0.0)
        m["runner.pool_idle_frac"] = 1.0 - busy / ((proc.t_exit - proc.t_ready) * jobs)
    # Lane counters are optional: a build without lane batching runs
    # every simulation solo, which reads as no batches of width 1.
    m["lanes.batches"] = bench.get("lane_batches", 0)
    hist = bench.get("lane_width_histogram") or [1]
    if not sum(hist):
        hist = [1]
    m["lanes.mean_width"] = sum((i + 1) * n for i, n in enumerate(hist)) / sum(hist)
    counters["reproduce"] = work_counters(bench)

    cache, fixture = warm_fixture(bins, root, jobs, reference, ledger)
    out = run_dir / "warm"
    proc, bench = reproduce(bins, run_dir, out, jobs, ["--cache-dir", str(cache.resolve())])
    ledger.op(check_reproduce(proc, out, reference, "traced warm reproduce"))
    if fixture.get("disk_writes") is not None:
        m["disk.writes"] = fixture["disk_writes"]
    if "disk_hits" in bench:
        m["disk.hits"] = bench["disk_hits"]
    exp = experiment_seconds(proc)
    m["render.s"] = sum(v for k, v in exp.items() if k != "stability")
    counters["warm_replay"] = work_counters(bench)

    session = serve_session(bins, run_dir, jobs, seed, SERVE_PINGS, ledger, 0)
    if session is not None:
        c = session["counters"]
        m["serve.requests"] = c["requests"]
        m["serve.cold_pairs"] = c["cold_pairs"]
        if c["dedup_joined"] is not None:
            m["serve.dedup_joined"] = c["dedup_joined"]
        m["serve.rtt_ping_us_p50"] = median(session["pings"]) / 1e3
        counters["serve"] = c

    # Untraced and traced passes in A-B-B-A order, so a drift in machine
    # speed during the run cancels out of the overhead ratio.
    spans_path = root / WORK_DIR / f"spans-{name}-{seed}.jsonl"
    passes = {False: [], True: []}
    for traced in (False, True, True, False):
        result, err = run_layers(bins, run_dir, jobs, seed, spans_path if traced else None)
        ledger.op([f"layer pass failed: {err}"] if err else [])
        if result:
            passes[traced].append(result)
    works = [{k: v for k, v in r.items() if k not in ("wall_ns", "jobs")}
             for r in passes[False] + passes[True]]
    if works:
        bad = works[0]["serve_not_ok"] + works[0]["serve_mismatches"]
        ledger.op((["layer pass work counters drifted between passes"]
                   if any(w != works[0] for w in works) else [])
                  + ([f"{bad} in-process service replies failed"] if bad else []))
        counters["layers"] = works[0]
    if len(passes[False]) == 2 and len(passes[True]) == 2:
        spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
        m.update(layer_metrics(spans))
        wall = {k: sum(r["wall_ns"] for r in v) for k, v in passes.items()}
        m["obs.trace_overhead_frac"] = wall[True] / wall[False] - 1.0
        log(f"spans: {len(spans)} written to {spans_path}")
    missing = [k for k in LAYER_UNITS if k not in m]
    if missing:
        log(f"note: per-layer metrics not available: {', '.join(missing)}")
    return m, counters


# ----------------------------------------------------------------- main


def check_counters(root, workload, seed, trace, counters, bins, ledger):
    """Work counters must repeat exactly for one seed, across runs."""
    tag = sha256_file(bins["reproduce"])[:12]
    path = root / WORK_DIR / "counters" / f"{workload}-{seed}-{trace}-{tag}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        before = json.loads(path.read_text())
        ledger.op([] if before == counters else [
            f"work counters differ from an earlier run with seed {seed}: "
            f"{counters} vs {before}"])
    else:
        path.write_text(json.dumps(counters, sort_keys=True))


def run_one(args, root, bins, jobs, reference):
    ledger = Ledger()
    run_dir = root / WORK_DIR / f"run-{os.getpid()}-{args.workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            metrics, counters = traced_workload(
                args.workload, bins, root, run_dir, jobs, args.seed, reference, ledger)
            units = {k: LAYER_UNITS[k] for k in LAYER_UNITS if k in metrics}
            samples = None
        elif args.workload == "serve_zipf":
            metrics, samples, counters = serve_workload(
                bins, run_dir, jobs, args.seed, args.seconds, ledger)
            units = E2E_UNITS
        else:
            metrics, samples, counters = batch_workload(
                args.workload, bins, root, run_dir, jobs, args.seconds, reference, ledger)
            units = E2E_UNITS
        check_counters(root, args.workload, args.seed, args.trace, counters, bins, ledger)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    log(f"== {args.workload} (seed {args.seed}, trace {args.trace}, jobs {jobs})")
    if samples:
        log(f"samples: {samples['reps']} repetitions, {samples['setup_s']} set-ups, "
            f"{samples['latency']} latency samples")
    for name, unit in units.items():
        log(f"  {name:34s} {metrics[name]:>16.6g} {unit}")
    if args.trace:
        paper = reference["paper_summary"]
        for key, _, _ in SUMMARY_ROWS:
            ours = [metrics.get(f"model.{key}.{p}_pct") for p in ("int", "fp")]
            if None not in ours:
                log(f"  model {key:18s} int {ours[0]:+7.1f}% fp {ours[1]:+7.1f}%   "
                    f"(paper: int {paper[key][0]:+.1f}% fp {paper[key][1]:+.1f}%)")
    log(f"work counters: {json.dumps(counters, sort_keys=True)}")
    log(f"error_rate: {ledger.failed}/{ledger.attempted}")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def make_reference(root, bins, jobs):
    """Writes reference.json from a cold run of this commit's binary:
    output digests plus the plan's exact committed-instruction total."""
    work = root / WORK_DIR / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "out"
    proc, bench = reproduce(bins, work, out, jobs, ["--cache-dir", str((work / "cache").resolve())])
    if proc.p.returncode != 0:
        raise SystemExit(f"reproduce failed: {proc.stderr_tail()}")
    # Every simulation commits its whole trace. The main runner simulates
    # each entry under the suite's own trace directories once; stability
    # simulates 3 configs on each of its 3 seeds' traces (the first seed
    # is the suite's, so in a run without a disk cache those are
    # simulated again). One trace directory per (benchmark, seed).
    dirs = {}
    for entry in (work / "cache").glob("v*/*/*.json"):
        result = json.loads(entry.read_text())["result"]
        dirs.setdefault(entry.parent.name, []).append(result["stats"]["committed"])
    main = [c for v in dirs.values() if len(v) > 3 for c in v]
    lines = json.loads((out / "summary.json").read_text())["lines"]
    reference = {
        "stdout_sha256": sha256_file(out.parent / (out.name + ".stdout")),
        "txt_sha256": {p.name: sha256_file(p) for p in sorted(out.glob("*.txt"))},
        "plan_committed": sum(main) + 3 * sum(v[0] for v in dirs.values()),
        "plan_lookups": bench["simulations"] + bench["cache_hits"],
        "paper_summary": {
            key: [round((r - 1.0) * 100.0, 3) for r in line["paper"]]
            for (key, _, _), line in zip(SUMMARY_ROWS, lines)
        },
    }
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    log(f"wrote {REFERENCE}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args()
    if not args.make_reference and not args.workload:
        parser.error("--workload is required")

    root = Path.cwd()
    if not (root / "Cargo.toml").is_file() or not (root / "crates" / "harness").is_dir():
        log("perfbench: run from the root of an mds checkout (Cargo.toml and "
            "crates/harness not found)")
        return 2
    jobs = len(os.sched_getaffinity(0))
    bins = build(root, trace=bool(args.trace))
    if args.make_reference:
        make_reference(root, bins, jobs)
        return 0
    reference = json.loads(REFERENCE.read_text())

    if args.workload != "all":
        print(json.dumps(run_one(args, root, bins, jobs, reference)))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        args.workload = workload
        result = run_one(args, root, bins, jobs, reference)
        print(json.dumps(result), flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{workload}.{k}"] = v
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
