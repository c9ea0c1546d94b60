#!/usr/bin/env python3
"""ConfErr benchmark: the shipped `conferr` binary, end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --seed N --seconds S --steady 10

With --trace 0 every operation goes through the CLI (one process per
campaign, or `conferr serve` over loopback HTTP) and the
end-to-end metrics are printed.  With --trace 1 the in-process replay
(perfbench/inproc) records spans around each layer and the per-layer
metrics are printed.  --steady N runs the workload N times with seeds
N, N+1, ... and prints each end-to-end metric's median, quartiles and
spread against its bound.  The last line of standard output is always
one JSON result object (not in --steady mode).  See perfbench/README.md.
"""

import argparse
import hashlib
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BUILD = ".bench_build"
OUT = ".bench_out"
BIN = os.path.join(BUILD, "default", "bin", "main.exe")
INPROC = os.path.join(BUILD, "default", "perfbench", "inproc", "inproc.exe")
HOSTREF = os.path.join(BUILD, "default", "perfbench", "hostref", "hostref.exe")
# The host reference (perfbench/hostref): its argument, and its time in
# the fast phases of the 2-vCPU host the benchmark was written on.
# Fresh-process times are reported as time * REF_MS / reference time.
REF_ROUNDS = "8"
REF_MS = 32.0

# Scenario count of the paper typo faultload per SUT; it does not depend
# on the seed.  This is the oracle for profile TOTAL rows, journals and
# serve campaigns.
SCENARIOS = {"postgres": 168, "mysql": 214, "djbdns": 211, "appserver": 126,
             "apache": 785}
SERVE_MIX = ["postgres", "mysql", "djbdns", "appserver"]  # as in inproc.ml

# Operations per run are fixed per workload: ops = per_s * --seconds.
# trace_ops is the operation count of the in-process traced replay.
WORKLOADS = {
    "profile-apache": dict(kind="profile", sut="apache", jobs=1,
                           per_s=2.5, trace_ops=5),
    "serve-open": dict(kind="serve", rate=6.0, per_s=6.0, trace_ops=24),
}
# The --jobs 2 probe of a traced run (see race_probe): SUT and the
# number of fresh processes.
PROBE_SUT = "postgres"
PROBE_PROCS = 40
SETUP_REPS = 15
POLL_S = 0.005  # serve-open: pause between status sweeps
STOP_S = 10  # serve-open: longest graceful drain of the daemon
FAILED_MS = 1e9  # reported when no operation succeeded


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------
# Build, host stamp, processes
# ---------------------------------------------------------------------

def build():
    for need in ("dune-project", "bin/main.ml", "lib", "perfbench/inproc/dune"):
        if not os.path.exists(need):
            log(f"perfbench: {need} not found; run from the root of a "
                "ConfErr checkout")
            sys.exit(2)
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.abspath(os.path.join(BUILD, "cache")))
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD, "./bin/main.exe",
           "./perfbench/inproc/inproc.exe", "./perfbench/hostref/hostref.exe"]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(1)


def host_stamp():
    try:
        ocaml = subprocess.run(["ocamlfind", "ocamlopt", "-version"],
                               capture_output=True, text=True).stdout.strip()
    except OSError:
        ocaml = "unknown"
    rev = None
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True)
        rev = r.stdout.strip() or None
    if rev is None:
        # not a git checkout: a digest of the program's sources
        h = hashlib.sha1()
        for top in ("bin", "lib"):
            for d, _, files in sorted(os.walk(top)):
                for f in sorted(files):
                    p = os.path.join(d, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
        rev = "src-" + h.hexdigest()[:12]
    return {"nproc": len(os.sched_getaffinity(0)), "ocaml": ocaml, "rev": rev}


def spawn(argv, out, err):
    """Start argv with stdout/stderr redirected to files; return the pid."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    return os.posix_spawn(argv[0], argv, os.environ, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)])


def reap(pid):
    """Wait for pid; return (exit code, peak RSS in MiB)."""
    _, status, ru = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), ru.ru_maxrss / 1024.0


def run_cli(args, rundir, tag):
    """One CLI process: (exit code, seconds, peak MiB, stdout, stderr)."""
    out = os.path.join(rundir, tag + ".out")
    err = os.path.join(rundir, tag + ".err")
    t0 = time.perf_counter()
    pid = spawn([BIN] + args, out, err)
    code, rss = reap(pid)
    dt = time.perf_counter() - t0
    with open(out, errors="replace") as f:
        stdout = f.read()
    with open(err, errors="replace") as f:
        stderr = f.read()
    os.remove(out)
    os.remove(err)
    return code, dt, rss, stdout, stderr


def reference_ms():
    """Time one fresh host-reference process."""
    t0 = time.perf_counter()
    code, _ = reap(spawn([HOSTREF, REF_ROUNDS], os.devnull, os.devnull))
    if code != 0:
        raise RuntimeError(f"hostref exited {code}")
    return (time.perf_counter() - t0) * 1000


def journal_ok(path, total):
    """Exactly one entry per scenario."""
    ids = []
    with open(path) as f:
        for line in f:
            ids.append(json.loads(line)["entry"]["id"])
    return len(ids) == total and len(set(ids)) == total


def percentile(values, p):
    xs = sorted(values)
    if not xs:
        return FAILED_MS
    k = p * (len(xs) - 1)
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (k - lo) * (xs[hi] - xs[lo])


class Run:
    """Outcome of one measured loop."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # exit 0 but incorrect output
        self.latencies = []  # ms, of the operations that succeeded
        self.scenarios = 0
        self.wall = 0.0  # serve-open: the time a campaign was in flight
        self.rss = 0.0
        self.by_sut = {}  # serve-open: latencies per SUT of the mix
        self.extra = {}  # informational figures (printed, not bounded)
        self.refs = []  # ms, host-reference times taken next to the ops
        self.notes = []

    def op(self, ok, ms, scenarios=0, why=None, exit_ok=True):
        self.attempted += 1
        if ok:
            self.latencies.append(ms)
            self.scenarios += scenarios
        else:
            self.failed += 1
            if exit_ok:
                self.wrong += 1
            if why:
                self.notes.append(why)


# ---------------------------------------------------------------------
# Workloads through the CLI
# ---------------------------------------------------------------------

def check_suts(rundir):
    """Every SUT the benchmark drives is in the catalog, and its stock
    configuration, the baseline the faultloads are injected into, lints
    clean."""
    code, _, _, out, _ = run_cli(["list-suts"], rundir, "setup")
    listed = {line.split()[0] for line in out.splitlines() if line.strip()}
    if code != 0 or not listed >= set(SCENARIOS):
        raise RuntimeError("conferr list-suts lacks a benchmarked SUT")
    for sut in SCENARIOS:
        code, _, _, out, _ = run_cli(["lint", "--sut", sut], rundir, "setup")
        if code != 0 or out.strip() != "no findings":
            raise RuntimeError(f"the stock configuration of {sut} does not "
                               "lint clean")


def profile_setup(rundir, _wl, _rep):
    check_suts(rundir)


def profile_op(rundir, sut, seed, jobs):
    """One `conferr profile --journal` process, checked: (why it failed
    or None, exit code, stderr, seconds, peak MiB)."""
    total = SCENARIOS[sut]
    journal = os.path.join(rundir, "op.jsonl")
    code, dt, rss, out, err = run_cli(
        ["profile", "--sut", sut, "--seed", str(seed), "--jobs", str(jobs),
         "--journal", journal], rundir, "op")
    # TOTAL row: applicable ... n/a; together the whole faultload
    m = re.search(r"^TOTAL\s+(\d+)\s.*\s(\d+)$", out, re.M)
    if code != 0:
        why = "exit %d: %s" % (
            code, (err.strip().splitlines() or ["(no output)"])[-1].strip())
    elif not m or int(m.group(1)) + int(m.group(2)) != total:
        why = f"TOTAL row != {total}"
    elif not journal_ok(journal, total):
        why = f"journal != {total} distinct entries"
    else:
        why = None
    if os.path.exists(journal):
        os.remove(journal)
    if why:
        why = f"{sut} seed {seed} --jobs {jobs}: {why}"
    return why, code, err, dt, rss


def profile_loop(rundir, wl, seed, ops, _daemon):
    run = Run()
    sut = wl["sut"]
    for i in range(ops):
        run.refs.append(reference_ms())
        why, code, _, dt, rss = profile_op(rundir, sut, seed + i, wl["jobs"])
        run.rss = max(run.rss, rss)
        if why:
            run.op(False, 0, why=why, exit_ok=code == 0)
        else:
            run.op(True, dt * 1000, SCENARIOS[sut])
    return run


def race_probe(run, rundir, seed):
    """pool.jobs2_crash_share: the share of PROBE_PROCS fresh `conferr
    profile --jobs 2` processes that crash on the known race.

    Known defect: both worker domains force the Sandbox.backtraces lazy
    (lib/harden/sandbox.ml) at once, and OCaml 5 raises
    CamlinternalLazy.Undefined in the one that loses, so the process
    exits 125.  How often depends on the host's timing: from 1 in 60 to
    19 in 40 pg processes on the same 2-core host within an hour.  A
    count that random cannot be part of `failed`, which two series of
    the same code must agree on, so the race is this per-layer figure
    instead, and the timed loops never run a fresh --jobs 2 process.
    Any other failure of a probe process is a failed operation."""
    crashed = 0
    for k in range(PROBE_PROCS):
        why, code, err, _, _ = profile_op(rundir, PROBE_SUT, seed + k, 2)
        if code != 0 and "CamlinternalLazy.Undefined" in err:
            crashed += 1
        elif why:
            run.op(False, 0, why=why, exit_ok=code == 0)
    run.extra["probe_crashed"] = f"{crashed}/{PROBE_PROCS}"
    return crashed / PROBE_PROCS


class Daemon:
    """A `conferr serve --jobs 2` child on an ephemeral loopback port."""

    def __init__(self, rundir, k):
        self.state = os.path.join(rundir, f"serve-{k}")
        port_file = os.path.join(rundir, f"port-{k}")
        self.pid = spawn(
            [BIN, "serve", "--jobs", "2", "--port", "0", "--port-file",
             port_file, "--state-dir", self.state, "--max-campaigns",
             "100000"],
            os.path.join(rundir, f"serve-{k}.out"),
            os.path.join(rundir, f"serve-{k}.err"))
        try:
            self.port = self.wait_port(port_file)
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=30)
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            resp.read()
            conn.close()
            if resp.status != 200:
                raise RuntimeError("conferr serve is not healthy")
        except BaseException:
            self.stop()
            raise

    @staticmethod
    def wait_port(port_file):
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                with open(port_file) as f:
                    text = f.read()
            except OSError:
                text = ""
            if text.endswith("\n"):  # written in one line once listening
                return int(text)
            time.sleep(0.0005)
        raise RuntimeError("conferr serve did not start")

    def stop(self):
        """SIGTERM (graceful drain), SIGKILL if the drain takes more than
        STOP_S; return (exit code, peak MiB)."""
        if self.pid is None:
            return 0, 0.0
        pid, self.pid = self.pid, None
        os.kill(pid, signal.SIGTERM)
        deadline = time.monotonic() + STOP_S
        while time.monotonic() < deadline:
            done, status, ru = os.wait4(pid, os.WNOHANG)
            if done:
                return os.waitstatus_to_exitcode(status), ru.ru_maxrss / 1024.0
            time.sleep(0.005)
        os.kill(pid, signal.SIGKILL)
        return reap(pid)


def serve_setup(rundir, _wl, rep):
    """check_suts, then a fresh daemon that answers /healthz."""
    check_suts(rundir)
    return Daemon(rundir, rep)


def serve_loop(_rundir, wl, seed, ops, daemon):
    """Open loop: submission i is due at start + i/rate; each campaign is
    timed from its due time to the poll that sees it terminal."""
    run = Run()
    rate = wl["rate"]
    subs = [dict(sut=SERVE_MIX[(seed + i) % len(SERVE_MIX)], seed=seed + i)
            for i in range(ops)]
    lock = threading.Lock()
    pending = []
    done = threading.Event()  # every submission sent
    quit = threading.Event()  # the run is being abandoned
    start = time.perf_counter() + 0.05

    def submitter():
        conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=60)
        try:
            submit_all(conn)
        finally:
            conn.close()
            done.set()

    def submit_all(conn):
        for i, s in enumerate(subs):
            if quit.is_set():
                return
            s["due"] = start + i / rate
            wait = s["due"] - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            t = s["sent"] = time.perf_counter()
            s["late"] = t - s["due"]
            body = json.dumps({"sut": s["sut"], "seed": s["seed"]})
            conn.request("POST", "/campaigns", body,
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            data = resp.read()
            s["submit"] = time.perf_counter() - t
            s["http"] = resp.status
            if resp.status == 202:
                s["id"] = json.loads(data)["id"]
                with lock:
                    pending.append(s)

    def poller():
        conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=60)
        try:
            poll_all(conn)
        finally:
            conn.close()

    def poll_all(conn):
        while not quit.is_set():
            with lock:
                batch = list(pending)
            if not batch:
                if done.is_set():
                    with lock:
                        if not pending:
                            break
                time.sleep(POLL_S)
                continue
            for s in batch:
                conn.request("GET", "/campaigns/" + s["id"])
                resp = conn.getresponse()
                summary = json.loads(resp.read())
                if summary["status"] not in ("queued", "running"):
                    s["end"] = time.perf_counter()
                    s["summary"] = summary
                    with lock:
                        pending.remove(s)
            time.sleep(POLL_S)

    threads = [threading.Thread(target=f, daemon=True)
               for f in (submitter, poller)]
    for t in threads:
        t.start()
    try:
        for t in threads:
            t.join()
    finally:
        # on an early exit (a signal), the threads close their
        # connections so that the daemon can drain
        quit.set()
        for t in threads:
            t.join(timeout=5)
    code, rss = daemon.stop()
    run.rss = rss
    for s in subs:
        total = SCENARIOS[s["sut"]]
        summary = s.get("summary", {})
        ok = (s.get("http") == 202 and summary.get("status") == "done"
              and summary.get("finished") == total
              and summary.get("total") == total)
        why = None if ok else (
            f"seed {s['seed']} ({s['sut']}): http {s.get('http')} "
            f"status {summary.get('status')} "
            f"{summary.get('finished')}/{summary.get('total')}")
        if ok and not journal_ok(os.path.join(daemon.state, s["id"] + ".jsonl"),
                                 total):
            ok, why = False, f"seed {s['seed']}: journal != {total} entries"
        ms = (s.get("end", 0) - s["due"]) * 1000
        run.op(ok, ms, total, why=why,
               exit_ok=summary.get("status") != "failed")
        if ok:
            run.by_sut.setdefault(s["sut"], []).append(ms)
    if code != 0:
        run.notes.append(f"conferr serve exited {code}")
        run.wrong += 1
    # Open loop: the arrival window is fixed by the rate, so throughput
    # is over the time at least one campaign was in flight (sent to
    # terminal status), which grows when the program slows down.
    run.wall = busy_time([(s["sent"], s["end"]) for s in subs if "end" in s])
    submits = [s["submit"] * 1000 for s in subs if "submit" in s]
    run.extra["submit_ms_p50"] = percentile(submits, 0.5)
    run.extra["submit_ms_p90"] = percentile(submits, 0.9)
    run.extra["gen_late_ms_p90"] = percentile(
        [s["late"] * 1000 for s in subs if "late" in s], 0.9)
    return run


def busy_time(intervals):
    """Length of the union of (start, end) intervals."""
    busy, edge = 0.0, float("-inf")
    for a, b in sorted(intervals):
        a = max(a, edge)
        if b > a:
            busy += b - a
            edge = b
    return busy


# set-up (returns the daemon, if any) and measured loop of each kind
KINDS = {
    "profile": (profile_setup, profile_loop),
    "serve": (serve_setup, serve_loop),
}


def measure(name, seed, ops, rundir):
    """Set up SETUP_REPS times (median = setup_s), then run the loop."""
    wl = WORKLOADS[name]
    setup, loop = KINDS[wl["kind"]]
    setups = []
    refs = []
    daemon = None
    try:
        for rep in range(SETUP_REPS):
            if daemon:  # a fresh daemon per run: stop the previous try
                daemon.stop()
            refs.append(reference_ms())
            t0 = time.perf_counter()
            daemon = setup(rundir, wl, rep)
            setups.append(time.perf_counter() - t0)
        run = loop(rundir, wl, seed, ops, daemon)
    finally:
        if daemon:
            daemon.stop()
    run.setup_raw_s = statistics.median(setups)
    run.setup_ref_ms = statistics.median(refs)
    run.setup_s = run.setup_raw_s * REF_MS / run.setup_ref_ms
    return run


# ---------------------------------------------------------------------
# Result
# ---------------------------------------------------------------------

def op_ms(run, p):
    """Latency percentile p of the successful operations.  Campaign
    latency clusters by SUT, and a percentile over a mix would sit on
    the boundary between two clusters, so on a mix it is the mean of
    each SUT's percentile."""
    if run.by_sut:
        return statistics.fmean(percentile(xs, p) for xs in run.by_sut.values())
    return percentile(run.latencies, p)


def end_to_end(name, seed, seconds, rundir):
    wl = WORKLOADS[name]
    ops = max(20, round(seconds * wl["per_s"]))
    run = measure(name, seed, ops, rundir)
    n = len(run.latencies)
    # The bounded latency is the 20th percentile: on a shared host the
    # slow phases come from neighbours (see README, Host speed), and
    # the fastest fifth of the operations moves with the program.  It
    # needs ten samples below it, per SUT on a mix.
    fewest = min(map(len, run.by_sut.values())) if run.by_sut else n
    if round(fewest * 0.2) < 10:
        log(f"perfbench: op_ms_p20 from {fewest} samples: fewer than ten "
            "lie below it; use more --seconds")
    p20 = op_ms(run, 0.2)
    info = {"ops": n, "op_ms_p20_raw": p20, "setup_s_raw": run.setup_raw_s,
            "setup_ref_ms": run.setup_ref_ms}
    if run.by_sut:
        scenarios_per_s = run.scenarios / run.wall if run.wall else 0.0
    else:
        # Fresh CLI processes, timed against the host reference taken
        # before each of them, at the same percentile.
        ref = percentile(run.refs, 0.2)
        info["ref_ms_p20"] = ref
        p20 *= REF_MS / ref
        # One client in a closed loop: throughput is the inverse of
        # latency, so it is taken at the same percentile.
        scenarios_per_s = SCENARIOS[wl["sut"]] * 1000 / p20
    metrics = {
        "scenarios_per_s": scenarios_per_s,
        "op_ms_p20": p20,
        "setup_s": run.setup_s,
        "peak_rss_mb": run.rss,
    }
    info["op_ms_p50"] = op_ms(run, 0.5)
    # the tail is printed only where at least ten samples lie beyond it
    for p in (0.9, 0.75):
        if round(n * (1 - p)) >= 10:
            info[f"op_ms_p{round(p * 100)}"] = percentile(run.latencies, p)
            break
    info.update(run.extra)
    for sut, xs in sorted(run.by_sut.items()):
        info[f"op_ms_p50[{sut}]"] = percentile(xs, 0.5)
    return run, metrics, info


def traced(name, seed, rundir):
    wl = WORKLOADS[name]
    trace_path = os.path.join(OUT, f"trace-{name}-{seed}.json")
    out = os.path.join(rundir, "inproc.out")
    err = os.path.join(rundir, "inproc.err")
    pid = spawn([INPROC, "--workload", name, "--seed", str(seed), "--ops",
                 str(wl["trace_ops"]), "--rate", str(wl.get("rate", 0)),
                 "--dir", rundir, "--out", trace_path], out, err)
    code, _ = reap(pid)
    with open(err) as f:
        sys.stderr.write(f.read())
    if code != 0:
        raise RuntimeError(f"inproc exited {code}")
    with open(out) as f:
        layers = json.loads(f.read().strip().splitlines()[-1])
    # the same operations through the binary, for the CLI overhead
    run = measure(name, seed, wl["trace_ops"], rundir)
    inproc_p50 = layers.pop("inproc.op_ms_p50")
    layers["bin.cli_overhead_ms"] = percentile(run.latencies, 0.5) - inproc_p50
    layers["pool.jobs2_crash_share"] = race_probe(run, rundir, seed)
    layers["ops.attempted"] += run.attempted
    layers["ops.failed"] += run.failed
    run.attempted = int(layers["ops.attempted"])
    run.failed = int(layers["ops.failed"])
    log(f"perfbench: trace written to {trace_path}")
    return run, layers, dict(run.extra, trace=trace_path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="N")
    args = ap.parse_args()
    # stop the daemon and clean up on SIGTERM as on any other exit
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    build()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    host = host_stamp()
    print("# host nproc=%(nproc)d ocaml=%(ocaml)s rev=%(rev)s" % host)
    if args.steady:
        return steady(args, spec)
    os.makedirs(OUT, exist_ok=True)
    rundir = os.path.abspath(os.path.join(
        OUT, f"{args.workload}-{args.seed}-{os.getpid()}"))
    os.makedirs(rundir)
    try:
        if args.trace:
            run, values, info = traced(args.workload, args.seed, rundir)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            run, values, info = end_to_end(args.workload, args.seed,
                                           args.seconds, rundir)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    for note in run.notes:
        log("perfbench: failed: " + note)
    print(f"# {args.workload} seed={args.seed} attempted={run.attempted} "
          f"failed={run.failed}")
    for k, v in info.items():
        print(f"#   {k:<36} {v:.6g}" if isinstance(v, float) else
              f"#   {k:<36} {v}")
    for k in units:
        print(f"  {k:<36} {values[k]:>14.6g} {units[k]}")
    result = {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


def steady(args, spec):
    values = {m["name"]: [] for m in spec["end_to_end"]}
    attempted = failed = 0
    for k in range(args.steady):
        seed = args.seed + k
        r = subprocess.Popen(
            [sys.executable, sys.argv[0], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            out, err = r.communicate()
        except BaseException:
            r.terminate()  # lets the run stop its daemon
            r.wait()
            raise
        if r.returncode != 0:
            sys.stderr.write(err)
            log(f"perfbench: run with seed {seed} exited {r.returncode}")
            return 1
        result = json.loads(out.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        log(f"perfbench: seed {seed}: failed={result['failed']} " + " ".join(
            f"{n}={v[-1]:.5g}" for n, v in values.items()))
    print(f"# {args.workload} runs={args.steady} attempted={attempted} "
          f"failed={failed}")
    print(f"  {'metric':<18} {'unit':<6} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>8} {'bound':>6}  spread/bound")
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        print(f"  {m['name']:<18} {m['unit']:<6} {med:>10.5g} {q1:>10.5g} "
              f"{q3:>10.5g} {spread:>8.4f} {m['bound']:>6}  "
              f"{spread / m['bound']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
