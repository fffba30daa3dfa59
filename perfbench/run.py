#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds quantcli, quantd and the
benchmark's runner with dune in the build context of
perfbench/dune-workspace, runs one workload, checks the outputs and
prints one JSON line last: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 the run is a separate traced run that prints every
per-layer metric, whatever the workload. perfbench/README.md describes
the workloads, their inputs and what each metric should move.
"""

import argparse
import json
import os
import random
import signal
import socket
import subprocess
import sys
import time
from statistics import median

import benchlib

WORKSPACE = "perfbench/dune-workspace"
QUANTCLI = "_build/perfbench/bin/quantcli.exe"
QUANTD = "_build/perfbench/bin/quantd.exe"
RUNNER = "_build/perfbench/perfbench/runner/runner.exe"
TARGETS = ["./bin/quantcli.exe", "./bin/quantd.exe", "./perfbench/runner/runner.exe"]
# Sockets and run reports; inside the checkout, ignored by git.
WORK = ".perfbench"

# Nominal seconds of one round of each workload. They only turn --seconds
# into a number of rounds, so the work of a run is fixed by its
# arguments, never by how fast the machine happens to be.
ROUND_S = {"fischer5-check": 3.0, "quantd-session": 1.75, "synth-suite": 6.5}

# Rounds of the parts of the traced run.
TRACE_CHECK_PAIRS = 5
TRACE_SESSION_ROUNDS = 13
TRACE_SYNTH_ROUNDS = 2

SETUPS = 5


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def die(msg):
    log(msg)
    sys.exit(2)


def rounds_total(per_round):
    """A timed phase's total as rounds x median round. Rounds of one run
    do alike work, so the median round is the figure a burst of load from
    outside, hitting a few rounds, does not move."""
    return len(per_round) * median(per_round)


def run_child(argv):
    """Run argv to its end. Returns (exit code, output, wall s, CPU s,
    peak RSS MiB) of that one process, stdout and stderr together."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    out = p.stdout.read()
    p.stdout.close()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, out.decode(), wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


class Tally:
    """Operations attempted and failed. An operation is one process, one
    request, one task or one check over a whole run; it fails on a wrong
    output, an error reply, an exit code other than 0 or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log("failed:", what)


# ---------------------------------------------------------------------
# fischer5-check


def check_argv(model, n, jobs):
    """quantcli check; jobs 0 leaves out --jobs (the sequential engine)."""
    argv = [QUANTCLI, "check", "--model", model, "-n", str(n)]
    if jobs:
        argv += ["--jobs", str(jobs)]
    return argv


# One worker domain, like DAEMON_JOBS: on a 2-core VM a run that keeps
# both cores busy waits whenever the hypervisor takes either, and its
# wall spreads two to three times wider between runs (README.md).
FISCHER_JOBS = 1
FISCHER5 = check_argv("fischer", 5, FISCHER_JOBS)
FISCHER_QUERIES = ["mutual exclusion", "deadlock-free"]


def verdicts_hold(out, queries):
    """Every query line of a check says satisfied: Fischer's protocol with
    a strict wait is mutually exclusive for every n, and the model is
    deadlock-free."""
    lines = out.splitlines()
    return len(lines) == len(queries) and all(
        line.startswith(q) and line.split()[len(q.split())] == "satisfied"
        for line, q in zip(lines, queries)
    )


def fischer_check(tally, _seed, rounds):
    """No input is drawn from the seed: the model has no parameter to vary
    but n, and n is the point of the workload."""
    setups = []
    for _ in range(SETUPS):
        code, out, wall, _, _ = run_child(check_argv("fischer", 4, FISCHER_JOBS))
        tally.op(code == 0, "warm-up check -n 4 exit %d" % code)
        setups.append(wall)
    runs = [run_child(FISCHER5) for _ in range(rounds)]
    for code, out, _, _, _ in runs:
        tally.op(code == 0 and verdicts_hold(out, FISCHER_QUERIES), "check -n 5: %r" % out)
    tally.op(len({out for _, out, _, _, _ in runs}) == 1, "check -n 5 outputs differ between runs")
    return {
        "setup_s": median(setups),
        "wall_s": rounds_total([r[2] for r in runs]),
        "cpu_s": rounds_total([r[3] for r in runs]),
        "peak_rss_mb": max(r[4] for r in runs),
        "req_p50_ms": 1000.0 * median(r[2] for r in runs),
    }


def trace_check(tally):
    """Per-layer figures of a fischer-5 check, from the program's own
    --report/--flight/--stats-json output, plus the tracing overhead:
    the median over back-to-back pairs of traced over untraced process
    wall, so a slow stretch of the machine falls on both of a pair."""
    os.makedirs(WORK, exist_ok=True)
    report = os.path.join(WORK, "check-report.json")
    flight = os.path.join(WORK, "check-flight.json")
    traced = FISCHER5 + ["--report", report, "--flight", flight, "--stats-json"]
    ratios = []
    for _ in range(TRACE_CHECK_PAIRS):
        code, out, plain, _, _ = run_child(FISCHER5)
        tally.op(code == 0 and verdicts_hold(out, FISCHER_QUERIES), "check -n 5: %r" % out)
        code, out, wall, _, _ = run_child(traced)
        stats = [json.loads(line) for line in out.splitlines()]
        tally.op(code == 0 and [s["holds"] for s in stats] == [True, True], "traced check -n 5: %r" % out)
        ratios.append(wall / plain)
    with open(report) as f:
        rep = json.load(f)
    phases = {k: v["total_s"] for k, v in rep["phases"].items()}
    metrics = rep["metrics"]
    stats = stats[0]["stats"]
    run_s = phases["engine.run_sharded"]
    code, out, _, _, _ = run_child([RUNNER, "replay"])
    tally.op(code == 0, "replay: %r" % out)
    replay = json.loads(out)
    tally.op(replay["states"] == stats["visited"],
             "replay BFS visited %d states, check %d" % (replay["states"], stats["visited"]))
    gc = rep["gc"]
    return {
        "zones.seal_s": phases["dbm.seal"],
        "zones.extrapolate_s": phases["dbm.extrapolate"],
        "zones.lattice_cmp_per_state": stats["dbm_lattice_cmp"] / stats["visited"],
        "zones.intern_size": replay["intern_size"],
        "zones.subset_ns": replay["subset_ns"],
        "zones.up_ns": replay["up_ns"],
        "zones.reset_ns": replay["reset_ns"],
        "zones.constrain_ns": replay["constrain_ns"],
        "zones.extrapolate_lu_ns": replay["extrapolate_lu_ns"],
        "zones.seal_ns": replay["seal_ns"],
        "engine.store.subsume_s": phases["store.subsume"],
        "engine.store.probe_s": phases["store.probe"],
        "engine.store.insert_s": phases["store.insert"],
        "engine.shard_expand_s": phases["engine.shard_expand"],
        "engine.shard_merge_s": phases["engine.shard_merge"],
        "engine.store_hit_rate": stats["store_hit_rate"],
        "engine.store_words": stats["store_words"],
        "engine.visited": stats["visited"],
        "engine.states_per_s": metrics["engine.visited"]["value"] / run_s,
        "engine.store.replay_inserts_per_s": replay["replay_inserts_per_s"],
        "par.shard_rounds": metrics["par.shard_rounds"]["value"],
        "par.busy_share": (phases["engine.shard_expand"] + phases["engine.shard_merge"]) / (FISCHER_JOBS * run_s),
        "ta.successors_us": replay["successors_us"],
        "ta.deadlocked_us": replay["deadlocked_us"],
        "gc.minor_words_per_successor": gc["minor_words"] / metrics["engine.fanout"]["sum"],
        "gc.promoted_words": gc["promoted_words"],
        "gc.major_collections": gc["major_collections"],
        "gc.top_heap_words": gc["top_heap_words"],
        "obs.traced_wall_ratio": median(ratios),
    }


# ---------------------------------------------------------------------
# quantd-session, and the session of the traced run

DAEMON_JOBS = 1
CHECK_FINGERPRINTS = [(m, n, j) for m in ("fischer", "train-gate") for n in (2, 3, 4) for j in (0, 1, 2)]
SMC_TRAINS = 3
SMC_RUNS = 300
MODES_RUNS = 500
FUZZ_CASES = 5
# Requests of one round, by kind; smc_pair counts pairs, two requests
# each. The median request must lie mid-class in one homogeneous class,
# or it jumps between classes from run to run: the 40 fischer smc
# requests (about 17 ms) have 20 faster requests below them (ping,
# metrics, check, fuzz) and 20 slower above (pairs, modes).
ROUND_MIX = {"ping": 5, "metrics": 2, "check": 8, "fuzz": 5, "smc": 40, "smc_pair": 5, "modes": 10}
# Pooled modes counts may stray this many standard errors from the
# closed forms before the check fails.
MODES_Z = 5.0
RESENT_PAIRS = 3


class Daemon:
    """One quantd process and one client connection to it."""

    def __init__(self):
        os.makedirs(WORK, exist_ok=True)
        self.path = os.path.join(WORK, "quantd-%d.sock" % os.getpid())
        self.proc = subprocess.Popen(
            [QUANTD, "--jobs", str(DAEMON_JOBS), "--socket", self.path],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        if "listening" not in line:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("quantd did not start: %r" % line)
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(120)
        self.sock.connect(self.path)
        self.rfile = self.sock.makefile("rb")
        self.next_id = 0

    def call(self, reqs):
        """Send [(method, params)] in one write, read one reply each.
        Returns [(reply, latency ms)], the latency from the write to that
        reply."""
        lines = []
        for meth, params in reqs:
            self.next_id += 1
            lines.append(json.dumps({"v": 1, "id": self.next_id, "method": meth, "params": params}))
        t0 = time.perf_counter()
        self.sock.sendall(("\n".join(lines) + "\n").encode())
        out = []
        for _ in reqs:
            line = self.rfile.readline()
            out.append((json.loads(line), 1000.0 * (time.perf_counter() - t0)))
        first = self.next_id - len(reqs) + 1
        if [r["id"] for r, _ in out] != list(range(first, self.next_id + 1)):
            raise RuntimeError("reply ids out of order")
        return out

    def stop(self):
        self.rfile.close()
        self.sock.close()
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        return self.proc.returncode


def warm_up(d):
    """Compile every model the session uses and run one request of each
    sampling kind at the session's size; seed 1 is below every session
    seed, so none of these fingerprints recurs in the session."""
    reqs = [("smc", {"model": m, "trains": n, "runs": SMC_RUNS, "seed": 1})
            for m in ("fischer", "train-gate") for n in (2, 3, 4)]
    reqs += [("modes", {"runs": MODES_RUNS, "seed": 1}), ("fuzz", {"cases": FUZZ_CASES, "seed": 1}),
             ("metrics", {})]
    for req in reqs:
        ((reply, _),) = d.call([req])
        if not reply.get("ok"):
            raise RuntimeError("warm-up %s failed: %r" % (req[0], reply))


def session_plan(seed, rounds):
    """The request sequence, as a list of rounds: each round holds
    ROUND_MIX in a seeded order.
    Every smc, modes and fuzz request has a seed never used before, so it
    is computed; checks cycle through CHECK_FINGERPRINTS, so each is cold
    once and then a reply-cache hit."""
    rng = random.Random(seed)
    used = set()

    def fresh():
        while True:
            s = rng.randrange(1000, 1 << 29)
            if s not in used:
                used.add(s)
                return s

    def smc(model):
        return ("smc", {"model": model, "trains": SMC_TRAINS, "runs": SMC_RUNS, "seed": fresh()})

    plan, checks = [], 0
    for _ in range(rounds):
        block = [("ping", [("ping", {})])] * ROUND_MIX["ping"]
        block += [("metrics", [("metrics", {})])] * ROUND_MIX["metrics"]
        for _ in range(ROUND_MIX["check"]):
            m, n, j = CHECK_FINGERPRINTS[checks % len(CHECK_FINGERPRINTS)]
            checks += 1
            block.append(("check", [("check", {"model": m, "n": n, "jobs": j})]))
        for _ in range(ROUND_MIX["smc"]):
            block.append(("smc", [smc("fischer")]))
        for _ in range(ROUND_MIX["smc_pair"]):
            block.append(("smc_pair", [smc("fischer"), smc("train-gate")]))
        for _ in range(ROUND_MIX["modes"]):
            block.append(("modes", [("modes", {"runs": MODES_RUNS, "seed": fresh()})]))
        for _ in range(ROUND_MIX["fuzz"]):
            block.append(("fuzz", [("fuzz", {"cases": FUZZ_CASES, "seed": fresh()})]))
        rng.shuffle(block)
        plan.append(block)
    return plan


def smc_reply_ok(params, result):
    """Fischer: one interval per process with 0 <= low <= p <= high <= 1.
    Train-gate: one CDF row per train, never decreasing along the grid."""
    lines = result["text"].splitlines()
    if len(lines) != params["trains"]:
        return False
    if params["model"] == "fischer":
        return len(result["intervals"]) == params["trains"] and all(
            0.0 <= i["low"] <= i["p"] <= i["high"] <= 1.0 for i in result["intervals"])
    for line in lines:
        ps = [float(cell.split(":")[1]) for cell in line.split()[2:]]
        if not ps or any(not 0.0 <= p <= 1.0 for p in ps) or any(a > b for a, b in zip(ps, ps[1:])):
            return False
    return True


def parse_modes(text):
    """'TA1 a/r TA2 b/r PA x PB y P1 u P2 v ...' -> dict of the counts."""
    w = text.split()
    ta1, runs = map(int, w[1].split("/"))
    return {"runs": runs, "ta1": ta1, "ta2": int(w[3].split("/")[0]),
            "pa": int(w[5]), "pb": int(w[7]), "p1": int(w[9]), "p2": int(w[11])}


class Session:
    """Runs a plan on a daemon, checks every reply, keeps latencies."""

    def __init__(self, tally, reference):
        self.tally = tally
        self.reference = reference
        self.latency = {kind: [] for kind in list(ROUND_MIX) + ["check_cold"]}
        self.seen_checks = set()
        self.modes = {"runs": 0, "p1": 0, "p2": 0}
        self.pairs = []

    def reply_ok(self, kind, params, reply):
        if not reply.get("ok"):
            return False
        result = reply["result"]
        if kind == "ping":
            return result.get("pong") is True
        if kind == "metrics":
            return "metrics" in result
        if kind == "check":
            key = (params["model"], params["n"], params["jobs"])
            return result["all_hold"] is True and result["text"] == self.reference[key]
        if kind in ("smc", "smc_pair"):
            return smc_reply_ok(params, result)
        if kind == "modes":
            c = parse_modes(result["text"])
            ok = c["runs"] == params["runs"] and c["ta1"] == c["runs"] and c["ta2"] == c["runs"]
            ok = ok and c["pa"] == 0 and c["pb"] == 0
            if ok:
                for k in self.modes:
                    self.modes[k] += c[k]
            return ok
        if kind == "fuzz":
            return result["divergences"] == 0 and result["agreed"] + result["skipped"] == params["cases"]
        return False

    def run_round(self, d, block):
        """Send one round's requests. Returns their latencies, ms."""
        return [ms for kind, reqs in block for ms in self.send(d, kind, reqs)]

    def latency_kind(self, kind, params):
        """The first check of a fingerprint is cold; the rest are
        reply-cache hits."""
        if kind != "check":
            return kind
        key = (params["model"], params["n"], params["jobs"])
        if key in self.seen_checks:
            return kind
        self.seen_checks.add(key)
        return "check_cold"

    def send(self, d, kind, reqs):
        replies = d.call(reqs)
        for (meth, params), (reply, ms) in zip(reqs, replies):
            self.tally.op(self.reply_ok(kind, params, reply), "%s %r -> %r" % (meth, params, reply))
            self.latency[self.latency_kind(kind, params)].append(ms)
        if kind == "smc_pair" and len(self.pairs) < RESENT_PAIRS:
            self.pairs.append((reqs, [r for r, _ in replies]))
        return [ms for _, ms in replies]

    def verify(self):
        """Checks over the whole session, after its timed phase: pooled
        modes counts against the closed forms, and pipelined pairs re-sent
        one at a time to a fresh daemon."""
        n, m = 16, 2  # Modest.Brp.make () defaults, which modes runs
        runs = self.modes["runs"]
        for name, p in (("p1", benchlib.brp_p1(n, m)), ("p2", benchlib.brp_p2(n, m))):
            self.tally.op(benchlib.within_binomial(self.modes[name], runs, p, MODES_Z),
                          "modes %s: %d of %d runs, closed form %.3g" % (name, self.modes[name], runs, p))
        d = Daemon()
        try:
            for reqs, replies in self.pairs:
                for req, fused in zip(reqs, replies):
                    ((alone, _),) = d.call([req])
                    self.tally.op(alone.get("result") == fused.get("result"),
                                  "pipelined smc reply differs when sent alone: %r" % (req,))
        finally:
            d.stop()


def one_shot_checks(tally):
    """The text of a one-shot quantcli check for every fingerprint the
    session asks the daemon about."""
    ref = {}
    for m, n, j in CHECK_FINGERPRINTS:
        code, out, _, _, _ = run_child(check_argv(m, n, j))
        tally.op(code == 0, "one-shot check %s -n %d jobs %d exit %d" % (m, n, j, code))
        ref[(m, n, j)] = out
    return ref


def start_warm_daemon():
    d = Daemon()
    try:
        warm_up(d)
    except BaseException:
        d.stop()
        raise
    return d


def metrics_scrape(d):
    ((reply, _),) = d.call([("metrics", {})])
    return reply["result"]["metrics"]


def proc_cpu_s(pid):
    """User plus system CPU of a live child process, all its threads."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid):
    """Peak resident set (VmHWM) of a live child process, MiB."""
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for process %d" % pid)


def run_session(tally, seed, rounds, setups):
    """One checked session of the given rounds. Set-up starts a daemon and
    warms it `setups` times; the session runs on the last one. Returns a
    dict with the session, the set-up times, per-round wall and daemon
    CPU, the daemon's peak RSS and its metrics scraped just before and
    just after the rounds."""
    reference = one_shot_checks(tally)
    plan = session_plan(seed, rounds)
    setup_s = []
    for i in range(setups):
        t0 = time.perf_counter()
        d = start_warm_daemon()
        setup_s.append(time.perf_counter() - t0)
        if i < setups - 1:
            tally.op(d.stop() == 0, "quantd did not shut down cleanly")
    session = Session(tally, reference)
    walls, cpus, p50s = [], [], []
    try:
        before = metrics_scrape(d)
        for block in plan:
            cpu0 = proc_cpu_s(d.proc.pid)
            t0 = time.perf_counter()
            p50s.append(median(session.run_round(d, block)))
            walls.append(time.perf_counter() - t0)
            cpus.append(proc_cpu_s(d.proc.pid) - cpu0)
        after = metrics_scrape(d)
        rss = proc_peak_rss_mb(d.proc.pid)
    finally:
        tally.op(d.stop() == 0, "quantd did not shut down cleanly")
    # The daemon observes a request's wall after rendering its reply, so
    # the delta holds the first scrape too: its server time, a fraction
    # of a millisecond, is charged to the session.
    sent = sum(len(v) for v in session.latency.values())
    served = after["serve.request_wall_s"]["count"] - before.get("serve.request_wall_s", {"count": 0})["count"]
    tally.op(served == sent + 1, "serve.request_wall_s counted %d requests, sent %d" % (served - 1, sent))
    session.verify()
    return {"session": session, "setup_s": setup_s, "walls": walls, "cpus": cpus, "p50s": p50s,
            "peak_rss_mb": rss, "before": before, "after": after}


def quantd_session(tally, seed, rounds):
    r = run_session(tally, seed, rounds, SETUPS)
    return {
        "setup_s": median(r["setup_s"]),
        "wall_s": rounds_total(r["walls"]),
        "cpu_s": rounds_total(r["cpus"]),
        "peak_rss_mb": r["peak_rss_mb"],
        "req_p50_ms": median(r["p50s"]),
    }


def trace_session(tally, seed):
    """Per-layer figures of a session: latency by request kind, the
    daemon's own counters, and work rates."""
    r = run_session(tally, seed, TRACE_SESSION_ROUNDS, 1)
    before, after = r["before"], r["after"]

    def delta(name, field="value"):
        return after[name][field] - before.get(name, {field: 0})[field]

    lat = r["session"].latency
    every = [ms for kind in lat for ms in lat[kind]]
    hits, misses = delta("serve.reply_hits"), delta("serve.reply_misses")
    total_ms = {kind: sum(lat[kind]) for kind in lat}
    p99 = benchlib.tail_percentile(every, 99)
    if p99 is None:
        raise RuntimeError("traced session too short for a p99")
    return {
        "serve.ping_p50_ms": median(lat["ping"]),
        "serve.check_p50_ms": median(lat["check"]),
        "serve.check_cold_ms": median(lat["check_cold"]),
        "serve.smc_p50_ms": median(lat["smc"]),
        "serve.smc_pair_p50_ms": median(lat["smc_pair"]),
        "serve.modes_p50_ms": median(lat["modes"]),
        "serve.fuzz_p50_ms": median(lat["fuzz"]),
        "serve.metrics_p50_ms": median(lat["metrics"]),
        "serve.req_p99_ms": p99,
        "serve.reply_hit_ratio": hits / (hits + misses),
        "serve.smc_fused_per_batch": delta("serve.smc_fused_requests") / max(1, delta("serve.smc_batches")),
        "serve.queue_wait_ms": (sum(every) - 1000.0 * delta("serve.request_wall_s", "sum")) / len(every),
        "smc.runs_per_s": SMC_TRAINS * SMC_RUNS * len(lat["smc"]) / (total_ms["smc"] / 1000.0),
        "modest.modes_runs_per_s": MODES_RUNS * len(lat["modes"]) / (total_ms["modes"] / 1000.0),
        "gen.fuzz_cases_per_s": FUZZ_CASES * len(lat["fuzz"]) / (total_ms["fuzz"] / 1000.0),
    }


# ---------------------------------------------------------------------
# synth-suite

MCPTA_REL_ERR = 1e-4


def task_ok(task, reference):
    kind = task["kind"]
    if kind == "jobshop":
        return task["makespan"] == reference
    if kind in ("game", "liveness"):
        return task["ok"]
    if kind == "mcpta":
        n, m = task["n"], task["max"]
        return (task["ta1"] and task["ta2"] and task["pa"] == 0
                and abs(task["p1"] / benchlib.brp_p1(n, m) - 1) <= MCPTA_REL_ERR
                and abs(task["p2"] / benchlib.brp_p2(n, m) - 1) <= MCPTA_REL_ERR)
    return False


def run_synth(tally, seed, rounds, trace):
    argv = [RUNNER, "synth", "--seed", str(seed), "--rounds", str(rounds)]
    code, out, _, _, _ = run_child(argv + (["--trace"] if trace else []))
    if code != 0:
        raise RuntimeError("runner synth exit %d: %s" % (code, out))
    res = json.loads(out)
    for r, rnd in enumerate(res["rounds"]):
        for task in rnd["tasks"]:
            tally.op(task_ok(task, res["brute_force"][r]), "synth round %d: %r" % (r, task))
    return res


def synth_suite(tally, seed, rounds):
    res = run_synth(tally, seed, rounds, False)
    return {
        "setup_s": median(res["setup_s"]),
        "wall_s": rounds_total([r["ms"] / 1000.0 for r in res["rounds"]]),
        "cpu_s": rounds_total([r["cpu_s"] for r in res["rounds"]]),
        "peak_rss_mb": res["peak_rss_mb"],
        "req_p50_ms": median(r["ms"] for r in res["rounds"]),
    }


def trace_synth(tally, seed):
    res = run_synth(tally, seed, TRACE_SYNTH_ROUNDS, True)
    tasks = [t for r in res["rounds"] for t in r["tasks"]]

    def p50(kind, field="ms"):
        return median([t[field] for t in tasks if t["kind"] == kind])

    return {
        "priced.jobshop_ms": p50("jobshop"),
        "games.solve_ms": p50("game", "solve_ms"),
        "games.closed_loop_ms": p50("game", "closed_loop_ms"),
        "ta.liveness_ms": p50("liveness"),
        "mdp.mcpta_ms": p50("mcpta"),
        "discrete.graph_states": res["graph_states"],
        "engine.cora_explored": res["cora_explored"],
    }


# ---------------------------------------------------------------------

WORKLOADS = {"fischer5-check": fischer_check, "quantd-session": quantd_session, "synth-suite": synth_suite}


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("BENCHMARK.json: %s" % e)


def build():
    for path in ("dune-project", "bin/quantcli.ml", "bin/quantd.ml", "lib/serve/service.ml"):
        if not os.path.isfile(path):
            die("%s not found: run from the root of a quantlib checkout" % path)
    try:
        r = subprocess.run(["dune", "build", "--root", ".", "--workspace", WORKSPACE, "--cache=disabled"] + TARGETS,
                           stdout=sys.stderr)
    except OSError as e:
        die("dune: %s" % e)
    if r.returncode != 0:
        die("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")
    spec = load_spec()
    build()
    tally = Tally()
    if args.trace:
        values = trace_check(tally)
        values.update(trace_session(tally, args.seed))
        values.update(trace_synth(tally, args.seed))
        declared = spec["per_layer"]
    else:
        rounds = max(1, round(args.seconds / ROUND_S[args.workload]))
        values = WORKLOADS[args.workload](tally, args.seed, rounds)
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        die("metrics differ from BENCHMARK.json: %s" % sorted(set(values) ^ set(units)))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }))


if __name__ == "__main__":
    main()
