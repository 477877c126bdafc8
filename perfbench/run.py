#!/usr/bin/env python3
"""APEX end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seed N --seconds S   # every workload
    python3 perfbench/run.py --regen-golden               # rewrite golden.json

Workloads (see perfbench/README.md for why each exists):

    dse-all9-pipe         in-process runSweep, 9 apps x 3 variants, pipelined
    dse-six-pnr-forked    runSweep with forked workers, 6 apps, post-PnR
    daemon-warm-3clients  apexd closed loop, 3 connections, one level each

The first run builds perfbench/CMakeLists.txt (the APEX libraries, apexd
and the perfbench measuring program) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench.  Every measured unit of work runs in a
fresh process with a fresh cache and journal dir under .bench_state/.

With --trace 0 the last stdout line is the end-to-end result, with
--trace 1 the per-layer attribution; both are one JSON object
{"correct", "attempted", "failed", "metrics"}.  A human-readable table
of the same metrics goes to stdout before it.
"""
import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")
STATE = ".bench_state"  # relative to ROOT: keeps socket paths short
LEVELS = ["map", "pnr", "pipe"]
TOOL_TIMEOUT_S = 170

WORKLOADS = {
    "dse-all9-pipe": {"apps": "all9", "level": "pipe", "jobs": 4,
                      "isolate": "thread", "state": False},
    "dse-six-pnr-forked": {"apps": "six", "level": "pnr", "jobs": 4,
                           "isolate": "process", "state": True},
    "daemon-warm-3clients": {"daemon": True},
}

# Counters that must repeat exactly (checked against golden.json).  The
# build-side ones are also visible in the parent of a forked sweep.
BUILD_COUNTERS = ["apex.mine.embeddings", "apex.mine.patterns",
                  "apex.mine.pruned_noncanonical", "apex.clique.nodes"]
EVAL_COUNTERS = ["apex.route.ripup_iterations", "apex.place.attempts",
                 "apex.place.failures"]

# Fresh apexd sessions per daemon-warm run; each gets 1/DAEMON_SESSIONS
# of --seconds (perfbench.cpp also caps the requests per session).
DAEMON_SESSIONS = 3

# A session whose apexd resident set grew by less than this per loop
# request created no new span ring (each is ~2.4 MB): the low-RSS mode.
LOW_RSS_GROWTH_MB = 0.5

E2E_UNITS = {
    "setup_s": "s", "sweep_s_p50": "s", "cpu_s_per_sweep": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Build and process plumbing
# ----------------------------------------------------------------------

def build():
    """Configure (once) and build the benchmark package; return bin dir."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("APEX sources not found next to perfbench/ "
                         "(expected src/CMakeLists.txt); run from a full "
                         "checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(ROOT, target, "perfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", bdir, "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return bdir


def run_tool(bindir, args):
    """Run perfbench with @args; return its JSON result."""
    cmd = [os.path.join(bindir, "perfbench")] + [str(a) for a in args]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True,
                       timeout=TOOL_TIMEOUT_S)
    if p.returncode != 0 or not p.stdout.strip():
        raise BenchError("%s exited %d: %s" % (" ".join(cmd[1:3]),
                                               p.returncode,
                                               p.stderr.strip()[-2000:]))
    return json.loads(p.stdout.strip().splitlines()[-1])


class StateDirs:
    """Fresh per-process state dirs under .bench_state, removed at exit."""

    def __init__(self):
        self.base = os.path.join(STATE, "%d-%d" % (os.getpid(),
                                                   time.time_ns()))
        self.n = 0

    def fresh(self):
        self.n += 1
        rel = os.path.join(self.base, str(self.n))
        os.makedirs(os.path.join(ROOT, rel))
        return rel

    def drop(self, rel):
        shutil.rmtree(os.path.join(ROOT, rel), ignore_errors=True)

    def close(self):
        shutil.rmtree(os.path.join(ROOT, self.base), ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, STATE))
        except OSError:
            pass


# ----------------------------------------------------------------------
# Registry, spans and statistics helpers
# ----------------------------------------------------------------------

def registry_values(reg):
    """Flatten a metrics registry dump: counters and gauges by name,
    histograms as name.sum / name.count."""
    out = {}
    for c in reg.get("counters", []):
        out[c["name"]] = c["value"]
    for g in reg.get("gauges", []):
        out[g["name"]] = g["value"]
    for h in reg.get("histograms", []):
        out[h["name"] + ".sum"] = h["sum"]
        out[h["name"] + ".count"] = h["count"]
    return out


def registry_delta(after, before):
    a, b = registry_values(after), registry_values(before or {})
    return {k: v - b.get(k, 0) for k, v in a.items()}


def span(spans, name, field="self_ms"):
    return spans["by_name"].get(name, {}).get(field, 0.0)


def median(values):
    return statistics.median(values) if values else 0.0


def quantile(values, q):
    """Inclusive-method quantile (q in (0, 1)); the max for tiny sets."""
    if len(values) < 2:
        return values[0] if values else 0.0
    qs = statistics.quantiles(values, n=100, method="inclusive")
    return qs[int(round(q * 100)) - 1]


def ratio(num, den):
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------

def load_golden(path):
    with open(path) as f:
        return json.load(f)


def cell_mismatches(golden, level, app_set, cells):
    """Cells of @app_set at @level whose digest is missing or differs
    from golden, plus cells golden does not know."""
    apps = set(golden["apps"][app_set])
    expected = {k: v for k, v in golden["cells"][level].items()
                if k.split("/")[0] in apps}
    bad = [k for k, v in expected.items() if cells.get(k) != v]
    bad += [k for k in cells if k not in expected]
    return len(expected), sorted(bad)


def counter_mismatches(golden, key, values, names):
    want = golden["counters"][key]
    return ["%s=%s (golden %s)" % (n, values.get(n, 0), want[n])
            for n in names if values.get(n, 0) != want[n]]


class Verdict:
    """Accumulates attempted/failed units and correctness findings."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.findings = []
        self.notes = []  # printed with the table, never affect "correct"

    def cells(self, golden, level, app_set, result, what):
        n, bad = cell_mismatches(golden, level, app_set, result["cells"])
        self.attempted += n
        self.failed += len(bad)
        if bad:
            self.findings.append("%s: %d cell(s) off golden: %s%s" % (
                what, len(bad), ", ".join(bad[:6]),
                "; failures: " + "; ".join(result["failures"][:3])
                if result.get("failures") else ""))
        return bad

    def counters(self, golden, key, values, names, what):
        bad = counter_mismatches(golden, key, values, names)
        if bad:
            self.findings.append("%s: counters did not repeat: %s" % (
                what, ", ".join(bad)))

    @property
    def correct(self):
        return not self.findings


# ----------------------------------------------------------------------
# Batch workloads (dse-all9-pipe, dse-six-pnr-forked)
# ----------------------------------------------------------------------

def sweep_args(wl, order, state):
    args = ["sweep", "--apps", wl["apps"], "--level", wl["level"],
            "--jobs", wl["jobs"], "--isolate", wl["isolate"],
            "--order", ",".join(map(str, order))]
    if state:
        args += ["--state", state]
    return args


def one_sweep(bindir, wl, order, dirs):
    state = dirs.fresh() if wl["state"] else None
    try:
        return run_tool(bindir, sweep_args(wl, order, state))
    finally:
        if state:
            dirs.drop(state)


def batch_e2e(bindir, wl, name, seed, seconds, golden, dirs, verdict):
    rng = random.Random(seed)
    n_apps = len(golden["apps"][wl["apps"]])
    build_key = "%s/%s" % (wl["apps"], wl["level"])
    names = BUILD_COUNTERS + (EVAL_COUNTERS
                              if wl["isolate"] == "thread" else [])

    reference = None
    if wl["isolate"] == "process":
        # Cross-path agreement: the forked workers must reproduce an
        # in-process run of the same cells, digest for digest.
        ref_wl = dict(wl, isolate="thread", state=False)
        reference = one_sweep(bindir, ref_wl,
                              rng.sample(range(n_apps), n_apps), dirs)
        verdict.cells(golden, wl["level"], wl["apps"], reference,
                      name + " in-process reference")

    walls, cpus, rss, setups, effs = [], [], [], [], []
    t_end = time.monotonic() + seconds
    while not walls or time.monotonic() < t_end:
        order = rng.sample(range(n_apps), n_apps)
        r = one_sweep(bindir, wl, order, dirs)
        what = "%s order %s" % (name, order)
        verdict.cells(golden, wl["level"], wl["apps"], r, what)
        verdict.counters(golden, build_key,
                         registry_values(r["registry"]), names, what)
        if reference is not None and r["cells"] != reference["cells"]:
            verdict.findings.append(what + ": forked digests differ "
                                    "from the in-process run")
        if not r["durability_ok"]:
            verdict.findings.append(what + ": journal durability lost")
        walls.append(r["wall_s"])
        cpus.append(r["cpu_self_s"] + r["cpu_children_s"])
        rss.append(max(r["rss_self_mb"], r["rss_children_mb"]))
        setups.extend(r["setup_s"])
        effs.append(ratio(cpus[-1], r["wall_s"] * r["stats"]["jobs"]))

    # cpu / (wall x jobs) per sweep: a sweep starved of cores by a noisy
    # neighbour shows here instead of passing for a regression.
    verdict.notes.append("runtime.parallel_eff per sweep: %s" % " ".join(
        "%.3f" % e for e in effs))

    # Printed, not gated: see the README for why the tail is not steady.
    verdict.notes.append("request_ms_p90 %.6g ms (n=%d)" % (
        quantile([w * 1e3 for w in walls], 0.90), len(walls)))
    return {
        "setup_s": (median(setups), len(setups)),
        "sweep_s_p50": (median(walls), len(walls)),
        "cpu_s_per_sweep": (median(cpus), len(cpus)),
        "peak_rss_mb": (median(rss), len(rss)),
    }


def compute_layers(spans, reg, scope_fast="mis.rank@fast"):
    """Compute-layer metrics from span self times and registry deltas."""
    patterns = reg.get("apex.mine.patterns", 0)
    attempts = reg.get("apex.place.attempts", 0)
    return {
        "mining.mine_ms": span(spans, "mine") + span(spans, "mine.level"),
        "mining.mis_ms": span(spans, "mis.rank"),
        "mining.mis_ms.fast":
            spans["by_name_scope"].get(scope_fast, {}).get("self_ms", 0.0),
        "mining.embeddings": reg.get("apex.mine.embeddings", 0),
        "mining.patterns": patterns,
        "mining.keep_ratio": ratio(patterns, patterns + reg.get(
            "apex.mine.pruned_noncanonical", 0)),
        "mining.matcher_fallbacks": reg.get("apex.mine.matcher_fallbacks",
                                            0),
        "merging.ms": span(spans, "clique") + span(spans, "merge"),
        "merging.clique_nodes": reg.get("apex.clique.nodes", 0),
        "mapper.rewrite_ms": span(spans, "map.rewrite"),
        "mapper.select_ms": span(spans, "map.select"),
        "cgra.place_ms": span(spans, "place"),
        "cgra.place_success_ratio":
            1.0 - ratio(reg.get("apex.place.failures", 0), attempts)
            if attempts else 0.0,
        "cgra.route_ms": span(spans, "route"),
        "cgra.ripup_iterations": reg.get("apex.route.ripup_iterations", 0),
        "pipeline.ms": span(spans, "pipeline.pe") +
                       span(spans, "pipeline.app"),
        "core.build_ms": span(spans, "build"),
        "core.eval_ms": span(spans, "evaluate"),
        "core.build_critical_ms": span(spans, "build", "max_ms"),
        "core.journal_append_ms": span(spans, "journal.append", "incl_ms"),
    }


def self_sum(spans):
    return sum(r["self_ms"] for r in spans["by_name"].values())


def batch_trace(bindir, wl, name, seed, golden, dirs, verdict):
    rng = random.Random(seed)
    n_apps = len(golden["apps"][wl["apps"]])
    order = rng.sample(range(n_apps), n_apps)
    key = "%s/%s" % (wl["apps"], wl["level"])

    # Runtime counters come from one untraced sweep at the workload's
    # own configuration (jobs=4, its isolation mode).
    r = one_sweep(bindir, wl, order, dirs)
    verdict.cells(golden, wl["level"], wl["apps"], r, name + " runtime")
    st = r["stats"]

    # The same cells at jobs=1, untraced and then traced, each in its
    # own fresh process: the wall-time difference is tracing overhead.
    untraced_wl = dict(wl, jobs=1, isolate="thread")
    u = one_sweep(bindir, untraced_wl, order, dirs)
    verdict.cells(golden, wl["level"], wl["apps"], u, name + " untraced")
    state = dirs.fresh()
    try:
        t = run_tool(bindir, ["trace", "--apps", wl["apps"], "--level",
                              wl["level"], "--order",
                              ",".join(map(str, order)), "--state", state,
                              "--journal", 1 if wl["state"] else 0])
    finally:
        dirs.drop(state)
    verdict.cells(golden, wl["level"], wl["apps"], t, name + " traced")
    untraced = registry_values(u["registry"])
    traced = registry_delta(t["registry"], t["registry_before"])
    for what, values in (("untraced", untraced), ("traced", traced)):
        verdict.counters(golden, key, values,
                         BUILD_COUNTERS + EVAL_COUNTERS,
                         "%s %s pass" % (name, what))
    if t["dropped_spans"]:
        verdict.findings.append("%s: %d spans dropped" % (
            name, t["dropped_spans"]))

    spans = t["spans"]
    m = compute_layers(spans, traced)
    replay = t.get("replay_spans")
    m["core.journal_replay_ms"] = (span(replay, "journal.replay",
                                        "incl_ms") if replay else 0.0)
    cpu = r["cpu_self_s"] + r["cpu_children_s"]
    m.update({
        "runtime.parallel_eff": ratio(cpu, r["wall_s"] * st["jobs"]),
        "runtime.tasks_stolen": st["tasks_stolen"],
        "runtime.cache_hit_ratio": ratio(
            st["cache_hits"], st["cache_hits"] + st["cache_misses"]),
        "runtime.worker_restarts": st["worker_restarts"],
        "runtime.worker_retries": st["worker_retries"],
        "service.connect_ms": 0.0,
        "service.server_ms_p50": 0.0,
        "service.overhead_ms_p50": 0.0,
        "service.coalesced": 0,
        "service.rss_growth_mb_per_request": 0.0,
        "trace.self_sum_ms": self_sum(spans),
        "trace.untraced_wall_ms": u["wall_s"] * 1e3,
        "trace.overhead_ms": (t["traced_wall_s"] - u["wall_s"]) * 1e3,
        "trace.mis_share": ratio(m["mining.mis_ms"],
                                 t["traced_wall_s"] * 1e3),
    })
    return m


# ----------------------------------------------------------------------
# Daemon workload (daemon-warm-3clients)
# ----------------------------------------------------------------------

def daemon_session(bindir, rng, seconds, dirs, traced, reject_every):
    state = dirs.fresh()
    try:
        return run_tool(bindir, [
            "daemon", "--apexd", os.path.join(bindir, "apexd"),
            "--state", state, "--seconds", seconds,
            "--order", ",".join(rng.sample(LEVELS, 3)),
            "--reject-every", reject_every, "--trace", 1 if traced else 0])
    finally:
        dirs.drop(state)


def check_replies(golden, d, verdict, what):
    """Every warm-up and loop reply must equal the batch digests of its
    level; every rejected or failed request counts as failed."""
    for client in d["warmup"] + d["clients"]:
        level = client["level"]
        verdict.attempted += client["errors"]
        verdict.failed += client["errors"]
        if client["errors"]:
            verdict.findings.append("%s %s: %d request(s) failed: %s" % (
                what, level, client["errors"], client["first_error"]))
        for reply in client["replies"]:
            n, bad = cell_mismatches(golden, level, "all9",
                                     reply["digests"]["cells"])
            verdict.attempted += reply["count"]
            if bad:
                verdict.failed += reply["count"]
                verdict.findings.append("%s %s: %d repl(ies) off golden: "
                                        "%s" % (what, level, reply["count"],
                                                ", ".join(bad[:6])))
    if d["daemon_exit"] != 0:
        verdict.findings.append("%s: apexd exited %d" % (what,
                                                         d["daemon_exit"]))


def daemon_e2e(bindir, seed, seconds, golden, dirs, verdict,
               reject_every=0):
    rng = random.Random(seed)
    setups, lat, rss, effs, modes = [], [], [], [], []
    cpu = loop_s = 0.0
    for i in range(DAEMON_SESSIONS):
        d = daemon_session(bindir, rng, seconds / DAEMON_SESSIONS, dirs,
                           False, reject_every)
        check_replies(golden, d, verdict, "session %d" % i)
        session_lat = [x for c in d["clients"] for x in c["latency_ms"]]
        setups.append(d["setup_s"])
        rss.append(d["setup_hwm_mb"])
        lat.extend(session_lat)
        cpu += d["daemon_cpu_s"] + d["client_cpu_s"]
        loop_s += d["loop_s"]
        effs.append(ratio(d["daemon_cpu_s"], d["loop_s"] * d["apexd_jobs"]))
        growth = ratio(d["vm_hwm_mb"] - d["setup_hwm_mb"], len(session_lat))
        modes.append("%s %.0f -> %.0f MB %.2f ms" % (
            "low" if growth < LOW_RSS_GROWTH_MB else "high",
            d["setup_hwm_mb"], d["vm_hwm_mb"], median(session_lat)))
    if not lat:
        raise BenchError("no daemon request completed")
    verdict.notes += [
        "runtime.parallel_eff per session (apexd cpu / (loop wall x "
        "jobs)): %s" % " ".join("%.3f" % e for e in effs),
        "apexd RSS mode per session (VmHWM after set-up -> at shutdown, "
        "request p50): %s; %d of %d in the low-RSS mode" % (
            "; ".join(modes), sum(m.startswith("low") for m in modes),
            len(modes)),
        # Printed, not gated: the median is sweep_s_p50 in ms, throughput
        # is connections / mean latency, and the tail is not steady.
        "request_ms_p50 %.6g ms, request_ms_p90 %.6g ms, requests_per_s "
        "%.6g 1/s (n=%d)" % (median(lat), quantile(lat, 0.90),
                             len(lat) / loop_s, len(lat)),
    ]
    return {
        "setup_s": (median(setups), len(setups)),
        "sweep_s_p50": (median(lat) / 1e3, len(lat)),
        "cpu_s_per_sweep": (cpu / len(lat), len(lat)),
        # After set-up: the loop's growth is decided by a race (README).
        "peak_rss_mb": (median(rss), len(rss)),
    }


def daemon_trace(bindir, seed, seconds, golden, dirs, verdict):
    rng = random.Random(seed)
    d = daemon_session(bindir, rng, seconds / DAEMON_SESSIONS, dirs, True,
                       0)
    check_replies(golden, d, verdict, "traced session")
    if d["dropped_spans"]:
        verdict.findings.append("daemon dropped %d spans" %
                                d["dropped_spans"])
    reg = registry_values(d["registry"])
    loop = registry_delta(d["registry"], d["registry_before"])
    setup_spans, loop_spans = d["setup_spans"], d["loop_spans"]
    clients = d["clients"]
    traced_lat = [x for c in clients for x in c["traced_latency_ms"]]
    untraced_lat = [x for c in clients for x in c["latency_ms"]]
    server = [x for c in clients for x in c["server_ms"]]
    overhead = [l - s for c in clients
                for l, s in zip(c["traced_latency_ms"], c["server_ms"])]
    replays = span(loop_spans, "journal.replay", "count")

    # Compute layers ran only in the three cold set-up sweeps.
    m = compute_layers(setup_spans, reg)
    m.update({
        "core.journal_replay_ms": ratio(
            span(loop_spans, "journal.replay", "incl_ms"), replays),
        "runtime.parallel_eff": ratio(d["daemon_cpu_s"],
                                      d["loop_s"] * d["apexd_jobs"]),
        "runtime.tasks_stolen": loop.get("apex.pool.tasks_stolen", 0),
        "runtime.cache_hit_ratio": ratio(
            reg.get("apex.cache.hits", 0),
            reg.get("apex.cache.hits", 0) + reg.get("apex.cache.misses", 0)),
        "runtime.worker_restarts": reg.get("apex.worker.restarts", 0),
        "runtime.worker_retries": reg.get("apex.worker.retries", 0),
        "service.connect_ms": median([c["connect_ms"] for c in clients]),
        "service.server_ms_p50": median(server),
        "service.overhead_ms_p50": median(overhead),
        "service.coalesced": sum(c["coalesced"] for c in clients),
        "service.rss_growth_mb_per_request": ratio(
            d["vm_hwm_mb"] - d["setup_hwm_mb"],
            len(traced_lat) + len(untraced_lat)),
        "trace.self_sum_ms": ratio(self_sum(loop_spans), len(traced_lat)),
        "trace.untraced_wall_ms": median(untraced_lat),
        "trace.overhead_ms": median(traced_lat) - median(untraced_lat),
        "trace.mis_share": ratio(m["mining.mis_ms"], self_sum(setup_spans)),
    })
    return m


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def layer_unit(name):
    if "_mb" in name:
        return "MB"
    if name.endswith(("_ms", ".ms")) or "_ms_" in name or "_ms." in name:
        return "ms"
    if name.endswith(("_ratio", "_eff", "_share")):
        return "ratio"
    return "count"


def emit(name, metrics, verdict, traced):
    """Print the table, then the one-line JSON result."""
    rows = {}
    print("== %s (%s) ==" % (name, "per-layer" if traced else "end-to-end"))
    for key in sorted(metrics):
        value = metrics[key]
        n = None
        if isinstance(value, tuple):
            value, n = value
        unit = layer_unit(key) if traced else E2E_UNITS[key]
        rows[key] = {"value": value, "unit": unit}
        print("  %-28s %14.6g %-6s%s" % (key, value, unit,
                                        "  n=%d" % n if n else ""))
    frac = ratio(verdict.failed, verdict.attempted)
    print("  %-28s %14.6g        (%d/%d failed)" % (
        "failed_frac", frac, verdict.failed, verdict.attempted))
    for note in verdict.notes:
        print("  " + note)
    for f in verdict.findings:
        print("  FINDING: " + f)
    print(json.dumps({"correct": verdict.correct,
                      "attempted": max(1, verdict.attempted),
                      "failed": verdict.failed,
                      "metrics": rows}), flush=True)


def run_workload(bindir, name, seed, seconds, traced, golden,
                 reject_every=0):
    wl = WORKLOADS[name]
    verdict = Verdict()
    dirs = StateDirs()
    try:
        if wl.get("daemon") and traced:
            metrics = daemon_trace(bindir, seed, seconds, golden, dirs,
                                   verdict)
        elif wl.get("daemon"):
            metrics = daemon_e2e(bindir, seed, seconds, golden, dirs,
                                 verdict, reject_every)
        elif traced:
            metrics = batch_trace(bindir, wl, name, seed, golden, dirs,
                                  verdict)
        else:
            metrics = batch_e2e(bindir, wl, name, seed, seconds, golden,
                                dirs, verdict)
    finally:
        dirs.close()
    emit(name, metrics, verdict, traced)


# ----------------------------------------------------------------------
# Golden digests
# ----------------------------------------------------------------------

def regen_golden(bindir):
    """Batch in-process jobs=1 runs in the registry's app order."""
    def sweep(app_set, level):
        r = run_tool(bindir, ["sweep", "--apps", app_set, "--level", level,
                              "--jobs", 1])
        if r["failures"]:
            raise BenchError("golden run has failures: %s" % r["failures"])
        values = registry_values(r["registry"])
        counters = {n: values.get(n, 0)
                    for n in BUILD_COUNTERS + EVAL_COUNTERS}
        apps = list(dict.fromkeys(k.split("/")[0] for k in r["cells"]))
        return r["cells"], counters, apps

    golden = {"apps": {}, "cells": {}, "counters": {}}
    for level in LEVELS:
        cells, counters, apps = sweep("all9", level)
        golden["cells"][level] = cells
        golden["apps"]["all9"] = apps
        if level == "pipe":
            golden["counters"]["all9/pipe"] = counters
    _, golden["counters"]["six/pnr"], golden["apps"]["six"] = sweep("six",
                                                                    "pnr")
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote " + GOLDEN)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true",
                    help="run every workload in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden", default=GOLDEN,
                    help="golden digest file (tests pass a corrupted one)")
    ap.add_argument("--reject-every", type=int, default=0,
                    help="daemon workload: make every Nth loop request "
                         "invalid so apexd rejects it (tests)")
    ap.add_argument("--regen-golden", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.all or args.regen_golden):
        ap.error("one of --workload, --all, --regen-golden is required")

    try:
        bindir = build()
        if args.regen_golden:
            regen_golden(bindir)
            return 0
        golden = load_golden(args.golden)
        names = sorted(WORKLOADS) if args.all else [args.workload]
        for name in names:
            run_workload(bindir, name, args.seed, args.seconds,
                         bool(args.trace), golden, args.reject_every)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log("perfbench: %s" % e)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
