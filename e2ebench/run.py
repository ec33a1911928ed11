#!/usr/bin/env python3
"""End-to-end benchmark of bpvec_run (the batch CLI) and bpvec_serve (the
socket daemon).

One single-process, closed-loop load generator drives the built binaries
from outside, checks every reply against an oracle, and prints the metrics
as the last line of stdout:

    python3 e2ebench/run.py --workload cli_analytic --seed 1 --seconds 30 \
        --trace 0

Run it from the root of a checkout. The first run builds the program from
the checkout's sources into .bench_build/ (CMake, Release). The seed is the
only input: it generates the whole request list, and only generated
manifests reach the program.

Workloads (a run cycles through eight seeded episodes of one shape until
--seconds is spent; every episode starts from the same state, so runs of
different length measure the same thing):

  cli_analytic    one bpvec_run process at a time, all sharing one fresh
                  --cache-dir per episode. Seeded DSE searches plus grid
                  prices derived from fig5-fig8 and ci_gate; about half the
                  requests exactly repeat an earlier one. Analytic pricing,
                  dse, the engine and the disk cache do the work.
  cli_functional  one bpvec_run process at a time, no cache dir. Each
                  request is one functional-backend scenario (a zoo network
                  or a seeded cnn_family/mlp_family network). Packing, the
                  packed kernels and the exactness checks do the work.
  serve_mixed     two connections to one bpvec_serve daemon (fresh per
                  episode), no cache dir: warm repeats of committed price
                  manifests, novel prices, small searches and stats ops.
                  Envelope JSON, report serialization and the socket are on
                  the critical path.

--trace 0 reports the end-to-end metrics of the untraced run. --trace 1
replays a seeded sample of the workload's requests in-process through
e2e_trace, which times the calls into each module and reports per-layer
metrics; the Chrome trace-event file lands in .bench_build/e2e/.

--workload all runs the three workloads and prints every metric in a table.
"""

import argparse
import copy
import gc
import hashlib
import json
import math
import os
import random
import selectors
import shutil
import socket
import statistics
import subprocess
import sys
import time

WORKLOADS = ("cli_analytic", "cli_functional", "serve_mixed")

# End-to-end metrics every workload reports (the last output line).
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cold_p50_ms", "ms"),
    ("warm_p50_ms", "ms"),
    ("scenarios_per_s", "1/s"),
    ("cpu_ms_per_request", "ms"),
    ("peak_rss_mb", "MB"),
)
# Reported in the run record (the line before the last) and by
# --workload all. error_rate is 0 by design and probe_gmacs_per_s exists only
# where probes run, so neither can carry a relative regression bound.
RECORD_ONLY = (
    ("error_rate", "ratio"),
    ("probe_gmacs_per_s", "GMAC/s"),
)

ZOO = ("alexnet", "inception_v1", "resnet18", "resnet50", "rnn", "lstm")
COMMITTED = ("ci_gate", "custom_net", "dse_smoke", "fig5", "fig6", "fig7",
             "fig8")
GOLDEN = ("ci_gate", "custom_net", "dse_smoke")
STRATEGIES = ("annealing", "genetic", "random", "hill_climb")
EPISODES = 8  # distinct seeded episodes a run cycles through
# One engine thread per program: engine threads plus client connections stay
# within nproc, and on a shared host the wall time of parallel pricing tracks
# how many cores the host grants at the moment, which moved latencies by
# 20% between runs where one thread moved them by under 10%.
ENGINE_THREADS = 1
# `bpvec_run --version` spawns timed before each CLI episode for setup_s.
SETUP_SAMPLES_PER_EPISODE = 8


def fail(message, code=1):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(code)


# ---------------------------------------------------------------- build


class Build:
    """The program under test, built from the checkout's sources."""

    def __init__(self, root, trace):
        if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
                and os.path.isdir(os.path.join(root, "src"))
                and os.path.isdir(os.path.join(root, "bench", "manifests"))):
            fail("run from the root of a bpvec checkout (no CMakeLists.txt, "
                 "src/ or bench/manifests/ here)", 2)
        self.root = root
        self.out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
        cmake_dir = os.path.join(self.out, "cmake")
        os.makedirs(self.out, exist_ok=True)
        log_path = os.path.join(self.out, "build.log")
        with open(log_path, "w") as log:
            # Configuring every time is cheap once cached, and makes targets
            # a newer benchmark adds known to an older build directory.
            steps = [["cmake", "-S", os.path.join(root, "e2ebench"),
                      "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"]]
            # The tracer is built only for traced runs, so an untraced run
            # needs only the program's own front ends and the launcher.
            targets = ["tools_bpvec_run", "tools_bpvec_serve", "e2e_spawn"]
            if trace:
                targets.append("e2e_trace")
            jobs = str(max(1, min(4, os.cpu_count() or 1)))
            steps.append(["cmake", "--build", cmake_dir, "--target"]
                         + targets + ["-j", jobs])
            for step in steps:
                rc = subprocess.call(step, stdout=log, stderr=log,
                                     timeout=870)
                if rc != 0:
                    log.flush()
                    with open(log_path) as f:
                        sys.stderr.write(f.read()[-4000:])
                    fail("build failed: " + " ".join(step))
        tools = os.path.join(cmake_dir, "tools")
        self.bpvec_run = os.path.join(tools, "bpvec_run")
        self.bpvec_serve = os.path.join(tools, "bpvec_serve")
        self.e2e_trace = os.path.join(tools, "e2e_trace")
        self.e2e_spawn = os.path.join(tools, "e2e_spawn")
        self.version = json.loads(subprocess.check_output(
            [self.bpvec_run, "--version"], timeout=60))
        if self.version.get("build") != "release":
            fail("refusing to record a baseline from a non-Release build: "
                 + json.dumps(self.version), 3)


# ------------------------------------------------------ request generator


def load_committed(root):
    base = os.path.join(root, "bench", "manifests")
    return {name: json.load(open(os.path.join(base, name + ".json")))
            for name in COMMITTED}


def price(manifest, golden=None):
    return {"op": "price", "manifest": manifest, "golden": golden}


def search(manifest, golden=None):
    return {"op": "search", "manifest": manifest, "golden": golden}


def key_of(request):
    return json.dumps([request["op"], request.get("manifest")],
                      sort_keys=True)


def with_overrides(manifest, name, suffix, memory=None, platform=None):
    """A committed grid manifest with every grid's overrides merged."""
    m = copy.deepcopy(manifest)
    m["name"] = name
    for grid in m["grids"]:
        if memory:
            grid.setdefault("memory_overrides", {}).update(memory)
        if platform:
            grid.setdefault("platform_overrides", {}).update(platform)
        grid["id_suffix"] = grid.get("id_suffix", "") + suffix
    return m


def seeded_override(r):
    kind = r.randrange(3)
    if kind == 0:
        return {"memory": {"bandwidth_gbps": r.choice(
            [8.0, 12.0, 16.0, 24.0, 48.0, 64.0, 128.0])}}
    if kind == 1:
        return {"platform": {"batch_size": r.choice([1, 2, 4, 8])}}
    return {"platform": {"scratchpad_bytes": r.choice(
        [65536, 131072, 229376, 524288])}}


def search_manifest(r, name, strategy, budget, network=None, family=None):
    """A seeded search over CVU geometry and memory knobs of a zoo network,
    or over the depth/width/bits of a generated network family."""
    if network is not None:
        body = {
            "network": network,
            "bitwidth_mode": r.choice(["homogeneous8b", "heterogeneous"]),
            "space": {
                "cvu_slice_bits": [1, 2, 4],
                "cvu_lanes": sorted(r.sample([4, 8, 16, 32], 3)),
                "bandwidth_gbps": sorted(r.sample([8, 16, 32, 64, 128], 3)),
                "scratchpad_bytes": [131072, 229376, 524288],
            },
        }
    else:
        widths = [8, 16, 32] if family == "cnn_family" else [128, 256, 512]
        depths = [1, 2, 3] if family == "cnn_family" else [2, 3, 4, 6]
        body = {
            "workload": {"generator": family, "depth": depths[0],
                         "width": widths[0], "bitwidth_policy": "uniform:8"},
            "space": {
                "net_depth": depths,
                "net_width": widths,
                "net_bits": [2, 4, 8],
                "cvu_lanes": sorted(r.sample([4, 8, 16, 32], 2)),
            },
        }
    body.update({"strategy": strategy, "budget": budget,
                 "seed": r.randrange(1, 1 << 30)})
    if strategy in ("annealing", "hill_climb"):
        body["restarts"] = 2
    if strategy == "genetic":
        body["population"] = 12
    return {"name": name, "search": body}


def rotated(items, k):
    return items[k % len(items):] + items[:k % len(items)]


def searches(r, k, budgets, networks):
    """One search per strategy over a zoo network and one over a generated
    family. The networks rotate over the strategies from episode to
    episode, so across a run's episodes each strategy searches each network
    equally often and no seed draws a heavier mix than another (a search's
    cost depends mostly on its network). The family of each strategy is
    fixed, as it sets how many records and shards the search leaves in a
    disk cache."""
    nets = rotated(list(networks), k)
    families = ["mlp_family", "cnn_family"] * 2
    out = []
    for i, strategy in enumerate(STRATEGIES):
        out.append(search(search_manifest(r, "search_z%d" % i, strategy,
                                          r.randrange(*budgets),
                                          network=nets[i])))
        out.append(search(search_manifest(r, "search_f%d" % i, strategy,
                                          r.randrange(*budgets),
                                          family=families[i])))
    return out


def interleave_repeats(novel, lag=2):
    """Every novel request is repeated exactly once, `lag` novel requests
    later. The positions are fixed, so every episode has the same shape (a
    disk cache grows along the same path) and only the contents are
    seeded."""
    seq = []
    for i, req in enumerate(novel):
        seq.append(req)
        if i >= lag:
            seq.append(novel[i - lag])
    seq += novel[len(novel) - lag:]
    return [dict(req) for req in seq]


def gen_cli_analytic(r, k, committed):
    # The figures rotate over the price slots for the reason the networks
    # rotate in searches().
    figs = rotated(["fig5", "fig6", "fig7", "fig8"] * 2, k)
    prices = [price(committed["ci_gate"], "ci_gate")]
    for i, fig in enumerate(figs + ["ci_gate"] * 2):
        o = seeded_override(r)
        prices.append(price(with_overrides(committed[fig], "%s_o%d" % (fig, i),
                                           " @o%d" % i, **o)))
    found = [search(committed["dse_smoke"], "dse_smoke")]
    found += searches(r, k, (560, 641),
                      ["alexnet", "resnet18", "inception_v1", "lstm"])
    # Prices and searches alternate; the two left-over prices close it.
    novel = [q for pair in zip(prices, found) for q in pair] + prices[9:]
    return interleave_repeats(novel)


def gen_cli_functional(r, k, committed):
    # The conv networks run in both bitwidth regimes, the recurrent ones in
    # a seeded one, and the generated families at a seeded width. The mix
    # is fixed so every seed prices the same kinds of layers.
    picks = [(net, regime) for net in ("alexnet", "inception_v1", "resnet18",
                                       "resnet50")
             for regime in ("homogeneous8b", "heterogeneous")]
    picks += [(net, r.choice(["homogeneous8b", "heterogeneous"]))
              for net in ("rnn", "lstm")]
    picks += [(net, regime) for net in ("cnn_family", "mlp_family")
              for regime in ("homogeneous8b", "heterogeneous")]
    novel = []
    for net, regime in picks:
        grid = {"backends": ["functional"],
                "platforms": [r.choice(["bpvec", "tpu_like", "bitfusion"])],
                "memories": [r.choice(["ddr4", "hbm2"])]}
        m = {"name": "functional_%s_%s" % (net, regime)}
        if net in ZOO:
            grid["networks"] = [net]
            grid["bitwidth_modes"] = [regime]
        else:
            cnn = net == "cnn_family"
            m["workloads"] = [{
                "generator": net, "depth": 3,
                "width": r.choice([24, 28, 32, 36, 40] if cnn
                                  else [384, 448, 512, 576, 640]),
                "bitwidth_policy": ("uniform:8" if regime == "homogeneous8b"
                                    else "uniform:4"),
            }]
            grid["networks"] = ["workloads"]
            grid["bitwidth_modes"] = ["heterogeneous"]
        m["grids"] = [grid]
        novel.append(price(m))
    return interleave_repeats(novel)


# One block of serve_mixed ops: C committed price, N novel price, S search,
# T stats. Four blocks make the 60/25/10/5 mix in fixed positions.
SERVE_BLOCK = "CNCCSCNCTCNCCSCNCCNC"


def gen_serve_mixed(r, k, committed):
    prices = ["ci_gate", "custom_net", "fig5", "fig6", "fig7", "fig8"]
    order = list(prices)
    r.shuffle(order)
    novel = []
    for i in range(20):
        base = prices[i % len(prices)]
        bw = round(r.uniform(4.0, 256.0), 3)
        novel.append(price(with_overrides(committed[base], "%s_n%d" % (base, i),
                                          " @n%d" % i,
                                          memory={"bandwidth_gbps": bw})))
    found = [search(committed["dse_smoke"], "dse_smoke")]
    found += searches(r, k, (32, 41),
                      ["alexnet", "resnet18", "lstm", "rnn"])[:7]
    streams = {
        "C": iter(price(committed[n], n if n in GOLDEN else None)
                  for n in order * 8),
        "N": iter(novel),
        "S": iter(found),
        "T": iter([{"op": "stats", "manifest": None, "golden": None}] * 4),
    }
    return [dict(next(streams[kind])) for kind in SERVE_BLOCK * 4]


GENERATORS = {"cli_analytic": gen_cli_analytic,
              "cli_functional": gen_cli_functional,
              "serve_mixed": gen_serve_mixed}


def generate(workload, seed, committed):
    """The run's episodes: EPISODES request lists of one shape, each with its
    own contents drawn from (workload, seed, episode). A run cycles through
    them, so its metrics average over several draws of seeded contents
    instead of resting on one."""
    episodes = []
    for k in range(EPISODES):
        r = random.Random("%s:%d:%d" % (workload, seed, k))
        requests = GENERATORS[workload](r, k, committed)
        seen = set()
        for req in requests:
            req["key"] = key_of(req)
            req["repeat"] = req["key"] in seen and req["op"] != "stats"
            seen.add(req["key"])
            req["expect"] = expected_work(req)
        episodes.append(requests)
    return episodes


def count_grid_networks(manifest, grid):
    n = 0
    for token in grid["networks"]:
        if token == "all":
            n += len(ZOO)
        elif token == "workloads":
            for w in manifest.get("workloads", []):
                if "generator" in w:
                    k = 1
                    for knob in ("depth", "width", "bitwidth_policy"):
                        v = w.get(knob)
                        k *= len(v) if isinstance(v, list) else 1
                    n += k
                else:
                    n += 1
        else:
            n += 1
    return n


def expected_work(req):
    """Scenarios a price request submits (searches report theirs)."""
    if req["op"] != "price":
        return 0
    m = req["manifest"]
    total = 0
    for g in m["grids"]:
        total += (len(g.get("backends", ["bpvec"])) * len(g["platforms"])
                  * len(g["memories"]) * count_grid_networks(m, g)
                  * len(g.get("bitwidth_modes", ["homogeneous8b"])))
    return total


def op_mix(requests):
    mix = {}
    for req in requests:
        kind = req["op"] + ("_repeat" if req["repeat"] else "")
        mix[kind] = mix.get(kind, 0) + 1
    return mix


def digest(episodes):
    doc = [[[q["op"], q["manifest"]] for q in requests]
           for requests in episodes]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# ----------------------------------------------------------------- oracle


def exact(text):
    """A JSON tree that keeps member order and every number token verbatim,
    so two trees compare equal exactly when the program's deterministic
    writer would emit the same bytes for them."""
    return json.loads(text, parse_float=lambda s: ("f", s),
                      parse_int=lambda s: ("i", s),
                      object_pairs_hook=lambda pairs: ("o", pairs))


def without_wall(report):
    rows = report.get("scenarios", [])
    return [{k: v for k, v in row.items() if k != "measured_wall_s"}
            for row in rows]


class Oracle:
    """Checks every reply. A reply fails on a nonzero exit or an error
    envelope, a golden mismatch, a repeat that differs from its own first
    reply, or a report whose shape is wrong."""

    def __init__(self, root):
        self.golden = {}
        for name in GOLDEN:
            with open(os.path.join(root, "tests", "golden",
                                   name + ".json"), "rb") as f:
                self.golden[name] = f.read()
        self.golden_exact = {k: exact(v) for k, v in self.golden.items()}
        self.first = {}  # request key -> comparable first reply

    def check(self, req, report_bytes=None, report_exact=None):
        """Returns (ok, work, macs): the scenarios plus search candidates
        the request submitted, and the verified probe MACs."""
        if report_bytes is not None:
            comparable, golden_ok = report_bytes, (
                req["golden"] is None
                or report_bytes == self.golden[req["golden"]])
            report = json.loads(report_bytes)
        else:
            comparable, golden_ok = report_exact, (
                req["golden"] is None
                or report_exact == self.golden_exact[req["golden"]])
            report = None
        if not golden_ok:
            return False, 0, 0
        if report is None:
            report = unexact(report_exact)
        functional = any(row.get("backend") == "functional"
                         for row in report.get("scenarios", []))
        if functional:
            comparable = json.dumps(without_wall(report), sort_keys=True)
        k = req["key"]
        if k in self.first:
            if self.first[k] != comparable:
                return False, 0, 0
        else:
            self.first[k] = comparable
        macs = 0
        if req["op"] == "price":
            rows = report.get("scenarios", [])
            if len(rows) != req["expect"] or report.get(
                    "scenario_count") != len(rows):
                return False, 0, 0
            for row in rows:
                if row.get("total_cycles", 0) <= 0:
                    return False, 0, 0
                if functional:
                    if row.get("measured_macs", 0) <= 0:
                        return False, 0, 0
                    macs += row["measured_macs"]
            return True, len(rows), macs
        candidates = report.get("candidates", 0)
        if candidates <= 0 or report.get("frontier_size", 0) <= 0:
            return False, 0, 0
        return True, candidates, 0


def unexact(tree):
    if isinstance(tree, tuple):
        tag, value = tree
        if tag == "o":
            return {k: unexact(v) for k, v in value}
        return float(value) if tag == "f" else int(value)
    if isinstance(tree, list):
        return [unexact(v) for v in tree]
    return tree


# ---------------------------------------------------------------- metrics


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def busy_seconds(intervals):
    """Wall time during which at least one request was in flight."""
    total, end = 0.0, None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


class Tally:
    """One run's measurements.

    Every episode sends the same request list, so latencies are kept per
    request slot: a slot's latency is its median over the run's episodes,
    and the percentiles are taken over slots. That takes episode-to-episode
    noise out before the percentiles, which otherwise jump between the
    latency clusters of different request kinds. A slot counts as cold or
    warm by the kind it had in most episodes. Throughput and CPU time are
    totals over the run."""

    def __init__(self):
        self.slots = {}  # slot -> [(latency_ms, kind)] over episodes
        self.setup = []
        self.work = 0
        self.cpu_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.macs = 0
        self.busy_s = 0.0
        self.peak_rss_kb = 0
        self.episodes = 0

    def episode(self, samples, cpu_s):
        """samples: (slot, start, end, ok, work, macs, kind) per request."""
        intervals = []
        for slot, start, end, ok, work, macs, kind in samples:
            self.attempted += 1
            intervals.append((start, end))
            self.slots.setdefault(slot, []).append(
                ((end - start) * 1e3, kind if ok else "failed"))
            if ok:
                self.work += work
                self.macs += macs
            else:
                self.failed += 1
        self.busy_s += busy_seconds(intervals)
        self.cpu_s += cpu_s
        self.episodes += 1

    def metrics(self):
        every, by_kind = [], {"cold": [], "warm": []}
        for samples in self.slots.values():
            every.append(statistics.median(ms for ms, _ in samples))
            kinds = [k for _, k in samples]
            kind = max(sorted(set(kinds), key=str), key=kinds.count)
            if kind in by_kind:
                by_kind[kind].append(statistics.median(
                    ms for ms, k in samples if k == kind))
        m = {
            "setup_s": statistics.median(self.setup),
            "latency_p50_ms": statistics.median(every),
            "latency_p90_ms": percentile(every, 0.9),
            "cold_p50_ms": statistics.median(by_kind["cold"] or [0.0]),
            "warm_p50_ms": statistics.median(by_kind["warm"] or [0.0]),
            "scenarios_per_s": self.work / self.busy_s,
            "cpu_ms_per_request": self.cpu_s * 1e3 / self.attempted,
            "peak_rss_mb": self.peak_rss_kb / 1024.0,
            "error_rate": self.failed / self.attempted,
            "probe_gmacs_per_s": self.macs / self.busy_s / 1e9,
        }
        units = dict(END_TO_END + RECORD_ONLY)
        return {k: {"value": v, "unit": units[k]} for k, v in m.items()}


# -------------------------------------------------------- CLI workloads


class Launcher:
    """Children started through e2e_spawn (see spawn.cpp), so that each
    reports its own peak RSS rather than this process's."""

    def __init__(self, build):
        self.proc = subprocess.Popen([build.e2e_spawn], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, argv, stderr_path):
        """(start, end, exit code, CPU seconds, peak RSS kB) of one child;
        start and end read the clock of time.perf_counter."""
        self.proc.stdin.write("\t".join([stderr_path] + argv) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().split()
        if len(reply) != 6:
            fail("e2e_spawn stopped answering")
        code, start, end, user_us, sys_us, rss_kb = (int(v) for v in reply)
        return start / 1e9, end / 1e9, code, (user_us + sys_us) / 1e6, rss_kb

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def run_cli(build, workload, episodes, seconds, threads, workdir, oracle):
    tally = Tally()
    err_path = os.path.join(workdir, "stderr.txt")
    paths = {}
    for req in (q for requests in episodes for q in requests):
        if req["key"] not in paths:
            paths[req["key"]] = os.path.join(workdir, "m%d.json" % len(paths))
            with open(paths[req["key"]], "w") as f:
                json.dump(req["manifest"], f)
    report_path = os.path.join(workdir, "report.json")
    cache_dir = os.path.join(workdir, "cache")
    use_cache = workload == "cli_analytic"
    launcher = Launcher(build)
    try:
        deadline = time.perf_counter() + seconds
        while tally.episodes == 0 or time.perf_counter() < deadline:
            requests = episodes[tally.episodes % len(episodes)]
            shutil.rmtree(cache_dir, ignore_errors=True)
            samples, cpu_s = [], 0.0
            gc.collect()  # between episodes, not inside a timed request
            # Set-up samples are spread over the run, so their median sees
            # the same host conditions as the requests, not its first second.
            for _ in range(SETUP_SAMPLES_PER_EPISODE):
                s, e, rc, _, _ = launcher.run([build.bpvec_run, "--version"],
                                              err_path)
                if rc != 0:
                    fail("bpvec_run --version failed")
                tally.setup.append(e - s)
            for slot, req in enumerate(requests):
                argv = [build.bpvec_run]
                if req["op"] == "search":
                    argv.append("search")
                argv += [paths[req["key"]], "--threads", str(threads),
                         "--report", report_path, "--deterministic-report",
                         "--no-table"]
                if use_cache:
                    argv += ["--cache-dir", cache_dir]
                if os.path.exists(report_path):
                    os.unlink(report_path)
                start, end, rc, cpu, rss_kb = launcher.run(argv, err_path)
                cpu_s += cpu
                tally.peak_rss_kb = max(tally.peak_rss_kb, rss_kb)
                ok, work, macs = False, 0, 0
                if rc == 0 and os.path.exists(report_path):
                    with open(report_path, "rb") as f:
                        ok, work, macs = oracle.check(req,
                                                      report_bytes=f.read())
                if not ok:
                    with open(err_path) as f:
                        print("e2ebench: request failed (rc %d): %s %s" % (
                            rc, req["manifest"].get("name"), f.read()[:500]),
                            file=sys.stderr)
                samples.append((slot, start, end, ok, work, macs,
                                "warm" if req["repeat"] else "cold"))
            tally.episode(samples, cpu_s)
    finally:
        launcher.close()
    return tally


# --------------------------------------------------------- serve workload


def proc_cpu_seconds(pid):
    """CPU time of the live threads of `pid` (ns-resolution schedstat)."""
    total = 0
    for tid in os.listdir("/proc/%d/task" % pid):
        try:
            with open("/proc/%d/task/%s/schedstat" % (pid, tid)) as f:
                total += int(f.read().split()[0])
        except FileNotFoundError:
            pass  # the thread exited between listdir and open
    return total / 1e9


def proc_hwm_kb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class Conn:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buf = b""
        self.slot = None
        self.kind = None
        self.start = 0.0

    def lines(self):
        """Complete lines received so far (blocks for at least one recv)."""
        data = self.sock.recv(1 << 20)
        if not data:
            raise ConnectionError("daemon closed the connection")
        self.buf += data
        *done, self.buf = self.buf.split(b"\n")
        return done

    def roundtrip(self, line):
        self.sock.sendall(line)
        while True:
            for reply in self.lines():
                if not reply.startswith(b'{"status":"running"'):
                    return reply


def run_serve(build, episodes, seconds, threads, workdir, oracle):
    tally = Tally()
    base_dir = os.path.join(build.root, "bench", "manifests")
    episode_lines = []
    for requests in episodes:
        lines = []
        for req in requests:
            env = {"op": req["op"]}
            if req["manifest"] is not None:
                env.update(manifest=req["manifest"], base_dir=base_dir,
                           deterministic_report=True)
            lines.append((json.dumps(env) + "\n").encode())
        episode_lines.append(lines)
    # Relative, so it stays under the AF_UNIX path limit in deep checkouts;
    # the daemon runs in the same working directory.
    sock_path = os.path.relpath(os.path.join(workdir, "d.sock"))
    deadline = time.perf_counter() + seconds
    while tally.episodes == 0 or time.perf_counter() < deadline:
        requests = episodes[tally.episodes % len(episodes)]
        lines = episode_lines[tally.episodes % len(episodes)]
        log = open(os.path.join(workdir, "daemon.log"), "w")
        start = time.perf_counter()
        daemon = subprocess.Popen(
            [build.bpvec_serve, "--socket", sock_path,
             "--threads", str(threads)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log)
        try:
            conns = []
            while not conns:
                try:
                    conns.append(Conn(sock_path))
                except (FileNotFoundError, ConnectionRefusedError):
                    if daemon.poll() is not None:
                        fail("bpvec_serve exited during start-up")
                    if time.perf_counter() - start > 30:
                        fail("bpvec_serve did not start within 30 s")
                    time.sleep(0.0002)
            if b'"ok"' not in conns[0].roundtrip(b'{"op":"ping"}\n'):
                fail("bpvec_serve did not answer ping")
            tally.setup.append(time.perf_counter() - start)
            conns.append(Conn(sock_path))
            cpu0 = proc_cpu_seconds(daemon.pid)
            replies = serve_episode(conns, requests, lines)
            cpu_s = proc_cpu_seconds(daemon.pid) - cpu0
            tally.peak_rss_kb = max(tally.peak_rss_kb,
                                    proc_hwm_kb(daemon.pid))
            conns[0].roundtrip(b'{"op":"shutdown"}\n')
            for c in conns:
                c.sock.close()
            daemon.wait(timeout=30)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
            log.close()
        samples = []
        for slot, start_t, end_t, reply, kind in replies:
            ok, work, macs = check_reply(oracle, requests[slot], reply)
            if not ok:
                print("e2ebench: reply failed: %s" % reply[:500],
                      file=sys.stderr)
            samples.append((slot, start_t, end_t, ok, work, macs, kind))
        tally.episode(samples, cpu_s)
    return tally


def serve_episode(conns, requests, lines):
    """Closed loop over the connections: each sends the next request of the
    list as soon as its previous reply has arrived."""
    sel = selectors.DefaultSelector()
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
    next_slot = 0
    first_done = set()  # keys whose first occurrence has completed
    sent = set()
    replies = []

    def dispatch(c):
        nonlocal next_slot
        c.slot = None
        if next_slot == len(requests):
            return
        c.slot, next_slot = next_slot, next_slot + 1
        req = requests[c.slot]
        if req["op"] == "stats":
            c.kind = None
        elif req["key"] not in sent:
            c.kind = "cold"
        else:
            # A repeat is warm only once its first occurrence has completed;
            # one racing it on the other connection counts as neither.
            c.kind = "warm" if req["key"] in first_done else None
        sent.add(req["key"])
        c.start = time.perf_counter()
        c.sock.sendall(lines[c.slot])

    gc.disable()  # no collector pauses inside the timed loop
    for c in conns:
        dispatch(c)
    while any(c.slot is not None for c in conns):
        for event, _ in sel.select():
            c = event.data
            for reply in c.lines():
                if reply.startswith(b'{"status":"running"'):
                    continue
                end = time.perf_counter()
                replies.append((c.slot, c.start, end, reply, c.kind))
                first_done.add(requests[c.slot]["key"])
                dispatch(c)
    sel.close()
    gc.enable()
    return replies


def check_reply(oracle, req, reply):
    tree = exact(reply)
    members = dict(tree[1]) if isinstance(tree, tuple) else {}
    if members.get("status") != "ok":
        return False, 0, 0
    if req["op"] == "stats":
        return "stats" in members, 0, 0
    if "report" not in members:
        return False, 0, 0
    return oracle.check(req, report_exact=members["report"])


# ------------------------------------------------------------ traced run


def trace_sample(r, requests, cap=24):
    """Distinct requests of the episode in first-occurrence order; the ones
    with a committed golden are always kept, the rest are a seeded sample."""
    distinct, seen = [], set()
    for req in requests:
        if req["op"] != "stats" and req["key"] not in seen:
            seen.add(req["key"])
            distinct.append(req)
    keep = [q for q in distinct if q["golden"]]
    rest = [q for q in distinct if not q["golden"]]
    chosen = set(id(q) for q in keep + r.sample(rest, min(len(rest),
                                                          cap - len(keep))))
    return [q for q in distinct if id(q) in chosen]


def functional_probe_search(sample):
    """cli_functional sends no searches; its traced replay adds one small
    grid search over the first sampled scenario, so the dse and serve search
    layers are measured on this workload's own network and backend."""
    grid = sample[0]["manifest"]["grids"][0]
    manifest = sample[0]["manifest"]
    body = {"backend": "functional", "platform": grid["platforms"][0],
            "memory": grid["memories"][0],
            "space": {"cvu_lanes": [4, 16]}, "strategy": "grid"}
    if "workloads" in manifest:
        w = manifest["workloads"][0]
        body["workload"] = {"generator": w["generator"], "depth": w["depth"],
                            "width": w["width"],
                            "bitwidth_policy": w["bitwidth_policy"]}
    else:
        body["network"] = grid["networks"][0]
        body["bitwidth_mode"] = grid["bitwidth_modes"][0]
    return search({"name": "functional_probe_search", "search": body})


def run_trace(build, workload, seed, episodes, seconds, threads, workdir):
    sample = trace_sample(random.Random("trace:%s:%d" % (workload, seed)),
                          episodes[0])
    if workload == "cli_functional":
        sample.append(functional_probe_search(sample))
    doc = {"base_dir": os.path.join(build.root, "bench", "manifests"),
           "requests": [{"op": q["op"], "manifest": q["manifest"]}
                        for q in sample]}
    req_path = os.path.join(workdir, "trace_requests.json")
    with open(req_path, "w") as f:
        json.dump(doc, f)
    trace_path = os.path.join(workdir, "trace-%s-%d.json" % (workload, seed))
    argv = [build.e2e_trace, "--requests", req_path,
            "--seconds", str(seconds), "--threads", str(threads),
            "--engine-scope",
            "pass" if workload == "serve_mixed" else "request",
            "--cache", "shared" if workload == "cli_analytic" else "none",
            "--work", os.path.relpath(os.path.join(workdir, "trace")),
            "--bpvec-run", build.bpvec_run, "--trace-out", trace_path]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, timeout=170)
    if proc.returncode != 0:
        fail("e2e_trace failed (exit %d)" % proc.returncode)
    out = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    out["sample"] = len(sample)
    out["trace_file"] = os.path.relpath(trace_path, build.root)
    return out


# ------------------------------------------------------------------- main


def run_workload(build, committed, workload, seed, seconds, trace):
    nproc = os.cpu_count() or 1
    connections = 2 if workload == "serve_mixed" else 1
    threads = ENGINE_THREADS
    workdir = os.path.join(build.out, "e2e", workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    episodes = generate(workload, seed, committed)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "episode_seeds": len(episodes),
        "episode_requests": len(episodes[0]),
        "op_mix": op_mix(episodes[0]), "request_digest": digest(episodes),
        "nproc": nproc, "engine_threads": threads,
        "connections": connections, "version": build.version,
    }
    if trace:
        out = run_trace(build, workload, seed, episodes, seconds, threads,
                        workdir)
        record.update(trace_sample=out["sample"],
                      trace_file=out["trace_file"])
        result = {"correct": out["failed"] == 0,
                  "attempted": out["attempted"], "failed": out["failed"],
                  "metrics": out["metrics"]}
        return record, result, out["metrics"]
    oracle = Oracle(build.root)
    if workload == "serve_mixed":
        tally = run_serve(build, episodes, seconds, threads, workdir, oracle)
    else:
        tally = run_cli(build, workload, episodes, seconds, threads, workdir,
                        oracle)
    metrics = tally.metrics()
    record.update(episodes=tally.episodes, samples=tally.attempted)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: metrics[k] for k, _ in END_TO_END}}
    return record, result, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build = Build(os.getcwd(), args.trace)
    committed = load_committed(build.root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, tables = {}, {}
    for name in names:
        record, result, metrics = run_workload(
            build, committed, name, args.seed, args.seconds, args.trace)
        record["metrics"] = metrics
        print(json.dumps({"record": record}), flush=True)
        results[name], tables[name] = result, metrics
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return
    for name in names:
        print("\n%s (attempted %d, failed %d)" % (
            name, results[name]["attempted"], results[name]["failed"]))
        for metric, m in tables[name].items():
            print("  %-40s %16.6g %s" % (metric, m["value"], m["unit"]))
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "workloads": results}))


if __name__ == "__main__":
    main()
