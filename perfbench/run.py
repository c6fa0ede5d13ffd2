#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --seconds S
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call builds the simulator's
src/ from source, untraced and traced, under .bench_build/perfbench.

A run derives a fixed list of simulation seeds from --seed; --seconds
scales how many. Each repetition is one brb::core::run_scenario call on
one of them, in a perfbench_harness process that may run several in
turn. A --trace 0 run simulates every seed once, a few processes side
by side, for the simulated metrics; between those chunks it times the
first seeds in several passes, one process at a time, each pass after
an untimed warm-up simulation. A seed met twice must give the same
sim_digest.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics from traced repetitions paired with untraced ones. The last
stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}; the exit code is 0 only when that line was printed.
Without --trace, both runs are made one after the other, and the exit
code is 1 when either found a failed check.
"""

import argparse
import datetime
import hashlib
import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from statistics import mean, median

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD_DIR / "perfbench_harness"
HARNESS_TRACED = BUILD_DIR / "perfbench_harness_traced"
SYMBOLS = BUILD_DIR / "perfbench_harness_traced.nm"

# Tasks per simulation; seeds per REFERENCE_SECONDS of --seconds:
# simulated for the simulated metrics, timed for the host times, and
# traced by a --trace 1 run; and timed passes over the timed seeds. The
# simulated latencies vary widely from seed to seed (on some seeds hot
# keys draw large values and overload their replicas), so a run
# summarises many small simulations, each with its own seed. The counts
# fill 30-50 s of a 4-vCPU VM, depending on how fast it is at the time.
# fleet-hedge runs, but BENCHMARK.json does not list it: its host times
# spread past their bound on a shared VM (see README.md).
WORKLOADS = {
    "paper-credits": {"tasks": 20_000, "simulated": 128, "timed": 34, "passes": 4,
                      "traced": 12},
    "paper-c3-writes": {"tasks": 10_000, "simulated": 128, "timed": 44, "passes": 4,
                        "traced": 12},
    "fleet-hedge": {"tasks": 5_000, "simulated": 200, "timed": 10, "passes": 8, "traced": 8},
}
REFERENCE_SECONDS = 55
TRACED_PASSES = 2  # untraced + traced pairs per traced seed
MIN_SEEDS = 4
LAYERS = ["sim", "workload", "client", "net", "server", "ctrl", "policy",
          "credits", "scenario", "store", "stats"]
REP_TIMEOUT_S = 60


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def run_checked(cmd, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise BenchError(f"{what} failed (exit {proc.returncode})")
    return proc.stdout


def build(targets):
    """Configures once, then brings `targets` up to date."""
    if not (ROOT / "src" / "core" / "scenario.cpp").is_file():
        raise BenchError(f"no simulator sources under {ROOT / 'src'}")
    for tool in ("cmake", "nm"):
        if shutil.which(tool) is None:
            raise BenchError(f"{tool} not found")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"], "cmake configure")
    run_checked(["cmake", "--build", str(BUILD_DIR), "-j", build_jobs(), "--target", *targets],
                "cmake build")
    if "perfbench_harness_traced" in targets and (
            not SYMBOLS.is_file() or SYMBOLS.stat().st_mtime < HARNESS_TRACED.stat().st_mtime):
        text = run_checked(["nm", "-C", "--defined-only", str(HARNESS_TRACED)], "nm")
        SYMBOLS.write_text(text)


def child_env():
    # brb flags also read BRB_* variables; the harness must see only the
    # workload's own config.
    return {k: v for k, v in os.environ.items() if not k.startswith("BRB_")}


def sim_seeds(workload, seed, seconds, kind):
    """The first seeds of --seed's list that a run uses for `kind`."""
    count = round(WORKLOADS[workload][kind] * seconds / REFERENCE_SECONDS)
    return [seed * 1000 + i for i in range(min(1000, max(MIN_SEEDS, count)))]


def run_sims(workload, sim_seeds, traced=False, cpu=None):
    """One harness process that simulates `sim_seeds` in order; one
    repetition per simulation."""
    cmd = [str(HARNESS_TRACED if traced else HARNESS), "--workload", workload,
           "--seeds", ",".join(map(str, sim_seeds)),
           "--tasks", str(WORKLOADS[workload]["tasks"])]
    if traced:
        cmd += ["--trace-syms", str(SYMBOLS)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=child_env(), timeout=REP_TIMEOUT_S * len(sim_seeds),
                              preexec_fn=None if cpu is None else
                              lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} simulation of seeds {sim_seeds} timed out")
    reps = []
    for line in proc.stdout.strip().splitlines():
        try:
            reps.append(json.loads(line))
        except json.JSONDecodeError:
            reps.append({"error": f"harness printed {line[:200]!r}"})
    if proc.returncode != 0 and not (reps and "error" in reps[-1]):
        reps.append({"error": f"harness exit {proc.returncode}: {proc.stderr.strip()[-500:]}"})
    if len(reps) > len(sim_seeds) or ("error" not in reps[-1] and len(reps) < len(sim_seeds)):
        raise BenchError(f"harness gave {len(reps)} results for {len(sim_seeds)} seeds")
    for rep, sim_seed in zip(reps, sim_seeds):
        if not rep.get("planned_tasks"):
            # Rejected before a task was planned: a usage or build error,
            # not a failed operation.
            raise BenchError(f"harness gave no result: {rep.get('error', proc.stderr[-500:])}")
        rep["sim_seed"] = sim_seed
        rep["traced"] = traced
    return reps


def run_untimed(workload, seeds):
    """All seeds, split over up to four processes side by side. Their
    simulated results are deterministic; their host times are not
    used."""
    width = min(4, len(os.sched_getaffinity(0)), len(seeds))
    if width == 0:
        return []
    with ThreadPoolExecutor(width) as pool:
        reps = [r for rs in pool.map(lambda k: run_sims(workload, seeds[k::width]), range(width))
                for r in rs]
    for r in reps:
        r["untimed"] = True
    return reps


def run_timed(workload, seeds, untimed_seeds):
    """The workload's passes over `seeds`, one process per pass and one
    at a time; before each pass, a share of `untimed_seeds` runs through
    run_untimed, so that the passes spread over the whole run. A pass
    first simulates its first seed once as a warm-up, so that the timed
    simulations reuse a grown heap; the warm-up gives the peak RSS of a
    process that ran one simulation. Pass p starts its list p/passes of
    the way in and runs pinned to the p-th CPU: the vCPUs of a shared VM
    run at different speeds (one ran 1.8x slower than the others), and
    the speed of the whole VM drifts by tens of percent within a minute.
    """
    cpus = sorted(os.sched_getaffinity(0))
    passes = WORKLOADS[workload]["passes"]
    reps = []
    for pass_no in range(passes):
        reps += run_untimed(workload, untimed_seeds[pass_no::passes])
        shift = pass_no * len(seeds) // passes
        order = seeds[shift:] + seeds[:shift]
        warmup, *timed = run_sims(workload, order[:1] + order, cpu=cpus[pass_no % len(cpus)])
        warmup["warmup"] = True
        for r in timed:
            r["pass"] = pass_no
        reps += [warmup] + timed
    return reps


def run_traced_passes(workload, seeds):
    """TRACED_PASSES passes over `seeds`, one seed at a time: an
    untraced and then a traced repetition, each a process of its own,
    both pinned to the same CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    reps = []
    for pass_no in range(TRACED_PASSES):
        for i, sim_seed in enumerate(seeds):
            for traced in (False, True):
                reps += run_sims(workload, [sim_seed], traced, cpus[(i + pass_no) % len(cpus)])
                reps[-1]["pass"] = pass_no
    return reps


def check(reps):
    """Returns (problems, failed operations, digest of the run)."""
    problems = sorted({v for r in reps for v in r.get("violations", [])})
    problems += [r["error"] for r in reps if "error" in r]
    digests = {}
    failed = 0
    for r in reps:
        if "error" in r:
            failed += r["planned_tasks"]
            continue
        first = digests.setdefault(r["sim_seed"], r["sim_digest"])
        bad = bool(r["violations"]) or r["sim_digest"] != first
        if r["sim_digest"] != first:
            problems.append(f"sim_digest of seed {r['sim_seed']} differs between repetitions "
                            "(traced ones included)")
        failed += min(r["planned_tasks"],
                      r["tasks_submitted"] - r["tasks_completed"] + (1 if bad else 0))
    run_digest = hashlib.sha256(
        "".join(f"{s}:{d};" for s, d in sorted(digests.items())).encode()).hexdigest()[:16]
    return problems, failed, run_digest


def per_seed_least(reps, cost):
    """Each timed seed's least host cost over its repetitions. Other
    tenants of a shared host only ever slow a repetition down."""
    least = {}
    for r in reps:
        least[r["sim_seed"]] = min(least.get(r["sim_seed"], float("inf")), cost(r))
    return list(least.values())


def first_pass(reps, traced=False):
    return [r for r in reps if r.get("pass") == 0 and r["traced"] == traced]


def sim_reps(reps):
    """One repetition per seed, for the simulated figures."""
    return [r for r in reps if r.get("untimed")] or first_pass(reps)


def end_to_end_metrics(reps):
    timed = [r for r in reps if "pass" in r]
    sims = sim_reps(reps)
    # Every timed seed counts: the mean wall and the pooled throughput
    # weigh a seed by its cost, so a change that slows only heavy seeds
    # shows.
    completion_s = per_seed_least(timed, lambda r: r["tasks_completed"] / r["tasks_per_s"])
    tasks = sum(r["tasks_completed"] for r in first_pass(timed))
    return {
        "wall_s": (mean(per_seed_least(timed, lambda r: r["wall_s"])), "s"),
        "setup_s": (median(per_seed_least(timed, lambda r: r["setup_s"])), "s"),
        "tasks_per_s": (tasks / sum(completion_s), "1/s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in reps if r.get("warmup")]), "MB"),
        "sim_task_p50_ms": (median([r["sim_task_p50_ms"] for r in sims]), "ms"),
        "sim_task_p99_ms": (median([r["sim_task_p99_ms"] for r in sims]), "ms"),
    }


def per_layer_metrics(reps):
    untraced = [r for r in reps if "pass" in r and not r["traced"]]
    traced = [r for r in reps if "pass" in r and r["traced"]]
    sims, traced_sims = first_pass(reps), first_pass(reps, traced=True)
    metrics = {}
    for layer in LAYERS + ["other"]:
        if layer != "other":
            metrics[f"{layer}.calls"] = (
                median([r["layers"][layer]["calls"] for r in traced_sims]), "count")
            metrics[f"{layer}.self_s"] = (
                median([r["layers"][layer]["self_s"] for r in traced]), "s")
        metrics[f"{layer}.share"] = (
            median([r["layers"][layer]["self_s"] / r["traced_s"] for r in traced]), "fraction")

    def per_sim(fn):
        return median([fn(r) for r in sims])

    untraced_wall = {(r["pass"], r["sim_seed"]): r["wall_s"] for r in untraced}
    metrics.update({
        "sim.events_per_task": (per_sim(lambda r: r["events"] / r["tasks_submitted"]), "count"),
        "sim.events_per_s": (median([r["events"] / r["wall_s"] for r in untraced]), "1/s"),
        "net.messages_per_task": (per_sim(lambda r: r["messages"] / r["tasks_submitted"]),
                                  "count"),
        "net.bytes_per_task": (per_sim(lambda r: r["bytes"] / r["tasks_submitted"]), "B"),
        "server.utilization": (per_sim(lambda r: r["utilization"]), "fraction"),
        "client.gate_hold_events": (per_sim(lambda r: r["credit_hold_events"]), "count"),
        "client.gate_hold_ms_per_task": (
            per_sim(lambda r: r["credit_hold_ms"] / r["tasks_submitted"]), "ms"),
        "credits.adaptations": (per_sim(lambda r: r["adaptations"]), "count"),
        "credits.congestion_signals": (per_sim(lambda r: r["congestion_signals"]), "count"),
        "ctrl.hedges_issued": (per_sim(lambda r: r["hedges_issued"]), "count"),
        "ctrl.hedges_cancelled": (per_sim(lambda r: r["hedges_cancelled"]), "count"),
        "ctrl.dup_work_frac": (per_sim(lambda r: r["dup_work_frac"]), "fraction"),
        "store.write_requests": (per_sim(lambda r: r["write_requests"]), "count"),
        "stats.teardown_s": (median([r["teardown_s"] for r in untraced]), "s"),
        "trace.overhead_x": (median([r["wall_s"] / untraced_wall[(r["pass"], r["sim_seed"])]
                                     for r in traced
                                     if (r["pass"], r["sim_seed"]) in untraced_wall]), "x"),
    })
    return metrics


def traced_checks(reps):
    """Exact per-layer call counts must repeat for a seed, and the
    credits layer must run exactly on the workload that uses credits."""
    problems = []
    calls = {}
    for r in reps:
        if r["traced"] and "layers" in r:
            counts = tuple(r["layers"][layer]["calls"] for layer in LAYERS)
            if calls.setdefault(r["sim_seed"], counts) != counts:
                problems.append(f"per-layer call counts of seed {r['sim_seed']} do not repeat")
            uses = r["expects"]["credits"]
            if (r["layers"]["credits"]["calls"] > 0) != uses:
                problems.append(f"credits.calls = {r['layers']['credits']['calls']} on a "
                                f"workload that {'uses' if uses else 'bypasses'} credits")
    return sorted(set(problems))


def measure(workload, seed, seconds, trace):
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload}; known: {', '.join(WORKLOADS)}")
    started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    if trace:
        seeds = sim_seeds(workload, seed, seconds, "traced")
        reps = run_sims(workload, seeds[:1])  # warm-up, not timed
        reps += run_traced_passes(workload, seeds)
    else:
        seeds = sim_seeds(workload, seed, seconds, "simulated")
        reps = run_timed(workload, sim_seeds(workload, seed, seconds, "timed"), seeds)
    problems, failed, run_digest = check(reps)
    if trace:
        problems += traced_checks(reps)
    problems = list(dict.fromkeys(problems))
    ok = [r for r in reps if "error" not in r]
    if not first_pass(ok) or not first_pass(ok, traced=bool(trace)):
        raise BenchError("no simulation completed: " + "; ".join(problems))
    metrics = per_layer_metrics(ok) if trace else end_to_end_metrics(ok)

    sims = sim_reps(ok)
    timed = [r for r in ok if "pass" in r]
    p99s = sorted(r["sim_task_p99_ms"] for r in sims)
    print(f"perfbench workload={workload} seed={seed} trace={trace} started={started}")
    print(f"simulations: seeds {seeds[0]}..{seeds[-1]}, {WORKLOADS[workload]['tasks']} tasks "
          f"each; {len(timed)} timed repetitions of the first "
          f"{len({r['sim_seed'] for r in timed})} seeds in "
          f"{TRACED_PASSES if trace else WORKLOADS[workload]['passes']} passes")
    print(f"sim_digest: {run_digest} (over the per-simulation digests)")
    print(f"per-simulation task p99: min {p99s[0]:.4g} ms, median {median(p99s):.4g} ms, "
          f"max {p99s[-1]:.4g} ms")
    print("per-simulation medians: " + ", ".join(
        f"{key} {median(r[key] for r in sims):.6g}"
        for key in ("requests", "hedges_issued", "hedges_cancelled", "write_requests")))
    if trace:
        print("note: functions defined in headers are not instrumented; their time "
              "counts toward the calling layer")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>18.6g} {unit}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": sum(r["planned_tasks"] for r in reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return result


def self_test():
    build(["perfbench_selftest"])
    proc = subprocess.run(["ctest", "--test-dir", str(BUILD_DIR), "--output-on-failure"],
                          env=child_env())
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if None in (args.workload, args.seed, args.seconds):
            parser.error("--workload, --seed and --seconds are required")
        if args.seed < 0 or args.seconds <= 0:
            parser.error("--seed must be >= 0 and --seconds > 0")
        build(["perfbench_harness", "perfbench_harness_traced"])
        modes = (0, 1) if args.trace is None else (args.trace,)
        results = [measure(args.workload, args.seed, args.seconds, mode) for mode in modes]
        if args.trace is None and not all(r["correct"] for r in results):
            return 1
    except BenchError as err:
        log(f"perfbench: {err}")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
