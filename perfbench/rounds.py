#!/usr/bin/env python3
"""Runs sets of benchmark runs in drift-aware order and summarises them.

    python3 perfbench/rounds.py --rounds 10 --out .bench_build/set1.jsonl
    python3 perfbench/rounds.py --summary .bench_build/set1.jsonl [--compare SET2]

Within a set, each round runs every workload once, round-robin, with
that round's seed (1 + round); the workload order rotates
each round. Slow periods of the host hit all workloads together, so
this order keeps one workload's runs from sharing one slow window.
Each run is the BENCHMARK.json command with --workload, --seed,
--seconds (its run_seconds) and --trace 0. It is appended to --out as
one JSON line with its start timestamp.

The summary gives, per workload and end-to-end metric, the median and
the quartile spread (Q3 - Q1) / median of the set, next to the bound
BENCHMARK.json fixes. --compare adds the change of the second set's
median against the first's, in the direction of "worse".
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_set(spec, rounds, out):
    names = [w["name"] for w in spec["workloads"]]
    with open(out, "a") as sink:
        for rnd in range(rounds):
            seed = 1 + rnd
            shift = rnd % len(names)
            for name in names[shift:] + names[:shift]:
                stamp = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
                t0 = time.monotonic()
                proc = subprocess.run(
                    [*spec["command"], "--workload", name, "--seed", str(seed),
                     "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
                record = {"timestamp": stamp, "round": rnd, "workload": name, "seed": seed,
                          "exit": proc.returncode,
                          "elapsed_s": time.monotonic() - t0, "result": result}
                sink.write(json.dumps(record) + "\n")
                sink.flush()
                status = "ok" if result and result["correct"] else "FAILED"
                print(f"{stamp} round {rnd} {name} seed {seed}: {status} "
                      f"({record['elapsed_s']:.1f} s)", flush=True)


def load_set(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        runs.setdefault(rec["workload"], []).append(rec)
    return runs


def medians_and_spreads(runs, metric):
    values = [r["result"]["metrics"][metric]["value"] for r in runs if r["result"]]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def summary(spec, path, compare):
    first = load_set(path)
    second = load_set(compare) if compare else None
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = first.get(workload, [])
        bad = [r for r in runs if not r["result"] or not r["result"]["correct"]]
        failures += len(bad)
        print(f"{workload}: {len(runs)} runs, {len(bad)} failed or incorrect")
        if len(runs) - len(bad) < 2:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            med, spread = medians_and_spreads(runs, name)
            line = (f"  {name:16s} median {med:14.6g} {metric['unit']:5s} spread {spread:7.2%} "
                    f"(bound {bound:.0%}, {'ok' if spread < bound / 3 else 'WIDE'})")
            if second and len(second.get(workload, [])) >= 2:
                med2, _ = medians_and_spreads(second[workload], name)
                worse = (med2 - med) / med if metric["better"] == "lower" else (med - med2) / med
                line += f"  second set worse by {worse:+7.2%} ({'ok' if worse <= bound else 'OVER'})"
            print(line)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--out", help="JSON-lines file the runs are appended to")
    parser.add_argument("--summary", help="summarise a recorded set instead of running one")
    parser.add_argument("--compare", help="a second recorded set to compare with --summary")
    args = parser.parse_args()
    spec = load_spec()
    if args.summary:
        return summary(spec, args.summary, args.compare)
    if not args.out:
        parser.error("--out is required to record a set")
    run_set(spec, args.rounds, args.out)
    return summary(spec, args.out, None)


if __name__ == "__main__":
    sys.exit(main())
