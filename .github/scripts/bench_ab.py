#!/usr/bin/env python3
"""End-to-end A/B gate over BENCHMARK.json.

Runs every workload of the head tree's BENCHMARK.json through each tree's
own `command`, base and head alternately (the first of each pair swaps
every pair), and fails when a head median moves against the base median
by more than the metric's `end_to_end` bound, or when any run reports
`failed > 0` or `correct: false`.

    python3 .github/scripts/bench_ab.py BASE_DIR HEAD_DIR [--pairs 3] [--seconds S]

`--seconds` defaults to the benchmark's `run_seconds`. Each tree is
built before the first timed run, so compile time is never measured.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def load_benchmark(tree):
    with open(Path(tree) / "BENCHMARK.json") as f:
        return json.load(f)


def build(tree, command):
    """Builds with the command's own cargo flags, so no timed run compiles."""
    if command[:2] == ["cargo", "run"]:
        flags = command[2:command.index("--")] if "--" in command else command[2:]
        subprocess.run(["cargo", "build", *flags], cwd=tree, check=True)


def run_once(tree, command, workload, seed, seconds):
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, cwd=tree, capture_output=True, text=True)
    lines = [line for line in done.stdout.splitlines() if line.startswith("{")]
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{tree}: {workload} seed {seed} exited {done.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    spec = load_benchmark(args.head)
    seconds = args.seconds or spec["run_seconds"]
    trees = {"base": args.base, "head": args.head}
    commands = {side: load_benchmark(tree)["command"] for side, tree in trees.items()}
    for side, tree in trees.items():
        build(tree, commands[side])

    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        samples = {"base": [], "head": []}
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                result = run_once(trees[side], commands[side], workload, pair + 1, seconds)
                if result["failed"] > 0 or not result["correct"]:
                    failures.append(f"{workload} {side} seed {pair + 1}: "
                                    f"failed={result['failed']} correct={result['correct']}")
                samples[side].append(result["metrics"])
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            base = statistics.median(m[name]["value"] for m in samples["base"])
            head = statistics.median(m[name]["value"] for m in samples["head"])
            change = (head - base) / base if base else 0.0
            worse = -change if metric["better"] == "higher" else change
            verdict = "FAIL" if worse > bound else "ok"
            print(f"{workload:16} {name:16} base {base:12.4f} head {head:12.4f} "
                  f"{change:+7.1%} (bound {bound:.0%}) {verdict}")
            if worse > bound:
                failures.append(f"{workload} {name}: {change:+.1%} against a {bound:.0%} bound")

    if failures:
        print("\n".join(["end-to-end gate failed:", *failures]), file=sys.stderr)
        return 1
    print("end-to-end gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
