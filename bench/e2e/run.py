#!/usr/bin/env python3
"""remo-bench runner: builds the standalone benchmark and runs its workloads.

One run; the last line of stdout is the result JSON:
    python3 bench/e2e/run.py --workload W --seed S --seconds N --trace 0|1
Every workload once, printed as a metric table (the traced pass with --trace 1):
    python3 bench/e2e/run.py --seed S [--trace 1]
Self-agreement: SETS sets of RUNS runs of every workload, alternating order:
    python3 bench/e2e/run.py --sets 2 --runs 5 --seed S [--traced] [--out FILE]
Shrunken workloads, checking every emitted name and unit (the ctest):
    python3 bench/e2e/run.py --smoke [--binary PATH]

Run from anywhere: paths resolve against the checkout that holds this file.
The build goes to .bench_build/ at the checkout root; traced passes write
their span files next to the binary, under traces/. Any failed check, wrong
answer or missing metric makes the exit status non-zero.
"""
import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170
DETAIL_PREFIX = "remo-bench-detail "


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build():
    """Configure (once) and build the Release project; returns the binary."""
    if not (BUILD / "CMakeCache.txt").exists():
        step(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", str(BUILD), "-j", "4", "--target", "remo_bench"])
    return BUILD / "remo_bench"


def step(cmd):
    # Build chatter goes to stderr: stdout carries only the result.
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("build step failed: " + " ".join(cmd))


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def format_problems(result, spec, trace):
    """What makes a result line malformed: keys, types, names, units."""
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys are %s" % sorted(result)]
    if not isinstance(result["correct"], bool):
        out.append("correct is not a boolean")
    for key, least in (("attempted", 1), ("failed", 0)):
        v = result[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < least:
            out.append("%s is %r" % (key, v))
    want = expected_metrics(spec, trace)
    got = result["metrics"]
    for name in sorted(set(want) - set(got)):
        out.append("missing metric " + name)
    for name in sorted(set(got) - set(want)):
        out.append("unexpected metric " + name)
    for name in sorted(set(want) & set(got)):
        m = got[name]
        if m.get("unit") != want[name]:
            out.append("%s has unit %r, expected %r" % (name, m.get("unit"), want[name]))
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            out.append("%s has value %r" % (name, v))
    return out


def outcome_problems(result):
    """Wrong answers or failed operations: no speed counts from such a run."""
    out = []
    if not result["correct"]:
        out.append("answers do not match the oracle")
    if result["failed"]:
        out.append("%d operations failed" % result["failed"])
    return out


def run_once(binary, spec, workload, seed, seconds, trace, smoke=False):
    """One benchmark process; returns (result, detail, format problems)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = Path(binary).resolve().parent / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / ("%s-seed%d.json" % (workload, seed)))]
    if smoke:
        cmd.append("--smoke")
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s seed %d timed out" % (workload, seed))
    detail = {}
    for line in p.stderr.splitlines():
        if line.startswith(DETAIL_PREFIX):
            detail = json.loads(line[len(DETAIL_PREFIX):])
        else:
            log(line)
    if p.returncode != 0:
        raise BenchError("%s seed %d exited with %d" % (workload, seed, p.returncode))
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s seed %d printed no result" % (workload, seed))
    result = json.loads(lines[-1])
    return result, detail, format_problems(result, spec, trace)


def print_table(workload, result):
    for name, m in result["metrics"].items():
        print("%-16s %-30s %16.6g %s" % (workload, name, m["value"], m["unit"]))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(spec, runs, sets):
    """Per workload, metric and set: median, quartiles and spread."""
    summary = {}
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (False, True):
            for name in expected_metrics(spec, trace):
                for k in range(sets):
                    vals = [r["result"]["metrics"][name]["value"] for r in runs
                            if r["workload"] == w and r["set"] == k and r["trace"] == trace]
                    if not vals:
                        continue
                    q1, med, q3 = quartiles(vals)
                    summary.setdefault(w, {}).setdefault(name, []).append({
                        "set": k, "n": len(vals), "median": med, "q1": q1, "q3": q3,
                        "spread": (q3 - q1) / abs(med) if med else 0.0})
    return summary


def flags_in(spec, summary):
    """End-to-end metrics whose set medians disagree, or whose spread within
    a set exceeds the metric's bound."""
    flags = []
    for m in spec["end_to_end"]:
        for w, metrics in summary.items():
            per_set = metrics.get(m["name"], [])
            for s in per_set:
                if s["spread"] > m["bound"]:
                    flags.append("%s %s: set %d spread %.3f > bound %.3f"
                                 % (w, m["name"], s["set"], s["spread"], m["bound"]))
            meds = [s["median"] for s in per_set]
            for a, b in zip(meds, meds[1:]):
                if a and abs(b - a) / abs(a) > m["bound"]:
                    flags.append("%s %s: set medians %.6g vs %.6g differ by more than %.3f"
                                 % (w, m["name"], a, b, m["bound"]))
    return flags


def host_info():
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpus": os.cpu_count(), "cpu_model": model, "kernel": platform.release()}


def sets_mode(args, spec, binary):
    names = [w["name"] for w in spec["workloads"]]
    runs = []

    def record(k, w, seed, trace):
        result, detail, problems = run_once(binary, spec, w, seed, args.seconds, trace)
        problems = problems or outcome_problems(result)
        if problems:
            raise BenchError("%s seed %d: %s" % (w, seed, "; ".join(problems)))
        runs.append({"set": k, "workload": w, "seed": seed, "trace": trace,
                     "result": result, "detail": detail})

    for k in range(args.sets):
        order = names if k % 2 == 0 else names[::-1]
        for i in range(args.runs):
            for w in (order if i % 2 == 0 else order[::-1]):
                record(k, w, args.seed, False)
        if args.traced:
            for w in order:
                record(k, w, args.seed, True)

    summary = summarize(spec, runs, args.sets)
    for w, metrics in summary.items():
        for name, per_set in metrics.items():
            cells = "  ".join("set%d %.6g [%.6g, %.6g] n=%d"
                              % (s["set"], s["median"], s["q1"], s["q3"], s["n"])
                              for s in per_set)
            print("%-16s %-30s %s" % (w, name, cells))
    flags = flags_in(spec, summary)
    for f in flags:
        print("FLAG " + f)
    if args.out:
        doc = {"schema": "remo-bench-runs-1", "host": host_info(),
               "seconds": args.seconds, "seed": args.seed,
               "sets": args.sets, "runs_per_set": args.runs, "summary": summary, "flags": flags, "runs": runs}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if flags else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sets", type=int)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--traced", action="store_true",
                    help="sets mode: add one traced pass per workload per set")
    ap.add_argument("--out", help="sets mode: write every run and the summary here")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary", help="use this remo_bench instead of building one")
    args = ap.parse_args()

    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = 1 if args.smoke else spec["run_seconds"]
        binary = Path(args.binary) if args.binary else build()

        if args.sets:
            return sets_mode(args, spec, binary)

        if args.workload:
            result, _, problems = run_once(binary, spec, args.workload, args.seed,
                                           args.seconds, bool(args.trace))
            for p in problems:
                log("%s seed %d: %s" % (args.workload, args.seed, p))
            if problems:
                return 1  # malformed: print no result
            wrong = outcome_problems(result)
            for p in wrong:
                log("%s seed %d: %s" % (args.workload, args.seed, p))
            print(json.dumps(result))
            return 1 if wrong else 0

        # Every workload once: the table, or with --smoke only the checks.
        status = 0
        for w in [x["name"] for x in spec["workloads"]]:
            for trace in ((False, True) if args.smoke else (bool(args.trace),)):
                result, _, problems = run_once(binary, spec, w, args.seed, args.seconds,
                                               trace, smoke=args.smoke)
                if not problems and not args.smoke:
                    print_table(w, result)
                for p in problems or outcome_problems(result):
                    print("FAIL %s trace=%d: %s" % (w, trace, p))
                    status = 1
        if args.smoke:
            print("smoke " + ("FAILED" if status else "ok"))
        return status
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("remo-bench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
