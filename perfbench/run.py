#!/usr/bin/env python3
"""ADDC simulator benchmark: builds the benchmark binary from this checkout,
runs one workload, and prints the result as one JSON line (the last line of
stdout).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py ... --record runs.jsonl       # keep for compare.py
    python3 perfbench/run.py ... --save-digests FILE       # digest witness
    python3 perfbench/run.py ... --check-digests FILE      # compare witness
    python3 perfbench/run.py --self-test                   # tiny-scale checks

With --trace 0 the result carries the end-to-end metrics, with --trace 1 the
per-layer metrics of a separate traced pass (its Chrome trace goes to
.bench_build/traces/). Everything the benchmark writes stays under
$CARGO_TARGET_DIR (default .bench_build) in the checkout root.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sparse_spectrum", "dense_10k", "figure_sweep")
# Seed discipline: DEFAULT_SEED is the one to develop against; HELD_OUT_SEED
# is kept for confirming a claim after the change is written (pass it as
# --seed 20260917).
DEFAULT_SEED = 1
HELD_OUT_SEED = 20260917


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures and builds the benchmark binary; returns its path. Both
    steps are incremental, so only the first run in a checkout compiles."""
    build_dir = build_root() / "cmake"
    subprocess.run(
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs, "--target",
         "addc_bench"],
        stdout=sys.stderr, check=True)
    return build_dir / "addc_bench"


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns the binary's result document."""
    out_dir = build_root() / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    result_path = out_dir / f"{workload}-{seed}-{trace}.json"
    result_path.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--result-out", str(result_path), *extra]
    if trace:
        trace_dir = build_root() / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_dir / f"{workload}-{seed}.json")]
    sys.stdout.flush()
    subprocess.run(cmd, stdout=sys.stdout, check=True)
    with open(result_path) as f:
        return json.load(f)


def contract_line(doc, trace):
    metrics = doc["per_layer"] if trace else doc["metrics"]
    return {"correct": doc["correct"], "attempted": doc["attempted"],
            "failed": doc["failed"], "metrics": metrics}


def digests(doc):
    return {"trace_digest": doc["trace_digest"],
            "metrics_digest": doc["metrics_digest"]}


def check_digests(path, doc):
    """Compares this run's digests with a saved run of the same workload and
    seed. A difference is reported, not failed: a deliberate change of the
    simulated statistics (a re-baseline) shows up here."""
    with open(path) as f:
        saved = json.load(f)
    key = f"{doc['workload']}:{doc['seed']}"
    if key not in saved:
        print(f"digests: no saved entry for {key} in {path}")
        return
    changed = [name for name, value in digests(doc).items()
               if saved[key].get(name) != value]
    if changed:
        for name in changed:
            print(f"digests: {name} CHANGED {saved[key].get(name)} -> "
                  f"{digests(doc)[name]} (simulated statistics differ)")
    else:
        print("digests: identical to saved run")


def save_digests(path, doc):
    saved = {}
    if os.path.exists(path):
        with open(path) as f:
            saved = json.load(f)
    saved[f"{doc['workload']}:{doc['seed']}"] = digests(doc)
    with open(path, "w") as f:
        json.dump(saved, f, indent=2, sort_keys=True)
        f.write("\n")


def self_test(binary):
    """Tiny-scale checks of the benchmark itself. Returns the exit code."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []

    def expect(ok, what):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    def has_all(metrics, wanted, positive):
        for name, unit in wanted.items():
            entry = metrics.get(name)
            if entry is None or entry.get("unit") != unit:
                return f"{name} missing or not in {unit}"
            value = entry.get("value")
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                return f"{name} is not a finite number"
            if positive and value <= 0:
                return f"{name} is {value}, not positive"
        return None

    tiny = ["--scale", "tiny"]
    for workload in WORKLOADS:
        doc = run_binary(binary, workload, DEFAULT_SEED, 0.5, 0, tiny)
        problem = has_all(doc["metrics"], end_to_end, positive=True)
        expect(problem is None,
               f"{workload}: every end-to-end metric prints with its unit"
               + (f" ({problem})" if problem else ""))
        expect(doc["correct"] and doc["failed"] == 0
               and doc["failed_ratio"] == 0,
               f"{workload}: failed_ratio is 0 over {doc['attempted']} cells")

        for damaged in ("summary", "cell"):
            bad = run_binary(binary, workload, DEFAULT_SEED, 0.5, 0,
                             tiny + ["--corrupt", damaged])
            expect(not bad["correct"] and bad["failed"] > 0,
                   f"{workload}: a corrupted {damaged} result fails the "
                   "output checks")

        doc = run_binary(binary, workload, DEFAULT_SEED, 0.5, 1, tiny)
        problem = has_all(doc["per_layer"], per_layer, positive=False)
        expect(problem is None,
               f"{workload}: every per-layer metric prints with its unit"
               + (f" ({problem})" if problem else ""))
        trace_path = build_root() / "traces" / f"{workload}-{DEFAULT_SEED}.json"
        try:
            with open(trace_path) as f:
                events = json.load(f)["traceEvents"]
            ledger = [e for e in events if e.get("name") == "perfbench.per_layer"]
            spans = [e for e in events if e.get("ph") == "X"]
            missing = sorted(set(per_layer) - set(ledger[0]["args"])) if ledger else ["ledger"]
            linked = all({"run_id", "span_id", "parent_id"} <= set(e["args"])
                         for e in spans)
            expect(not missing and spans and linked,
                   f"{workload}: trace parses, {len(spans)} spans carry "
                   "run/span/parent ids, ledger has every per-layer metric"
                   + (f" (missing {missing})" if missing else ""))
        except (OSError, ValueError, KeyError) as e:
            expect(False, f"{workload}: trace {trace_path} parses ({e})")

    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append this run to a JSONL file")
    parser.add_argument("--save-digests", help="store digests in FILE")
    parser.add_argument("--check-digests", help="compare digests with FILE")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test(binary)

    try:
        doc = run_binary(binary, args.workload, args.seed, args.seconds,
                         args.trace)
    except (OSError, ValueError, subprocess.CalledProcessError) as e:
        print(f"run.py: benchmark run failed: {e}", file=sys.stderr)
        return 1

    print(f"trace digest {doc['trace_digest']}  metrics digest "
          f"{doc['metrics_digest']}  failed_ratio {doc['failed_ratio']}")
    if args.check_digests:
        check_digests(args.check_digests, doc)
    if args.save_digests:
        save_digests(args.save_digests, doc)
    line = contract_line(doc, args.trace)
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "digests": digests(doc),
                                "result": line}) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
