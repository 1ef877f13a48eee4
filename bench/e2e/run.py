#!/usr/bin/env python3
"""Runner of the end-to-end benchmark (bench/e2e/README.md).

Run from the repository root:

  run.sh --workload W --seed N --seconds S --trace 0|1
      Builds the benchmark if needed, runs one workload, and prints as its last
      stdout line {"correct", "attempted", "failed", "metrics"}: the
      end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
  run.sh --sets N [--seed S] [--trace] [--out DIR]
      N sets of every workload, alternating workload order; set i uses seed
      S+i. Writes one JSON per set under DIR (default reports/e2e/<time>).
  run.sh --compare DIR_A DIR_B
      Median and quartiles of each metric per workload in both groups of
      sets, and whether the medians agree within the BENCHMARK.json bound.
  run.sh --smoke [--binary PATH]
      Every workload at smoke scale, traced; checks that the printed metric
      names and units match BENCHMARK.json and that every check passed.

The benchmark builds into $CARGO_TARGET_DIR, default .bench_build.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCH_SEED = 20110621
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configuring the benchmark failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")
    return out / "sntrust_e2e"


def run_binary(binary, args, work):
    """Runs the benchmark binary; returns (exit code, metrics, ops, failed, checks,
    provenance)."""
    cmd = [str(binary), *args, "--work-dir", str(work / "work")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode not in (0, 1):  # 64: usage or hygiene, 2: threw
        print(f"error: {' '.join(cmd)} exited {proc.returncode}",
              file=sys.stderr)
        sys.exit(proc.returncode)
    metrics, checks, ops, failed, provenance = {}, [], 0, 0, {}
    for line in proc.stdout.splitlines():
        fields = line.split(" ", 1)
        if fields[0] == "metric":
            name, value, unit = fields[1].split()
            metrics[name] = (float(value), unit)
        elif fields[0] == "check":
            checks.append(fields[1])
        elif fields[0] == "ops":
            ops = int(fields[1])
        elif fields[0] == "ops_failed":
            failed = int(fields[1])
        elif fields[0] == "provenance":
            provenance = json.loads(fields[1])
    return proc.returncode, metrics, ops, failed, checks, provenance


def run_workload(binary, bench, workload, seed, seconds, trace):
    """One run in the benchmark's result shape, plus its provenance."""
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    if trace:
        args += ["--trace", str(build_dir() / "trace")]
    code, metrics, ops, failed, checks, provenance = run_binary(
        binary, args, build_dir())
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    selected = {}
    for spec in wanted:
        if spec["name"] not in metrics:
            fail(f"{workload} printed no metric {spec['name']}")
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            fail(f"{spec['name']} printed in {unit}, declared {spec['unit']}")
        selected[spec["name"]] = {"value": value, "unit": unit}
    correct = code == 0 and ops > 0 and bool(checks) and all(
        c.split()[1] == "ok" for c in checks)
    result = {"correct": correct, "attempted": max(ops, 1), "failed": failed,
              "metrics": selected}
    return result, provenance


def single(opts):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if opts.workload not in names:
        fail(f"unknown workload {opts.workload}; one of {', '.join(names)}")
    binary = build()
    result, _ = run_workload(binary, bench, opts.workload, opts.seed,
                             opts.seconds, opts.trace == 1)
    print(json.dumps(result))


def sets(opts):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    binary = build()
    out = Path(opts.out or ROOT / "reports" / "e2e" /
               time.strftime("%Y%m%d-%H%M%S"))
    out.mkdir(parents=True, exist_ok=True)
    for i in range(opts.sets):
        seed = opts.seed + i
        order = names if i % 2 == 0 else names[::-1]
        record = {"seed": seed, "order": order, "workloads": {}, "traced": {},
                  "provenance": {}}
        for workload in order:
            print(f"set {i} seed {seed}: {workload}", file=sys.stderr)
            result, provenance = run_workload(
                binary, bench, workload, seed, bench["run_seconds"], False)
            record["workloads"][workload] = result
            record["provenance"][workload] = provenance
            if opts.trace:
                record["traced"][workload], _ = run_workload(
                    binary, bench, workload, seed, bench["run_seconds"], True)
        path = out / f"set-{i:02d}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
    print(out)


def load_sets(directory):
    files = sorted(Path(directory).glob("set-*.json"))
    if not files:
        fail(f"no set-*.json in {directory}")
    return [json.loads(f.read_text()) for f in files]


def summary(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def compare(opts):
    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    layer_names = [m["name"] for m in bench["per_layer"]]
    groups = [load_sets(d) for d in opts.compare]
    all_agree = True
    header = (f"{'workload':<11} {'metric':<30} {'median A':>12} "
              f"{'q1..q3 A':>25} {'median B':>12} {'q1..q3 B':>25} "
              f"{'delta':>8} {'IQR/med':>8} {'bound':>6}  verdict")
    print(header)
    for workload in [w["name"] for w in bench["workloads"]]:
        for section, names in (("workloads", list(bounds)),
                               ("traced", layer_names)):
            for name in names:
                columns = []
                for group in groups:
                    values = [s[section][workload]["metrics"][name]["value"]
                              for s in group
                              if workload in s.get(section, {})]
                    columns.append(values)
                if not all(columns):
                    continue
                (ma, a1, a3), (mb, b1, b3) = (summary(c) for c in columns)
                delta = (mb - ma) / ma if ma else 0.0
                spread = max((a3 - a1) / ma if ma else 0.0,
                             (b3 - b1) / mb if mb else 0.0)
                bound = bounds.get(name)
                if bound is None:
                    verdict = "per-layer"
                else:
                    agree = abs(delta) <= bound
                    all_agree &= agree
                    verdict = "agree" if agree else "DISAGREE"
                bound_text = "-" if bound is None else f"{bound:.2f}"
                print(f"{workload:<11} {name:<30} {ma:>12.6g} "
                      f"{f'{a1:.5g}..{a3:.5g}':>25} {mb:>12.6g} "
                      f"{f'{b1:.5g}..{b3:.5g}':>25} {delta:>+8.3f} "
                      f"{spread:>8.3f} {bound_text:>6}  {verdict}")
    print("all end-to-end metrics agree within their bounds" if all_agree
          else "some end-to-end metrics disagree")
    sys.exit(0 if all_agree else 1)


def smoke(opts):
    bench = load_benchmark()
    declared = {m["name"]: m["unit"]
                for m in bench["end_to_end"] + bench["per_layer"]}
    binary = Path(opts.binary) if opts.binary else build()
    work = binary.parent / "smoke"
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        code, metrics, _, _, checks, _ = run_binary(
            binary, ["--workload", workload, "--smoke",
                     "--trace", str(work / "trace")], work)
        printed = {name: unit for name, (_, unit) in metrics.items()}
        failed_checks = [c for c in checks if c.split()[1] != "ok"]
        problems = []
        if printed != declared:
            problems.append(
                f"metrics differ from BENCHMARK.json: missing "
                f"{sorted(set(declared) - set(printed))}, extra "
                f"{sorted(set(printed) - set(declared))}, unit mismatches "
                f"{sorted(n for n in printed if n in declared and printed[n] != declared[n])}")
        if code != 0 or not checks or failed_checks:
            problems.append(f"exit {code}, checks failed: {failed_checks}")
        print(f"{workload}: {'ok' if not problems else 'FAIL'} "
              f"({len(printed)} metrics, {len(checks)} checks)")
        for problem in problems:
            print(f"  {problem}")
        ok &= not problems
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=BENCH_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--sets", type=int)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary")
    opts = parser.parse_args()
    if opts.smoke:
        smoke(opts)
    elif opts.compare:
        compare(opts)
    elif opts.sets:
        sets(opts)
    elif opts.workload and opts.seconds:
        single(opts)
    else:
        parser.error("give --workload/--seconds, --sets, --compare or --smoke")


if __name__ == "__main__":
    main()
