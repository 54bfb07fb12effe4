#!/usr/bin/env python3
"""Sweep-engine benchmark: builds the program from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload df-proteins --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --write-golden

The last line of standard output is the result, one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the per-layer ones. Build output, run records
and span files go to .bench_build/ in the repository root.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True

BUILD = ".bench_build"
CLASSES = os.path.join(BUILD, "classes")
SOURCE_DIRS = ["src/main/scala", "perfbench/src", "perfbench/test"]
WORKLOADS = ["df-proteins", "driver-hepph"]
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    out = []
    for d in SOURCE_DIRS:
        for root, _, files in os.walk(d):
            out += [os.path.join(root, f) for f in files if f.endswith(".scala")]
    return sorted(out)


def source_digest():
    h = hashlib.sha256()
    for p in sources() + ["perfbench/build.sh"]:
        h.update(p.encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def build():
    """Compile unless the classes were built from exactly these sources."""
    stamp = CLASSES + ".stamp"
    digest = source_digest()
    if os.path.exists(stamp) and open(stamp).read() == digest:
        return digest
    print("perfbench: building", file=sys.stderr)
    subprocess.run(["bash", "perfbench/build.sh", CLASSES], check=True, stdout=sys.stderr)
    with open(stamp, "w") as f:
        f.write(digest)
    return digest


def java(main, args):
    spark_jars = os.path.join(os.environ.get("SPARK_HOME", "/opt/spark"), "jars")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", "-Xms2g", "-Xmx2g", "-Xss8m", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           "-Dlog4j2.configurationFile=perfbench/log4j2.properties",
           "-cp", f"{CLASSES}{os.pathsep}{spark_jars}/*", main] + args
    try:
        subprocess.run(cmd, check=True, timeout=RUN_TIMEOUT_S, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        die(f"{main} did not finish within {RUN_TIMEOUT_S} s")
    except subprocess.CalledProcessError as e:
        die(f"{main} exited with code {e.returncode}")


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_workload(workload, seed, seconds, trace, extra=()):
    runs = os.path.join(BUILD, "runs")
    os.makedirs(runs, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    out = os.path.join(runs, tag + ".json")
    if os.path.exists(out):
        os.remove(out)
    java("perfbench.Main", ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                            "--trace", str(trace), "--out", out,
                            "--spans", os.path.join(runs, tag + "-spans.json"),
                            "--golden", "perfbench/golden.tsv",
                            "--local-dir", os.path.join(BUILD, "spark-local"), *extra])
    with open(out) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true", help="run the benchmark's own tests")
    ap.add_argument("--write-golden", action="store_true",
                    help="record golden digests and values at the default seed")
    a = ap.parse_args()

    for need in SOURCE_DIRS[:2] + ["perfbench/build.sh", "perfbench/log4j2.properties"]:
        if not os.path.exists(need):
            die(f"{need} not found: run from the root of a full checkout")
    digest = build()

    if a.selftest:
        java("perfbench.SelfTest", [os.path.join(BUILD, "spark-local")])
        return
    if a.write_golden:
        open("perfbench/golden.tsv", "w").write(
            "# dataset\tsparsifier\trho\tseed\tkept\tdigest\tmetrics (seed 0; python3 perfbench/run.py --write-golden)\n")
        for w in WORKLOADS:
            run_workload(w, 0, 0, 0, ["--write-golden"])
        return
    if a.workload is None:
        die("--workload is required")

    rec = run_workload(a.workload, a.seed, a.seconds, a.trace)
    rec["config"].update({"git_sha": git_sha(), "source_sha256": digest})
    with open(os.path.join(BUILD, "runs", f"{a.workload}-seed{a.seed}-trace{a.trace}.json"), "w") as f:
        json.dump(rec, f, indent=1)
    for line in rec["failures"]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps({"config": rec["config"]}), file=sys.stderr)
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
