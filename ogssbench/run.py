#!/usr/bin/env python3
"""OGSS benchmark runner.

Run from the repository root:

    python3 ogssbench/run.py --workload ogss-xian --seed 0 --seconds 10 --trace 0
    python3 ogssbench/run.py --workload all --repeat 2

It builds the repository and the benchmark from source with sbt (once; again
only when a source is newer than the last build), then starts each run in a
fresh JVM with `java` on the exported classpath, so sbt's own JVM does not
share the cores. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. `--trace 0` reports the
end-to-end metrics; `--trace 1` makes a traced run that reports the per-layer
metrics and writes spans and the search log under ogssbench/out/trace.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
CLASSPATH = OUT / "classpath.txt"
WORKLOADS = ["ogss-xian", "sweep-chengdu"]
HEAP = "3g"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"ogssbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    """Every file the build reads: the program's and the benchmark's."""
    for top in [ROOT / "src" / "main", ROOT / "jobs", ROOT / "project", BENCH / "src", BENCH / "project"]:
        if top.is_dir():
            for p in top.rglob("*"):
                if p.is_file() and "target" not in p.relative_to(top).parts:
                    yield p
    yield ROOT / "build.sbt"
    yield BENCH / "build.sbt"


def build():
    """Compile with sbt and save the runtime classpath, unless it is fresh."""
    if CLASSPATH.is_file():
        stamp = CLASSPATH.stat().st_mtime
        if all(p.stat().st_mtime < stamp for p in sources()):
            return CLASSPATH.read_text().strip()
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ, COURSIER_MODE="offline")
    (OUT / "tmp").mkdir(exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.boot.lock=false",
           "-J-XX:-UsePerfData", f"-J-Djava.io.tmpdir={OUT / 'tmp'}", f"-J-Djna.tmpdir={OUT / 'tmp'}",
           "export Runtime/fullClasspath"]
    try:
        p = subprocess.run(cmd, cwd=BENCH, env=env, capture_output=True, text=True,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build timed out after {BUILD_TIMEOUT_S} s")
    lines = [l for l in p.stdout.splitlines() if os.pathsep in l and ".jar" in l]
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
        fail(f"build failed (sbt exit code {p.returncode})")
    CLASSPATH.write_text(lines[-1].strip() + "\n")
    return lines[-1].strip()


def run_once(cp, workload, seed, seconds, trace, record):
    """One run of one workload in a fresh JVM; returns the parsed result."""
    cores = os.cpu_count() or 1
    for d in ["tmp", "spark-local", "trace"]:
        (OUT / d).mkdir(parents=True, exist_ok=True)
    # Pin the Spark settings the program and its tests read from the
    # environment, and keep every file Spark writes inside this checkout.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPARK_")}
    env.update(SPARK_MASTER=f"local[{cores}]", SPARK_SHUFFLE_PARTITIONS=str(2 * cores),
               SPARK_DRIVER_MEM=HEAP, SPARK_LOCAL_IP="127.0.0.1",
               SPARK_LOCAL_DIRS=str(OUT / "spark-local"))
    java = str(Path(os.environ["JAVA_HOME"]) / "bin" / "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java, f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={OUT / 'tmp'}",
           f"-Dspark.sql.warehouse.dir={OUT / 'warehouse'}",
           "-Dspark.driver.host=127.0.0.1",
           "-cp", cp, "ogssbench.Main",
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(OUT / "trace"),
           "--reference", str(BENCH / "reference" / workload)]
    if record:
        cmd.append("--record")
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"[{workload}] {line}")
    if p.returncode != 0 or not lines:
        fail(f"{workload} exited with code {p.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload} printed a malformed result: {lines[-1]}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0,
                    help="offset from each city's preset seed (0: the preset city)")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=1, help="rounds for --workload all")
    ap.add_argument("--record", action="store_true",
                    help="record this seed's results as its reference")
    a = ap.parse_args()

    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"no program sources under {ROOT}: run from a full checkout")
    cp = build()

    if a.workload != "all":
        print(json.dumps(run_once(cp, a.workload, a.seed, a.seconds, a.trace, a.record)))
        return
    # Round-robin, so that host drift spreads evenly over the workloads.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for r in range(a.repeat):
        for w in WORKLOADS:
            res = run_once(cp, w, a.seed, a.seconds, a.trace, a.record)
            merged["correct"] &= res["correct"]
            merged["attempted"] += res["attempted"]
            merged["failed"] += res["failed"]
            for k, m in res["metrics"].items():
                print(f"{w:14s} {k:34s} {m['value']:14.6f} {m['unit']}")
                merged["metrics"][f"{w}.{k}" + (f".{r}" if a.repeat > 1 else "")] = m
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
