#!/usr/bin/env python3
"""Build and run the engine benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. `--workload all` runs every workload listed
in BENCHMARK.json in turn. The first run compiles the engine sources
(src/main/scala/repro/{core,concurrent,data}), the test fixtures the
correctness gate uses and the benchmark with sbt, offline; later runs reuse
that build while the sources are unchanged. Each workload runs in one JVM,
whose tab-separated result lines this script turns into a `{"meta": ...}`
line and the result object, printed last. With `--trace 0`, `setup_s` is the
median of SETUP_JVMS cold builds, each in a fresh JVM. The exit code is
non-zero when the build fails or a correctness check fails.
"""
import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = [
    ROOT / "src/main/scala/repro/core",
    ROOT / "src/main/scala/repro/concurrent",
    ROOT / "src/main/scala/repro/data",
    ROOT / "src/test/scala/repro/core/Fixtures.scala",
    HERE / "src",
    HERE / "build.sbt",
    HERE / "project/build.properties",
]
STAMP = HERE / "target" / "perfbench-build.txt"
# A fixed heap and a fixed young generation, so that GC work depends neither
# on the machine's memory nor on the collector's adaptive resizing.
JVM_FLAGS = ["-Xms1g", "-Xmx1g", "-Xmn256m", "-XX:+UseParallelGC", "-XX:-UseAdaptiveSizePolicy"]
# Fresh JVMs that each time one cold build of the system under test.
SETUP_JVMS = 7


def source_digest():
    missing = [str(s.relative_to(ROOT)) for s in SOURCES if not s.exists()]
    if missing:
        sys.exit(f"perfbench: sources not found: {', '.join(missing)}")
    h = hashlib.sha256()
    for s in SOURCES:
        for f in sorted(s.rglob("*")) if s.is_dir() else [s]:
            if f.is_file():
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()[:16]


def build(digest):
    """Compile with sbt unless the stamp says these sources are built; returns the classpath."""
    if STAMP.exists():
        built, classpath = STAMP.read_text().split("\n")[:2]
        if built == digest:
            return classpath
    opts = ["-Dsbt.offline=true", "-Xmx1g"]
    repos = pathlib.Path.home() / ".sbt" / "repositories"
    if repos.exists():
        opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    env = dict(os.environ, COURSIER_MODE="offline", SBT_OPTS=" ".join(opts))
    out = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
        cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    if out.returncode != 0:
        sys.stderr.write(out.stdout[-6000:])
        sys.exit("perfbench: build failed")
    classpath = [l for l in out.stdout.splitlines() if "scala-library" in l and not l.startswith("[")][-1]
    STAMP.write_text(f"{digest}\n{classpath}\n")
    return classpath


def commit():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                             cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        return out.stdout.strip() or "none"
    except OSError:
        return "none"


def value(text):
    """A result field as a JSON value: integer, number, boolean or string."""
    for conv in (int, float):
        try:
            return conv(text)
        except ValueError:
            pass
    return {"true": True, "false": False}.get(text, text)


def java(classpath, *args):
    return ["java", *JVM_FLAGS, "-cp", classpath, "perfbench.Main", *args]


def setup_seconds(classpath, workload):
    """Median over SETUP_JVMS fresh JVMs of one cold engine build each."""
    times = []
    for _ in range(SETUP_JVMS):
        out = subprocess.run(java(classpath, "--workload", workload, "--setup", "1"),
                             cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            return None
        times.append(float(out.stdout.split("\t")[1]))
    return statistics.median(times)


def run_workload(a, w, classpath, digest):
    """Runs one workload; prints its meta line and result; returns True if it passed."""
    out = subprocess.run(java(classpath, "--workload", w, "--seed", str(a.seed), "--seconds", str(a.seconds),
                              "--trace", a.trace, "--pins", str(HERE / "pins.tsv")),
                         cwd=ROOT, stdout=subprocess.PIPE, text=True)
    meta = {"workload": w, "seed": a.seed, "trace": a.trace == "1", "jvm_flags": JVM_FLAGS,
            "commit": commit(), "source_digest": digest}
    problems, counts, metrics = [], {}, {}
    for line in out.stdout.splitlines():
        f = line.split("\t")
        if f[0] == "meta" and len(f) == 3:
            meta[f[1]] = value(f[2])
        elif f[0] == "problem" and len(f) == 2:
            problems.append(f[1])
        elif f[0] in ("attempted", "failed") and len(f) == 2:
            counts[f[0]] = int(f[1])
        elif f[0] == "metric" and len(f) == 4:
            metrics[f[1]] = {"value": float(f[2]), "unit": f[3]}
        else:
            print(line)
    if len(counts) < 2 or not metrics:
        sys.stderr.write(f"perfbench: {w}: the run printed no result (exit code {out.returncode})\n")
        return False
    if a.trace == "0":
        setup = setup_seconds(classpath, w)
        if setup is None:
            sys.stderr.write(f"perfbench: {w}: a set-up JVM failed\n")
            return False
        metrics["setup_s"] = {"value": setup, "unit": "s"}
    meta["problems"] = problems
    correct = out.returncode == 0 and not problems and counts["failed"] == 0
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": correct, "attempted": counts["attempted"], "failed": counts["failed"],
                      "metrics": metrics}), flush=True)
    return correct


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    a = ap.parse_args()
    digest = source_digest()
    classpath = build(digest)
    workloads = [a.workload]
    if a.workload == "all":
        workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    passed = [run_workload(a, w, classpath, digest) for w in workloads]
    sys.exit(0 if all(passed) else 1)


if __name__ == "__main__":
    main()
