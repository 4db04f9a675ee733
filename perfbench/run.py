#!/usr/bin/env python3
"""Run one workload of the union-sampling benchmark.

    python3 perfbench/run.py --workload uq1-hist-ew --seed 1 --seconds 10 --trace 0

Run from the repository root. The script builds the library and the
benchmark from source with sbt (once per source state; the build is cached
in .bench_build/), runs one JVM for the requested workload, and prints one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1 they
are the per-layer metrics, and the run's spans are written to
.bench_build/trace/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
WORKLOADS = ("uq1-hist-ew", "uq1-rw-eo", "uq2-online-reuse")
# Sources whose change requires a rebuild.
SOURCE_ROOTS = ("build.sbt", "project/build.properties", "src/main", "jobs", "perfbench/build.sbt",
                "perfbench/project/build.properties", "perfbench/src/main")
JAVA_OPTS = [
    "-Xmx3g",
    "-XX:+UseG1GC",
    "-Dspark.driver.host=127.0.0.1",
    "--add-modules=jdk.incubator.vector",
    "--enable-native-access=ALL-UNNAMED",
] + ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")] + [
    "--add-opens=java.security.jgss/sun.security.krb5=ALL-UNNAMED"]
RUN_TIMEOUT_S = 170


def log(msg):
    print("[run.py] " + msg, file=sys.stderr, flush=True)


def fingerprint(root):
    h = hashlib.sha256()
    for rel in SOURCE_ROOTS:
        path = os.path.join(root, rel)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_child(cmd, cwd, timeout, env=None, stdout=None):
    """Run a child in its own process group; kill the group on timeout or exit."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build(root):
    """Compile library + benchmark; return the runtime classpath."""
    stamp = os.path.join(root, BUILD_DIR, "build.json")
    fp = fingerprint(root)
    if os.path.exists(stamp):
        with open(stamp) as fh:
            cached = json.load(fh)
        if cached.get("fingerprint") == fp and all(
                os.path.exists(p) for p in cached["classpath"].split(os.pathsep)):
            return cached["classpath"]
    log("building with sbt")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true",
           "perfbench/compile", "export perfbench/Runtime/fullClasspath"]
    code, out = run_child(cmd, os.path.join(root, "perfbench"), 850, stdout=subprocess.PIPE)
    lines = [l for l in out.decode().splitlines() if l.strip()]
    if code != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write(out.decode())
        raise SystemExit("perfbench: sbt build failed")
    classpath = lines[-1].strip()
    with open(stamp, "w") as fh:
        json.dump({"fingerprint": fp, "classpath": classpath}, fh)
    return classpath


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sampler-seed", type=int, help="default: derived from --seed")
    args = ap.parse_args()
    # On SIGTERM, unwind through run_child so the child's process group dies too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    missing = [p for p in ("build.sbt", "src/main/scala", "perfbench/build.sbt")
               if not os.path.exists(os.path.join(root, p))]
    if missing:
        raise SystemExit("perfbench: run from the repository root; missing %s" % ", ".join(missing))

    tmp = os.path.join(root, BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    classpath = build(root)

    result = os.path.join(root, BUILD_DIR, "result-%d.json" % os.getpid())
    cmd = ["java"] + JAVA_OPTS + ["-Djava.io.tmpdir=" + tmp, "-cp", classpath,
                                  "repro.perfbench.Main",
                                  "--workload", args.workload, "--seed", str(args.seed),
                                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                                  "--result", result,
                                  "--trace-dir", os.path.join(root, BUILD_DIR, "trace")]
    if args.sampler_seed is not None:
        cmd += ["--sampler-seed", str(args.sampler_seed)]
    t0 = time.time()
    try:
        code, _ = run_child(cmd, root, RUN_TIMEOUT_S, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    log("run took %.1f s" % (time.time() - t0))
    if code != 0 or not os.path.exists(result):
        raise SystemExit("perfbench: benchmark JVM exited with code %d" % code)
    with open(result) as fh:
        provenance, line = fh.read().strip().splitlines()
    os.remove(result)
    json.loads(line)
    print(provenance)
    print(line, flush=True)


if __name__ == "__main__":
    main()
