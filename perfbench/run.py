#!/usr/bin/env python3
"""SubTab benchmark runner.

Builds the program and the benchmark from source (once per source digest),
runs one workload in a fresh JVM, checks the result file and prints it as
one JSON line, the last line of standard output.

    python3 perfbench/run.py --workload explore-flights --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. Everything it builds or writes goes
under the build directory ($CARGO_TARGET_DIR, default .bench_build).
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PROGRAM_SOURCES = ROOT / "src" / "main" / "scala"
JAVA_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

# The module opens Spark needs on JDK 17 (as in the root build).
JAVA_OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED"
    for p in ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
              "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
              "sun.util.calendar"]
] + ["-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    files = sorted(PROGRAM_SOURCES.rglob("*.scala"))
    files += sorted((BENCH / "src" / "main").rglob("*.scala"))
    files += [BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    return files


def digest(files):
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def run_checked(cmd, timeout, **kw):
    """Run a command in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} exceeded {timeout}s and was stopped")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def spark_home():
    """$SPARK_HOME, or the first Spark distribution with a spark-submit on PATH."""
    homes = [os.environ.get("SPARK_HOME", "")] + [
        str(Path(d, "spark-submit").resolve().parent.parent)
        for d in os.environ.get("PATH", "").split(os.pathsep) if Path(d, "spark-submit").is_file()]
    for home in homes:
        if home and Path(home, "jars").is_dir():
            return home
    fail("no Spark distribution: set SPARK_HOME")


def build(build_dir, src_digest, spark):
    """Compile with sbt unless the classes for this source digest exist."""
    target = build_dir / "perfbench-target"
    classes = target / "scala-2.13" / "classes"
    stamp = build_dir / "perfbench.stamp"
    if stamp.exists() and stamp.read_text() == src_digest and classes.is_dir():
        return classes
    env = dict(os.environ, PERFBENCH_TARGET=str(target), SPARK_HOME=spark)
    env.setdefault("COURSIER_MODE", "offline")
    # Offline resolution from the local repositories, unless the caller
    # configured sbt already.
    repos = Path.home() / ".sbt" / "repositories"
    default_opts = (f"-Dsbt.override.build.repos=true -Dsbt.repository.config={repos} "
                    "-Dsbt.offline=true -Xmx2g")
    # Keep the temporary files of sbt and of every JVM it starts (perf data,
    # JNA's native library) inside the build directory.
    tmp = build_dir / "tmp"
    env["SBT_OPTS"] = (env.get("SBT_OPTS") or default_opts) + f" -Djava.io.tmpdir={tmp} -Djna.tmpdir={tmp}"
    env["JAVA_TOOL_OPTIONS"] = "-XX:-UsePerfData"
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           f"-Dsbt.global.base={build_dir / 'sbt-global'}", "compile"]
    t0 = time.time()
    # sbt logs to stdout; keep it off ours, which ends with the result line.
    code = run_checked(cmd, BUILD_TIMEOUT_S, cwd=BENCH, env=env, stdout=sys.stderr)
    if code != 0:
        fail(f"build failed (sbt exit {code})")
    print(f"perfbench: built in {time.time() - t0:.0f}s", file=sys.stderr)
    stamp.write_text(src_digest)
    return classes


def git_sha():
    # A checkout without .git must not report the SHA of an enclosing repo.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def check_result(res, spec, trace):
    """The result file must carry the run record, the checks and exactly the
    metrics BENCHMARK.json lists for this mode, with their units."""
    want = spec["per_layer"] if trace else spec["end_to_end"]
    for key in ("run", "correct", "attempted", "failed", "failures", "metrics"):
        if key not in res:
            fail(f"result file lacks '{key}'")
    for key in ("nproc", "max_heap_mb", "spark_version", "scala_version", "git_sha",
                "source_digest", "seed", "table"):
        if key not in res["run"]:
            fail(f"run record lacks '{key}'")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        fail("no operation was attempted")
    got = res["metrics"]
    if sorted(got) != sorted(m["name"] for m in want):
        fail(f"metrics {sorted(got)} differ from BENCHMARK.json")
    for m in want:
        v = got[m["name"]]
        if v["unit"] != m["unit"] or not isinstance(v["value"], (int, float)):
            fail(f"metric {m['name']} is malformed: {v}")


def main():
    # Turn SIGTERM into SystemExit, so run_checked stops the child JVM too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        fail("BENCHMARK.json not found; run from the root of a checkout")
    spec = json.loads(spec_file.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    if not (PROGRAM_SOURCES / "repro" / "core" / "SubTab.scala").is_file():
        fail(f"program sources not found under {PROGRAM_SOURCES.relative_to(ROOT)}")
    spark = spark_home()

    build_dir = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    for d in ("tmp", "spark-local", "results"):
        (build_dir / d).mkdir(parents=True, exist_ok=True)
    src_digest = digest(source_files())
    classes = build(build_dir, src_digest, spark)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = build_dir / "results" / f"{name}.json"
    spans = build_dir / "results" / f"{name}.spans.jsonl"
    out.unlink(missing_ok=True)
    cmd = ["java", "-Xmx2g", "-XX:-UsePerfData", *JAVA_OPENS,
           f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}",
           f"-Djava.io.tmpdir={build_dir / 'tmp'}",
           f"-Dspark.local.dir={build_dir / 'spark-local'}",
           f"-Dspark.sql.warehouse.dir={build_dir / 'spark-warehouse'}",
           "-Dspark.driver.host=127.0.0.1",
           "-cp", f"{classes}{os.pathsep}{Path(spark, 'jars', '*')}",
           "subtabbench.Main", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out), "--spans", str(spans),
           "--git-sha", git_sha(), "--source-digest", src_digest]
    sys.stdout.flush()
    # Spark prefers SPARK_LOCAL_DIRS over spark.local.dir; keep both inside.
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(build_dir / "spark-local"))
    code = run_checked(cmd, JAVA_TIMEOUT_S, cwd=build_dir, env=env)
    if code != 0 or not out.is_file():
        fail(f"benchmark JVM exited with {code}")
    res = json.loads(out.read_text())
    check_result(res, spec, args.trace == 1)
    line = {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in res["metrics"].items()}}
    print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
