#!/usr/bin/env python3
"""DBSCAN benchmark: builds the program from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --manifest     # rewrite BENCHMARK.json

The program (src/main/scala) and the benchmark (perfbench/src) are compiled
together with the Scala compiler that ships in Spark's jars directory
($SPARK_HOME/jars), into $CARGO_TARGET_DIR or .bench_build. The last line
of standard output is the JSON result.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SOURCES = [ROOT / "src" / "main" / "scala", BENCH / "src"]
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170
HEAP = "3g"

# Module opens Spark needs on JDK 17, as spark-submit would pass them.
OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    jars = Path(home) / "jars" if home else None
    if jars is None or not jars.is_dir():
        fail("Spark jars not found: set SPARK_HOME")
    return jars


def java():
    home = os.environ.get("JAVA_HOME")
    exe = Path(home) / "bin" / "java" if home else None
    return str(exe) if exe and exe.exists() else (shutil.which("java") or fail("java not found"))


def scala_files():
    files = []
    for d in SOURCES:
        if not d.is_dir():
            fail(f"source directory {d.relative_to(ROOT)} is missing")
        files += sorted(d.rglob("*.scala"))
    return files


def build(work):
    """Compiles into work/classes unless the stamp matches the sources."""
    files = scala_files()
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    stamp = h.hexdigest()[:16]
    classes = work / "classes"
    stamp_file = work / "classes.stamp"
    if classes.is_dir() and stamp_file.exists() and stamp_file.read_text() == stamp:
        return classes, stamp
    jars = spark_jars()
    compiler = [next(jars.glob(f"{p}-2.13.*.jar"), None)
                for p in ("scala-compiler", "scala-library", "scala-reflect")]
    if None in compiler:
        fail("Scala 2.13 compiler jars not found in Spark's jars directory")
    tmp = work / "classes.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = [java(), "-Xss8m", "-Xmx2g", "-cp", os.pathsep.join(map(str, compiler)),
           "scala.tools.nsc.Main", "-nowarn", "-d", str(tmp),
           "-classpath", str(jars / "*")] + [str(f) for f in files]
    print(f"perfbench: compiling {len(files)} Scala files", file=sys.stderr)
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if r.returncode != 0:
        fail("compilation failed")
    shutil.rmtree(classes, ignore_errors=True)
    tmp.rename(classes)
    stamp_file.write_text(stamp)
    return classes, stamp


def jvm(work, classes, args):
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return ([java(), f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC", "-XX:-UsePerfData",
             f"-Djava.io.tmpdir={tmp}",
             f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}"]
            + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS]
            + ["-cp", os.pathsep.join([str(classes), str(spark_jars() / "*")]),
               "perfbench.Main"] + args)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=26)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--manifest", action="store_true")
    a = ap.parse_args()
    work = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not work.is_absolute():
        work = ROOT / work
    work.mkdir(parents=True, exist_ok=True)
    classes, stamp = build(work)

    if a.manifest:
        out = subprocess.run(jvm(work, classes, ["--manifest"]), capture_output=True,
                             text=True, timeout=RUN_TIMEOUT_S, check=True).stdout
        (ROOT / "BENCHMARK.json").write_text(out)
        return
    if not a.workload:
        fail("--workload is required")

    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--work-dir", str(work), "--stamp", stamp]
    # A SIGTERM unwinds through the finally below, which stops the JVM.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(jvm(work, classes, args), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("RESULT "):
                result = line[len("RESULT "):].strip()
            else:
                sys.stdout.write(line)
                sys.stdout.flush()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or result is None:
        fail(f"benchmark process exited with code {proc.returncode}")
    print(result)


if __name__ == "__main__":
    main()
