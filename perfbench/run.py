"""TAG-join benchmark. Builds the program from source, runs one workload in a
fresh JVM, and prints its metrics as the last line of standard output.

    python3 perfbench/run.py --workload tpch-local --seed 0 --seconds 30 --trace 0

Workloads, metrics and the reasons behind them: perfbench/README.md.
"""
import argparse
import json
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import build  # noqa: E402

# Spark 4 on JDK 17 needs these module opens (the list spark-submit passes).
JVM_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar", "java.security.jgss/sun.security.krb5",
]
HEAP = "3g"
# A run (not counting the build) must end within 180 s.
RUN_LIMIT_S = 170


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", choices=["0", "1"], required=True)
    a = p.parse_args()

    try:
        classes = build.build()
        jars = build.spark_jars()
        java = build.java()
    except build.BuildError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    work = build.BUILD / "run"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # ParallelGC: a full collection compacts the whole heap, so the heap
    # readings behind heap_mb repeat, and its pauses are short at this size.
    cmd = [java, f"-Xmx{HEAP}", "-XX:+UseParallelGC", f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={build.ROOT / 'perfbench' / 'log4j2.properties'}",
           "-Djdk.reflect.useDirectMethodHandle=false"]
    cmd += [f"--add-opens={m}=ALL-UNNAMED" for m in JVM_OPENS]
    cmd += ["-cp", f"{classes}:{jars / '*'}", "repro.perfbench.Bench",
            "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", a.trace, "--out", str(work)]

    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=build.ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 4
    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out if proc.returncode == 0 else "")
        print(f"perfbench: benchmark exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 5
    json.loads(lines[-1])  # fails loudly if the last line is not the result
    print("\n".join(lines[:-1]))
    print(f"run took {time.monotonic() - start:.1f} s")
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
