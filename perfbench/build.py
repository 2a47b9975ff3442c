"""Build file of the benchmark: compiles the program's sources (src/main/scala)
together with the benchmark's own (perfbench/src) into .bench_build/, using the
Scala compiler that ships among Spark's jars. A build is reused while no
source changes. Run it alone with `python3 perfbench/build.py`.
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
SOURCE_DIRS = [ROOT / "src" / "main" / "scala", ROOT / "perfbench" / "src"]


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    """The jars of the Spark distribution: $SPARK_HOME/jars, else next to spark-submit."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    if not home or not (Path(home) / "jars").is_dir():
        raise BuildError("no Spark distribution: set SPARK_HOME")
    return Path(home) / "jars"


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    exe = str(Path(home) / "bin" / "java") if home else shutil.which("java")
    if not exe or not Path(exe).exists():
        raise BuildError("no java: set JAVA_HOME or put java on PATH")
    return exe


def sources() -> list:
    program = sorted(SOURCE_DIRS[0].rglob("*.scala")) if SOURCE_DIRS[0].is_dir() else []
    if not program:
        raise BuildError(f"no program sources under {SOURCE_DIRS[0].relative_to(ROOT)}")
    return program + sorted(SOURCE_DIRS[1].rglob("*.scala"))


def build() -> Path:
    """Compile if needed; return the directory of compiled classes."""
    srcs = sources()
    jars = spark_jars()
    digest = hashlib.sha256()
    for f in srcs:
        digest.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    digest.update(" ".join(sorted(p.name for p in jars.glob("scala-*.jar"))).encode())
    out = BUILD / f"classes-{digest.hexdigest()[:16]}"
    if (out / "BUILD_OK").exists():
        return out
    tmp = BUILD / "classes-tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cp = str(jars / "*")
    cmd = [java(), "-Xss16m", "-Xmx2g", "-cp", cp, "scala.tools.nsc.Main",
           "-nowarn", "-d", str(tmp), "-classpath", cp] + [str(f) for f in srcs]
    print(f"perfbench: compiling {len(srcs)} sources", file=sys.stderr)
    done = subprocess.run(cmd, stdout=sys.stderr, timeout=600)
    if done.returncode != 0:
        raise BuildError(f"scalac exited with {done.returncode}")
    (tmp / "BUILD_OK").touch()
    for old in BUILD.glob("classes-*"):
        if old != tmp:
            shutil.rmtree(old, ignore_errors=True)
    tmp.rename(out)
    return out


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        sys.exit(f"perfbench: {e}")
