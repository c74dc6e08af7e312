"""Build file of the benchmark: compiles the program's graph and core layers
together with the benchmark's Scala sources, using the Scala compiler that
ships among Spark's jars, into ``.bench_build/perfbench/<source hash>/``.

A build is reused while no source file changes. Run on its own with
``python3 perfbench/build.py`` from the repository root.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

PROGRAM_DIRS = ["src/main/scala/repro/graph", "src/main/scala/repro/core"]
BENCH_DIR = "perfbench"
OUT_DIR = ".bench_build/perfbench"


class BuildError(Exception):
    pass


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    exe = Path(home, "bin", "java") if home else None
    if exe and exe.exists():
        return str(exe)
    found = shutil.which("java")
    if not found:
        raise BuildError("no java found (set JAVA_HOME or put java on PATH)")
    return found


def spark_jars() -> Path:
    """Spark's jar directory: ``$SPARK_HOME/jars``, else next to spark-submit."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        home = str(Path(submit).resolve().parent.parent) if submit else None
    jars = Path(home, "jars") if home else None
    if not jars or not jars.is_dir():
        raise BuildError("no Spark installation found (set SPARK_HOME)")
    if not list(jars.glob("scala-compiler-*.jar")):
        raise BuildError(f"no scala-compiler jar in {jars}")
    return jars


def sources(root: Path) -> list:
    dirs = [root / d for d in PROGRAM_DIRS]
    missing = [str(d) for d in dirs if not d.is_dir()]
    if missing:
        raise BuildError("program sources not found: " + ", ".join(missing))
    files = [f for d in dirs for f in d.rglob("*.scala")]
    files += list((root / BENCH_DIR / "src").rglob("*.scala"))
    return sorted(files)


def build(root: Path) -> tuple:
    """Compiles if needed; returns (classes dir, state dir, Spark jars dir)."""
    jars = spark_jars()
    files = sources(root)
    digest = hashlib.sha256()
    for f in files:
        digest.update(str(f.relative_to(root)).encode())
        digest.update(f.read_bytes())
    for jar in sorted(jars.glob("scala-*.jar")):
        digest.update(jar.name.encode())
    out = root / OUT_DIR / digest.hexdigest()[:16]
    classes = out / "classes"
    if not (out / "built").exists():
        tmp = out / "classes.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        print(f"[perfbench] compiling {len(files)} sources into {classes}", file=sys.stderr)
        cmd = [java(), "-Xmx1g", "-cp", str(jars / "*"), "scala.tools.nsc.Main",
               "-usejavacp", "-nowarn", "-d", str(tmp)] + [str(f) for f in files]
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=600)
        if done.returncode != 0:
            raise BuildError(f"scalac failed with exit code {done.returncode}")
        shutil.rmtree(classes, ignore_errors=True)
        tmp.rename(classes)
        (out / "built").write_text("ok\n")
    return classes, out / "state", jars


if __name__ == "__main__":
    try:
        print(build(Path.cwd())[0])
    except BuildError as e:
        print(f"perfbench build: {e}", file=sys.stderr)
        sys.exit(2)
