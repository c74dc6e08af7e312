"""Benchmark of the higher-order truss decomposition, run from the repository
root:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <n> --trace <0|1>

It builds the program and the benchmark (see build.py), then runs each
workload in its own JVM. The JVM prints the machine facts, every metric by
name and unit, and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Workloads and metrics are listed
in BENCHMARK.json and explained in perfbench/README.md.
"""

import argparse
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

WORKLOADS = ["hub-h3", "ring-h3", "serve-small", "spark-h2"]
# The JVM stops its own calls at 165 s; this is the last resort.
RUN_LIMIT_S = 175
HEAP = "2g"

# What spark-submit adds on Java 17 so Spark can reach JDK internals.
MODULE_OPTIONS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def run_workload(root, classes, state, jars, workload, args) -> int:
    tmp = state / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [build.java(), f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={root / 'perfbench' / 'log4j2.properties'}",
           "-Dspark.driver.host=127.0.0.1", "-Dspark.driver.bindAddress=127.0.0.1",
           *MODULE_OPTIONS,
           "-cp", f"{classes}:{jars / '*'}", "perfbench.Main",
           "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--state-dir", str(state)]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {workload} exceeded {RUN_LIMIT_S} s and was stopped", file=sys.stderr)
        return 3
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    root = Path.cwd()
    try:
        classes, state, jars = build.build(root)
    except (build.BuildError, subprocess.TimeoutExpired) as e:
        print(f"perfbench build: {e}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for w in workloads:
        started = time.time()
        code = run_workload(root, classes, state, jars, w, args)
        print(f"[perfbench] {w} exited {code} after {time.time() - started:.1f} s", file=sys.stderr)
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
