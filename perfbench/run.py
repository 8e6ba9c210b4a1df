#!/usr/bin/env python3
"""Build and run the TERP-sim benchmark (terp-perfbench).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload spec_mt|whisper|serve|harvest \
        [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny] \
        [--reference FILE]

terp-perfbench is built from source on first use: a CMake build of
perfbench/ (which compiles the repository's src/ libraries) into
$CARGO_TARGET_DIR, or .bench_build when that is unset. Build output
goes to stderr. The binary's stdout is passed through; its last line
is the JSON result. Exit status: the binary's (0 ok, 1 a simulation
failed its check), 2 on a usage error, 3 when the program cannot be
built.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("spec_mt", "whisper", "serve", "harvest")
# A run spends --seconds plus a last pass and process start-up; this
# much later it is stopped rather than left to hang.
RUN_GRACE_S = 145


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse(argv):
    p = Parser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--reference", default=str(HERE / "reference.txt"))
    a = p.parse_args(argv)
    if a.seed < 0:
        raise UsageError("--seed must be >= 0")
    if not 0 < a.seconds <= 3600:
        raise UsageError("--seconds must be in (0, 3600]")
    return a


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    return base.resolve() / "perfbench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"{ROOT / 'src'} is missing: run from a full "
                           "checkout of the repository")
    cache = out / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" \
            not in cache.read_text(errors="replace"):
        shutil.rmtree(out)  # configured for another source tree
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "terp-perfbench"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return out / "terp-perfbench"


def main(argv):
    try:
        a = parse(argv)
    except UsageError as e:
        print(f"perfbench/run.py: {e}", file=sys.stderr)
        return 2
    out = build_dir()
    try:
        binary = build(out)
    except (RuntimeError, OSError) as e:
        print(f"perfbench/run.py: {e}", file=sys.stderr)
        return 3
    cmd = [str(binary), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--size", a.size, "--reference", a.reference]
    if a.trace:
        cmd += ["--trace-out",
                str(out / f"trace-{a.workload}-seed{a.seed}.json")]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    timeout = a.seconds + RUN_GRACE_S
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench/run.py: run exceeded {timeout:.0f} s",
              file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
