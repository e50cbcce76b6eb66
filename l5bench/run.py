#!/usr/bin/env python3
"""Run one l5bench workload: build the driver from source, run it in its
own process, check its result, and print that result as the last line.

    python3 l5bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to .bench_build/l5bench
and each run works in a fresh .bench_build/run-<pid> directory (the
file_passthru workload writes its .h5 file there). Extra flags --tiny
and --inject-stale are passed to the driver (see driver/main.cpp); the
benchmark's own tests use them.

Exit status: the driver's (0 = every delivered element validated), or
non-zero without a result line when the sources are missing, the build
fails, or the driver times out.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "l5bench"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"l5bench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"LowFive sources not found under {ROOT / 'src'}; nothing to build")
    t0 = time.monotonic()
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "l5bench", "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")
    print(f"# build ok in {time.monotonic() - t0:.1f} s ({BUILD})")
    return BUILD / "l5bench"


def expected_metrics(trace):
    """(name -> unit) the result must carry, from BENCHMARK.json if present."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    bench = json.loads(spec.read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--inject-stale", action="store_true")
    args = ap.parse_args()

    exe = build()
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_stale:
        cmd.append("--inject-stale")

    rundir = ROOT / ".bench_build" / f"run-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        p = subprocess.run(cmd, cwd=rundir, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    lines = p.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        if lines and lines[-1]:
            print(lines[-1])
        fail(f"driver exited {p.returncode} without a result", p.returncode or 1)

    want = expected_metrics(args.trace)
    if want is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            missing = sorted(set(want.items()) - set(got.items()))
            extra = sorted(set(got.items()) - set(want.items()))
            print(f"l5bench: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}",
                  file=sys.stderr)
            result["correct"] = False
    print(json.dumps(result))
    sys.exit(p.returncode if result["correct"] else (p.returncode or 1))


if __name__ == "__main__":
    main()
