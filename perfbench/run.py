#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark binary from source and runs one
workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run configures and builds the
hal libraries and the binary (perfbench/CMakeLists.txt) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
rebuild only what changed. Build output goes to stderr. The run header and
the binary's report go to stdout, whose last line is the JSON result. The
traced run (--trace 1) writes its spans to .bench_out/.

Extra flags are passed through to the binary: --tiny (self-test sizes),
--tamper (corrupt results; the oracle check must fail), --self-test (the
counting oracle against stream::ReferenceJoin, no workload needed).
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if res.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(out, "perfbench")


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--tamper", action="store_true")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and not args.workload:
        p.error("--workload is required")

    binary = build()
    if args.self_test:
        cmd = [binary, "--self-test"]
    else:
        spans_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir,
                             f"spans-{args.workload}-seed{args.seed}.json")
        commit = f"{git_commit()}, sources {source_digest()}"
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--spans", spans, "--commit", commit]
        cmd += ["--tiny"] if args.tiny else []
        cmd += ["--tamper"] if args.tamper else []
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark binary timed out", 3)
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
