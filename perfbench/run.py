#!/usr/bin/env python3
"""Builds perfbench from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload match-100k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR (default .bench_build) under
perfbench/, in Release mode. The last line of standard output is the run's
JSON result; everything before it is human-readable detail. A traced run
(--trace 1) also writes its spans to <build dir>/traces/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise RuntimeError(f"repository source '{needed}' not found next to perfbench/")
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    binary = os.path.join(out, "perfbench")
    before = os.stat(binary).st_mtime_ns if os.path.exists(binary) else 0
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    if os.stat(binary).st_mtime_ns != before:
        # Write back the build's output now, not during the measured run.
        os.sync()
    return binary


def source_id():
    """The commit when this is a git checkout, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def run(binary, args, extra=()):
    """Runs the binary in its own process group; returns (rc, stdout)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id(),
           "--work-dir", os.path.join(build_dir(), "work")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir(), "traces", f"{args.workload}-seed{args.seed}.jsonl")]
    cmd += list(extra)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"run exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def last_json(text):
    lines = [l for l in text.strip().splitlines() if l.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if "correct" in result else None


def selftest(binary):
    """The oracle must catch one planted wrong match and pass without it."""
    args = argparse.Namespace(workload="fanout-net", seed=7, seconds=2, trace=0)
    rc, out = run(binary, args, ["--plant-mismatch"])
    planted = last_json(out)
    if rc == 0 or planted is None or planted["correct"] or planted["failed"] < 1:
        log(f"selftest FAILED: planted mismatch not caught (rc={rc}, result={planted})")
        return 1
    rc, out = run(binary, args)
    clean = last_json(out)
    if rc != 0 or clean is None or not clean["correct"] or clean["failed"] != 0:
        log(f"selftest FAILED: clean run not correct (rc={rc}, result={clean})")
        return 1
    log(f"selftest passed: planted mismatch caught (failed={planted['failed']}), "
        f"clean run correct ({clean['attempted']} operations)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        binary = build()
        if args.selftest:
            return selftest(binary)
        if not args.workload:
            parser.error("--workload is required")
        rc, out = run(binary, args)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        log(f"error: {err}")
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    if last_json(out) is None:
        log("the benchmark printed no result")
        return rc or 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
