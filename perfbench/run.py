#!/usr/bin/env python3
"""Build and run the rankd benchmark.

    python3 perfbench/run.py --workload bulk|small_rpc|resident_mutate \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds `rankd` (the repository's
daemon) and the `perfbench` binary in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs one workload, and
passes its report through. The last line of standard output
is the result object: `correct`, `attempted`, `failed` and `metrics`.
Build output goes to standard error.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bulk", "small_rpc", "resident_mutate")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Digest of the program's sources, so a result names the code it
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for base in ("Cargo.toml", "Cargo.lock", "crates", "src"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs.sort()
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            if f.endswith((".rs", ".toml", ".lock")):
                h.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:12]


def revision():
    git = "nogit"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return f"{git}+src:{source_digest()}"


def cargo_build(target_dir, args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["cargo", "build", "--release", "--offline", *args]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=880)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"{' '.join(cmd)}: {e}")
    if r.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--tiny", action="store_true",
                    help="scaled-down inputs (self-tests only)")
    ap.add_argument("--corrupt-every", type=int, default=0,
                    help="corrupt every k-th reply before its check (self-tests only)")
    a = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or \
            not os.path.isdir(os.path.join(ROOT, "crates", "engine")):
        fail(f"no rankd sources under {ROOT}; run from a full checkout")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.abspath(os.path.join(ROOT, target))
    cargo_build(target, ["--manifest-path", os.path.join(ROOT, "Cargo.toml"),
                         "-p", "engine", "--bin", "rankd"])
    cargo_build(target, ["--manifest-path", os.path.join(HERE, "Cargo.toml")])
    rankd = os.path.join(target, "release", "rankd")
    bench = os.path.join(target, "release", "perfbench")
    for exe in (rankd, bench):
        if not os.access(exe, os.X_OK):
            fail(f"build produced no {exe}")

    # Sockets and daemon logs live under the build directory; a relative
    # path keeps the Unix socket path short.
    run_dir = os.path.relpath(os.path.join(target, "perfbench-run"), ROOT)
    if run_dir.startswith(".."):
        run_dir = ".perfbench-run"
    cmd = [bench, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace, "--rankd", rankd,
           "--run-dir", run_dir, "--rev", revision()]
    if a.tiny:
        cmd.append("--tiny")
    if a.corrupt_every:
        cmd += ["--corrupt-every", str(a.corrupt_every)]

    # Own process group, so a timeout also stops the daemons it started.
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(f"{a.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        pass
    if p.returncode != 0 and not (isinstance(result, dict) and result.get("correct") is False):
        sys.stdout.write(out)
        fail(f"{a.workload} exited with code {p.returncode}")
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(out)
        fail("perfbench printed no result line")
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(p.returncode)


if __name__ == "__main__":
    main()
