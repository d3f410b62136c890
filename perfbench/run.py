#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Builds the Go program in perfbench/ (a module of its own that imports the
repository's packages through a replace directive) into .bench_build/ at
the repository root, with every Go cache and temporary directory kept
there too, then runs it. The last line of standard output is the JSON
result; the lines before it are records, each carrying its provenance.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "go-cache",
        "GOPATH": "go-path",
        "GOMODCACHE": "go-path/pkg/mod",
        "GOTMPDIR": "go-tmp",
        "TMPDIR": "tmp",
        "XDG_CONFIG_HOME": "config",
        "XDG_CACHE_HOME": "cache",
    }
    for key, sub in dirs.items():
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update({
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOWORK": "off",
        "GOENV": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    return env


def revision():
    """The git commit when there is one, else a hash of the Go sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def go():
    exe = shutil.which("go")
    if exe is None:
        sys.exit("perfbench: no go toolchain on PATH")
    return exe


def build(env):
    if not os.path.exists(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: no repository source next to perfbench/ to build against")
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    proc = subprocess.run([go(), "build", "-o", BINARY, "."], cwd=HERE, env=env,
                          timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="run the benchmark's own tests at tiny sizes")
    args = ap.parse_args()

    env = go_env()
    if args.selftest:
        proc = subprocess.run([go(), "test", "-count=1", "./..."], cwd=HERE, env=env,
                              timeout=BUILD_TIMEOUT_S)
        sys.exit(proc.returncode)
    if not args.workload:
        ap.error("--workload is required")
    build(env)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", revision()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(BUILD, "traces", f"{args.workload}-{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %ds" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
