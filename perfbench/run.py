#!/usr/bin/env python3
"""Build and run the assembly benchmark from the root of a checkout.

    python3 perfbench/run.py --workload paired-lr --seed 1 --seconds 20 --trace 0

Builds the Go program in this directory with the Go toolchain, keeping the
build cache, temporary files and binary under the build directory
(``$CARGO_TARGET_DIR``, default ``.bench_build``, relative to the checkout
root), then runs it with the given arguments. The program's standard output
is passed through; its last line is the JSON result. A failed build exits
non-zero without printing a result.
"""

import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 175  # one run must end within 180 s
BUILD_TIMEOUT_S = 880  # the first build in a checkout may take up to 900 s


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)

    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    code = run(["go", "build", "-o", binary, "."], here, env, BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        print(f"perfbench: build failed ({code})", file=sys.stderr)
        return 2
    return run([binary] + sys.argv[1:], root, env, RUN_TIMEOUT_S, None)


def run(argv, cwd, env, timeout, stdout):
    """Runs argv in its own process group and waits for it; on timeout the
    whole group (the go command's compilers included) is killed."""
    try:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=stdout, start_new_session=True)
    except OSError as e:
        print(f"perfbench: {argv[0]}: {e}", file=sys.stderr)
        return 127
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {argv[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
