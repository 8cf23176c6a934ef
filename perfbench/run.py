#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload boot --seed 1 --seconds 20 --trace 0

The Go program in this directory is its own module that imports the
repository's packages through a relative replace directive, so it builds
only inside a full checkout. The build cache, temporary files and the binary
live under .bench_build/ in the checkout (CARGO_TARGET_DIR names it when
set), and so does every file a run writes: the binary gets the directory as
--work-dir. Every other argument is passed to the binary; the last line it
prints is the result JSON. A failed build exits non-zero without printing a result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    for sub in ("gocache", "gomodcache", "gopath", "tmp", "home"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "HOME": os.path.join(build, "home"),
        "XDG_CONFIG_HOME": os.path.join(build, "home"),
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    # go build is incremental through GOCACHE: after the first build of a
    # checkout it only re-links when a source file changed.
    res = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        sys.stderr.write("perfbench: build failed\n")
        return 2
    proc = subprocess.run([binary, "--work-dir", build] + sys.argv[1:], cwd=root, env=env)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
