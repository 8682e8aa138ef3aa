#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Everything the build and the run write stays under the checkout's
.bench_build directory (or $CARGO_TARGET_DIR when set): the Go build
cache, the binary, and the benchmark's scratch files.  The binary's last
line of standard output is the result object; this wrapper passes its
output and exit code through unchanged.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BENCH = pathlib.Path(__file__).resolve().parent


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for d, subdirs, files in os.walk(ROOT):
        subdirs[:] = sorted(s for s in subdirs if not s.startswith("."))
        for f in sorted(files):
            if f.endswith((".go", ".mod", ".txt")):
                p = pathlib.Path(d, f)
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def main():
    out = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not out.is_absolute():
        out = ROOT / out
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": str(out / "gocache"),
        "GOPATH": str(out / "gopath"),
        "GOTMPDIR": str(out / "tmp"),
        "TMPDIR": str(out / "tmp"),
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOENV": "off",
        "CGO_ENABLED": "0",
    })
    binary = out / "perfbench-bin"
    build = subprocess.run(["go", "build", "-o", str(binary), "."], cwd=BENCH, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_COMMIT"] = commit_id()
    return subprocess.run([str(binary)] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
