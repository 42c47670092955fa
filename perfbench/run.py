#!/usr/bin/env python3
"""Build and run the bwclusterd end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload query_converged --seed 1 \
        --seconds 40 --trace 0 [--holdout-seed 9001]

Builds perfbench/bwcbench.exe with dune, then runs it with the same
arguments plus provenance (source revision and digest).
--workload all runs every workload in turn and exits with the worst code.
Snapshot images go to a private directory under $CARGO_TARGET_DIR
(default .bench_build) that is removed afterwards.  The last line of
standard output is the result object; the exit code is bwcbench.exe's
(1 on a correctness-gate violation), or 2 when the build fails.
"""

import argparse
import ctypes
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bwcbench.exe")
# what the result depends on: the libraries, the benchmark, the build files
SOURCES = ["lib", "perfbench", "dune-project", "dune"]
WORKLOADS = ["query_converged", "gossip_refresh", "churn_snapshot"]
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Runs in the child before exec: turn off address-space randomization.

    Every process otherwise draws its own memory layout.  On a 2-vCPU VM,
    back-to-back runs of one seed then differed by up to 25%; with one
    fixed layout they agreed within a few percent.  Where
    personality(2) is refused the run goes ahead with a random layout; the
    provenance line records which layout was used."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """sha256 over the paths and contents of every source file, so that
    runs of one tree can be matched where git is not available."""
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [top]
        else:
            files = []
            for d, subdirs, names in os.walk(path):
                subdirs[:] = sorted(s for s in subdirs if not s.startswith(("_", ".")))
                files += [os.path.relpath(os.path.join(d, n), ROOT) for n in names]
        for rel in sorted(files):
            if rel.endswith((".ml", ".mli", ".py")) or os.path.basename(rel) in ("dune", "dune-project"):
                h.update(rel.encode() + b"\0")
                with open(os.path.join(ROOT, rel), "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--holdout-seed", type=int,
                    help="also measure this seed, one not used while tuning a change")
    args = ap.parse_args()

    # keep dune's shared cache out of it: the benchmark writes only inside
    # the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet", "./perfbench/bwcbench.exe"],
            cwd=ROOT, stdout=sys.stderr, env=env)
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    provenance = ["--rev", git_rev(), "--src", source_digest()]
    if args.holdout_seed is not None:
        provenance += ["--holdout-seed", str(args.holdout_seed)]
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    return max(run(args, w, provenance) for w in workloads)


def run(args, workload, provenance):
    work = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        f"perfbench-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", work] + provenance
    timeout = RUN_TIMEOUT_S * (2 if args.holdout_seed is not None else 1)
    try:
        sys.stdout.flush()
        return subprocess.run(cmd, cwd=ROOT, timeout=timeout,
                              preexec_fn=fixed_layout).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
