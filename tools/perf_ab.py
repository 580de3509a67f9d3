#!/usr/bin/env python3
"""A/B-compares the bdisk benchmark between two revisions.

    python3 tools/perf_ab.py PARENT_REV [--change REV] [--workload W]
                             [--pairs N] [--seconds S] [--seed N]
                             [--workdir DIR]

Run from a bdisk checkout. Both sides are exported into their own
directories: PARENT_REV with `git archive`, the change with `git archive
REV` when --change is given, else the working tree's tracked and
untracked-but-not-ignored files (so an uncommitted change can be
measured). Each side builds its own benchmark tree, then the script runs
`python3 perfbench/run.py --workload W --trace 0` N times per side in
alternating pairs, swapping which side goes first each pair so that slow
phases of a shared host fall on both sides alike. It prints every pair,
each side's median and quartiles of every end-to-end metric and its total
of failed operations, and, for slots_per_s (higher is better), the number
of pairs the change won and whether the median gain exceeds the parent's
interquartile range. It exits 0 whatever the numbers say (it is a report,
not a gate) and non-zero only when a run does not complete or reports
correct: false.
With --workdir the exported trees and their benchmark builds are kept in
DIR and reused by later invocations; without it they go to a temporary
directory that is removed at the end. A reused tree is synced file by
file: files whose bytes differ are rewritten with the current time and
files the side no longer has are deleted, so the incremental build in it
always matches the exported revision, whichever one was there before.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

# The benchmark's build directory inside a tree (perfbench/run.py).
BUILD_DIR = ".bench_build"
# The one metric pairs are won on; higher is better.
HEADLINE = "slots_per_s"


def git(root, *args, **kwargs):
    return subprocess.run(["git", "-C", root] + list(args), check=True,
                          **kwargs)


def rev_files(root, rev):
    """Yields (path, mode, bytes) for every file of `rev`."""
    data = git(root, "archive", "--format=tar", rev,
               capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        for member in tar.getmembers():
            if member.isfile():
                yield member.name, member.mode, tar.extractfile(member).read()


def worktree_files(root):
    """Yields (path, mode, bytes) for the working tree's tracked and
    untracked, not ignored files."""
    listing = git(root, "ls-files", "-z", "--cached", "--others",
                  "--exclude-standard", capture_output=True).stdout
    for rel in listing.decode().split("\0"):
        src = os.path.join(root, rel)
        if not rel or not os.path.isfile(src):
            continue  # Deleted but still in the index.
        with open(src, "rb") as f:
            yield rel, os.stat(src).st_mode & 0o777, f.read()


def sync_tree(files, dest):
    """Makes `dest` hold exactly `files`, apart from BUILD_DIR. A file whose
    bytes are already there keeps its modification time; any other file is
    written now, so an incremental build in `dest` recompiles exactly what
    differs from the last export, even when that export came from a newer
    commit."""
    wanted = set()
    for rel, mode, data in files:
        wanted.add(os.path.normpath(rel))
        path = os.path.join(dest, rel)
        try:
            with open(path, "rb") as f:
                same = f.read() == data
        except OSError:
            same = False
        if not same:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as f:
                f.write(data)
        os.chmod(path, mode)
    for dirpath, dirnames, filenames in os.walk(dest):
        if dirpath == dest and BUILD_DIR in dirnames:
            dirnames.remove(BUILD_DIR)
        for name in filenames:
            path = os.path.join(dirpath, name)
            if os.path.relpath(path, dest) not in wanted:
                os.remove(path)


def run_once(tree, args):
    """One perfbench run; returns its JSON result line."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", "0"]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("perf_ab: perfbench run failed in " + tree)
    result = json.loads(lines[-1])
    if not result.get("correct", False):
        raise SystemExit("perf_ab: run in %s reported correct=false" % tree)
    return result


def quartiles(results, name):
    """(q1, median, q3) of metric `name` over perfbench results."""
    values = [r["metrics"][name]["value"] for r in results]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--change", help="revision of the change "
                        "(default: the working tree)")
    parser.add_argument("--workload", default="ipp_heavy")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workdir", help="keep the trees and builds here")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    root = git(os.getcwd(), "rev-parse", "--show-toplevel",
               capture_output=True, text=True).stdout.strip()
    work = args.workdir or tempfile.mkdtemp(prefix="perf_ab.")
    try:
        parent = os.path.join(work, "parent")
        change = os.path.join(work, "change")
        os.makedirs(parent, exist_ok=True)
        os.makedirs(change, exist_ok=True)
        sync_tree(rev_files(root, args.parent_rev), parent)
        sync_tree(rev_files(root, args.change) if args.change
                  else worktree_files(root), change)

        runs = {"parent": [], "change": []}
        trees = {"parent": parent, "change": change}
        won = 0
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {side: run_once(trees[side], args) for side in order}
            for side in order:
                runs[side].append(pair[side])
            p, c = (pair[side]["metrics"][HEADLINE]["value"]
                    for side in ("parent", "change"))
            wins = c > p
            won += wins
            print("pair %2d (%s first): %s parent %.6g  change %.6g  %s"
                  % (i + 1, order[0], HEADLINE, p, c,
                     "change" if wins else "parent"), flush=True)

        print("%s, %d pairs of %g s%s; median [quartiles]:"
              % (args.workload, args.pairs, args.seconds,
                 "" if args.seed is None else ", seed %d" % args.seed))
        for name in runs["parent"][0]["metrics"]:
            p1, p2, p3 = quartiles(runs["parent"], name)
            c1, c2, c3 = quartiles(runs["change"], name)
            print("  %-16s parent %.6g [%.6g .. %.6g]  change %.6g "
                  "[%.6g .. %.6g]  change/parent %.3f"
                  % (name, p2, p1, p3, c2, c1, c3,
                     c2 / p2 if p2 else float("nan")))
        for side in ("parent", "change"):
            failed = sum(r.get("failed", 0) for r in runs[side])
            attempted = sum(r.get("attempted", 0) for r in runs[side])
            print("  %-6s failed %d of %d operations (%.4f%%)"
                  % (side, failed, attempted,
                     100.0 * failed / attempted if attempted else 0.0))
        p1, p2, p3 = quartiles(runs["parent"], HEADLINE)
        gain = quartiles(runs["change"], HEADLINE)[1] - p2
        print("  %s: change won %d/%d pairs; median gain %.6g vs parent "
              "IQR %.6g: %s"
              % (HEADLINE, won, args.pairs, gain, p3 - p1,
                 "exceeds" if gain > p3 - p1 else "within"))
    finally:
        if not args.workdir:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
