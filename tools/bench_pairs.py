#!/usr/bin/env python
"""Benchmark a change against its parent in alternating pairs.

Runs ``perfbench/run.py --trace 0`` on the parent revision and on the
change, one pair per seed, alternating which side goes first (pair 1
runs parent then change, pair 2 change then parent, ...) so a slow
drift of the machine hits both sides alike. The parent runs from a
detached ``git worktree`` of ``--parent`` (removed afterwards), or
from ``--parent-dir`` when a checkout of it already exists; the change
runs from this checkout, working-tree edits included (recorded as
``uncommitted_changes`` when they touch ``src/`` or ``perfbench/``).

Every run must end ``correct: true`` with ``failed: 0``; any other
outcome stops the tool with exit status 1 and writes nothing. For each
workload it writes ``BENCH_<workload>.json`` at the repository root:
both revisions, the seeds, the pair count and, per metric and side,
every run's value with their median and IQR, plus the change in the
medians. Example::

    python tools/bench_pairs.py --workload harness-inproc \\
        --workload sim-inproc --pairs 4 --first-seed 51 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent


def git(*args: str, cwd: Path = REPO_ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] (perfbench's rule)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """One untraced perfbench run; returns its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(
            f"perfbench in {checkout} printed no result (exit {proc.returncode}):\n"
            f"{proc.stderr[-2000:]}"
        ) from None
    if proc.returncode != 0 or not result.get("correct") or result.get("failed", 1) > 0:
        raise SystemExit(
            f"run not clean in {checkout} ({workload}, seed {seed}): exit "
            f"{proc.returncode}, correct={result.get('correct')}, "
            f"failed={result.get('failed')}\n{proc.stderr[-2000:]}"
        )
    return result


def summarize(runs: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per metric: unit, every run's value, median and IQR."""
    out: Dict[str, Dict[str, Any]] = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        out[name] = {
            "unit": first["unit"],
            "runs": values,
            "median": statistics.median(values),
            "iqr": quantile(values, 0.75) - quantile(values, 0.25),
        }
    return out


def report(workload: str, parent: Dict[str, Any], change: Dict[str, Any],
           seeds: List[int], seconds: float,
           runs: Dict[str, List[Dict[str, Any]]]) -> Dict[str, Any]:
    sides = {side: summarize(runs[side]) for side in ("parent", "change")}
    metrics = {}
    for name, before in sides["parent"].items():
        after = sides["change"][name]
        base = before["median"]
        metrics[name] = {
            "unit": before["unit"],
            "parent": {k: before[k] for k in ("median", "iqr", "runs")},
            "change": {k: after[k] for k in ("median", "iqr", "runs")},
            "median_delta_pct": (
                100.0 * (after["median"] - base) / base if base else None
            ),
        }
    return {
        "workload": workload,
        "parent": parent,
        "change": change,
        "seeds": seeds,
        "pairs": len(seeds),
        "seconds": seconds,
        "command": "python3 perfbench/run.py --workload W --seed S "
                   "--seconds T --trace 0",
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True,
                        help="perfbench workload; repeat for several")
    parser.add_argument("--pairs", type=int, default=4)
    parser.add_argument("--first-seed", type=int, default=51,
                        help="pair i runs both sides with seed first_seed + i")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--parent", default="HEAD~1",
                        help="parent revision (default HEAD~1)")
    parser.add_argument("--parent-dir", type=Path,
                        help="existing checkout of --parent to run instead "
                             "of a fresh git worktree")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    parent = {"sha": git("rev-parse", args.parent)}
    # Only src/ and perfbench/ decide what a run measures; edits to
    # docs or tools while the pairs run do not make the change dirty.
    change = {"sha": git("rev-parse", "HEAD"),
              "uncommitted_changes": bool(git(
                  "status", "--porcelain", "--untracked-files=no", "--",
                  "src", "perfbench"))}
    worktree: Optional[Path] = None
    if args.parent_dir is not None:
        parent_dir = args.parent_dir.resolve()
        found = git("rev-parse", "HEAD", cwd=parent_dir)
        if found != parent["sha"]:
            parser.error(f"--parent-dir is at {found}, not {parent['sha']}")
    else:
        worktree = Path(tempfile.mkdtemp(prefix="bench-parent-")) / "parent"
        git("worktree", "add", "--detach", str(worktree), parent["sha"])
        parent_dir = worktree
    seeds = [args.first_seed + i for i in range(args.pairs)]
    try:
        for workload in args.workload:
            runs: Dict[str, List[Dict[str, Any]]] = {"parent": [], "change": []}
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    checkout = parent_dir if side == "parent" else REPO_ROOT
                    result = run_bench(checkout, workload, seed, args.seconds)
                    runs[side].append(result)
                    rate = result["metrics"]["steps_per_s"]["value"]
                    print(f"{workload} seed {seed} {side:6s} steps_per_s {rate:9.1f}",
                          flush=True)
            doc = report(workload, parent, change, seeds, args.seconds, runs)
            path = REPO_ROOT / f"BENCH_{workload}.json"
            path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
            print(f"wrote {path}")
            for name, m in doc["metrics"].items():
                delta = m["median_delta_pct"]
                print(f"  {name:14s} {m['parent']['median']:10.3f} -> "
                      f"{m['change']['median']:10.3f} {m['unit']:4s} "
                      f"(parent IQR {m['parent']['iqr']:.3f}"
                      + (f", {delta:+.1f}%)" if delta is not None else ")"))
    finally:
        if worktree is not None:
            git("worktree", "remove", "--force", str(worktree))
            shutil.rmtree(worktree.parent, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
