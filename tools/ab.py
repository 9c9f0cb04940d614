"""A/B benchmark of two revisions: alternating pairs of perfbench/run.py runs.

Run from the root of a checkout::

    python tools/ab.py BASE HEAD --pairs 5 --workload all --seconds 20 --seed 101 --out BENCH_N.json

Each revision is ``git archive``d into a temporary tree with its own
PYTHONPYCACHEPREFIX, which one discarded warm-up run per workload fills, so
neither side compiles a module while it is timed.  Pair p then runs each
tree's own perfbench/run.py, as committed, at seed SEED + p, the base first in
even pairs and the head first in odd ones.

It prints each side's ``src_nonblank_lines``; then for each workload and
end-to-end metric both medians and quartiles, the change of the head's median,
and in how many pairs the head was better (and equal), once for the
calibration-scaled figures of the final JSON line and once for the unscaled
ones of the ``# unscaled:`` line.  After the timed pairs one traced pair
(``--trace 1`` at seed SEED) runs each tree once more and every per-layer count
(calls, fail, cells, accept_ratio) that differs between the sides is printed.
``--out`` writes both sides' parsed output of every pair and of the traced
pair, that summary and that diff as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "head")
SCALES = ("scaled", "unscaled")
#: the per-layer statistics of a traced run that count rather than time
COUNTS = ("calls", "fail", "cells", "accept_ratio")


def parse_output(text: str) -> dict:
    """workload -> {"summary": the JSON-valued ``#   key:`` lines, "result": the final JSON line}
    of one run.py output, for every workload it ran."""
    runs, workload, summary = {}, None, {}
    for line in text.splitlines():
        if line.startswith("# ") and " seed=" in line:
            workload, summary = line.split()[1], {}
        elif line.startswith("#   "):
            key, _, value = line[4:].partition(": ")
            try:
                summary[key] = json.loads(value)
            except ValueError:  # a metric line: value and unit
                pass
        elif line.startswith("{") and workload is not None:
            runs[workload] = {"summary": summary, "result": json.loads(line)}
            workload = None
    return runs


def metric_values(run: dict, scale: str) -> dict[str, float]:
    """Metric name -> value of one workload's run, calibration-scaled or unscaled."""
    if scale == "unscaled":
        return dict(run["summary"]["unscaled"])
    return {name: metric["value"] for name, metric in run["result"]["metrics"].items()}


def failed_frac(run: dict) -> float:
    result = run["result"]
    return result["failed"] / result["attempted"]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarise(pairs: list[dict], better: dict[str, str]) -> list[dict]:
    """One row per workload, scale and metric over the pairs ({"base": runs, "head": runs} each,
    runs as parse_output gives them); ``better`` maps a metric to "higher" or "lower"."""
    rows = []
    workloads = [w for w in pairs[0]["base"] if all(w in pair[side] for pair in pairs for side in SIDES)]
    for workload in workloads:
        for scale in SCALES:
            values = {side: [metric_values(pair[side][workload], scale) for pair in pairs] for side in SIDES}
            for metric, direction in better.items():
                base = [v[metric] for v in values["base"]]
                head = [v[metric] for v in values["head"]]
                sign = 1 if direction == "higher" else -1
                rows.append({
                    "workload": workload, "scale": scale, "metric": metric, "better": direction,
                    "base_median": statistics.median(base), "base_quartiles": quartiles(base),
                    "head_median": statistics.median(head), "head_quartiles": quartiles(head),
                    "head_better": sum(sign * (h - b) > 0 for b, h in zip(base, head)),
                    "equal": sum(h == b for b, h in zip(base, head)),
                    "pairs": len(pairs),
                })
        fracs = {side: [failed_frac(pair[side][workload]) for pair in pairs] for side in SIDES}
        rows.append({"workload": workload, "scale": "-", "metric": "failed_frac", "better": "lower",
                     "base": fracs["base"], "head": fracs["head"], "pairs": len(pairs),
                     "equal": sum(b == h for b, h in zip(fracs["base"], fracs["head"]))})
    return rows


def traced_diff(base: dict, head: dict) -> list[dict]:
    """Each per-layer count that differs between two traced runs (parse_output of each), in the
    base's order; a figure one side lacks reads None."""
    rows = []
    for workload in [w for w in base if w in head]:
        before, after = metric_values(base[workload], "scaled"), metric_values(head[workload], "scaled")
        for name in [*before, *(name for name in after if name not in before)]:
            if name.rpartition(".")[2] in COUNTS and before.get(name) != after.get(name):
                rows.append({"workload": workload, "metric": name,
                             "base": before.get(name), "head": after.get(name)})
    return rows


def format_line_counts(pairs: list[dict]) -> str:
    """Each side's src_nonblank_lines, from the summary of its first run, and the head's change."""
    base, head = (next(iter(pairs[0][side].values()))["summary"]["src_nonblank_lines"] for side in SIDES)
    return f"# src_nonblank_lines: base {base}  head {head} ({head - base:+d})"


def format_rows(rows: list[dict]) -> list[str]:
    lines = []
    for row in rows:
        where = f"{row['workload']:<10} {row['scale']:<8} {row['metric']:<12}"
        if row["metric"] == "failed_frac":
            lines.append(f"{where} base {statistics.median(row['base']):.6f}  head "
                         f"{statistics.median(row['head']):.6f}  equal in {row['equal']}/{row['pairs']} pairs")
            continue
        base, head = row["base_median"], row["head_median"]
        change = f"{(head - base) / base * 100:+6.1f} %" if base else "     - "
        (b1, b3), (h1, h3) = row["base_quartiles"], row["head_quartiles"]
        lines.append(f"{where} base {base:10.4g} [{b1:.4g}, {b3:.4g}]  head {head:10.4g} [{h1:.4g}, {h3:.4g}]"
                     f"  {change}  head better in {row['head_better']}/{row['pairs']}"
                     f" ({row['better']} is better; equal in {row['equal']})")
    return lines


def format_traced(seed: int, diff: list[dict]) -> list[str]:
    lines = [f"# traced pair (--trace 1, seed {seed}): {len(diff) or 'no'} per-layer counts differ"]
    lines += [f"{row['workload']:<10} {row['metric']:<40} base {row['base']}  head {row['head']}" for row in diff]
    return lines


def _commit(rev: str) -> str:
    proc = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"], cwd=ROOT,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"ab: {rev!r} names no commit")
    return proc.stdout.strip()


def _tree(rev: str, dest: Path) -> dict:
    """An archive of rev extracted in dest, and the environment its runs use."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(dest.parent / f"{dest.name}-pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _run(tree: Path, env: dict, workload: str, seed: int, seconds: float, trace: int = 0) -> str:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"ab: run.py failed in {tree} (exit {proc.returncode}): {proc.stderr.strip()}")
    return proc.stdout


def better_directions() -> dict[str, str]:
    """End-to-end metric -> "higher" or "lower", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {metric["name"]: metric["better"] for metric in spec["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="the revision to compare against, e.g. a parent commit")
    parser.add_argument("head", help="the revision under test")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=101, help="seed of the first pair; pair p uses seed + p")
    parser.add_argument("--out", type=Path, help="write the pairs and the summary here as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    revs = {"base": args.base, "head": args.head}
    commits = {side: _commit(rev) for side, rev in revs.items()}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        envs = {side: _tree(commits[side], trees[side]) for side in SIDES}
        for side in SIDES:  # fills each side's bytecode cache; the output is discarded
            _run(trees[side], envs[side], args.workload, 0, 1.0)
        pairs = []
        for p in range(args.pairs):
            seed = args.seed + p
            order = SIDES if p % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = parse_output(_run(trees[side], envs[side], args.workload, seed, args.seconds))
            pairs.append(pair)
            print(f"# pair {p + 1}/{args.pairs} done (seed {seed}, {order[0]} first)", file=sys.stderr)
        traced = {"seed": args.seed}
        for side in SIDES:
            traced[side] = parse_output(_run(trees[side], envs[side], args.workload, args.seed, args.seconds, trace=1))
    traced["diff"] = traced_diff(traced["base"], traced["head"])
    rows = summarise(pairs, better_directions())
    print(f"# base {args.base} ({commits['base'][:12]})  head {args.head} ({commits['head'][:12]})  "
          f"{args.pairs} pairs of --workload {args.workload} --seconds {args.seconds:g}, seeds "
          f"{args.seed}-{args.seed + args.pairs - 1}")
    print(format_line_counts(pairs))
    print("\n".join(format_rows(rows)))
    print("\n".join(format_traced(args.seed, traced["diff"])))
    if args.out:
        report = {"revisions": revs, "commits": commits, "workload": args.workload, "seconds": args.seconds,
                  "pairs": pairs, "summary": rows, "traced": traced}
        args.out.write_text(json.dumps(report, indent=1, ensure_ascii=False) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
