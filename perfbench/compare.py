"""Summarise or compare sets of ``perfbench/run.py`` result files.

Usage (from the repository root)::

    python3 perfbench/compare.py RESULTS_A              # one set: spreads
    python3 perfbench/compare.py RESULTS_A RESULTS_B    # A = parent, B = change

A set is a directory of result files (``.perfbench/results/`` after some
runs; copy it aside before the next set).  For every (workload,
end-to-end metric) the helper prints median, quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and sample count.
The spread is the interquartile distance as a share of the median.

With two sets it also gives a verdict against the metric's bound in
``BENCHMARK.json``:

- ``better``: B wins at least 9 of every 10 seed-matched pairs (ties
  count for neither) and the medians differ by more than A's
  interquartile distance;
- ``worse``: B's median is worse than A's by more than the bound;
- ``unresolved``: either set spreads wider than the bound and not every
  B run beats every A run;
- ``within``: none of the above (no change beyond the bound).

Traced runs contribute their tracing overhead (traced op time over the
untraced op time of the same ops).  Each set's median host scale (the
factor that brought its times to the reference host's speed) is printed
too, so a host that ran much slower or faster shows.  Sets from different hosts are
flagged, never compared silently.  Exit code 1 when any verdict is
``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_KEYS = ("cpu_count", "python", "numpy", "machine")


def load_set(directory: Path) -> list[dict]:
    runs = []
    for path in sorted(directory.rglob("*.json")):
        if path.name.endswith("__spans.json"):
            continue
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if data.get("benchmark") == "perfbench":
            runs.append(data)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return values[0], med, values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def _by_metric(runs: list[dict], workload: str) -> dict[str, dict[int, float]]:
    """``{metric: {seed: value}}`` of the untraced runs of a workload."""
    out: dict[str, dict[int, float]] = {}
    for run in runs:
        if run["workload"] != workload or run["trace"]:
            continue
        for name, m in run["end_to_end"].items():
            out.setdefault(name, {})[run["seed"]] = m["value"]
    return out


def _host_scales(runs: list[dict], workload: str) -> list[float]:
    return [r["extra"]["host_scale"] for r in runs
            if r["workload"] == workload and not r["trace"]]


def _overheads(runs: list[dict], workload: str) -> list[float]:
    return [r["per_layer"]["trace.overhead_ratio"] for r in runs
            if r["workload"] == workload and r["trace"]]


def _hosts(runs: list[dict]) -> set:
    return {tuple((k, r["host"].get(k)) for k in HOST_KEYS) for r in runs}


def verdict(a: dict[int, float], b: dict[int, float], bound: float, lower: bool) -> str:
    av, bv = list(a.values()), list(b.values())
    a_med, b_med = statistics.median(av), statistics.median(bv)
    sign = 1 if lower else -1

    def beats(x: float, y: float) -> bool:  # x better than y
        return sign * (y - x) > 0

    pairs = [(a[s], b[s]) for s in a if s in b]
    wins = sum(1 for x, y in pairs if beats(y, x))
    a_q1, _, a_q3 = quartiles(av)
    if pairs and wins >= 0.9 * len(pairs) and abs(b_med - a_med) > (a_q3 - a_q1):
        return "better"
    if sign * (b_med - a_med) > bound * abs(a_med):
        return "worse"
    every = all(beats(y, x) for x in av for y in bv)
    if max(spread(av), spread(bv)) > bound and not every:
        return "unresolved"
    return "within"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load_set(Path(p)) for p in argv]
    for path, runs in zip(argv, sets):
        if not runs:
            print(f"error: no result files under {path}", file=sys.stderr)
            return 2
    hosts = set().union(*(_hosts(r) for r in sets))
    if len(hosts) > 1:
        print(f"WARNING: results come from different hosts: {sorted(hosts)}")
    workloads = sorted({r["workload"] for runs in sets for r in runs})
    worse = False
    for workload in workloads:
        print(f"== {workload}")
        per_set = [_by_metric(runs, workload) for runs in sets]
        for name, meta in metrics.items():
            cells = []
            for values in per_set:
                vals = list(values.get(name, {}).values())
                if not vals:
                    cells.append("(no runs)")
                    continue
                q1, med, q3 = quartiles(vals)
                cells.append(f"med {med:.5g} q1 {q1:.5g} q3 {q3:.5g} n={len(vals)} "
                             f"spread {spread(vals):.3f}")
            line = f"  {name:<24} [{meta['unit']}] bound {meta['bound']}: " + " | ".join(cells)
            if len(per_set) == 2 and all(name in v for v in per_set):
                v = verdict(per_set[0][name], per_set[1][name], meta["bound"],
                            meta["better"] == "lower")
                worse |= v == "worse"
                line += f" -> {v}"
            print(line)
        for path, runs in zip(argv, sets):
            scales = _host_scales(runs, workload)
            if scales:
                q1, med, q3 = quartiles(scales)
                print(f"  host scale ({path}): med {med:.3f} q1 {q1:.3f} q3 {q3:.3f}")
            over = _overheads(runs, workload)
            if over:
                q1, med, q3 = quartiles(over)
                print(f"  tracing overhead ({path}): med {med:.3f}x "
                      f"q1 {q1:.3f} q3 {q3:.3f} n={len(over)}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
