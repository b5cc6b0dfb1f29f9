"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records `run.py --out FILE` appends, one JSON object a
line; only end-to-end records (`--trace 0`) are compared.  For every
workload and every end-to-end metric of BENCHMARK.json the table gives each
side's median and quartiles over its runs, and a verdict:

* `worse`: NEW's median is worse than BASE's by more than the metric's bound;
* `unresolved`: the spread of either side (quartile distance over median) is
  wider than the bound, and NEW's runs do not all beat BASE's;
* `better`: NEW's median is better by more than the bound;
* `within`: otherwise.

A verdict is not a claim of a gain: that takes ten alternating pairs of
parent and change runs.

Results from different kernel backends are not comparable: the command
refuses them.  Exit status: 0 when no pairing is worse, 1 when one is,
2 when the inputs cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Incomparable(Exception):
    pass


def load(path: str) -> dict:
    """{workload: [record, ...]} of the end-to-end records in `path`."""
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == 0:
                    out.setdefault(rec["workload"], []).append(rec)
    if not out:
        raise Incomparable(f"{path} holds no end-to-end records")
    return out


def backend_of(records: dict, path: str) -> str:
    found = {r["env"]["backend"] for recs in records.values() for r in recs}
    if len(found) != 1:
        raise Incomparable(f"{path} mixes kernel backends {sorted(found)}")
    return found.pop()


def summary(values: list) -> tuple:
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list, new: list, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    _, mb, _ = summary(base)
    _, mn, _ = summary(new)
    change = sign * (mn - mb) / mb  # > 0 means worse
    spread = max((q3 - q1) / med for q1, med, q3 in (summary(base), summary(new)))
    all_better = max(sign * v for v in new) < min(sign * v for v in base)
    if spread > bound and not all_better:
        return "unresolved"
    if change > bound:
        return "worse"
    return "better" if change < -bound else "within"


def compare(base_path: str, new_path: str, spec: dict) -> list:
    base, new = load(base_path), load(new_path)
    bb, nb = backend_of(base, base_path), backend_of(new, new_path)
    if bb != nb:
        raise Incomparable(f"backends differ: {bb} in {base_path}, {nb} in {new_path}")
    rows = []
    for wl in spec["workloads"]:
        name = wl["name"]
        if name not in base or name not in new:
            continue
        for m in spec["end_to_end"]:
            b = [r["metrics"][m["name"]]["value"] for r in base[name]]
            n = [r["metrics"][m["name"]]["value"] for r in new[name]]
            rows.append(
                (name, m["name"], m["unit"], summary(b), summary(n),
                 verdict(b, n, m["better"], m["bound"]), len(b), len(n))
            )
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        rows = compare(args.base, args.new, spec)
    except Incomparable as exc:
        print(f"refusing to compare: {exc}", file=sys.stderr)
        return 2
    fmt = "{:<10} {:<12} {:<6} {:>28} {:>28}  {}"
    print(fmt.format("workload", "metric", "unit", "base q1/median/q3 (n)",
                     "new q1/median/q3 (n)", "verdict"))
    for name, metric, unit, b, n, v, nb, nn in rows:
        print(fmt.format(
            name, metric, unit,
            "{:.4g}/{:.4g}/{:.4g} ({})".format(*b, nb),
            "{:.4g}/{:.4g}/{:.4g} ({})".format(*n, nn),
            v,
        ))
    return 1 if any(row[5] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
