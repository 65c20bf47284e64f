"""Compare two sets of benchmark runs: a parent commit and a change.

Usage: python3 perfbench/compare.py PARENT.log CHANGE.log

Each file holds the standard output of any number of ``run.py`` runs
(for instance ``python3 perfbench/run.py --workload decomp --seed 3 >>
parent.log``); only the record lines are read.  Runs of the two sides
are paired by workload, trace setting and seed, in file order.  Measure
both sides with the same ``--seconds`` and alternate which side runs
first.

For every workload and metric the table shows each side's median and
quartiles over its runs, and how many pairs the change won (ties count
for neither side).  The verdict follows the pairing rule:

* ``better``: the change won at least 9 of every 10 pairs, at least 10
  pairs were run, and the medians differ by more than the parent's
  interquartile range;
* ``unresolved``: a side's spread (interquartile range over median)
  exceeds the metric's bound, and not every change run beats every
  parent run;
* ``WORSE``: the change's median is worse than the parent's by more
  than the bound;
* ``within bound`` otherwise.  Metrics without a bound read ``worse``
  under the mirrored pairing rule, else ``no claim``.

``fail_ratio`` and ``digits_min`` are exact for a given seed and have a
bound of zero: a single pair in which the change fails more operations
or certifies fewer digits reads ``WORSE``.

The preset hashes of the two sides are compared seed by seed: a change
that claims a speed-up must leave every hash alone.
"""

import json
import statistics
import sys
from pathlib import Path

import spec

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    runs = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("{"):
                continue
            rec = json.loads(line)
            if rec.get("record") == "perfbench":
                runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def rules():
    """{metric: (better, bound or None)} for every metric a record can hold."""
    manifest = json.loads(MANIFEST.read_text())
    out = {name: ("lower", None) for name in spec.PER_LAYER}
    out.update({m["name"]: (m["better"], None) for m in manifest["per_layer"]})
    out.update({m["name"]: (m["better"], m["bound"]) for m in manifest["end_to_end"]})
    out.update(spec.STRICT)
    return out


def quartiles(values):
    if len(values) > 1:
        return statistics.quantiles(values, n=4)
    return values * 3


def pairs(parent, change):
    """Pair runs by seed, in file order."""
    by_seed = {}
    for rec in parent:
        by_seed.setdefault(rec["seed"], []).append(rec)
    out = []
    for rec in change:
        if by_seed.get(rec["seed"]):
            out.append((by_seed[rec["seed"]].pop(0), rec))
    return out


def verdict(p_vals, c_vals, paired, better, bound):
    sign = 1 if better == "lower" else -1
    if bound == 0:
        # exact per seed: one pair that reads worse is a regression
        wins = sum(1 for p, c in paired if sign * (p - c) > 0)
        if any(sign * (c - p) > 0 for p, c in paired):
            return wins, "WORSE"
        return wins, "better" if wins else "same"
    q1p, medp, q3p = quartiles(p_vals)
    q1c, medc, q3c = quartiles(c_vals)
    wins = sum(1 for p, c in paired if sign * (p - c) > 0)
    losses = sum(1 for p, c in paired if sign * (c - p) > 0)
    gap = abs(medc - medp)
    n = len(paired)
    decisive = n >= 10 and gap > q3p - q1p
    if decisive and wins >= 0.9 * n and sign * (medp - medc) > 0:
        return wins, "better"
    if bound is None:
        return wins, "worse" if decisive and losses >= 0.9 * n else "no claim"
    all_better = all(sign * (p - c) > 0 for p in p_vals for c in c_vals)
    spreads = [(q3 - q1) / abs(med) if med else 0.0
               for q1, med, q3 in ((q1p, medp, q3p), (q1c, medc, q3c))]
    if max(spreads) > bound and not all_better:
        return wins, "unresolved"
    worse_by = sign * (medc - medp)
    if worse_by > bound * abs(medp) or (medp == 0 and worse_by > 0):
        return wins, "WORSE"
    return wins, "within bound"


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    parent, change = load(argv[0]), load(argv[1])
    table = rules()
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        paired = pairs(parent[key], change[key])
        print("%s (trace %d): %d parent runs, %d change runs, %d pairs"
              % (workload, trace, len(parent[key]), len(change[key]), len(paired)))
        for side, recs in (("parent", parent[key]), ("change", change[key])):
            bad = [r["seed"] for r in recs if not r["correct"]]
            if bad:
                print("  %s runs failed their checks at seeds %s" % (side, bad))
        moved = [p["seed"] for p, c in paired if
                 {k: v["hash"] for k, v in p["presets"].items()}
                 != {k: v["hash"] for k, v in c["presets"].items()}]
        print("  preset hashes: %s" % (
            "changed at seeds %s" % moved if moved else "unchanged"))
        names = sorted(set.intersection(*(set(r["metrics"]) for r in
                                          parent[key] + change[key])))
        for name in names:
            better, bound = table.get(name, ("lower", None))
            p_vals = [r["metrics"][name]["value"] for r in parent[key]]
            c_vals = [r["metrics"][name]["value"] for r in change[key]]
            pv = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                  for p, c in paired]
            wins, word = verdict(p_vals, c_vals, pv, better, bound)
            q1p, medp, q3p = quartiles(p_vals)
            q1c, medc, q3c = quartiles(c_vals)
            print("  %-40s %-13s parent %-10.4g %-22s change %-10.4g %-22s wins %d/%d  %s"
                  % (name, parent[key][0]["metrics"][name]["unit"],
                     medp, "[%.4g, %.4g]" % (q1p, q3p),
                     medc, "[%.4g, %.4g]" % (q1c, q3c), wins, len(pv), word))


if __name__ == "__main__":
    main(sys.argv[1:])
