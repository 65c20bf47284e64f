"""Turn a perfbench parent/change pairing into a ``BENCH_*.json`` record.

Usage: python scripts/bench_record.py PARENT.log CHANGE.log OUT.json

PARENT.log and CHANGE.log hold the standard output of ``perfbench/run.py``
runs, the same files ``perfbench/compare.py`` reads, and the pairing,
quartiles and verdicts are compare.py's own.  For every workload and
trace setting both sides ran, OUT.json gets the seeds that were paired,
the seeds at which either side failed its checks, the seeds at which
the preset hashes moved, and for every metric that all of those runs
carry: each side's median and quartiles, the change's wins over the
pairs and the verdict.
"""

import json
import sys
from pathlib import Path

# compare.py is read as it is; no byte code is left next to it
sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from compare import load, pairs, quartiles, rules, verdict  # noqa: E402


def _hashes(rec):
    return {name: p["hash"] for name, p in rec["presets"].items()}


def summarise(parent, change):
    table = rules()
    out = {}
    for workload, trace in sorted(set(parent) & set(change)):
        p_recs, c_recs = parent[workload, trace], change[workload, trace]
        paired = pairs(p_recs, c_recs)
        metrics = {}
        names = set.intersection(*(set(r["metrics"]) for r in p_recs + c_recs))
        for name in sorted(names):
            better, bound = table.get(name, ("lower", None))
            p_vals = [r["metrics"][name]["value"] for r in p_recs]
            c_vals = [r["metrics"][name]["value"] for r in c_recs]
            pv = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                  for p, c in paired]
            wins, word = verdict(p_vals, c_vals, pv, better, bound)
            metrics[name] = {
                "unit": p_recs[0]["metrics"][name]["unit"],
                "better": better,
                "bound": bound,
                "parent": dict(zip(("q1", "median", "q3"), quartiles(p_vals))),
                "change": dict(zip(("q1", "median", "q3"), quartiles(c_vals))),
                "wins": wins,
                "pairs": len(pv),
                "verdict": word,
            }
        moved = [p["seed"] for p, c in paired if _hashes(p) != _hashes(c)]
        out["%s/trace%d" % (workload, trace)] = {
            "seeds": [p["seed"] for p, _ in paired],
            "failed_seeds": {
                "parent": [r["seed"] for r in p_recs if not r["correct"]],
                "change": [r["seed"] for r in c_recs if not r["correct"]],
            },
            "hashes_moved": bool(moved),
            "hashes_moved_at_seeds": moved,
            "metrics": metrics,
        }
    return out


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    record = summarise(load(argv[0]), load(argv[1]))
    Path(argv[2]).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for key, entry in record.items():
        verdicts = sorted({m["verdict"] for m in entry["metrics"].values()})
        print("%s: %d pairs, hashes %s, verdicts %s" % (
            key, len(entry["seeds"]),
            "moved" if entry["hashes_moved"] else "unchanged", ", ".join(verdicts)))


if __name__ == "__main__":
    main(sys.argv[1:])
