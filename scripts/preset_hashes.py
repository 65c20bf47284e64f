"""Print each preset's exit code, determinism hash and failure reason.

Usage: python scripts/preset_hashes.py OFFSET...

Prints one line ``offset preset exit hash16 reason`` per offset and
preset, the presets in name order.  The offset is added to the preset's
own seed, as ``perfbench/run.py --seed`` does.  A preset that raises
``PrecisionExhausted`` or ``RamifiedSlopes`` is reported as exit 3 with
hash ``-``, as the benchmark counts it.  Two checkouts give the same
reports at those seeds exactly when their outputs are the same, so a
seed sweep of a change against its parent is one ``diff``.

The reason, the rest of the line, is deterministic: ``-`` for exit 0;
the exception message for exit 3; for exit 1 the first failing record,
``index=I status=S`` for dynamics and ``target=I`` (the first target
that is not cofinal) for transit, ``status=S recovered=K`` for
chabauty, and ``failures=N`` for decompositions and the Coxeter oracles.
"""

import sys

from buildinglab import cli
from buildinglab.dynamics import RamifiedSlopes
from buildinglab.padic import PrecisionExhausted


def reason(kind, result):
    """The first failure of a report whose preset exited 1."""
    if kind == "dynamics":
        for rec in result["records"]:
            if rec["hypothesis"] and not (rec["status"] == "converged"
                                          and rec["monotone"]):
                return "index=%d status=%s" % (rec["index"], rec["status"])
    elif kind == "transit":
        for target in result["targets"]:
            if not target["cofinal"]:
                return "target=%d" % target["index"]
    elif kind == "chabauty":
        return "status=%s recovered=%d" % (result["status"],
                                           len(result["recovered"]))
    else:
        failures = result["failures"]
        if isinstance(failures, list):
            failures = len(failures)
        return "failures=%d" % failures
    return "?"


def main(argv):
    if not argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    for offset in map(int, argv):
        for preset in sorted(cli.PRESETS):
            data = dict(cli.PRESETS[preset])
            data["seed"] += offset
            try:
                code, body = cli.run(cli.parse_config(data))
                digest = body["meta"]["determinism_hash"][:16]
                why = reason(data["kind"], body["result"]) if code else "-"
            except (PrecisionExhausted, RamifiedSlopes) as exc:
                code, digest, why = 3, "-", str(exc)
            print(offset, preset, code, digest, why, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
