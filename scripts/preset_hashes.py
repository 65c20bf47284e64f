"""Print each preset's exit code, determinism hash and failure reason.

Usage: python scripts/preset_hashes.py OFFSET...

Prints one line ``offset preset exit hash16 reason`` per offset and
preset, the presets in name order.  The offset is added to the preset's
own seed, as ``perfbench/run.py --seed`` does.  A preset that raises
``PrecisionExhausted`` or ``RamifiedSlopes`` is reported as exit 3 with
hash ``-``, as the benchmark counts it.  Two checkouts give the same
reports at those seeds exactly when their outputs are the same, so a
seed sweep of a change against its parent is one ``diff``.

The reason, the rest of the line, is the report's ``meta.outcome.reason``,
the first refutation its runner found, or ``-`` for exit 0; for exit 3
it is the exception message.  README.md lists the reasons of each kind,
among them ``decomposition`` for a chabauty run whose only failure is
its limit table.
"""

import sys

from buildinglab import cli
from buildinglab.dynamics import RamifiedSlopes
from buildinglab.padic import PrecisionExhausted


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
                why = body["meta"]["outcome"]["reason"] or "-"
            except (PrecisionExhausted, RamifiedSlopes) as exc:
                code, digest, why = 3, "-", str(exc)
            print(offset, preset, code, digest, why, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
