"""Print each preset's exit code, determinism hash and failure reason.

Usage: python scripts/preset_hashes.py [--out DIR] OFFSET...

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

With ``--out DIR`` each run that ends in a report also writes the files
that the command line's ``--out`` writes, into ``DIR/OFFSET/PRESET``.
"""

import argparse
import os
import sys

from buildinglab import cli
from buildinglab.dynamics import RamifiedSlopes
from buildinglab.padic import PrecisionExhausted


def main(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", metavar="DIR", help="write each report under DIR/OFFSET/PRESET")
    parser.add_argument("offsets", metavar="OFFSET", type=int, nargs="+")
    args = parser.parse_args(argv)
    for offset in args.offsets:
        for preset in sorted(cli.PRESETS):
            data = dict(cli.PRESETS[preset])
            data["seed"] += offset
            try:
                code, body = cli.run(cli.parse_config(data))
            except (PrecisionExhausted, RamifiedSlopes) as exc:
                print(offset, preset, 3, "-", exc, flush=True)
                continue
            if args.out:
                dest = os.path.join(args.out, str(offset), preset)
                os.makedirs(dest, exist_ok=True)
                cli._write_out(dest, code, body)
            meta = body["meta"]
            print(offset, preset, code, meta["determinism_hash"][:16],
                  meta["outcome"]["reason"] or "-", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
