"""Run every shipped preset and collect reports under out/.

Usage: python scripts/run_presets.py [outdir]
"""

import sys
from pathlib import Path

from buildinglab.cli import KIND_OF_SUBCOMMAND, PRESETS, main

SUBCOMMAND_OF_KIND = {kind: sub for sub, kind in KIND_OF_SUBCOMMAND.items()}

outdir = Path(sys.argv[1] if len(sys.argv) > 1 else "out")
worst = 0
for preset in sorted(PRESETS):
    sub = SUBCOMMAND_OF_KIND[PRESETS[preset]["kind"]]
    dest = outdir / preset
    code = main([sub, "--preset", preset, "--out", str(dest)])
    print("%-22s -> %s (exit %d)" % (preset, dest, code))
    worst = max(worst, code)
sys.exit(worst)
