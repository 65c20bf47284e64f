"""Smoke tests: each script in scripts/ runs to exit 0 with small arguments."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(ROOT / "scripts" / script), *args]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script,args", [
    ("run_presets.py", ["{tmp}"]),
    ("witness_budget_scan.py", ["--max-steps", "6", "--depths", "1", "2"]),
    ("contraction_trace.py", ["7", "4"]),
])
def test_script_runs(script, args, tmp_path):
    done = _run(script, [a.format(tmp=tmp_path) for a in args])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def _record(seed, wall_norm, hash_):
    return json.dumps({
        "record": "perfbench", "workload": "boundary", "trace": 0, "seed": seed,
        "correct": True, "presets": {"sl2-q3-dynamics": {"hash": hash_}},
        "metrics": {"wall_norm": {"value": wall_norm, "unit": "probes"}}})


def test_bench_record_summarises_a_pairing(tmp_path):
    parent, change, out = (tmp_path / n for n in ("p.log", "c.log", "out.json"))
    parent.write_text("a run's text lines\n" + _record(3, 100.0, "aa") + "\n"
                      + _record(4, 102.0, "bb") + "\n")
    change.write_text(_record(3, 80.0, "aa") + "\n" + _record(4, 81.0, "bX") + "\n")
    done = _run("bench_record.py", [str(parent), str(change), str(out)])
    assert done.returncode == 0, done.stderr
    entry = json.loads(out.read_text())["boundary/trace0"]
    assert entry["seeds"] == [3, 4]
    assert entry["hashes_moved"] and entry["hashes_moved_at_seeds"] == [4]
    assert entry["failed_seeds"] == {"parent": [], "change": []}
    m = entry["metrics"]["wall_norm"]
    assert (m["unit"], m["better"], m["bound"]) == ("probes", "lower", 0.25)
    assert m["parent"]["median"] == 101.0 and m["change"]["median"] == 80.5
    # two pairs are too few to claim a gain; both lie within the bound
    assert (m["wins"], m["pairs"], m["verdict"]) == (2, 2, "within bound")
