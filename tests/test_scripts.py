"""The scripts in scripts/, run with small arguments."""

import json
import os
import subprocess
import sys
from pathlib import Path


ROOT = Path(__file__).resolve().parents[1]


def _run(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(ROOT / "scripts" / script), *args]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)


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


def test_preset_hashes_prints_one_line_per_offset_and_preset():
    from buildinglab.cli import PRESETS

    done = _run("preset_hashes.py", ["0", "3"])
    assert done.returncode == 0, done.stderr
    lines = [line.split(None, 4) for line in done.stdout.splitlines()]
    assert [(o, p) for o, p, _, _, _ in lines] == [
        (o, p) for o in ("0", "3") for p in sorted(PRESETS)]
    for _, _, code, digest, why in lines:
        assert code in ("0", "1", "3")
        if code == "3":
            assert digest == "-"
        else:
            assert len(digest) == 16 and int(digest, 16) >= 0
        assert (why == "-") == (code == "0")
    # the offset moves every preset's seed, and so its report
    assert all(a[3] != b[3] for a, b in zip(lines, lines[len(PRESETS):])
               if a[3] != "-")
    assert _run("preset_hashes.py", []).returncode == 2


def test_preset_hashes_out_writes_every_report(tmp_path):
    from buildinglab.cli import PRESETS

    done = _run("preset_hashes.py", ["--out", str(tmp_path), "0"])
    assert done.returncode == 0, done.stderr
    printed = {p: h for _, p, _, h, _ in (line.split(None, 4)
                                          for line in done.stdout.splitlines())}
    assert sorted(path.name for path in (tmp_path / "0").iterdir()) == sorted(PRESETS)
    for preset in PRESETS:
        report = json.loads((tmp_path / "0" / preset / "report.json").read_text())
        assert report["meta"]["determinism_hash"][:16] == printed[preset]


def _preset_hashes():
    import runpy

    return runpy.run_path(str(ROOT / "scripts" / "preset_hashes.py"))


def test_preset_hashes_counts_precision_failures_as_exit_3(monkeypatch, capsys):
    from buildinglab import cli
    from buildinglab.dynamics import RamifiedSlopes
    from buildinglab.padic import PrecisionExhausted

    seeds = []
    reasons = {"coxeter-oracle": "failures=2", "decompositions": "failures=2",
               "chabauty": "decomposition"}

    def run(cfg):
        seeds.append(cfg.seed)
        if cfg.kind == "dynamics":
            raise PrecisionExhausted("flag degenerate within working precision")
        if cfg.kind == "transit":
            raise RamifiedSlopes("slopes are not integers")
        outcome = {"attempted": 9, "refuted": 2, "reason": reasons[cfg.kind]}
        return 1, {"meta": {"determinism_hash": "0123456789abcdef" * 4,
                            "outcome": outcome}}

    monkeypatch.setattr(cli, "run", run)
    assert _preset_hashes()["main"](["5"]) == 0
    names = sorted(cli.PRESETS)
    assert seeds == [cli.PRESETS[name]["seed"] + 5 for name in names]
    why = {"dynamics": "3 - flag degenerate within working precision",
           "transit": "3 - slopes are not integers",
           "coxeter-oracle": "1 0123456789abcdef failures=2",
           "decompositions": "1 0123456789abcdef failures=2",
           "chabauty": "1 0123456789abcdef decomposition"}
    want = ["5 %s %s" % (name, why[cli.PRESETS[name]["kind"]]) for name in names]
    assert capsys.readouterr().out.splitlines() == want
