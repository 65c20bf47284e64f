"""Config plumbing, runners, exit codes, and report determinism."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from buildinglab.cli import (
    _ROOT,
    _SCHEMA,
    KIND_OF_SUBCOMMAND,
    KINDS,
    ConfigError,
    PRESETS,
    emit_config,
    main,
    mild_element,
    parse_config,
    run,
)
from buildinglab.building import GroupContext

N = 32


def _perfbench(name):
    """A module of perfbench/, loaded read-only from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / (name + ".py")
    spec = importlib.util.spec_from_file_location("perfbench_" + name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_SPEC = _perfbench("spec")
# the benchmark's table is the single source of the reference hashes
REFERENCE_HASHES = _SPEC.REFERENCE_HASHES
sys.modules["spec"] = _SPEC  # worker imports spec by name
try:
    # the benchmark's count of a report's attempted and failed records
    TALLY = _perfbench("worker").tally
finally:
    del sys.modules["spec"]

SUBCOMMAND_OF_KIND = {kind: cmd for cmd, kind in KIND_OF_SUBCOMMAND.items()}


def test_config_roundtrip_idempotent():
    messy = {
        "seed": 9,
        "kind": "dynamics",
        "group": {"p": 3, "n": 2},
        "chambers": 4,
        "element": {"exponents": [1, -1]},
    }
    once = emit_config(parse_config(messy))
    assert once == emit_config(parse_config(once))
    assert once["group"]["precision"] == 32
    assert once["group"]["family"] == "SL"
    # params fold back in sorted order after the fixed keys
    assert list(once) == ["kind", "seed", "group", "chambers", "element"]


def test_config_defaults_and_out():
    cfg = parse_config({"kind": "coxeter-oracle", "types": ["A2"]})
    assert cfg.seed == 0
    assert cfg.group is None
    assert cfg.out is None
    doc = emit_config(cfg)
    assert "out" not in doc and "group" not in doc
    cfg2 = parse_config(dict(doc, out="reports"))
    assert emit_config(cfg2)["out"] == "reports"


def test_config_diagnostics():
    with pytest.raises(ConfigError, match="'kind' is required"):
        parse_config({})
    with pytest.raises(ConfigError, match="must be one of"):
        parse_config({"kind": "sorcery"})
    with pytest.raises(ConfigError, match="root must be a JSON object"):
        parse_config([1, 2])
    with pytest.raises(ConfigError, match="group.n.*expected integer"):
        parse_config({"kind": "transit",
                      "group": {"n": "two", "p": 3}})
    with pytest.raises(ConfigError, match="only 'SL' is supported"):
        parse_config({"kind": "transit",
                      "group": {"family": "Sp", "n": 4, "p": 3}})
    with pytest.raises(ConfigError, match="'group' is required for kind"):
        parse_config({"kind": "chabauty"})
    with pytest.raises(ConfigError, match="seed.*expected integer"):
        parse_config({"kind": "coxeter-oracle", "seed": "abc"})


def test_presets_parse_and_so2_pin():
    for name, data in PRESETS.items():
        once = emit_config(parse_config(data))
        assert emit_config(parse_config(once)) == once, name
    so2 = parse_config(PRESETS["so2-sl2-q5"])
    assert so2.kind == "chabauty"
    assert so2.group == {"family": "SL", "n": 2, "p": 5, "precision": 32}
    assert so2.seed == 65537
    assert so2.params["sequence"]["exponents"] == [-1, 1]


def test_coxeter_runner_exhaustive_counts():
    cfg = parse_config({"kind": "coxeter-oracle", "types": ["A2", "B2"]})
    code, body = run(cfg)
    assert code == 0
    res = body["result"]
    assert res["failures"] == []
    assert res["types"]["A2"] == {
        "order": 6,
        "checks": {"double-coset": 96, "residue-type": 96, "projection": 144,
                   "separating-walls": 36, "hull-pairs": 36},
    }
    assert res["types"]["B2"]["order"] == 8
    assert res["types"]["B2"]["checks"]["double-coset"] == 128
    with pytest.raises(ConfigError, match="types"):
        run(parse_config({"kind": "coxeter-oracle", "types": ["Z9"]}))


@pytest.mark.parametrize("types", [[["A2"]], "A2", []])
def test_coxeter_rejects_malformed_types(tmp_path, capsys, types):
    path = tmp_path / "cox.json"
    path.write_text(json.dumps({"kind": "coxeter-oracle", "types": types}))
    assert main(["coxeter", "--config", str(path)]) == 2
    assert "'types'" in capsys.readouterr().err


def test_decomposition_runner_residuals():
    cfg = parse_config({
        "kind": "decompositions",
        "groups": [{"family": "SL", "n": 2, "p": 3, "precision": 32}],
        "count": 40,
        "seed": 5,
    })
    code, body = run(cfg)
    assert code == 0
    stats = body["result"]["groups"][0]
    assert stats["cartan_min"] >= N - 2
    assert stats["iwasawa_min"] >= N - 2
    assert stats["iwahori_labels"] == 40
    assert body["result"]["failures"] == 0


def test_mild_element_keeps_small_spread():
    import random
    ctx = GroupContext(3, 5)
    rng = random.Random(1)
    for _ in range(30):
        g = mild_element(ctx, rng)
        assert g.min_val_floor() >= -3
        assert g.det().val_floor() <= 3


def test_dynamics_runner_records():
    cfg = parse_config({
        "kind": "dynamics",
        "group": {"family": "SL", "n": 2, "p": 3, "precision": 32},
        "element": {"exponents": [1, -1]},
        "chambers": 8,
        "seed": 4,
    })
    code, body = run(cfg)
    assert code == 0
    rows = body["result"]["records"]
    assert len(rows) == 8
    for row in rows:
        assert row["hypothesis"] is True
        assert row["status"] == "converged"
        assert row["monotone"] is True
        assert row["retraction_agreement"] >= N - 4
    assert body["result"]["wall_type"] == []


def test_dynamics_runner_rejects_elliptic():
    cfg = parse_config({
        "kind": "dynamics",
        "group": {"family": "SL", "n": 2, "p": 3, "precision": 32},
        "element": {"matrix": [[0, 1], [-1, 0]]},
        "chambers": 2,
    })
    with pytest.raises(ConfigError, match="elliptic"):
        run(cfg)


def test_transit_runner_absorbs():
    cfg = parse_config({
        "kind": "transit",
        "group": {"family": "SL", "n": 3, "p": 3, "precision": 32},
        "exponents": [1, 1, -2],
        "steps": 5,
        "targets": 6,
        "radius": 3,
        "seed": 11,
    })
    code, body = run(cfg)
    assert code == 0
    res = body["result"]
    assert res["all_absorbed"] is True
    assert len(res["targets"]) == 6
    for t in res["targets"]:
        assert t["cofinal"] is True


def test_chabauty_runner_full_report():
    code, body = run(parse_config(PRESETS["so2-sl2-q5"]))
    assert code == 0
    res = body["result"]
    assert res["status"] == "ok"
    assert len(res["recovered"]) == 10
    assert min(res["errors"]) >= N - 4
    assert res["verdicts"]["open-orbit"]["radius"] == 1
    assert res["verdicts"]["no-return"] == "consistent-with-(NRP)"
    assert all(v["status"] == "witness-found"
               for v in res["verdicts"]["transit-of-P"])
    dec = res["decomposition"]
    assert dec["residual_min"] >= N - 4
    assert all(dec["transitivity"])
    assert dec["semidirect"] is True


def test_main_usage_exit_codes(tmp_path):
    assert main(["dynamics", "--preset", "nope"]) == 2
    assert main(["transit", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["transit", "--config", str(bad)]) == 2
    assert main(["chabauty", "--preset", "sl2-q3-transit"]) == 2
    both = tmp_path / "cfg.json"
    both.write_text(json.dumps(PRESETS["sl2-q3-transit"]))
    assert main(["transit", "--config", str(both),
                 "--preset", "sl2-q3-transit"]) == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_unwritable_out_exits_2(tmp_path, capsys):
    """A report path that cannot be written is a usage error: exit 2 with
    one line naming the path, never a traceback."""
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "sub"):
        assert main(["coxeter", "--preset", "coxeter-oracle", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # refused before the experiment runs
        assert captured.err.count("\n") == 1 and str(out) in captured.err
    # a directory in the way of report.json shows only while writing
    blocked = tmp_path / "blocked"
    (blocked / "report.json").mkdir(parents=True)
    cfg = tmp_path / "cox.json"
    cfg.write_text(json.dumps({"kind": "coxeter-oracle", "types": ["A1"]}))
    assert main(["coxeter", "--config", str(cfg), "--out", str(blocked)]) == 2
    captured = capsys.readouterr()
    assert "exit 0" in captured.out
    assert captured.err.count("\n") == 1
    assert str(blocked / "report.json") in captured.err


def test_main_precision_exhausted_exit(tmp_path):
    cfg = tmp_path / "ram.json"
    cfg.write_text(json.dumps({
        "kind": "dynamics",
        "group": {"family": "SL", "n": 2, "p": 3, "precision": 32},
        "element": {"matrix": [[0, 1], [3, 0]]},
        "chambers": 2,
    }))
    # the squared element has eigenvalue valuations outside the value
    # lattice of the diagonal torus, which the slope finder must refuse
    assert main(["dynamics", "--config", str(cfg)]) == 3


def test_main_determinism_and_files(tmp_path, capsys):
    cfg = tmp_path / "cox.json"
    cfg.write_text(json.dumps(
        {"kind": "coxeter-oracle", "types": ["A2"], "seed": 2}))
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["coxeter", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["coxeter", "--config", str(cfg), "--out", str(out2)]) == 0
    capsys.readouterr()
    a = json.load(open(out1 / "report.json"))
    b = json.load(open(out2 / "report.json"))
    assert a["meta"]["determinism_hash"] == b["meta"]["determinism_hash"]
    ta = open(out1 / "report.json").read().replace(
        a["meta"]["timestamp"], "T")
    tb = open(out2 / "report.json").read().replace(
        b["meta"]["timestamp"], "T")
    assert ta == tb
    summary = open(out1 / "summary.txt").read()
    assert summary.startswith("experiment coxeter-oracle")
    assert "exit 0" in summary


def test_timestamp_is_iso_8601_utc():
    from datetime import datetime, timedelta, timezone
    _, body = run(parse_config({"kind": "coxeter-oracle", "types": ["A1"]}))
    stamp = datetime.fromisoformat(body["meta"]["timestamp"])
    assert stamp.utcoffset() == timedelta(0)
    assert abs(datetime.now(timezone.utc) - stamp) < timedelta(minutes=5)


def test_main_overrides_and_records(tmp_path, capsys):
    cfg = tmp_path / "dyn.json"
    cfg.write_text(json.dumps({
        "kind": "dynamics",
        "group": {"family": "SL", "n": 2, "p": 3, "precision": 32},
        "element": {"exponents": [1, -1]},
        "chambers": 5,
        "seed": 1,
    }))
    out = tmp_path / "r"
    rc = main(["dynamics", "--config", str(cfg), "--seed", "7",
               "--precision", "28", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    body = json.load(open(out / "report.json"))
    assert body["config"]["seed"] == 7
    assert body["config"]["group"]["precision"] == 28
    lines = open(out / "records.jsonl").read().splitlines()
    assert len(lines) == 5
    assert all(json.loads(line)["status"] == "converged" for line in lines)


def test_report_hash_tracks_seed(tmp_path):
    base = {"kind": "coxeter-oracle", "types": ["A2"]}
    _, b1 = run(parse_config(dict(base, seed=1)))
    _, b2 = run(parse_config(dict(base, seed=2)))
    assert b1["meta"]["determinism_hash"] != b2["meta"]["determinism_hash"]
    _, b3 = run(parse_config(dict(base, seed=1)))
    assert b1["meta"]["determinism_hash"] == b3["meta"]["determinism_hash"]


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_hash_matches_reference(preset):
    code, body = run(parse_config(PRESETS[preset]))
    assert code == 0
    _assert_outcome_is_tallied(code, body)
    digest = body["meta"]["determinism_hash"]
    assert digest.startswith(REFERENCE_HASHES[preset])
    # the standard SHA-256 of the report's sorted-key JSON, whatever
    # implementation the program hashed it with
    assert digest == hashlib.sha256(json.dumps(
        {"config": body["config"], "result": body["result"]},
        sort_keys=True).encode()).hexdigest()


def _assert_outcome_is_tallied(code, body):
    """The report's outcome counts records as the benchmark does."""
    outcome = body["meta"]["outcome"]
    tally = TALLY(body["config"]["kind"], code, body["result"])
    assert (outcome["attempted"], outcome["refuted"]) == tally[:2]


def test_dynamics_outcome_at_offset_502():
    # a start chamber in a smaller Schubert cell: the orbit converges, but
    # record 26 runs out of digits first and reads as a refutation
    preset = PRESETS["sl3-q3-dynamics"]
    code, body = run(parse_config(dict(preset, seed=preset["seed"] + 502)))
    assert code == 1
    assert body["meta"]["outcome"] == {
        "attempted": 50, "refuted": 1,
        "reason": "index=26 status=no-convergence"}
    _assert_outcome_is_tallied(code, body)


def _with(preset, **fields):
    """A preset with some of its object fields updated."""
    data = dict(PRESETS[preset])
    for key, value in fields.items():
        data[key] = dict(data[key], **value) if type(value) is dict else value
    return data


def _spoil_transitivity(monkeypatch):
    """Make the chabauty limit table report one orbit as not transitive."""
    from buildinglab import cli

    real = cli.ch.decompose_limit

    def decompose_limit(limits, cert):
        table = real(limits, cert)
        return table._replace(transitivity=(False,) + table.transitivity[1:])

    monkeypatch.setattr(cli.ch, "decompose_limit", decompose_limit)


@pytest.mark.parametrize("data,spoil,reason", [
    # too few steps to absorb any target at a deep radius
    (_with("sl3-q3-transit", group={"precision": 51}, steps=2, radius=34),
     None, "target=0"),
    # too short a sequence to harvest a parameter
    (_with("so2-sl2-q5", sequence={"count": 3}),
     None, "status=inconclusive recovered=0"),
    # a harvest that passes, over a limit table that does not
    (PRESETS["so2-sl2-q5"], _spoil_transitivity, "decomposition"),
], ids=["transit", "chabauty", "chabauty-table"])
def test_runner_names_its_first_refutation(monkeypatch, data, spoil, reason):
    if spoil is not None:
        spoil(monkeypatch)
    code, body = run(parse_config(data))
    assert code == 1
    assert body["meta"]["outcome"]["reason"] == reason
    _assert_outcome_is_tallied(code, body)


_SHA256_SOURCE = r"""
import sys, types
import {builtin} as real
source = {source!r}
order = ["_sha2", "_sha256", "hashlib"]
for name in order[:order.index(source)]:
    sys.modules[name] = None  # an interpreter built without it
if source != "hashlib" and source != real.__name__:  # a distinct callable
    sys.modules[source] = types.SimpleNamespace(
        sha256=lambda data: real.sha256(data))
from buildinglab import cli
taken = sys.modules[source].sha256
_, body = cli.run(cli.parse_config(cli.PRESETS["sl2-q3-transit"]))
print(cli.sha256 is taken, body["meta"]["determinism_hash"])
"""


@pytest.mark.parametrize("source", ["_sha2", "_sha256", "hashlib"])
def test_each_sha256_source_gives_the_reference_hash(source):
    # cli takes sha256 from _sha2 (Python 3.12+), else _sha256 (3.10 and
    # 3.11), else hashlib; a fresh interpreter blocks the modules before
    # `source` and lends this Python's built-in SHA-256, wrapped, to a
    # built-in name it lacks, so every branch runs on every Python
    builtin = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
    code = _SHA256_SOURCE.format(builtin=builtin, source=source)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         check=True, capture_output=True, text=True).stdout
    taken, digest = out.split()
    assert taken == "True"
    assert digest.startswith(REFERENCE_HASHES["sl2-q3-transit"])


@pytest.mark.parametrize("precision", [4, 6])
@pytest.mark.parametrize("command,preset", [
    ("transit", "sl2-q3-transit"),
    ("transit", "sl3-q3-transit"),
    ("chabauty", "so2-sl2-q5"),
])
def test_family_presets_at_low_precision(capsys, command, preset, precision):
    # the shared-axis test compares endpoints to a quarter of the
    # working precision, so a short window still certifies a family
    assert main([command, "--preset", preset,
                 "--precision", str(precision)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("field,value", [
    ("p", 1), ("p", 0), ("p", -3), ("p", 6), ("p", 9), ("p", 2**32 + 15),
    ("n", 1), ("n", 5), ("precision", 0), ("precision", -2),
])
def test_group_is_validated(field, value):
    # parse_config only: with p = 1 the arithmetic would never return
    data = dict(PRESETS["sl2-q3-transit"])
    data["group"] = dict(data["group"], **{field: value})
    with pytest.raises(ConfigError, match=r"'group\.%s'" % field):
        parse_config(data)


@pytest.mark.parametrize("preset,group,argv", [
    ("sl2-q3-transit", {}, ["--precision", "0"]),
    ("sl2-q3-transit", {"p": 6}, []),
    ("sl2-q3-transit", {"n": 5}, []),
    ("sl2-q3-transit", {"precision": 0}, []),
    # one override per entry of `groups`: only the non-empty one is spoilt
    ("decompositions", [{"p": 6}, {}], []),
    ("decompositions", [{}, {"precision": 0}], []),
])
def test_invalid_group_exits_2(tmp_path, capsys, preset, group, argv):
    data = dict(PRESETS[preset])
    if "group" in data:
        data["group"] = dict(data["group"], **group)
        field = "group"
    else:
        data["groups"] = [dict(g, **o) for g, o in zip(data["groups"], group)]
        field = "groups[%d]" % next(i for i, o in enumerate(group) if o)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    command = SUBCOMMAND_OF_KIND[data["kind"]]
    assert main([command, "--config", str(path)] + argv) == 2
    assert "config field '%s." % field in capsys.readouterr().err


@pytest.mark.parametrize("precision,code", [(16, 0), (0, 2)])
def test_decomp_precision_applies_to_every_group(tmp_path, capsys,
                                                 precision, code):
    out = tmp_path / "r"
    assert main(["decomp", "--preset", "decompositions", "--precision",
                 str(precision), "--out", str(out)]) == code
    if code == 0:
        body = json.load(open(out / "report.json"))
        assert [g["precision"] for g in body["config"]["groups"]] == [16, 16]
        assert [g["precision"] for g in body["result"]["groups"]] == [16, 16]
    else:
        assert "config field 'groups[0].precision'" in capsys.readouterr().err


@pytest.mark.parametrize("precision,code", [(1, 3), (2, 3), (3, 0)])
@pytest.mark.parametrize("preset", ["sl2-q3-transit", "sl3-q3-transit"])
def test_transit_radius_beyond_precision_exits_3(capsys, preset,
                                                 precision, code):
    # radius 3 cannot be certified with fewer than 3 tracked digits
    assert main(["transit", "--preset", preset,
                 "--precision", str(precision)]) == code
    err = capsys.readouterr().err
    assert ("exceeds working precision" in err) == (code == 3)


@pytest.mark.parametrize("preset,field", [
    ("decompositions", "count"),
    ("sl2-q3-dynamics", "chambers"),
    ("sl2-q3-dynamics", "max_n"),
    ("sl2-q3-dynamics", "gate_target"),
    ("sl2-q3-transit", "steps"),
    ("sl2-q3-transit", "targets"),
    ("sl2-q3-transit", "radius"),
])
@pytest.mark.parametrize("value", ["ten", 2.5, True, None])
def test_integer_params_exit_2(tmp_path, capsys, preset, field, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(PRESETS[preset], **{field: value})))
    command = SUBCOMMAND_OF_KIND[PRESETS[preset]["kind"]]
    assert main([command, "--config", str(path)]) == 2
    assert "config field '%s'" % field in capsys.readouterr().err


def _preset_with(preset, **changes):
    """A copy of a preset; a key "a.b" sets field b of the object a."""
    data = json.loads(json.dumps(PRESETS[preset]))
    for key, value in changes.items():
        head, _, field = key.partition(".")
        if field:
            data[head] = dict(data.get(head, {}), **{field: value})
        else:
            data[head] = value
    return data


DYN = "sl2-q3-dynamics"
TRANSIT = "sl2-q3-transit"
SO2 = "so2-sl2-q5"


@pytest.mark.parametrize("path,data", [
    ("element.units", _preset_with(DYN, element={"exponents": [1, -1],
                                                 "units": [1]})),
    ("element.units", _preset_with(DYN, element={"exponents": [1, -1],
                                                 "units": "ab"})),
    ("element.units", _preset_with(DYN, element={"exponents": [1, -1],
                                                 "units": [0, 1]})),
    ("element.units", _preset_with(DYN, element={"exponents": [1, -1],
                                                 "units": [3, 1]})),
    ("element.matrix", _preset_with(DYN, element={"matrix": [["a", 0],
                                                             [0, 1]]})),
    ("element.matrix", _preset_with(DYN, element={"matrix": [1, 2]})),
    ("element.exponents", _preset_with(DYN, element={"exponents": [True, -1]})),
    ("element.exponents", _preset_with(DYN, element={"exponents": [1, 1]})),
    ("element.exponents", _preset_with(DYN, element={"exponents": [0, 0]})),
    ("element", _preset_with(DYN, element={"exponents": [1, -1],
                                           "matrix": [[3, 0], [0, 1]]})),
    # hyperbolic but not diagonal: classify finds no eigenframe for it
    ("element", _preset_with(DYN, element={"matrix": [[1, 1], [0, 9]]})),
    ("exponents", _preset_with(TRANSIT, exponents=[2, -1])),
    ("exponents", _preset_with(TRANSIT, exponents=[True, -1])),
    *[("sequence.exponents", _preset_with(SO2, **{"sequence.exponents": e}))
      for e in ([1, 1], [1, -1], [2, -2])],
    ("group", _preset_with(SO2, **{"group.n": 3,
                                   "sequence.exponents": [-1, 0, 1]})),
    ("group", _preset_with(SO2, **{"group.p": 2})),
    ("sequence", _preset_with(SO2, sequence=[])),
    ("budget", _preset_with(SO2, budget=5)),
    ("sequence.count", _preset_with(SO2, **{"sequence.count": 0})),
    ("sequence.count", _preset_with(SO2, **{"sequence.count": "3"})),
    ("budget.tail", _preset_with(SO2, **{"budget.tail": "x"})),
    ("budget.tail", _preset_with(SO2, **{"budget.tail": 0})),
    ("steps", _preset_with(TRANSIT, steps=0)),
    ("steps", _preset_with(TRANSIT, steps=-1)),
    ("targets", _preset_with(TRANSIT, targets=0)),
    ("targets", _preset_with(TRANSIT, targets=-2)),
    ("radius", _preset_with(TRANSIT, radius=0)),
    ("chambers", _preset_with(DYN, chambers=0)),
    ("chambers", _preset_with(DYN, chambers=-1)),
    ("max_n", _preset_with(DYN, max_n=0)),
    ("gate_target", _preset_with(DYN, gate_target=0)),
    ("count", _preset_with("decompositions", count=0)),
    ("count", _preset_with("decompositions", count=-1)),
    ("groups", _preset_with("decompositions", groups=5)),
    ("chamber", _preset_with(DYN, chamber=5)),
    ("sequence.type", _preset_with(SO2, **{"sequence.type": "other"})),
    ("subgroup.theta", _preset_with(SO2, **{"subgroup.theta": "other"})),
    ("group", {"kind": "coxeter-oracle", "types": ["A2"],
               "group": {"n": 2, "p": 3}}),
    # a zero determinant is exact: no precision is involved
    *[("element.matrix", _preset_with(DYN, element={"matrix": m}))
      for m in ([[0, 0], [0, 0]], [[1, 0], [0, 0]], [[0, 0], [0, 1]],
                [[1, 2], [2, 4]])],
    # a repeated type would run its oracles twice for one report entry
    ("types", {"kind": "coxeter-oracle", "types": ["A3", "A3"]}),
])
def test_malformed_config_exits_2(tmp_path, capsys, path, data):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    assert main([SUBCOMMAND_OF_KIND[data["kind"]], "--config", str(cfg)]) == 2
    assert "config field '%s'" % path in capsys.readouterr().err


def test_chabauty_takes_square_roots_beyond_p_20011(tmp_path, capsys):
    # the schema accepts any prime below 2**32, and rotations need roots mod p
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_preset_with(SO2, **{"group.p": 20021})))
    assert main(["chabauty", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""


def test_chabauty_reports_units_beyond_the_int_to_str_limit(tmp_path, capsys):
    # at p = 4294967291 and precision 460 a unit has more than 4,300
    # digits; the run writes its report and exits by its outcome
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(_preset_with(SO2, **{"group.p": 4294967291,
                                                   "group.precision": 460})))
    assert main(["chabauty", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    outcome = json.loads((out / "report.json").read_text())["meta"]["outcome"]
    assert outcome["reason"] == "status=inconclusive recovered=0"


@pytest.mark.parametrize("changes,argv,code", [
    ({"gate_target": 0}, [], 2),
    ({"gate_target": -5}, [], 2),
    ({"gate_target": 33}, [], 3),
    ({"gate_target": 40}, [], 3),
    ({}, ["--precision", "3"], 3),
    ({}, ["--precision", "4"], 3),
    ({}, ["--precision", "5"], 0),
])
def test_gate_target_must_be_certifiable(tmp_path, capsys, changes, argv, code):
    # a target below one digit certifies nothing, and one above the
    # working precision cannot be reached; the default is precision - 4
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_preset_with(DYN, chambers=4, **changes)))
    assert main(["dynamics", "--config", str(cfg)] + argv) == code
    err = capsys.readouterr().err
    assert ("config field 'gate_target'" in err) == (code == 2)
    assert ("precision exhausted: gate target" in err) == (code == 3)


# values of the wrong type or nesting, for any field
_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.floats(-3, 3),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.sampled_from(["n", "x"]), st.integers(-2, 2),
                    max_size=2))


def _rarely(draw):
    return draw(st.sampled_from(range(16))) == 9


@st.composite
def _mostly(draw, valid, other):
    return draw(other if _rarely(draw) else valid)


def _count(hi):
    # capped so that a run takes well under a second
    return _mostly(st.integers(1, hi), st.integers(-1, 0))


@st.composite
def _fields(draw, fields):
    """An object drawn field by field; now and then a field is left out or
    of the wrong type, and an unknown field is added."""
    out = {}
    for key, valid in fields.items():
        if not _rarely(draw):
            out[key] = draw(_mostly(valid, _JUNK))
    if _rarely(draw):
        out["extra"] = 1
    return out


def _exponents(n):
    head = st.tuples(st.integers(1, 3), st.lists(
        st.integers(-3, 3), min_size=n - 2, max_size=n - 2))
    return _mostly(head.map(lambda h: [h[0]] + h[1] + [-h[0] - sum(h[1])]),
                   st.lists(st.integers(-3, 3), max_size=5))


@st.composite
def _configs(draw):
    kind = draw(st.sampled_from(KINDS))
    # the rotation subgroup of chabauty lives in SL2
    n = draw(_mostly(st.just(2), st.integers(2, 4)) if kind == "chabauty"
             else st.integers(2, 4))
    group = _fields({"family": st.just("SL"), "n": st.just(n),
                     "p": st.sampled_from([3, 5, 7, 2]),
                     "precision": st.integers(1, 64)})
    counts = {"count": _count(3), "chambers": _count(3), "max_n": _count(8),
              "steps": _count(3), "targets": _count(3)}
    ints = st.integers(-9, 9)
    fields = {
        "coxeter-oracle": lambda: {"types": st.lists(
            st.sampled_from(["A2", "B2", "G2", "Z9"]), min_size=1, max_size=2)},
        "decompositions": lambda: {
            "groups": st.lists(group, min_size=1, max_size=2)},
        "dynamics": lambda: {
            "group": group,
            "element": st.one_of(
                _fields({"exponents": _exponents(n), "units": st.lists(
                    st.sampled_from([1, -1, 2, 4, 3, 0]), min_size=n,
                    max_size=n)}),
                _fields({"matrix": st.lists(
                    st.lists(ints, min_size=n, max_size=n),
                    min_size=n, max_size=n)})),
            "gate_target": _mostly(st.integers(1, 8), st.integers(-2, 70))},
        "transit": lambda: {
            "group": group, "exponents": _exponents(n),
            "radius": _mostly(st.integers(1, 3), st.integers(-1, 70))},
        "chabauty": lambda: {
            "group": group,
            "subgroup": _fields({"kind": st.just("involution"),
                                 "theta": st.just("transpose-inverse")}),
            "sequence": _fields({
                "type": st.just("diagonal-powers"),
                "exponents": _mostly(st.integers(1, 3).map(lambda a: [-a, a]),
                                     _exponents(n)),
                "count": _count(3)}),
            "budget": _fields({"tail": _count(3)})},
    }[kind]()
    data = draw(_fields(dict(fields, kind=st.just(kind),
                             seed=st.integers(0, 9))))
    # a count left out would run at its default, which is not capped
    for key in counts:
        if key in _SCHEMA[kind] and key not in data:
            data[key] = draw(counts[key])
    if type(data.get("sequence")) is dict:
        data["sequence"].setdefault("count", 3)
    if type(data.get("budget")) is dict:
        data["budget"].setdefault("tail", 3)
    argv = [SUBCOMMAND_OF_KIND[kind]]
    if draw(st.booleans()):
        argv += ["--precision", str(draw(st.integers(1, 64)))]
    return data, argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_configs())
def test_main_exit_code_contract_holds_for_any_config(case):
    data, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv + ["--config", path])
    assert type(code) is int and 0 <= code <= 3


def _schema_paths(fields, where=""):
    """Every field path of a table; list entries, which are all groups,
    are named as README's `group` table names them."""
    for key, spec in fields.items():
        yield where + key
        yield from _schema_paths(spec.fields or {}, where + key + ".")
        yield from _schema_paths({"group": spec.entry} if spec.entry else {},
                                 where)


def test_readme_names_every_config_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Config fields", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`([\w.]+)`", section))
    for kind, fields in _SCHEMA.items():
        assert "### `%s`" % kind in section
        missing = set(_schema_paths(dict(_ROOT, **fields))) - named
        assert not missing, (kind, missing)
