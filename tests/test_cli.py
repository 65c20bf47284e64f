"""Config plumbing, runners, exit codes, and report determinism."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

from buildinglab.cli import (
    KIND_OF_SUBCOMMAND,
    ConfigError,
    PRESETS,
    emit_config,
    main,
    mild_element,
    normalize_config,
    parse_config,
    run,
)
from buildinglab.building import GroupContext

N = 32


def _reference_hashes():
    # the benchmark's table is the single source of the reference hashes
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spec.py"
    spec = importlib.util.spec_from_file_location("perfbench_spec", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.REFERENCE_HASHES


REFERENCE_HASHES = _reference_hashes()

SUBCOMMAND_OF_KIND = {kind: cmd for cmd, kind in KIND_OF_SUBCOMMAND.items()}


def test_config_roundtrip_idempotent():
    messy = {
        "seed": 9,
        "kind": "dynamics",
        "group": {"p": 3, "n": 2},
        "chambers": 4,
        "element": {"exponents": [1, -1]},
    }
    once = normalize_config(messy)
    assert once == normalize_config(once)
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
        cfg = parse_config(data)
        assert emit_config(cfg) == normalize_config(data), name
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
    assert body["meta"]["determinism_hash"].startswith(
        REFERENCE_HASHES[preset])


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
    ("decompositions", {"p": 6}, []),
])
def test_invalid_group_exits_2(tmp_path, capsys, preset, group, argv):
    data = dict(PRESETS[preset])
    if "group" in data:
        data["group"] = dict(data["group"], **group)
    else:
        data["groups"] = [dict(data["groups"][0], **group)]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    command = SUBCOMMAND_OF_KIND[data["kind"]]
    assert main([command, "--config", str(path)] + argv) == 2
    assert "config field 'group." in capsys.readouterr().err


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
        assert "config field 'group.precision'" in capsys.readouterr().err


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
