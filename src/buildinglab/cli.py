"""Batch experiment runner.

One subcommand per experiment kind, each driven by a JSON config (or a
shipped preset), seeded for determinism, and emitting a JSON report plus
a short human summary.  The report is byte-stable for a fixed seed and
config: a determinism hash covers everything except the timestamp.

Exit codes: 0 all checks passed, 1 an experiment invariant failed,
2 usage or config error, 3 working precision was exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import (Any, Callable, Dict, List, NoReturn, Optional, Sequence,
                    Tuple)

# hashlib maps OpenSSL's libcrypto, about 3.5 MB of memory, to hash a few
# KB per report; CPython's built-in SHA-256 gives the same FIPS 180-4
# digests.  random.py takes the same lean path.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256  # builds without the built-in hashes

from .padic import INF, PrecisionExhausted
from . import _Record, coxeter, oracles
from .building import (
    AffineWeylCoset,
    GroupContext,
    Mat,
    _GROUP_RULES,
    _diff_floor,
    _int_det,
    _residual_floor,
    bruhat_cell,
    cartan_decomposition,
    iwahori_coset,
    iwasawa_decomposition,
    mat_agreement,
    unipotent_radical_element,
)
from . import dynamics as dyn
from . import chabauty as ch


class ConfigError(ValueError):
    """Malformed experiment config; the message names the offending field."""


# ---------------------------------------------------------------------------
# config schema: one field table per kind, checked once by parse_config

_REQUIRED = object()


class _Field(_Record):
    """A config field: a value of exactly `type` (a bool is no integer) that
    passes each (expectation, test(value, group)) rule.  A callable default
    is a function of the group.  `fields` is an object's own table; each
    list entry is checked as an `entry` field named `<list>[<index>]`,
    whose rules see the entry itself as the group (entries are groups)."""
    type: type
    default: Any = _REQUIRED
    rules: Tuple[Tuple[str, Callable[[Any, Any], Any]], ...] = ()
    fields: Optional[Dict[str, "_Field"]] = None
    entry: Optional["_Field"] = None


def _ints(v: Any, n: int) -> bool:
    return type(v) is list and len(v) == n and all(type(x) is int for x in v)


def _only(value: str) -> _Field:
    return _Field(str, value, (("only %r is supported" % value,
                                lambda v, g: v == value),))


_TYPE_NAMES = {int: "integer", str: "string", list: "list", dict: "object"}
_AT_LEAST_1 = (("expected at least 1", lambda v, g: v >= 1),)
# the SL condition, and a translation that moves the boundary
_EXPONENTS = (("expected n integers that sum to 0, not all zero",
               lambda v, g: _ints(v, g["n"]) and sum(v) == 0 and any(v)),)
_GROUP = _Field(dict, fields=dict(family=_only("SL"), **{
    key: _Field(int, 32 if key == "precision" else _REQUIRED,
                (("expected " + what, ok),))
    for key, (what, ok) in _GROUP_RULES.items()}))
_ROOT = {"kind": _Field(str), "seed": _Field(int, 0), "out": _Field(str, None)}

_SCHEMA: Dict[str, Dict[str, _Field]] = {
    "coxeter-oracle": {
        "types": _Field(list, ["A2", "B2"], ((
            "expected a non-empty list of distinct names from "
            + ", ".join(coxeter.CARTAN),
            lambda v, g: v and all(type(x) is str and x in coxeter.CARTAN
                                   for x in v) and len(set(v)) == len(v)),)),
    },
    "decompositions": {
        "groups": _Field(list, rules=(("expected a non-empty list",
                                       lambda v, g: v),),
                         entry=_GROUP),
        "count": _Field(int, 100, _AT_LEAST_1),
    },
    "dynamics": {
        "group": _GROUP,
        "element": _Field(dict, rules=((
            "expected 'exponents' (with optional 'units') or 'matrix'",
            lambda v, g: ("exponents" in v) != ("matrix" in v)
            and ("units" not in v or "exponents" in v)),), fields={
                "exponents": _Field(list, None, _EXPONENTS),
                "units": _Field(list, None, ((
                    "expected n integers prime to p",
                    lambda v, g: _ints(v, g["n"])
                    and all(u % g["p"] for u in v)),)),
                "matrix": _Field(list, None, ((
                    "expected n rows of n integers with nonzero determinant",
                    lambda v, g: len(v) == g["n"]
                    and all(_ints(r, g["n"]) for r in v) and _int_det(v)),)),
            }),
        "chambers": _Field(int, 20, _AT_LEAST_1),
        "max_n": _Field(int, 64, _AT_LEAST_1),
        "gate_target": _Field(int, lambda g: g["precision"] - 4, _AT_LEAST_1),
    },
    "transit": {
        "group": _GROUP,
        "exponents": _Field(list, rules=_EXPONENTS),
        "steps": _Field(int, 8, _AT_LEAST_1),
        "targets": _Field(int, 20, _AT_LEAST_1),
        "radius": _Field(int, 3, _AT_LEAST_1),
    },
    "chabauty": {
        # the rotation subgroup is rank one, and its parameters need
        # square roots, which padic takes for odd p only
        "group": _GROUP._replace(rules=((
            "expected n = 2 and an odd p",
            lambda v, g: v["n"] == 2 and v["p"] != 2),)),
        "subgroup": _Field(dict, {}, fields={
            "kind": _only("involution"), "theta": _only("transpose-inverse")}),
        "sequence": _Field(dict, {}, fields={
            "type": _only("diagonal-powers"),
            # diag(p^-a, p^a): the family the aimed selector implements
            "exponents": _Field(list, [-1, 1], ((
                "expected [-a, a] with a >= 1",
                lambda v, g: _ints(v, 2) and -v[0] == v[1] >= 1),)),
            "count": _Field(int, 12, _AT_LEAST_1),
        }),
        "budget": _Field(dict, {},
                         fields={"tail": _Field(int, 6, _AT_LEAST_1)}),
    },
}

KINDS = tuple(_SCHEMA)


class ExperimentConfig(_Record):
    kind: str
    group: Optional[Dict[str, int]]
    seed: int
    params: Dict[str, Any]
    out: Optional[str] = None


def _fail(path: str, rule: str, value: Any) -> NoReturn:
    raise ConfigError("config field '%s': %s, got %r" % (path, rule, value))


def _with_defaults(data: Dict[str, Any], fields: Dict[str, _Field]):
    return {key: data.get(key, spec.default) for key, spec in fields.items()}


def _check_fields(data: Dict[str, Any], fields: Dict[str, _Field], where: str,
                  kind: str, group=None) -> None:
    """Check an object against a field table; rules see `group`, which the
    table checks before any field whose rules read it."""
    for key in data:
        if key not in fields:
            _fail(where + key, "unknown; expected one of " + ", ".join(fields),
                  data[key])
    for key, spec in fields.items():
        path = where + key
        if key in data:
            _check_field(data[key], spec, path, kind, group)
        elif spec.default is _REQUIRED:
            raise ConfigError("config field '%s' is required for kind %r"
                              % (path, kind))


def _check_field(value: Any, spec: _Field, path: str, kind: str,
                 group=None) -> None:
    if type(value) is not spec.type:
        _fail(path, "expected " + _TYPE_NAMES[spec.type], value)
    if spec.fields is not None:
        _check_fields(value, spec.fields, path + ".", kind, group)
    for i, item in enumerate(value) if spec.entry is not None else ():
        _check_field(item, spec.entry, "%s[%d]" % (path, i), kind, item)
    for rule, test in spec.rules:
        if not test(value, group):
            _fail(path, rule, value)


def parse_config(data: Any) -> ExperimentConfig:
    """Check a config against its kind's field table, once.

    The parsed config keeps its parameters exactly as given; runners read
    them through `_param`, which falls back to the table defaults.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    if "kind" not in data:
        raise ConfigError("config field 'kind' is required")
    kind = data["kind"]
    if kind not in KINDS:
        raise ConfigError("config field 'kind' must be one of %s, got %r"
                          % (", ".join(KINDS), kind))
    group = data.get("group")
    _check_fields(data, dict(_ROOT, **_SCHEMA[kind]), "", kind, group)
    if group is not None:
        group = _with_defaults(group, _GROUP.fields)
    params = {k: v for k, v in data.items() if k not in _ROOT and k != "group"}
    seed = data.get("seed", _ROOT["seed"].default)
    return ExperimentConfig(kind, group, seed, params, data.get("out"))


def _param(cfg: ExperimentConfig, path: str) -> Any:
    """A config field as given, or its table default."""
    value, fields = cfg.params, _SCHEMA[cfg.kind]
    for key in path.split("."):
        spec = fields[key]
        value, fields = value.get(key, spec.default), spec.fields
    return value(cfg.group) if callable(value) else value


def emit_config(cfg: ExperimentConfig) -> Dict[str, Any]:
    """Canonical JSON form: fixed key set, params folded to the top level."""
    data: Dict[str, Any] = {"kind": cfg.kind, "seed": cfg.seed}
    if cfg.group is not None:
        data["group"] = {k: cfg.group[k]
                         for k in ("family", "n", "p", "precision")}
    if cfg.out is not None:
        data["out"] = cfg.out
    for key in sorted(cfg.params):
        data[key] = cfg.params[key]
    return data


PRESETS: Dict[str, Dict[str, Any]] = {
    "coxeter-oracle": {
        "kind": "coxeter-oracle",
        "types": ["A2", "A3", "B2", "G2"],
        "seed": 0,
    },
    "decompositions": {
        "kind": "decompositions",
        "groups": [
            {"family": "SL", "n": 2, "p": 3, "precision": 32},
            {"family": "SL", "n": 3, "p": 5, "precision": 32},
        ],
        "count": 1000,
        "seed": 10007,
    },
    "sl2-q3-dynamics": {
        "kind": "dynamics",
        "group": {"family": "SL", "n": 2, "p": 3, "precision": 32},
        "element": {"exponents": [1, -1]},
        "chambers": 50,
        "max_n": 64,
        "seed": 20011,
    },
    "sl3-q3-dynamics": {
        "kind": "dynamics",
        "group": {"family": "SL", "n": 3, "p": 3, "precision": 32},
        "element": {"exponents": [1, 0, -1]},
        "chambers": 50,
        "max_n": 64,
        "seed": 20011,
    },
    "sl3-q3-wall-dynamics": {
        "kind": "dynamics",
        "group": {"family": "SL", "n": 3, "p": 3, "precision": 32},
        "element": {"exponents": [1, 1, -2]},
        "chambers": 50,
        "max_n": 64,
        "seed": 20011,
    },
    "sl2-q3-transit": {
        "kind": "transit",
        "group": {"family": "SL", "n": 2, "p": 3, "precision": 32},
        "exponents": [1, -1],
        "steps": 8,
        "targets": 20,
        "radius": 3,
        "seed": 30013,
    },
    "sl3-q3-transit": {
        "kind": "transit",
        "group": {"family": "SL", "n": 3, "p": 3, "precision": 32},
        "exponents": [1, 1, -2],
        "steps": 6,
        "targets": 20,
        "radius": 3,
        "seed": 30013,
    },
    "so2-sl2-q5": {
        "kind": "chabauty",
        "group": {"family": "SL", "n": 2, "p": 5, "precision": 32},
        "subgroup": {"kind": "involution", "theta": "transpose-inverse"},
        "sequence": {"type": "diagonal-powers", "exponents": [-1, 1],
                     "count": 12},
        "budget": {"tail": 6},
        "seed": 65537,
    },
}

DEFAULT_PRESET = {
    "coxeter": "coxeter-oracle",
    "decomp": "decompositions",
    "dynamics": "sl3-q3-wall-dynamics",
    "transit": "sl2-q3-transit",
    "chabauty": "so2-sl2-q5",
}

KIND_OF_SUBCOMMAND = {cmd: PRESETS[name]["kind"]
                      for cmd, name in DEFAULT_PRESET.items()}


# ---------------------------------------------------------------------------
# runners


def _context(group: Dict[str, Any]) -> GroupContext:
    g = _with_defaults(group, _GROUP.fields)
    return GroupContext(g["n"], g["p"], precision=g["precision"])


def _outcome(attempted: int, refuted: int, reason: Optional[str]):
    """A report's verdict: the records it attempted, how many of them
    were refuted and, if any was, the first refutation."""
    return {"attempted": attempted, "refuted": refuted,
            "reason": reason if refuted else None}


def _run_coxeter(cfg: ExperimentConfig, rng: random.Random):
    out: Dict[str, Any] = {"types": {}}
    failures: List[str] = []
    for name in _param(cfg, "types"):
        system = coxeter.get_system(name)
        checks, failed = oracles.check_system(system)
        out["types"][name] = {"order": system.order(), "checks": checks}
        failures += failed
    out["failures"] = failures
    attempted = sum(sum(t["checks"].values()) for t in out["types"].values())
    return out, _outcome(attempted, len(failures),
                         "failures=%d" % len(failures))


def mild_element(ctx: GroupContext, rng: random.Random) -> Mat:
    """Random element with valuation spread at most one per diagonal slot.

    Keeping the spread small makes a fixed digit-loss tolerance
    meaningful: recomposition error then measures the algorithm, not the
    conditioning of the input.  Wilder inputs lose digits to genuine
    cancellation and are exercised with proportional slack elsewhere.
    """
    k1 = ctx.random_gl_zp(rng)
    k2 = ctx.random_gl_zp(rng)
    exps = [rng.randrange(-1, 2) for _ in range(ctx.n)]
    return k1 * ctx.diag(exps) * k2


def _run_decompositions(cfg: ExperimentConfig, rng: random.Random):
    count = _param(cfg, "count")
    report = {"groups": [], "count": count}
    failures = 0
    for desc in _param(cfg, "groups"):
        ctx = _context(desc)
        floor = ctx.precision - 2
        stats = {"n": ctx.n, "p": ctx.p, "precision": ctx.precision,
                 "cartan_min": INF, "iwasawa_min": INF, "bruhat_min": INF,
                 "iwahori_labels": 0}
        for _ in range(count):
            g = mild_element(ctx, rng)
            base = g.min_val_floor()
            k1, exps, k2 = cartan_decomposition(g)
            r = _residual_floor(k1 * ctx.diag(exps), k2, g)[0] - base
            stats["cartan_min"] = min(stats["cartan_min"], r)
            u, t, k = iwasawa_decomposition(g)
            r2 = _residual_floor(u * t, k, g)[0] - base
            stats["iwasawa_min"] = min(stats["iwasawa_min"], r2)
            if r < floor or r2 < floor:
                failures += 1
            # the Bruhat split is elimination-based, so cancellation can
            # eat into its residual; it is gated on soundness (the product
            # never contradicts a claimed digit) with the floor recorded
            uu, m, b = bruhat_cell(g)
            residual, contradicts = _diff_floor(uu * m * b, g)
            if contradicts:
                failures += 1
            stats["bruhat_min"] = min(stats["bruhat_min"], residual - base)
            # synthesized Iwahori sandwich must recover its label exactly
            sigma = list(range(ctx.n))
            rng.shuffle(sigma)
            le = tuple(rng.randrange(-3, 4) for _ in range(ctx.n))
            mono = ctx.monomial(sigma, le)
            gg = ctx.random_iwahori(rng) * mono * ctx.random_iwahori(rng)
            if iwahori_coset(gg) == AffineWeylCoset(tuple(sigma), le):
                stats["iwahori_labels"] += 1
            else:
                failures += 1
        for key in ("cartan_min", "iwasawa_min", "bruhat_min"):
            stats[key] = _json_val(stats[key])
        report["groups"].append(stats)
    report["failures"] = failures
    return report, _outcome(count * len(report["groups"]), failures,
                            "failures=%d" % failures)


def _run_dynamics(cfg: ExperimentConfig, rng: random.Random):
    ctx = _context(cfg.group)
    element = _param(cfg, "element")
    if "matrix" in element:
        gamma = ctx.mat(element["matrix"])
    else:
        gamma = ctx.diag(element["exponents"], element.get("units"))
    chambers = _param(cfg, "chambers")
    max_n = _param(cfg, "max_n")
    r_target = _param(cfg, "gate_target")
    if not 1 <= r_target <= ctx.precision:
        # agreement is certified only within the tracked digits, and a
        # target below one digit certifies nothing
        raise PrecisionExhausted("gate target %d is outside the working "
                                 "precision 1..%d" % (r_target, ctx.precision))
    cert = dyn.classify(gamma, rng=rng)
    # the hypothesis check works in an eigenframe, which classify finds
    # for diagonal elements only
    if cert is None or cert.frame is None:
        _fail("element", "expected a diagonal hyperbolic element",
              "elliptic" if cert is None else "not diagonal")
    report = {
        "element": _mat_json(gamma),
        "exponents": list(cert.exps),
        "wall_type": sorted(cert.wall_type),
        "translation_length": cert.translation_length,
        "records": [],
    }
    failures = 0
    first = None
    for i in range(chambers):
        # integral translates reach every boundary chamber (the compact
        # group is transitive) while keeping flag coordinates shallow
        # enough to certify agreement near working precision
        xi = ctx.c_plus.translate(ctx.random_gl_zp(rng))
        lim = dyn.limit_boundary(cert, xi, max_n=max_n, r_target=r_target)
        satisfied = lim.hypothesis.satisfied
        row: Dict[str, Any] = {"index": i, "hypothesis": satisfied,
                               "status": lim.status}
        if satisfied:
            row["first_n"] = lim.first_n
            row["monotone"] = lim.monotone
            row["trace"] = [[n, _json_val(r)] for n, r in lim.trace]
            ok = lim.status == "converged" and lim.monotone
            if ok and lim.limit is not None and lim.retraction_value is not None:
                row["retraction_agreement"] = _json_val(
                    mat_agreement(lim.limit.canon, lim.retraction_value.canon))
            if not ok:
                failures += 1
                first = first or "index=%d status=%s" % (i, lim.status)
        else:
            row["monotone"] = lim.monotone
        report["records"].append(row)
    report["failures"] = failures
    return report, _outcome(chambers, failures, first)


def _run_transit(cfg: ExperimentConfig, rng: random.Random):
    ctx = _context(cfg.group)
    base = _param(cfg, "exponents")
    steps = _param(cfg, "steps")
    n_targets = _param(cfg, "targets")
    radius = _param(cfg, "radius")
    if radius > ctx.precision:
        # no target can agree deeper than the digits that are tracked
        raise PrecisionExhausted("gate radius %d exceeds working precision %d"
                                 % (radius, ctx.precision))
    certs = [dyn.classify(ctx.diag(tuple(k * e for e in base)))
             for k in range(1, steps + 1)]
    sp = certs[0].sigma_plus
    sm = certs[0].sigma_minus
    targets = []
    for _ in range(n_targets):
        u = unipotent_radical_element(sp, rng)
        targets.append(sm.translate(u))
    measure = dyn.GateMeasure((0,) * ctx.n, radius)
    rep = dyn.verify_transit(certs, measure, targets)
    report = {
        "exponents": base,
        "steps": steps,
        "radius": radius,
        "targets": [
            {"index": t.index, "first_n": t.first_n, "cofinal": t.cofinal}
            for t in rep.targets
        ],
        "all_absorbed": rep.all_absorbed,
    }
    missed = [t.index for t in rep.targets if not t.cofinal]
    return report, _outcome(n_targets, len(missed),
                            "target=%d" % missed[0] if missed else None)


def _run_chabauty(cfg: ExperimentConfig, rng: random.Random):
    ctx = _context(cfg.group)
    exps = _param(cfg, "sequence.exponents")
    count = _param(cfg, "sequence.count")
    tail = _param(cfg, "budget.tail")
    spec = ch.so2_subgroup(ctx)
    certs = [dyn.classify(ctx.diag(tuple(k * e for e in exps)))
             for k in range(1, count + 1)]
    rep = ch.chabauty_limit(spec, certs, tail=tail)
    depth = ctx.precision - 4
    report: Dict[str, Any] = {
        "subgroup": rep.subgroup,
        "sequence": {"exponents": exps, "count": count},
        "status": rep.status,
        "parameters": [_json_val(t) for t in rep.parameters],
        "recovered": [_json_val(t) for t in rep.recovered],
        "errors": [_json_val(e) for e in rep.errors],
        "limits": [_mat_json(l) for l in rep.limits],
        "closure_checked": rep.closure_checked,
        "traces": [
            {"converged": tr.converged,
             "agreements": [_json_val(a) for a in tr.agreements]}
            for tr in rep.traces
        ],
    }
    reason = None
    if (rep.status != "ok" or len(rep.recovered) < 8
            or any(e < depth for e in rep.errors)):
        reason = "status=%s recovered=%d" % (rep.status, len(rep.recovered))
    verdicts: Dict[str, Any] = {}
    op = ch.check_OP(spec, certs[0].sigma_minus, rng=rng)
    verdicts["open-orbit"] = {"status": op.status, "radius": op.radius,
                              "solved": op.solved, "attempts": op.attempts}
    if rep.limits:
        table = ch.decompose_limit(rep.limits, certs[0])
        report["decomposition"] = {
            "residual_min": _json_val(table.residual_min),
            "normality_min": _json_val(table.normality_min),
            "unipotent_closure": table.unipotent_closure,
            "gamma_normalizes": table.gamma_normalizes,
            "transitivity": list(table.transitivity),
            "semidirect": table.semidirect,
        }
        if (table.residual_min < depth or not all(table.transitivity)
                or table.normality_min < depth):
            reason = reason or "decomposition"
        verdicts["no-return"] = ch.nrp_verdict(table, depth)
        targets = [ch.line_simplex(ctx, t) for t in rep.parameters[:6]]
        tv = ch.check_transP(spec, certs, targets)
        verdicts["transit-of-P"] = [
            {"target": v.index, "status": v.status, "first_n": v.first_n}
            for v in tv
        ]
    report["verdicts"] = verdicts
    return report, _outcome(1, int(reason is not None), reason)


RUNNERS = {
    "coxeter-oracle": _run_coxeter,
    "decompositions": _run_decompositions,
    "dynamics": _run_dynamics,
    "transit": _run_transit,
    "chabauty": _run_chabauty,
}


# ---------------------------------------------------------------------------
# serialization plumbing


def _json_val(x):
    if x == INF:
        return "inf"
    if x == -INF:
        return "-inf"
    if isinstance(x, float) and x.is_integer():
        return int(x)
    if hasattr(x, "val_floor") and hasattr(x, "unit"):
        return str(x)
    return x


def _mat_json(m: Mat) -> List[List[str]]:
    n = m.ctx.n
    return [[str(m[i, j]) for j in range(n)] for i in range(n)]


def run(cfg: ExperimentConfig) -> Tuple[int, Dict[str, Any]]:
    """Execute one experiment; returns (exit code, full report document).

    The runner's outcome goes into `meta.outcome`, outside the hash; the
    exit code is 1 exactly when it refutes a record.
    """
    rng = random.Random(cfg.seed)
    result, outcome = RUNNERS[cfg.kind](cfg, rng)
    cfg_doc = emit_config(cfg)
    cfg_doc.pop("out", None)
    body = {"config": cfg_doc, "result": result}
    digest = sha256(
        json.dumps(body, sort_keys=True).encode()).hexdigest()
    body["meta"] = {
        "determinism_hash": digest,
        "outcome": outcome,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
    }
    return (1 if outcome["refuted"] else 0), body


def _summary_lines(code: int, body: Dict[str, Any]) -> List[str]:
    cfg = body["config"]
    res = body["result"]
    lines = ["experiment %s  seed %s" % (cfg["kind"], cfg["seed"])]
    if cfg["kind"] == "coxeter-oracle":
        for name, data in res["types"].items():
            checked = sum(data["checks"].values())
            lines.append("  %s: order %d, %d exhaustive checks"
                         % (name, data["order"], checked))
        lines.append("  failures: %d" % len(res["failures"]))
    elif cfg["kind"] == "decompositions":
        for g in res["groups"]:
            lines.append(
                "  SL%d(Q_%d): cartan >= %s, iwasawa >= %s, bruhat >= %s"
                % (g["n"], g["p"], g["cartan_min"], g["iwasawa_min"],
                   g["bruhat_min"]))
        lines.append("  failures: %d" % res["failures"])
    elif cfg["kind"] == "dynamics":
        rows = res["records"]
        conv = sum(1 for r in rows if r.get("status") == "converged")
        lines.append("  %d chambers, %d converged, %d hypothesis failures"
                     % (len(rows), conv,
                        sum(1 for r in rows if not r["hypothesis"])))
    elif cfg["kind"] == "transit":
        lines.append("  %d targets, all absorbed: %s"
                     % (len(res["targets"]), res["all_absorbed"]))
    elif cfg["kind"] == "chabauty":
        lines.append("  status %s, %d parameters recovered"
                     % (res["status"], len(res["recovered"])))
        for key, val in res.get("verdicts", {}).items():
            lines.append("  %s: %s" % (key, json.dumps(val)))
    lines.append("exit %d" % code)
    return lines


def _write_out(out_dir: str, code: int, body: Dict[str, Any]) -> None:
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(body, fh, sort_keys=True, indent=1)
        fh.write("\n")
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write("\n".join(_summary_lines(code, body)) + "\n")
    records = body["result"].get("records")
    if records is not None:
        with open(os.path.join(out_dir, "records.jsonl"), "w") as fh:
            for row in records:
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def _with_precision(data: Any, precision: int) -> Any:
    """`data` with `precision` set on its group, or on every entry of `groups`;
    what is not of that shape is left for parse_config to reject."""
    def put(g):
        return dict(g, precision=precision) if type(g) is dict else g
    if type(data) is dict and "group" in data:
        return dict(data, group=put(data["group"]))
    if type(data) is dict and type(data.get("groups")) is list:
        return dict(data, groups=[put(g) for g in data["groups"]])
    raise ConfigError("--precision needs a config with a group")


def _load_config(args) -> ExperimentConfig:
    if args.config and args.preset:
        raise ConfigError("--config and --preset are mutually exclusive")
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(
                "unknown preset %r; available: %s"
                % (args.preset, ", ".join(sorted(PRESETS))))
        data = dict(PRESETS[args.preset])
    elif args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError("cannot read config: %s" % exc)
        except json.JSONDecodeError as exc:
            raise ConfigError("config is not valid JSON: %s" % exc)
    else:
        data = dict(PRESETS[DEFAULT_PRESET[args.command]])
    if args.precision is not None:
        data = _with_precision(data, args.precision)
    cfg = parse_config(data)
    wanted = KIND_OF_SUBCOMMAND[args.command]
    if cfg.kind != wanted:
        raise ConfigError("subcommand %r needs a config of kind %r, got %r"
                          % (args.command, wanted, cfg.kind))
    if args.seed is not None:
        cfg = cfg._replace(seed=args.seed)
    if args.out is not None:
        cfg = cfg._replace(out=args.out)
    if cfg.out:  # a report directory that cannot be made fails before the run
        try:
            os.makedirs(cfg.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError("cannot write reports: %s" % exc)
    return cfg


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="buildinglab",
        description="batch experiments on boundary dynamics and subgroup "
                    "limits at finite p-adic precision")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("coxeter", "exhaustive finite Coxeter oracles"),
            ("decomp", "matrix decomposition round-trips"),
            ("dynamics", "boundary convergence under a hyperbolic element"),
            ("transit", "absorption of opposite simplices along a family"),
            ("chabauty", "limits of conjugated subgroups")):
        sp = subs.add_parser(name, help=helptext)
        sp.add_argument("--config", help="path to a JSON experiment config")
        sp.add_argument("--preset", help="name of a shipped config")
        sp.add_argument("--seed", type=int, help="override the config seed")
        sp.add_argument("--out", help="directory for report files")
        sp.add_argument("--precision", type=int,
                        help="override working precision")
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        code, body = run(cfg)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (PrecisionExhausted, dyn.RamifiedSlopes) as exc:
        print("precision exhausted: %s" % exc, file=sys.stderr)
        return 3
    print("\n".join(_summary_lines(code, body)))
    if cfg.out:
        try:
            _write_out(cfg.out, code, body)
        except OSError as exc:
            print("cannot write reports: %s" % exc, file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
