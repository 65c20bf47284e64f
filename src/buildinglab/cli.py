"""Batch experiment runner.

One subcommand per experiment kind, each driven by a JSON config (or a
shipped preset), seeded for determinism, and emitting a JSON report plus
a short human summary.  The report is byte-stable for a fixed seed and
config: a determinism hash covers everything except the timestamp.

Exit codes: 0 all checks passed, 1 an experiment invariant failed,
2 usage or config error, 3 working precision was exhausted.
"""

import argparse
import dataclasses
import datetime
import hashlib
import json
import random
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .padic import INF, PrecisionExhausted
from . import coxeter
from .building import (
    AffineWeylCoset,
    GroupContext,
    Mat,
    _group_fault,
    bruhat_cell,
    cartan_decomposition,
    iwahori_coset,
    iwasawa_decomposition,
    mat_agreement,
    unipotent_radical_element,
)
from . import dynamics as dyn
from . import chabauty as ch


KINDS = ("coxeter-oracle", "decompositions", "dynamics", "transit", "chabauty")

MATRIX_KINDS = ("dynamics", "transit", "chabauty")

# Top-level run parameters and the type the runners read them as.
PARAM_TYPES = {
    "count": int,
    "chambers": int,
    "max_n": int,
    "gate_target": int,
    "steps": int,
    "targets": int,
    "radius": int,
}


class ConfigError(ValueError):
    """Malformed experiment config; the message names the offending field."""


# ---------------------------------------------------------------------------
# config parsing


@dataclasses.dataclass
class ExperimentConfig:
    kind: str
    group: Optional[Dict[str, int]]
    seed: int
    params: Dict[str, Any]
    out: Optional[str] = None


def _want(data: Dict[str, Any], field: str, types, where: str):
    if field not in data:
        raise ConfigError("config field '%s%s' is required" % (where, field))
    val = data[field]
    if not isinstance(val, types):
        raise ConfigError(
            "config field '%s%s': expected %s, got %r"
            % (where, field, getattr(types, "__name__", types), val))
    return val


def _check_group(group: Dict[str, Any]) -> None:
    """Reject a group the arithmetic cannot work in (GroupContext's rule)."""
    fault = _group_fault(group["n"], group["p"], group["precision"])
    if fault is not None:
        raise ConfigError("config field 'group.%s': expected %s, got %r"
                          % fault)


def parse_config(data: Any) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    kind = _want(data, "kind", str, "")
    if kind not in KINDS:
        raise ConfigError(
            "config field 'kind' must be one of %s, got %r"
            % (", ".join(KINDS), kind))
    group: Optional[Dict[str, int]] = None
    if "group" in data and data["group"] is not None:
        raw = data["group"]
        if not isinstance(raw, dict):
            raise ConfigError("config field 'group' must be an object")
        family = raw.get("family", "SL")
        if family != "SL":
            raise ConfigError(
                "config field 'group.family': only 'SL' is supported, got %r"
                % family)
        group = {"family": "SL"}
        for key, default in (("n", None), ("p", None), ("precision", 32)):
            val = raw.get(key, default)
            if not isinstance(val, int) or isinstance(val, bool):
                raise ConfigError(
                    "config field 'group.%s': expected integer, got %r"
                    % (key, val))
            group[key] = val
        _check_group(group)
    elif kind in MATRIX_KINDS:
        raise ConfigError("config field 'group' is required for kind %r" % kind)
    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("config field 'seed': expected integer, got %r" % seed)
    out = data.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("config field 'out': expected string, got %r" % out)
    params = {k: v for k, v in data.items()
              if k not in ("kind", "group", "seed", "out")}
    for key, typ in PARAM_TYPES.items():
        if key not in params:
            continue
        val = params[key]
        if not isinstance(val, typ) or isinstance(val, bool):
            raise ConfigError("config field '%s': expected %s, got %r"
                              % (key, typ.__name__, val))
    return ExperimentConfig(kind, group, seed, params, out)


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


def normalize_config(data: Any) -> Dict[str, Any]:
    return emit_config(parse_config(data))


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

KIND_OF_SUBCOMMAND = {
    "coxeter": "coxeter-oracle",
    "decomp": "decompositions",
    "dynamics": "dynamics",
    "transit": "transit",
    "chabauty": "chabauty",
}

DEFAULT_PRESET = {
    "coxeter": "coxeter-oracle",
    "decomp": "decompositions",
    "dynamics": "sl3-q3-wall-dynamics",
    "transit": "sl2-q3-transit",
    "chabauty": "so2-sl2-q5",
}


# ---------------------------------------------------------------------------
# runners


def _context(cfg: ExperimentConfig) -> GroupContext:
    g = cfg.group
    return GroupContext(g["n"], g["p"], precision=g["precision"])


def _run_coxeter(cfg: ExperimentConfig, rng: random.Random):
    names = cfg.params.get("types", ["A2", "B2"])
    if (not isinstance(names, list) or not names
            or not all(isinstance(n, str) and n in coxeter.CARTAN
                       for n in names)):
        raise ConfigError(
            "config field 'types': expected a non-empty list of system "
            "names from %s, got %r" % (", ".join(sorted(coxeter.CARTAN)), names))
    out = {"types": {}}
    failures: List[str] = []
    for name in names:
        system = coxeter.get_system(name)
        elements = system.elements()
        subsets = [frozenset(s) for s in _subsets(range(system.rank))]
        par = {I: system.parabolic(I) for I in subsets}
        par_sets = {I: set(p) for I, p in par.items()}
        checks = {"double-coset": 0, "residue-type": 0, "projection": 0,
                  "separating-walls": 0, "hull-pairs": 0}
        for w in elements:
            for I in subsets:
                for J in subsets:
                    coset = {u * w * v for u in par[I] for v in par[J]}
                    best = min(coset, key=lambda x: x.length)
                    rep = system.min_double_coset_rep(I, w, J)
                    n_min = sum(1 for x in coset if x.length == best.length)
                    if rep != best or n_min != 1:
                        failures.append("%s double-coset %r %s %r"
                                        % (name, sorted(I), w.word, sorted(J)))
                    checks["double-coset"] += 1
                    K = system.parabolic_intersection(I, rep, J)
                    brute = frozenset(
                        i for i in I
                        if rep.inverse() * system.simple(i) * rep
                        in par_sets[J])
                    if K != brute:
                        failures.append("%s residue-type %r %s %r"
                                        % (name, sorted(I), w.word, sorted(J)))
                    checks["residue-type"] += 1
        for c in elements:
            for d in elements:
                dist = (c.inverse() * d).length
                walls = system.separating_walls(c, d)
                if len(walls) != dist or walls != system.separating_walls(d, c):
                    failures.append("%s separating %s %s" % (name, c, d))
                checks["separating-walls"] += 1
                hull = system.convex_hull(c, d)
                walls_cd = system.separating_walls(c, d)
                brute_hull = frozenset(
                    x for x in elements
                    if system.separating_walls(c, x) <= walls_cd)
                if hull != brute_hull:
                    failures.append("%s hull %s %s" % (name, c, d))
                checks["hull-pairs"] += 1
                for I in subsets:
                    gate = system.min_coset_rep_left(I, c.inverse() * d)
                    brute = min((u * (c.inverse() * d) for u in par[I]),
                                key=lambda x: x.length)
                    if gate != brute:
                        failures.append("%s projection %r %s %s"
                                        % (name, sorted(I), c, d))
                    checks["projection"] += 1
        out["types"][name] = {"order": len(elements), "checks": checks}
    out["failures"] = failures
    return (0 if not failures else 1), out


def _subsets(idx) -> List[Tuple[int, ...]]:
    idx = list(idx)
    res: List[Tuple[int, ...]] = [()]
    for i in idx:
        res += [s + (i,) for s in res]
    return res


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
    groups = cfg.params.get("groups")
    if not groups:
        raise ConfigError("config field 'groups' is required for decompositions")
    count = cfg.params.get("count", 100)
    report = {"groups": [], "count": count}
    failures = 0
    for desc in groups:
        sub = parse_config({"kind": "decompositions", "group": desc,
                            "groups": []})
        ctx = _context(sub)
        floor = ctx.precision - 2
        stats = {"n": ctx.n, "p": ctx.p, "precision": ctx.precision,
                 "cartan_min": INF, "iwasawa_min": INF, "bruhat_min": INF,
                 "iwahori_labels": 0}
        for _ in range(count):
            g = mild_element(ctx, rng)
            base = g.min_val_floor()
            k1, exps, k2 = cartan_decomposition(g)
            r = mat_agreement(k1 * ctx.diag(exps) * k2, g) - base
            stats["cartan_min"] = min(stats["cartan_min"], r)
            u, t, k = iwasawa_decomposition(g, lower=True)
            r2 = mat_agreement(u * t * k, g) - base
            stats["iwasawa_min"] = min(stats["iwasawa_min"], r2)
            if r < floor or r2 < floor:
                failures += 1
            # the Bruhat split is elimination-based, so cancellation can
            # eat into its residual; it is gated on soundness (the product
            # never contradicts a claimed digit) with the floor recorded
            uu, m, b = bruhat_cell(g)
            diff = uu * m * b - g
            sound = all(diff[i, j].is_zeroish()
                        for i in range(ctx.n) for j in range(ctx.n))
            if not sound:
                failures += 1
            stats["bruhat_min"] = min(stats["bruhat_min"],
                                      diff.min_val_floor() - base)
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
    return (0 if failures == 0 else 1), report


def _element_from_params(ctx: GroupContext, desc) -> Mat:
    if not isinstance(desc, dict):
        raise ConfigError("config field 'element' must be an object")
    if "exponents" in desc:
        exps = desc["exponents"]
        if (not isinstance(exps, list) or len(exps) != ctx.n
                or not all(isinstance(e, int) for e in exps)):
            raise ConfigError(
                "config field 'element.exponents': expected %d integers"
                % ctx.n)
        units = desc.get("units")
        return ctx.diag(tuple(exps), units=tuple(units) if units else None)
    if "matrix" in desc:
        rows = desc["matrix"]
        if (not isinstance(rows, list) or len(rows) != ctx.n
                or any(len(r) != ctx.n for r in rows)):
            raise ConfigError(
                "config field 'element.matrix': expected %d x %d integers"
                % (ctx.n, ctx.n))
        return ctx.mat(rows)
    raise ConfigError("config field 'element' needs 'exponents' or 'matrix'")


def _run_dynamics(cfg: ExperimentConfig, rng: random.Random):
    ctx = _context(cfg)
    gamma = _element_from_params(ctx, cfg.params.get("element", {}))
    chambers = cfg.params.get("chambers", 20)
    max_n = cfg.params.get("max_n", 64)
    r_target = cfg.params.get("gate_target", ctx.precision - 4)
    cert = dyn.classify(gamma, rng=rng)
    if cert is None:
        raise ConfigError("config element is elliptic; dynamics needs a "
                          "hyperbolic element")
    report = {
        "element": _mat_json(gamma),
        "exponents": list(cert.exps),
        "wall_type": sorted(cert.wall_type),
        "translation_length": cert.translation_length,
        "records": [],
    }
    failures = 0
    for i in range(chambers):
        # integral translates reach every boundary chamber (the compact
        # group is transitive) while keeping flag coordinates shallow
        # enough to certify agreement near working precision
        xi = ctx.c_plus.translate(ctx.random_gl_zp(rng))
        lim = dyn.limit_boundary(cert, xi, max_n=max_n, r_target=r_target,
                                 rng=rng)
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
        else:
            row["monotone"] = lim.monotone
        report["records"].append(row)
    report["failures"] = failures
    return (0 if failures == 0 else 1), report


def _run_transit(cfg: ExperimentConfig, rng: random.Random):
    ctx = _context(cfg)
    base = cfg.params.get("exponents")
    if (not isinstance(base, list) or len(base) != ctx.n
            or not all(isinstance(e, int) for e in base)):
        raise ConfigError("config field 'exponents': expected %d integers"
                          % ctx.n)
    steps = cfg.params.get("steps", 8)
    n_targets = cfg.params.get("targets", 20)
    radius = cfg.params.get("radius", 3)
    if radius > ctx.precision:
        # no target can agree deeper than the digits that are tracked
        raise PrecisionExhausted("gate radius %d exceeds working precision %d"
                                 % (radius, ctx.precision))
    certs = [dyn.classify(ctx.diag(tuple(k * e for e in base)))
             for k in range(1, steps + 1)]
    if any(c is None for c in certs):
        raise ConfigError("config field 'exponents' must not be all zero")
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
    return (0 if rep.all_absorbed else 1), report


def _run_chabauty(cfg: ExperimentConfig, rng: random.Random):
    ctx = _context(cfg)
    sub = cfg.params.get("subgroup", {"kind": "involution"})
    if not isinstance(sub, dict) or sub.get("kind") != "involution":
        raise ConfigError("config field 'subgroup.kind': only 'involution' "
                          "is supported")
    seq = cfg.params.get("sequence", {})
    exps = seq.get("exponents", [-1, 1])
    count = seq.get("count", 12)
    if (not isinstance(exps, list) or len(exps) != ctx.n
            or not all(isinstance(e, int) for e in exps)):
        raise ConfigError("config field 'sequence.exponents': expected %d "
                          "integers" % ctx.n)
    tail = cfg.params.get("budget", {}).get("tail", 6)
    spec = ch.so2_subgroup(ctx)
    certs = [dyn.classify(ctx.diag(tuple(k * e for e in exps)))
             for k in range(1, count + 1)]
    rep = ch.chabauty_limit(spec, certs, rng=rng, tail=tail)
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
    failures = 0
    if rep.status != "ok":
        failures += 1
    if len(rep.recovered) < 8 or any(e < depth for e in rep.errors):
        failures += 1
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
            failures += 1
        verdicts["no-return"] = ch.nrp_verdict(table, depth)
        targets = [ch.line_simplex(ctx, t) for t in rep.parameters[:6]]
        tv = ch.check_transP(spec, certs, targets)
        verdicts["transit-of-P"] = [
            {"target": v.index, "status": v.status, "first_n": v.first_n}
            for v in tv
        ]
    report["verdicts"] = verdicts
    return (0 if failures == 0 else 1), report


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
    """Execute one experiment; returns (exit code, full report document)."""
    rng = random.Random(cfg.seed)
    code, result = RUNNERS[cfg.kind](cfg, rng)
    cfg_doc = emit_config(cfg)
    cfg_doc.pop("out", None)
    body = {"config": cfg_doc, "result": result}
    digest = hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()).hexdigest()
    body["meta"] = {
        "determinism_hash": digest,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    return code, body


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
    import os
    os.makedirs(out_dir, exist_ok=True)
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
    cfg = parse_config(data)
    wanted = KIND_OF_SUBCOMMAND[args.command]
    if cfg.kind != wanted:
        raise ConfigError("subcommand %r needs a config of kind %r, got %r"
                          % (args.command, wanted, cfg.kind))
    if args.seed is not None:
        cfg.seed = args.seed
    if args.precision is not None:
        if cfg.group is not None:
            cfg.group = dict(cfg.group, precision=args.precision)
            _check_group(cfg.group)
        elif (cfg.kind == "decompositions"
              and isinstance(cfg.params.get("groups"), list)):
            groups = []
            for desc in cfg.params["groups"]:
                if not isinstance(desc, dict):
                    raise ConfigError("config field 'group' must be an object")
                groups.append(dict(desc, precision=args.precision))
                # the same check each entry meets in _run_decompositions
                parse_config({"kind": cfg.kind, "group": groups[-1]})
            cfg.params["groups"] = groups
        else:
            raise ConfigError("--precision needs a config with a group")
    if args.out is not None:
        cfg.out = args.out
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
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    try:
        code, body = run(cfg)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (PrecisionExhausted, dyn.RamifiedSlopes) as exc:
        print("precision exhausted: %s" % exc, file=sys.stderr)
        return 3
    print("\n".join(_summary_lines(code, body)))
    if cfg.out:
        _write_out(cfg.out, code, body)
    return code


if __name__ == "__main__":
    sys.exit(main())
