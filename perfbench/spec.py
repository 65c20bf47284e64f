"""What the benchmark runs and what it derives from a traced run.

Shared by the parent (``run.py``), the per-sample child (``worker.py``)
and the comparison tool (``compare.py``); it imports nothing from the
program, so the parent can load it before the program is found.
"""

WORKLOADS = {
    # Coxeter combinatorics only: Weyl products, no p-adic arithmetic.
    "oracle": ("coxeter-oracle",),
    # The elimination path: the four decompositions, Mat products, det.
    "decomp": ("decompositions",),
    # Canonical flags and repeated translates; the only workload that
    # reaches dynamics and chabauty.  Run in this order in one process.
    "boundary": (
        "sl2-q3-dynamics",
        "sl3-q3-dynamics",
        "sl3-q3-wall-dynamics",
        "sl2-q3-transit",
        "sl3-q3-transit",
        "so2-sl2-q5",
    ),
}

# Determinism-hash prefixes of every preset at its own seed (seed offset 0).
REFERENCE_HASHES = {
    "coxeter-oracle": "a452f04057ae63a8",
    "decompositions": "e14cd34f84a000c6",
    "sl2-q3-dynamics": "1980dfde1a1928a2",
    "sl3-q3-dynamics": "73cf7dacde48fc50",
    "sl3-q3-wall-dynamics": "4dd9605fd7c82b90",
    "sl2-q3-transit": "1d3a6c66c5212f4b",
    "sl3-q3-transit": "82f193d93ef2b6c5",
    "so2-sl2-q5": "eacce1d40cfdd0da",
}

# End-to-end figures that are exact for a seed: {name: (better, bound)}.
# They are kept out of BENCHMARK.json because fail_ratio is 0 whenever the
# run is correct and the exact oracle workload certifies no digits.
STRICT = {"fail_ratio": ("lower", 0.0), "digits_min": ("higher", 0.0)}

LAYERS = ("padic", "coxeter", "building", "dynamics", "chabauty", "cli")

# Traced functions that single per-layer metrics are named after.
FUNCTIONS = {
    "padic.add": "padic.PadicScalar.__add__",
    "padic.mul": "padic.PadicScalar.__mul__",
    "padic.inv": "padic.PadicScalar.inv",
    "padic.sqrt": "padic.PadicScalar.sqrt",
    "padic.zero": "padic.PadicScalar.zero",
    "coxeter.weyl_mul": "coxeter.WeylElement.__mul__",
    "coxeter.double_coset": "coxeter.CoxeterSystem.min_double_coset_rep",
    "coxeter.separating_walls": "coxeter.CoxeterSystem.separating_walls",
    "coxeter.convex_hull": "coxeter.CoxeterSystem.convex_hull",
    "building.mat_mul": "building.Mat.__mul__",
    "building.mat_inv": "building.Mat.inv",
    "building.det": "building.Mat.det",
    "building.cartan": "building.cartan_decomposition",
    "building.iwasawa": "building.iwasawa_decomposition",
    "building.bruhat": "building.bruhat_cell",
    "building.iwahori": "building.iwahori_coset",
    "building.flag": "building.boundary_simplex",
    "dynamics.classify": "dynamics.classify",
    "dynamics.assumption_check": "dynamics.assumption_check",
    "dynamics.limit_boundary": "dynamics.limit_boundary",
    "chabauty.conjugate_trace": "chabauty.conjugate_trace",
    "chabauty.chabauty_limit": "chabauty.chabauty_limit",
}

# Functions whose every call duration is kept, for percentiles.
DURATIONS = ("dynamics.limit_boundary",)

ALL = tuple(WORKLOADS)
P_WORK = ("decomp", "boundary")

# Per-layer metrics: name -> (unit, workloads on which it must be nonzero).
# "cli.run.<preset>.s" comes from the untraced samples and
# "trace.overhead_s" from the difference of the two kinds of sample;
# everything else is derived by ``layer_metrics`` from one traced sample.
PER_LAYER = {
    "padic.add.calls": ("count", P_WORK),
    "padic.mul.calls": ("count", P_WORK),
    "padic.inv.calls": ("count", P_WORK),
    "padic.sqrt.calls": ("count", ("boundary",)),
    "padic.zero.calls": ("count", P_WORK),
    "padic.ns_per_op": ("ns", P_WORK),
    "padic.self_s": ("s", P_WORK),
    "padic.raised": ("count", ()),
    "coxeter.weyl_mul.calls": ("count", ("oracle",)),
    "coxeter.weyl_mul.ns_per_call": ("ns", ("oracle",)),
    "coxeter.double_coset.calls": ("count", ("oracle",)),
    "coxeter.separating_walls.calls": ("count", ("oracle",)),
    "coxeter.convex_hull.calls": ("count", ("oracle",)),
    "coxeter.self_s": ("s", ("oracle",)),
    "coxeter.raised": ("count", ()),
    "building.mat_mul.calls": ("count", ("decomp",)),
    "building.mat_mul.us_per_call": ("us", ("decomp",)),
    "building.mat_inv.calls": ("count", ("boundary",)),
    "building.det.calls": ("count", ("decomp",)),
    "building.cartan.us_per_call": ("us", ("decomp",)),
    "building.iwasawa.us_per_call": ("us", ("decomp",)),
    "building.bruhat.us_per_call": ("us", ("decomp",)),
    "building.iwahori.us_per_call": ("us", ("decomp",)),
    "building.flag.calls": ("count", ("boundary",)),
    "building.flag.us_per_call": ("us", ("boundary",)),
    "building.flag.raised": ("count", ()),
    "building.self_s": ("s", P_WORK),
    "building.raised": ("count", ()),
    "dynamics.classify.calls": ("count", ("boundary",)),
    "dynamics.assumption_check.per_chamber": ("calls/chamber", ("boundary",)),
    "dynamics.limit_boundary.p50_ms": ("ms", ("boundary",)),
    "dynamics.limit_boundary.p90_ms": ("ms", ("boundary",)),
    "dynamics.self_s": ("s", ("boundary",)),
    "dynamics.raised": ("count", ()),
    "chabauty.conjugate_trace.calls": ("count", ("boundary",)),
    "chabauty.chabauty_limit.s": ("s", ("boundary",)),
    "chabauty.self_s": ("s", ("boundary",)),
    "chabauty.raised": ("count", ()),
    "cli.self_s": ("s", ALL),
    "cli.raised": ("count", ()),
    "trace.overhead_s": ("s", ALL),
}
for _wl, _presets in WORKLOADS.items():
    for _preset in _presets:
        PER_LAYER["cli.run.%s.s" % _preset] = ("s", (_wl,))


def layer_metrics(stats, durations, chambers):
    """Per-layer metrics of one traced sample.

    ``stats`` maps a traced function key to ``[calls, raised, incl_ns,
    self_ns]``; ``durations`` maps each key in ``DURATIONS`` to the list
    of its call durations in ns; ``chambers`` counts the chambers the
    dynamics presets sampled.
    """
    def fn(stem):
        return stats.get(FUNCTIONS[stem], (0, 0, 0, 0))

    def per_call(stem, scale):
        calls, _, incl, _ = fn(stem)
        return incl / calls / scale if calls else 0.0

    def pct(stem, q):
        d = sorted(durations.get(FUNCTIONS[stem], ()))
        return d[min(len(d) - 1, int(q * len(d)))] / 1e6 if d else 0.0

    out = {}
    for layer in LAYERS:
        rows = [s for k, s in stats.items() if k.split(".", 1)[0] == layer]
        out[layer + ".self_s"] = sum(r[3] for r in rows) / 1e9
        out[layer + ".raised"] = sum(r[1] for r in rows)
        if layer == "padic":
            ops = sum(r[0] for r in rows)
            out["padic.ns_per_op"] = sum(r[3] for r in rows) / ops if ops else 0.0
    for stem in FUNCTIONS:
        name = stem + ".calls"
        if name in PER_LAYER:
            out[name] = fn(stem)[0]
    out["coxeter.weyl_mul.ns_per_call"] = per_call("coxeter.weyl_mul", 1)
    for stem in ("mat_mul", "cartan", "iwasawa", "bruhat", "iwahori", "flag"):
        out["building.%s.us_per_call" % stem] = per_call("building." + stem, 1e3)
    out["building.flag.raised"] = fn("building.flag")[1]
    checks = fn("dynamics.assumption_check")[0]
    out["dynamics.assumption_check.per_chamber"] = (
        checks / chambers if chambers else 0.0)
    out["dynamics.limit_boundary.p50_ms"] = pct("dynamics.limit_boundary", 0.5)
    out["dynamics.limit_boundary.p90_ms"] = pct("dynamics.limit_boundary", 0.9)
    out["chabauty.chabauty_limit.s"] = fn("chabauty.chabauty_limit")[2] / 1e9
    return out
