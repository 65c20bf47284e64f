"""One benchmark sample: set up, run a workload's presets once, report.

Usage: python3 perfbench/worker.py --workload NAME --seed N [--trace | --setup-only]

Runs in a fresh interpreter started by ``run.py`` with the program's
``src`` directory on ``PYTHONPATH``.  An untraced sample times the
workload under the speed probe; a traced one wraps the program's layers
instead; a set-up-only sample stops after set-up.  Prints one JSON
object on stdout.
"""

import argparse
import json
import resource
import signal
import statistics
import time
from contextlib import nullcontext

import spec


class _Cell:
    __slots__ = ("v", "u")

    def __init__(self, v, u):
        self.v = v
        self.u = u

    def mul(self, other, mod):
        return _Cell(self.v + other.v, self.u * other.u % mod)


_MOD = 3 ** 32
_CELLS = [_Cell(i % 5, (i * 7 + 1) % _MOD) for i in range(64)]


class Probe:
    """Measures this host's speed while a sample sets up and runs.

    Every 10 ms a SIGALRM handler times a fixed loop of the kind the
    program runs (small-object allocation, method calls, integers modulo
    3**32), about 0.2 ms on a 2.1 GHz Xeon.  The loop imports nothing
    from the program, so a change to the program cannot move it, while a
    slow phase of the host slows both alike.
    """

    PERIOD_S = 0.01
    ROUNDS = 10
    # The loop's time on that Xeon in its fast phases: set-up time is
    # reported in seconds of a host running at this probe speed.
    NOMINAL_S = 0.0002

    def __init__(self):
        self.times = []

    def tick(self, signum=None, frame=None):
        start = time.perf_counter()
        acc = _Cell(0, 1)
        for _ in range(self.ROUNDS):
            for c in _CELLS:
                acc = acc.mul(c, _MOD)
        self.times.append(time.perf_counter() - start)

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)


def set_up(presets, offset):
    """Import the program, parse each preset's config and build what the
    workload will use: Weyl groups and group contexts."""
    from buildinglab import building, chabauty, cli, coxeter, dynamics, padic

    modules = dict(zip(spec.LAYERS, (padic, coxeter, building, dynamics, chabauty, cli)))
    cfgs = []
    for name in presets:
        data = dict(cli.PRESETS[name])
        data["seed"] = data["seed"] + offset
        cfg = cli.parse_config(data)
        cfgs.append((name, cfg))
        for t in cfg.params.get("types", ()):
            coxeter.get_system(t).elements()
        groups = [cfg.group] if cfg.group else cfg.params.get("groups", [])
        for g in groups:
            building.GroupContext(g["n"], g["p"], precision=g["precision"])
            coxeter.get_system("A%d" % (g["n"] - 1)).elements()
    return modules, cfgs


def _numbers(values):
    return [v for v in values if isinstance(v, (int, float))]


def tally(kind, code, result):
    """(attempted, failed, certified digits, chambers) of one preset report."""
    digits = []
    chambers = 0
    if kind == "coxeter-oracle":
        attempted = sum(sum(t["checks"].values()) for t in result["types"].values())
        failed = len(result["failures"])
    elif kind == "decompositions":
        attempted = result["count"] * len(result["groups"])
        failed = result["failures"]
        for g in result["groups"]:
            digits += _numbers((g["cartan_min"], g["iwasawa_min"], g["bruhat_min"]))
    elif kind == "dynamics":
        attempted = chambers = len(result["records"])
        failed = result["failures"]
        digits += _numbers(r.get("retraction_agreement") for r in result["records"])
    elif kind == "transit":
        attempted = len(result["targets"])
        failed = sum(1 for t in result["targets"] if not t["cofinal"])
    else:  # chabauty: one conjugated family
        attempted = 1
        failed = 0
        digits += _numbers(result["errors"])
    if code != 0:
        failed = max(failed, 1)
    return attempted, failed, digits, chambers


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    out = {"attempted": 0, "failed": 0, "presets": {}, "chambers": 0}
    probe = Probe()
    tracer = None
    with nullcontext() if args.trace else probe:
        t0 = time.perf_counter()
        modules, cfgs = set_up(spec.WORKLOADS[args.workload], args.seed)
        setup = time.perf_counter() - t0
        in_setup = len(probe.times)
        if args.trace:
            from tracer import Tracer

            tracer = Tracer(spec.DURATIONS)
            tracer.install(modules)
        wall = 0.0 if args.setup_only else run_presets(modules, cfgs, out)
    chambers = out.pop("chambers")
    # the probe's own time is not the program's
    out["setup_raw_s"] = setup - sum(probe.times[:in_setup])
    out["wall_s"] = wall - sum(probe.times[in_setup:])
    if not probe.times:
        probe.tick()
    speed = statistics.fmean(probe.times)
    out["wall_norm"] = out["wall_s"] / speed
    out["setup_s"] = out["setup_raw_s"] / speed * Probe.NOMINAL_S
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        stats, durations = tracer.reduce()
        out["layers"] = spec.layer_metrics(stats, durations, chambers)
        out["functions"] = stats
    print(json.dumps(out, sort_keys=True))


def run_presets(modules, cfgs, out):
    """Run every preset once, filling ``out``; returns the wall time."""
    cli = modules["cli"]
    digits = []
    chambers = 0
    t1 = time.perf_counter()
    for name, cfg in cfgs:
        t = time.perf_counter()
        result = None
        try:
            code, body = cli.run(cfg)
            result = body["result"]
            digest = body["meta"]["determinism_hash"]
        except cli.ConfigError:
            code, digest = 2, None
        except (modules["padic"].PrecisionExhausted, modules["dynamics"].RamifiedSlopes):
            code, digest = 3, None
        secs = time.perf_counter() - t
        if result is None:
            attempted, failed = 1, 1
        else:
            attempted, failed, d, c = tally(cfg.kind, code, result)
            digits += d
            chambers += c
        out["attempted"] += attempted
        out["failed"] += failed
        out["presets"][name] = {"hash": digest, "code": code, "s": secs}
    wall = time.perf_counter() - t1
    out["digits_min"] = min(digits) if digits else None
    out["chambers"] = chambers
    return wall


if __name__ == "__main__":
    main()
