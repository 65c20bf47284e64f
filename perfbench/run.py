"""The buildinglab benchmark: time one workload end to end, or trace it.

Usage (from the repository root):

    python3 perfbench/run.py --workload {oracle,decomp,boundary}
        [--seed N] [--seconds S] [--trace {0,1}]

Each sample is a fresh interpreter (``worker.py``) that sets up, runs the
workload's presets once and reports.  A run takes twenty samples that
only set up, then samples one at a time until ``--seconds`` is used up.
``--seed`` is added to every preset's own seed, so seed 0 reproduces the
reference determinism hashes.  With ``--trace 0`` all workload samples
are untraced and give the end-to-end metrics.  With ``--trace 1`` traced
and untraced samples alternate; the traced ones give the per-layer
metrics and the untraced ones the tracing overhead.

Every run is checked: each sample exits 0 and no preset fails an
invariant, every preset's hash agrees across all samples (traced ones
too) and, at seed 0, with its reference prefix; a traced run also checks
its own per-layer metrics.  A preset that exhausts the working precision
(exit 3) counts as a failed operation but does not make the run wrong.
The last line of stdout is the result as one JSON object.  A missing
program or manifest exits 2 without a result.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "pycache"
sys.pycache_prefix = str(BUILD)

import spec  # noqa: E402

MIN_UNTRACED = 3    # so that set-up and wall time have a median
MIN_TRACED = 2      # so that every count can be seen to repeat
SETUP_ONLY = 20     # extra set-up samples per run, for a steadier set-up median
COUNTED = ("count", "calls/chamber")  # per-layer units that must repeat exactly
HARD_LIMIT_S = 150  # no run may take longer than this, whatever --seconds


def fail(msg):
    print("perfbench: %s" % msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Byte-compile the program so that no sample pays for compilation."""
    import compileall
    ok = compileall.compile_dir(str(ROOT / "src" / "buildinglab"), quiet=1)
    if not ok:
        fail("the program does not compile")


def sample(workload, seed, mode, timeout):
    """Run one worker in ``mode`` (None, "--trace" or "--setup-only");
    returns (report, None) or (None, error text)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if mode:
        cmd.append(mode)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONPYCACHEPREFIX=str(BUILD))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "sample timed out after %.0f s" % timeout
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or [""])[-1]
        return None, "sample exited %d: %s" % (proc.returncode, tail)
    return json.loads(lines[-1]), None


def collect(workload, seed, seconds, trace):
    """Run samples until the time is used.

    Returns (set-up-only, untraced, traced, errors)."""
    start = time.perf_counter()
    setups = []
    errors = []
    for _ in range(SETUP_ONLY):
        report, err = sample(workload, seed, "--setup-only", HARD_LIMIT_S)
        if err:
            errors.append(err)
        else:
            setups.append(report)
    runs = {False: [], True: []}
    took = {False: [], True: []}
    kinds = [False, True] if trace else [False]
    i = 0
    while True:
        traced = kinds[i % len(kinds)]
        i += 1
        left = HARD_LIMIT_S - (time.perf_counter() - start)
        if left <= 0:
            errors.append("run stopped at the %d s limit" % HARD_LIMIT_S)
            break
        t = time.perf_counter()
        report, err = sample(workload, seed, "--trace" if traced else None, left)
        took[traced].append(time.perf_counter() - t)
        if err:
            errors.append(err)
        else:
            runs[traced].append(report)
        if err and "timed out" in err:
            break
        elapsed = time.perf_counter() - start
        enough = len(took[False]) >= MIN_UNTRACED and (
            not trace or len(took[True]) >= MIN_TRACED)
        nxt = kinds[i % len(kinds)]
        if enough and elapsed + statistics.median(took[nxt]) > seconds:
            break
    return setups, runs[False], runs[True], errors


def summary(values):
    """Median, quartiles and count of a list of samples."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"value": med, "q1": q1, "q3": q3, "n": len(values)}


def check_hashes(samples, seed):
    problems = []
    presets = {}
    for name in sorted({p for s in samples for p in s["presets"]}):
        seen = {s["presets"][name]["hash"] for s in samples}
        entry = {"hash": sorted(seen, key=str)[0]}
        if len(seen) != 1:
            problems.append("%s: hash differs between samples" % name)
        if seed == 0:
            ref = spec.REFERENCE_HASHES[name]
            entry["reference"] = ref
            entry["match"] = len(seen) == 1 and str(entry["hash"]).startswith(ref)
            if not entry["match"]:
                problems.append("%s: hash %s does not match reference %s"
                                % (name, str(entry["hash"])[:16], ref))
        presets[name] = entry
    return presets, problems


def layer_summary(workload, plain, traced):
    """Per-layer metrics of a traced run, and the problems its self-check found."""
    problems = []
    metrics = {}
    names = traced[0]["layers"].keys()
    for name in names:
        values = [t["layers"][name] for t in traced]
        if spec.PER_LAYER[name][0] in COUNTED:
            if len(set(values)) != 1:
                problems.append("%s differs between traced samples: %s" % (name, values))
            metrics[name] = {"value": values[0], "n": len(values)}
        else:
            metrics[name] = summary(values)
    for preset in spec.WORKLOADS[workload]:
        metrics["cli.run.%s.s" % preset] = summary(
            [p["presets"][preset]["s"] for p in plain])
    for other in set(spec.PER_LAYER) - set(metrics):
        if other.startswith("cli.run."):
            metrics[other] = {"value": 0.0, "q1": 0.0, "q3": 0.0, "n": len(plain)}
    overhead = (statistics.median(t["wall_s"] for t in traced)
                - statistics.median(p["wall_s"] for p in plain))
    metrics["trace.overhead_s"] = {"value": overhead, "n": len(traced)}
    for name, (unit, nonzero_on) in spec.PER_LAYER.items():
        metrics[name]["unit"] = unit
        if workload in nonzero_on and not metrics[name]["value"] > 0:
            problems.append("%s is %r on %s" % (name, metrics[name]["value"], workload))
    return metrics, problems


def machine():
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="offset added to every preset seed (0: reference hashes)")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="time to spend sampling")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "buildinglab" / "__init__.py").is_file():
        fail("program source src/buildinglab not found under %s" % ROOT)
    try:
        manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail("cannot read BENCHMARK.json: %s" % exc)
    build()

    setups, plain, traced, errors = collect(args.workload, args.seed,
                                            args.seconds, args.trace == 1)
    if not plain or (args.trace and not traced):
        for err in errors:
            print("perfbench: %s" % err, file=sys.stderr)
        fail("no usable sample")
    samples = plain + traced
    attempted = sum(s["attempted"] for s in samples) + len(errors)
    failed = sum(s["failed"] for s in samples) + len(errors)
    # Exit 3 is the program declining to answer at this working precision;
    # it counts as a failed operation but is not a wrong output.
    exhausted = sorted({name for s in samples for name, p in s["presets"].items()
                        if p["code"] == 3})
    wrong = failed - sum(p["code"] == 3 for s in samples for p in s["presets"].values())
    problems = list(errors)
    if wrong:
        problems.append("%d of %d operations failed" % (wrong, attempted))

    metrics = {name: dict(summary([p[name] for p in plain + setups]), unit="s")
               for name in ("setup_s", "setup_raw_s")}
    metrics.update({name: dict(summary([p[name] for p in plain]), unit=unit)
                    for name, unit in (("wall_norm", "probes"), ("wall_s", "s"),
                                       ("peak_rss_mb", "MB"))})
    metrics["fail_ratio"] = {"value": failed / attempted, "unit": "ratio"}
    digits = {s["digits_min"] for s in samples}
    if len(digits) != 1:
        problems.append("digits_min differs between samples: %s" % sorted(digits, key=str))
    if None not in digits:
        metrics["digits_min"] = {"value": min(digits), "unit": "digits"}
    presets, bad = check_hashes(samples, args.seed)
    problems += bad
    if traced:
        layers, bad = layer_summary(args.workload, plain, traced)
        metrics.update(layers)
        problems += bad

    print("workload %s  seed %d  samples %d set-up-only, %d untraced, %d traced"
          % (args.workload, args.seed, len(setups), len(plain), len(traced)))
    for name, m in metrics.items():
        spread = ("  (median of %d, q1 %.6g, q3 %.6g)" % (m["n"], m["q1"], m["q3"])
                  if "q1" in m else "")
        print("  %-44s %14.6g %-13s%s" % (name, m["value"], m["unit"], spread))
    for name, entry in presets.items():
        verdict = ("" if "match" not in entry else
                   "  matches reference" if entry["match"] else "  MISMATCH")
        print("  hash %-22s %s%s" % (name, str(entry["hash"])[:16], verdict))
    for name in exhausted:
        print("  note: %s exhausted the working precision (exit 3)" % name)
    for problem in problems:
        print("  problem: %s" % problem)

    correct = not problems
    print(json.dumps({
        "record": "perfbench", "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds, "machine": machine(),
        "correct": correct, "problems": problems, "exhausted": exhausted,
        "presets": presets,
        "metrics": metrics}, sort_keys=True))
    wanted = manifest["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted}}))


if __name__ == "__main__":
    main()
