#!/usr/bin/env python3
"""The qmcxx benchmark.

    python3 perfbench/run.py --workload nio32-dmc --seed 20170708 \\
        --seconds 50 --trace 0

Run from the root of a source checkout. Builds the repository's qmcxx
library and perfbench/qmcbench.cpp (CMake, into .bench_build/), runs
one workload (or, with --workload all, each in turn) and prints, as the
last line of standard output, one JSON object: {"correct", "attempted",
"failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones. Lines before it give every metric with
its unit, the correctness checks and the provenance manifest; the full
record is also written to .bench_build/results/. See NOTES.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_BUILD = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(CMAKE_BUILD, "qmcbench")

DEFAULT_SEED = 20170708

# Workloads: engine settings, chain lengths and the committed energy
# reference. `check_gens`: the generations whose mean energy is checked
# against reference +- tolerance (a fixed prefix, so the check does not
# depend on how many generations the time budget allowed). Reference and
# tolerance come from double-precision chains of the same spec at seeds
# 1..8 (calibrate.py): the mean of their prefix means, and 6 standard
# deviations of them. `trace_gens`: the fixed length of the traced run.
# `feedback` (DMC): the trial-energy population feedback. With the
# driver's default 0.1 the chains' early energy drift pushes the
# population to the clamp at 4 or 16 walkers, depending on the seed, so
# the work per generation (and with 4 threads the thread occupancy)
# differed by up to 2x between seeds; 1.0 holds it near the 8-walker
# target.
WORKLOADS = {
    # Hexagonal cell: every move goes through general_cell_row; VMC keeps
    # the population and the work per generation fixed. Stresses
    # particle/ and concurrency/ (4 threads, crowds of 2).
    "graphite-vmc": {
        "in_benchmark": True,
        "spec": "specs/graphite.json", "mode": "vmc", "precision": "single",
        "threads": 4, "walkers": 8, "crowd": 2, "delay": 1,
        "check_gens": 20, "trace_gens": 60,
        "reference": 56.663649, "tolerance": 384.101407,
    },
    # Orthorhombic cell (ortho_cell_row), the load spread over distance
    # tables, B-splines, determinant updates and the NLPP. The double-
    # precision DMC baseline. 2 threads, not 1: on a shared 4-vCPU host a
    # single thread's speed follows the contention on one host core, and
    # samples_per_s spread 0.10-0.33 (IQR / median) between runs against
    # 0.06-0.12 for 2 threads in the same interleaved sets. The chain is
    # the same on any thread count (same crowds), so the energy reference
    # holds.
    "nio32-dmc": {
        "in_benchmark": True,
        "spec": "specs/nio32.json", "mode": "dmc", "precision": "double",
        "threads": 2, "walkers": 8, "crowd": 4, "delay": 1, "feedback": 1.0,
        "check_gens": 5, "trace_gens": 20,
        "reference": -1535.868093, "tolerance": 238.052558,
    },
    # Largest working set (spline table, walker buffers); delayed-update
    # determinant and J2 carry the load, and so do peak_rss_mb and
    # setup_s. Single precision with the drift guard: carries the known
    # defect (NOTES.md), counted as failed samples. Not a BENCHMARK.json
    # workload: the engine crashes on some seeds (SIGSEGV in the first
    # generation, e.g. seed 2004), and a benchmark workload must complete
    # on every seed. Runnable here to reproduce the defect.
    "nio64-dmc": {
        "in_benchmark": False,
        "spec": "specs/nio64.json", "mode": "dmc", "precision": "single",
        "threads": 4, "walkers": 8, "crowd": 2, "delay": 16, "feedback": 1.0,
        "check_gens": 10, "trace_gens": 12,
        "reference": -3644.211958, "tolerance": 684.679927,
    },
}

# Processes that only set up (the run's chain process sets up too):
# setup_s is the median of 1 + SETUP_ONLY setups.
SETUP_ONLY = 2
CHILD_TIMEOUT_S = 120


def fail(msg):
    """Exit without a result line."""
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


# ---- build ----------------------------------------------------------------

def build():
    """Configure (once) and build qmcbench into .bench_build/perfbench."""
    for need in ("CMakeLists.txt", "src", "specs"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s beside perfbench/: run from a qmcxx source checkout" % need)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(CMAKE_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_BUILD])
    steps.append(["cmake", "--build", CMAKE_BUILD, "--target", "qmcbench", "-j", jobs])
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, env=env, stdout=out,
                              stderr=subprocess.STDOUT).returncode:
                fail("build failed: %s (log: %s)" % (" ".join(cmd), log))


# ---- one engine process ---------------------------------------------------

def qmcbench(w, seed, extra):
    cmd = [BINARY, "--spec", w["spec"], "--mode", w["mode"],
           "--precision", w["precision"], "--threads", str(w["threads"]),
           "--walkers", str(w["walkers"]), "--crowd", str(w["crowd"]),
           "--delay", str(w["delay"]), "--seed", str(seed)] + extra
    if "feedback" in w:
        cmd += ["--feedback", str(w["feedback"])]
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("qmcbench timed out: " + " ".join(cmd))
    if p.returncode < 0:
        fail("qmcbench killed by signal %d (an engine crash; see NOTES.md): %s\n%s" %
             (-p.returncode, " ".join(cmd), p.stderr))
    if p.returncode != 0:
        fail("qmcbench failed (%d): %s\n%s" % (p.returncode, " ".join(cmd), p.stderr))
    return json.loads(p.stdout)


# ---- provenance -------------------------------------------------------------

def source_hash():
    """SHA-256 over the files the benchmark builds from (src/, the two
    CMakeLists.txt, perfbench/*.cpp) and the specs: a checkout without
    git still names the exact source it measured."""
    h = hashlib.sha256()
    files = ["CMakeLists.txt", "perfbench/CMakeLists.txt", "perfbench/qmcbench.cpp"]
    for top in ("src", "specs"):
        for d, _, names in os.walk(os.path.join(ROOT, top)):
            files += [os.path.relpath(os.path.join(d, n), ROOT) for n in names]
    for rel in sorted(files):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    """HEAD of the checkout, when the checkout is itself a git work tree."""
    try:
        p = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = p.stdout.split()
    if p.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def compile_command():
    """(compiler, flags) CMake used for a library source; the flags
    without the include paths and the file names."""
    try:
        with open(os.path.join(CMAKE_BUILD, "compile_commands.json")) as f:
            entries = json.load(f)
    except (OSError, ValueError):
        return None, None
    for e in entries:
        if e["file"].endswith(os.path.join("src", "drivers", "vmc.cpp")):
            words = e["command"].split()
            keep, skip = [], False
            for word in words[1:]:
                if skip:
                    skip = False
                elif word in ("-o", "-c", "-I", "-isystem"):
                    skip = True
                elif not word.startswith("-I") and not word.endswith(".cpp"):
                    keep.append(word)
            return os.path.basename(os.path.realpath(words[0])), " ".join(keep)
    return None, None


def provenance(w, rec):
    mb = 1 << 20
    l3 = rec["l3_bytes"]
    compiler, flags = compile_command()
    manifest = {
        "git_sha": git_sha() or "unavailable (not a git checkout)",
        "source_sha256_16": source_hash(),
        "compiler": "%s %s" % (compiler, rec["compiler"]),
        "cxx_flags": flags,
        "build_isa": rec["build_isa"],
        "host_isa": "avx512f" if rec["host_avx512f"] else ("avx2" if rec["host_avx2"] else "other"),
        "cpu": platform.processor() or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": rec["threads"],
        "precision_bytes": rec["precision_bytes"],
        "spec": w["spec"],
        "spec_content_hash": rec["spec_hash"],
        "l3_mb": l3 / mb if l3 > 0 else None,
        "spline_mb": rec["spline_bytes"] / mb,
    }
    if l3 > 0:
        manifest["spline_over_l3"] = rec["spline_bytes"] / l3
        if "trace" in rec:
            manifest["table_over_l3"] = rec["trace"]["table_bytes"] / l3
    return manifest


# ---- the run ----------------------------------------------------------------

def check_chain(w, chain, label, checks):
    """Failure accounting of one chain; appends named checks."""
    ref, tol = w["reference"], w["tolerance"]
    attempted, failed, mean, ok = metrics.chain_failures(chain, w["check_gens"], ref, tol)
    checks.append(("%s: at least %d generations" % (label, w["check_gens"]),
                   len(chain["energy"]) >= w["check_gens"]))
    checks.append(("%s: mean energy of generations < %d (failed ones left out) = %s "
                   "within %.6g +- %.3g Ha" % (label, w["check_gens"], mean, ref, tol), ok))
    lo, hi = max(1, w["walkers"] // 2), 2 * w["walkers"]
    checks.append(("%s: population within [%d, %d]" % (label, lo, hi),
                   all(lo <= n <= hi for n in chain["num_walkers"])))
    return attempted, failed


def run_untraced(w, seed, seconds):
    # gen_ms_tail needs more than TAIL_BEYOND generations, however short
    # the --seconds budget.
    min_gens = max(w["check_gens"], metrics.TAIL_BEYOND + 1)
    rec = qmcbench(w, seed, ["--min-gens", str(min_gens), "--budget-s", str(seconds)])
    setups = [rec] + [qmcbench(w, seed, ["--setup-only"]) for _ in range(SETUP_ONLY)]
    checks = []
    attempted, failed = check_chain(w, rec["untraced"], "chain", checks)
    values, extra = metrics.end_to_end(rec, [s["setup_s"] for s in setups])
    return rec, values, extra, checks, attempted, failed


def run_traced(w, seed):
    rec = qmcbench(w, seed, ["--gens", str(w["trace_gens"]), "--trace"])
    checks = [("traced replay reproduces the untraced chain bit for bit", rec["trace_equal"])]
    a1, f1 = check_chain(w, rec["untraced"], "untraced chain", checks)
    a2, f2 = check_chain(w, rec["traced"], "traced chain", checks)
    return rec, metrics.per_layer(rec), {}, checks, a1 + a2, f1 + f2


def run_one(name, seed, seconds, trace):
    """Run one workload: print its metrics, checks and provenance, keep
    the full record in .bench_build/results/, print the result line."""
    w = WORKLOADS[name]
    if trace:
        rec, values, extra, checks, attempted, failed = run_traced(w, seed)
        contract = metrics.contract_metrics("per_layer")
    else:
        rec, values, extra, checks, attempted, failed = run_untraced(w, seed, seconds)
        contract = metrics.contract_metrics("end_to_end")
    names = [n for n, _ in contract]
    if sorted(names) != sorted(values):
        fail("metric names differ from BENCHMARK.json: %s" % sorted(set(names) ^ set(values)))

    manifest = provenance(w, rec)
    print("workload %s  seed %d  trace %d" % (name, seed, trace))
    for n, unit in contract:
        print("  %-30s %16.6g %s" % (n, values[n], unit))
    print("  %-30s %16.6g share (failed / attempted samples: %d / %d)" %
          ("failed_share", failed / attempted, failed, attempted))
    for k, v in extra.items():
        print("  %-30s %16.6g" % (k, v))
    for what, ok in checks:
        print("  [%s] %s" % ("ok" if ok else "FAIL", what))
    print("provenance " + json.dumps(manifest, sort_keys=True))

    result = {
        "correct": all(ok for _, ok in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in contract},
    }
    out = os.path.join(BUILD, "results")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "%s-seed%d-trace%d.json" % (name, seed, trace)), "w") as f:
        json.dump({"result": result, "extra": extra, "checks": checks,
                   "provenance": manifest, "record": rec}, f, indent=1)
    print(json.dumps(result), flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="a workload, or all of them in turn (one result line each)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be >= 0")
    if args.seconds <= 0:
        fail("--seconds must be > 0")
    build()
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        run_one(name, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
