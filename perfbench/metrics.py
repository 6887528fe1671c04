"""Metric arithmetic of the qmcxx benchmark.

Pure functions over the per-generation records that qmcbench prints, so
that the arithmetic can be tested on hand-built series
(test_perfbench.py) apart from any run of the engine.
"""

import json
import math
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(HERE, "..", "BENCHMARK.json")

# Generations that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def contract_metrics(key):
    """(name, unit) pairs of BENCHMARK.json's "end_to_end" or "per_layer"."""
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec[key]]


def generation_times(t_end):
    """Wall time of each generation (s) from the barrier timestamps."""
    out, prev = [], 0.0
    for t in t_end:
        out.append(t - prev)
        prev = t
    return out


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` values beyond it.

    For n sorted values, the value of rank n - beyond (1-based) has
    exactly `beyond` values ranked above it; its percentile is
    100 * (n - beyond) / n. Returns (value, percentile), or None when
    there are not more than `beyond` values.
    """
    n = len(values)
    if n <= beyond:
        return None
    rank = n - beyond
    return sorted(values)[rank - 1], 100.0 * rank / n


def generation_failed(energy, weight, acceptance):
    """A generation fails on a non-finite energy or weight, a total
    weight of 0, or an acceptance outside (0, 1]. Non-finite values
    arrive as None (JSON null)."""
    for v in (energy, weight, acceptance):
        if v is None or not math.isfinite(v):
            return True
    return weight == 0.0 or not 0.0 < acceptance <= 1.0


def chain_failures(chain, check_gens, reference, tolerance):
    """Failure accounting of one chain.

    Returns (attempted, failed, mean_energy, in_tolerance): attempted
    samples are walker-generations; a failed generation fails all its
    samples; the mean energy over the first `check_gens` generations
    that did not fail is compared with reference +- tolerance, and when
    it falls outside (or no generation is left to average) every sample
    of the chain fails.
    """
    gens = list(zip(chain["energy"], chain["weight"], chain["acceptance"],
                    chain["num_walkers"]))
    attempted = sum(int(g[3]) for g in gens)
    failed = 0
    checked = []
    for i, (e, w, a, nw) in enumerate(gens):
        if generation_failed(e, w, a):
            failed += int(nw)
        elif i < check_gens:
            checked.append(e)
    mean = statistics.fmean(checked) if checked else None
    in_tolerance = mean is not None and abs(mean - reference) <= tolerance
    if not in_tolerance:
        failed = attempted
    return attempted, failed, mean, in_tolerance


def end_to_end(rec, setup_s):
    """The end-to-end metrics of one untraced run: the chain record of
    the process that ran the workload, and the setup times of every
    process of the run. Returns ({name: value}, details) where details
    give the tail's percentile and the generation count."""
    gen_s = generation_times(rec["untraced"]["t_end"])
    samples = sum(int(n) for n in rec["untraced"]["num_walkers"])
    tail_s, tail_pct = tail(gen_s)
    values = {
        "samples_per_s": samples / sum(gen_s),
        "gen_ms_p50": 1e3 * statistics.median(gen_s),
        "gen_ms_tail": 1e3 * tail_s,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": rec["peak_rss_mb"],
    }
    return values, {"gen_ms_tail_percentile": tail_pct, "generations": len(gen_s)}


def per_layer(rec):
    """The per-layer metrics of one traced run (one process)."""
    tr = rec["trace"]
    k = tr["kernels"]
    mb = 1.0 / (1 << 20)
    pair_s = tr["particle.move_s"] + tr["particle.update_s"]
    wall = tr["walltime_s"]
    return {
        "particle.move_s": tr["particle.move_s"],
        "particle.update_s": tr["particle.update_s"],
        "particle.pairs_per_us": (tr["move_pairs"] + tr["update_pairs"]) / (1e6 * pair_s),
        "particle.table_mb": tr["table_bytes"] * mb,
        "wavefunction.grad_s": tr["wavefunction.grad_s"],
        "wavefunction.ratio_grad_s": tr["wavefunction.ratio_grad_s"],
        "wavefunction.accept_s": tr["wavefunction.accept_s"],
        "wavefunction.drift_guard_s": tr["wavefunction.drift_guard_s"],
        "wavefunction.accept_ratio": tr["accepted"] / tr["proposed"],
        "wavefunction.drift_refreshes": tr["drift_refreshes"],
        "wavefunction.walker_mb": tr["walker_bytes_mean"] * mb,
        "kernel.Bspline-v_s": k["Bspline-v"],
        "kernel.Bspline-vgh_s": k["Bspline-vgh"],
        "kernel.J2_s": k["J2"],
        "kernel.DetUpdate_s": k["DetUpdate"],
        "kernel.DistTable_s": k["DistTable"],
        "kernel.Other_s": k["Other"],
        "hamiltonian.eval_s": tr["hamiltonian.eval_s"],
        "concurrency.crowd_busy_s": tr["crowd_busy_s"],
        "concurrency.barrier_wait_s": tr["barrier_wait_s"],
        "concurrency.imbalance": tr["imbalance"],
        "drivers.init_s": rec["init_s"],
        "drivers.stage_s": tr["drivers.stage_s"],
        "drivers.branch_s": tr["branch_s"],
        "drivers.population_mean": tr["population_mean"],
        "drivers.population_max": tr["population_max"],
        "workloads.build_s": rec["build_s"],
        "workloads.spline_mb": rec["spline_bytes"] * mb,
        "trace.overhead": wall / tr["untraced_walltime_s"],
        "trace.untimed_share": tr["untimed_s"] / tr["thread_time_s"],
    }
