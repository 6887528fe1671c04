#!/usr/bin/env python3
"""Derive the energy references that run.py commits.

    python3 perfbench/calibrate.py [--seeds 8]

For every workload, runs a double-precision chain of `check_gens`
generations at seeds 1..N with the workload's other settings and
prints the mean of the chains' mean energies (failed generations left
out) and 6 standard deviations of them: the statistical tolerance a
run's mean must meet. Paste the printed values into run.py's WORKLOADS.
"""

import argparse
import statistics

import metrics
import run


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=8)
    args = ap.parse_args()
    run.build()
    for name, w in run.WORKLOADS.items():
        ref = dict(w, precision="double")
        means = []
        for seed in range(1, args.seeds + 1):
            rec = run.qmcbench(ref, seed, ["--gens", str(w["check_gens"])])
            _, _, mean, _ = metrics.chain_failures(rec["untraced"], w["check_gens"], 0.0,
                                                   float("inf"))
            means.append(mean)
            print("%s seed %d: %.6f" % (name, seed, mean), flush=True)
        print("%s: reference %.6f tolerance %.6f" %
              (name, statistics.fmean(means), 6 * statistics.stdev(means)), flush=True)


if __name__ == "__main__":
    main()
