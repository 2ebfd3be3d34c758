"""Time estimator.fit_rows on fixed (U, V) blocks and count its exact scans.

The profile scan sums with plain sums and sends to exactly rounded sums
only the rows whose argmax or flat decision the error bound leaves open.
This tool times fit_rows on three inputs, taking them in turn in every
repeat so that a drift in machine speed reaches each of them alike:

  consistency  the (U, V) of the consistency benchmark config (linear-drift,
               mu0 0.8, omega2_0 0.4, iid x0 1 T 1, 120 replicates,
               dt 0.1), fitted at its levels n = 50, 200 and 800
  1000x400     1000 synthetic rows of 400 subjects
  120x800      120 synthetic rows of 800 subjects

It prints each input's median and quartiles in ms, then the rows the scan
sent to exact sums against the rows fitted (an untimed pass). pytest
does not collect this file.

    PYTHONPATH=src python tests/bench_fit.py [--repeats N >= 2] [--seed S]
"""

import argparse
import statistics
import time

import numpy as np

from sde_remle import DesignFamily, ParamSpace, Theta, builtin_model, estimator
from sde_remle.asymptotics import _draw

SPACE = ParamSpace(mu_lo=-3.0, mu_hi=3.0, omega2_lo=0.0, omega2_hi=4.0)
LEVELS = (50, 200, 800)


def inputs(seed):
    """{name: list of (u, v) blocks}, each block one fit_rows call."""
    theta0 = Theta(mu=0.8, omega2=0.4)
    subjects = DesignFamily("iid", x0=1.0, T=1.0).subjects(max(LEVELS))
    (u, v), = _draw(builtin_model("linear-drift"), theta0, 0.1, [(seed, subjects, 120)], 1,
                    "consistency")
    blocks = {"consistency": [(u[:, :n], v[:, :n]) for n in LEVELS]}
    rng = np.random.default_rng(seed)
    for rows, n in ((1000, 400), (120, 800)):
        v = rng.uniform(0.05, 2.0, size=(rows, n))
        u = rng.normal(0.8 * v, np.sqrt(v + 0.4 * v * v))
        blocks[f"{rows}x{n}"] = [(u, v)]
    return blocks


def exact_scan_rows(blocks):
    """Rows the profile scan sent to exactly rounded sums, over the blocks."""
    scan = estimator._profile_scan
    sent = []

    def spy(u, v, space, grid, row_sums):
        if row_sums is estimator._row_fsum:
            sent.append(len(u))
        return scan(u, v, space, grid, row_sums)

    estimator._profile_scan = spy
    try:
        for u, v in blocks:
            estimator.fit_rows(u, v, SPACE)
    finally:
        estimator._profile_scan = scan
    return sum(sent)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--repeats", type=int, default=11)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    if args.repeats < 2:
        p.error("--repeats must be >= 2: the quartiles need two timings")
    blocks = inputs(args.seed)
    times = {name: [] for name in blocks}
    for name, pairs in blocks.items():  # warm-up, untimed
        for u, v in pairs:
            estimator.fit_rows(u, v, SPACE)
    for _ in range(args.repeats):
        for name, pairs in blocks.items():
            t0 = time.perf_counter()
            for u, v in pairs:
                estimator.fit_rows(u, v, SPACE)
            times[name].append(time.perf_counter() - t0)
    print(f"seed {args.seed}, {args.repeats} repeats; ms as p25 / median / p75")
    for name, pairs in blocks.items():
        p25, p50, p75 = (1e3 * t for t in statistics.quantiles(times[name], n=4))
        rows = sum(len(u) for u, _ in pairs)
        print(f"{name:12s} {p25:9.1f} {p50:9.1f} {p75:9.1f}   "
              f"exact-scan rows {exact_scan_rows(pairs)} of {rows}")


if __name__ == "__main__":
    main()
