"""Time io.write_paths_csv and io.read_paths_csv on two ensembles.

The CSV codec writes every cell's repr and reads blocks of whole lines.
This tool times it on two inputs, taking them in turn in every repeat so
that a drift in machine speed reaches each of them alike:

  iid       the roundtrip benchmark's ensemble: the unit model at mu0 0.8,
            omega2_0 0.4, 600 subjects at x0 1, T 2, dt 0.01 and seed 3,
            so 600 x 201 rows on one shared time grid
  harmonic  600 subjects of the harmonic design (x_inf 0, x_amp 1, T_inf 1,
            T_amp 1) at dt 0.01, the same model and seed: 61,673 rows,
            where no two subjects share a grid

Each repeat writes the input's paths.csv to a temporary directory, then
reads it back. The tool prints each input's write and read times in ms
as p25 / median / p75, then the tracemalloc peak of one untimed write
and one untimed read. pytest does not collect this file.

    PYTHONPATH=src python tests/bench_io.py [--repeats N >= 2]
"""

import argparse
import os
import statistics
import tempfile
import time
import tracemalloc
from functools import partial

from sde_remle import Design, DesignFamily, Theta, builtin_model, simulate_ensemble
from sde_remle.io import read_paths_csv, write_paths_csv

MODEL = builtin_model("unit")
THETA0 = Theta(mu=0.8, omega2=0.4)
FAMILIES = {
    "iid": DesignFamily("iid", x0=1.0, T=2.0),
    "harmonic": DesignFamily("harmonic", x_inf=0.0, x_amp=1.0, T_inf=1.0, T_amp=1.0),
}


def inputs():
    """{name: paths}, each drawn as `simulate` draws it at seed 3."""
    return {name: simulate_ensemble(MODEL, THETA0, Design(
        subjects=family.subjects(600), dt=0.01, seed=3)) for name, family in FAMILIES.items()}


def timed(call):
    """Seconds one call takes."""
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


def peak(call):
    """tracemalloc peak in bytes of one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--repeats", type=int, default=11)
    args = p.parse_args()
    if args.repeats < 2:
        p.error("--repeats must be >= 2: the quartiles need two timings")
    with tempfile.TemporaryDirectory() as tmp:
        ops = {}
        for name, paths in inputs().items():
            path = os.path.join(tmp, f"{name}.csv")
            ops[name] = {"write": partial(write_paths_csv, paths, path),
                         "read": partial(read_paths_csv, path)}
        for calls in ops.values():  # warm-up, untimed
            for call in calls.values():
                call()
        times = {(name, op): [] for name, calls in ops.items() for op in calls}
        for _ in range(args.repeats):
            for name, calls in ops.items():
                for op, call in calls.items():
                    times[name, op].append(timed(call))
        print(f"{args.repeats} repeats; ms as p25 / median / p75, tracemalloc peak in MiB")
        for name, calls in ops.items():
            for op, call in calls.items():
                p25, p50, p75 = (1e3 * t for t in statistics.quantiles(times[name, op], n=4))
                print(f"{name:9s} {op:5s} {p25:8.1f} {p50:8.1f} {p75:8.1f}   "
                      f"peak {peak(call) / 2**20:5.2f}")


if __name__ == "__main__":
    main()
