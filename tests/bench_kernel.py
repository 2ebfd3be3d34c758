"""Time simulate.replicate_uv on the noniid benchmark pass, by layer.

The pass is the one `experiment noniid` draws on the benchmark config:
bounded-ratio at mu0 0.8, omega2_0 0.4, dt 0.0025, the 32 harmonic design
points (x_inf 0, x_amp 1, T_inf 1, T_amp 1; 413 to 800 steps) at 400 rows
each, stacked with 12,800 rows at the limit point (0, 1), as
asymptotics._limits stacks them. --rows R runs R rows per point and 32 R
at the limit point instead.

Each repeat runs the pass twice. The first, timed, reports the pass time,
the time inside simulate.path_normals (the normals) and inside
simulate._euler_rows (the Euler step loop), the chunk count and the step
iterations (the sum over chunks of their longest row's steps). The
second, untimed, reports the tracemalloc peak above the memory held
before the pass. A warm-up pass runs first; the last line gives the
medians. pytest does not collect this file.

    PYTHONPATH=src python tests/bench_kernel.py [--repeats N >= 2] [--rows R] [--seed S]
"""

import argparse
import statistics
import time
import tracemalloc

from sde_remle import DesignFamily, Theta, builtin_model, simulate
from sde_remle.asymptotics import _LANE_INFO
from sde_remle.rng import derive_seed, float_label

MODEL = builtin_model("bounded-ratio")
THETA0 = Theta(mu=0.8, omega2=0.4)
DT = 0.0025
POINTS = 32


def segments(seed, rows):
    """The noniid pass: POINTS design points of rows rows, then the limit
    point's POINTS * rows rows on its own lane seed."""
    design = DesignFamily("harmonic", x_inf=0.0, x_amp=1.0, T_inf=1.0, T_amp=1.0)
    limit = design.limit_point()
    lane = derive_seed(seed, _LANE_INFO, *map(float_label, limit))
    return (simulate.subject_segments(THETA0, seed, design.subjects(POINTS), rows)
            + simulate.subject_segments(THETA0, lane, [limit], POINTS * rows))


def timed_pass(segs):
    """(pass s, normals s, Euler s, chunks, step iterations) of one pass."""
    fill, euler = simulate.path_normals, simulate._euler_rows
    spent = {"normals": 0.0, "euler": 0.0, "chunks": 0, "steps": 0}

    def timed_fill(gen, out):
        t0 = time.perf_counter()
        try:
            return fill(gen, out)
        finally:
            spent["normals"] += time.perf_counter() - t0

    def timed_euler(model, phis, x0, T, steps, *args, **kwargs):
        spent["chunks"] += 1
        spent["steps"] += int(steps[0])
        t0 = time.perf_counter()
        try:
            return euler(model, phis, x0, T, steps, *args, **kwargs)
        finally:
            spent["euler"] += time.perf_counter() - t0

    simulate.path_normals, simulate._euler_rows = timed_fill, timed_euler
    try:
        t0 = time.perf_counter()
        simulate.replicate_uv(MODEL, DT, segs)
        wall = time.perf_counter() - t0
    finally:
        simulate.path_normals, simulate._euler_rows = fill, euler
    return wall, spent["normals"], spent["euler"], spent["chunks"], spent["steps"]


def peak_mib(segs):
    """tracemalloc peak of one pass, above what was held before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        simulate.replicate_uv(MODEL, DT, segs)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--repeats", type=int, default=7)
    p.add_argument("--rows", type=int, default=400)
    p.add_argument("--seed", type=int, default=2)
    args = p.parse_args()
    if args.repeats < 2:
        p.error("--repeats must be >= 2: the medians need two timings")
    if args.rows < 1:
        p.error("--rows must be >= 1")
    segs = segments(args.seed, args.rows)
    rows = sum(len(seg.phis) for seg in segs)
    print(f"seed {args.seed}, {args.rows} rows per point, {rows} rows, "
          f"{args.repeats} repeats; NORMAL_CHUNK {simulate.NORMAL_CHUNK}")
    simulate.replicate_uv(MODEL, DT, segs)  # warm-up, untimed
    runs = []
    for r in range(args.repeats):
        wall, normals, euler, chunks, steps = timed_pass(segs)
        runs.append((wall, normals, euler, peak_mib(segs)))
        print(f"repeat {r + 1}: pass {wall:.3f} s, normals {normals:.3f} s, "
              f"Euler {euler:.3f} s, {chunks} chunks, {steps} step iterations, "
              f"peak {runs[-1][3]:.2f} MiB")
    wall, normals, euler, peak = (statistics.median(col) for col in zip(*runs))
    print(f"median: pass {wall:.3f} s, normals {normals:.3f} s, Euler {euler:.3f} s, "
          f"peak {peak:.2f} MiB")


if __name__ == "__main__":
    main()
