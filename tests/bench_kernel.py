"""Time simulate.replicate_uv on the noniid benchmark pass, by layer.

The pass is the one `experiment noniid` draws on the benchmark config:
bounded-ratio at mu0 0.8, omega2_0 0.4, dt 0.0025, the 32 harmonic design
points (x_inf 0, x_amp 1, T_inf 1, T_amp 1; 413 to 800 steps) at 400 rows
each, stacked with 12,800 rows at the limit point (0, 1), as
asymptotics._limits stacks them. --rows R runs R rows per point and 32 R
at the limit point instead.

Each repeat runs the pass twice. The first, timed, reports the pass time,
the time inside simulate.path_normals (the normals, summed over the
calling thread, which draws the first chunk, and the helper thread,
which draws the others), inside simulate._euler_rows (the Euler step
loop, on the calling thread) and in Future.result (the calling
thread's wait for the helper's next chunk), the chunk count and the step
iterations (the sum over chunks of their longest row's steps). The
second, untimed, reports the tracemalloc peak above the memory held
before the pass. Each repeat then times the reduction of the pass's 33
points to their divergence (at mu 1.5, omega2 0.5) and information
estimates, as asymptotics._limits makes them. A warm-up pass runs first;
the last line gives the medians. pytest does not collect this file.

    PYTHONPATH=src python tests/bench_kernel.py [--repeats N >= 2] [--rows R] [--seed S]
"""

import argparse
import statistics
import time
import tracemalloc
from concurrent.futures import Future

from sde_remle import DesignFamily, Theta, asymptotics, builtin_model, simulate
from sde_remle.asymptotics import _LANE_INFO
from sde_remle.rng import derive_seed, float_label

MODEL = builtin_model("bounded-ratio")
THETA0 = Theta(mu=0.8, omega2=0.4)
ALT = Theta(mu=1.5, omega2=0.5)
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


def timed_reduction(segs, parts):
    """Seconds to reduce each point's finite (U, V) rows of a pass to its
    divergence and information estimates."""
    t0 = time.perf_counter()
    for seg, (u, v) in zip(segs, parts):
        pt = (seg.x0, seg.T)
        u, v, _ = asymptotics._finite_rows(pt, u, v)
        asymptotics._kl(pt, THETA0, ALT, u, v)
        asymptotics._info(pt, THETA0, u, v)
    return time.perf_counter() - t0


def timed_pass(segs):
    """(pass s, normals s, Euler s, wait s, chunks, step iterations, (U, V)
    of each segment) of one pass."""
    fill, euler, wait = simulate.path_normals, simulate._euler_rows, Future.result
    spent = {"normals": 0.0, "euler": 0.0, "wait": 0.0, "chunks": 0, "steps": 0}

    def timed(fn, key):
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[key] += time.perf_counter() - t0
        return run

    def counted_euler(model, phis, x0, T, steps, *args, **kwargs):
        spent["chunks"] += 1
        spent["steps"] += int(steps[0])
        return euler(model, phis, x0, T, steps, *args, **kwargs)

    simulate.path_normals = timed(fill, "normals")
    simulate._euler_rows = timed(counted_euler, "euler")
    Future.result = timed(wait, "wait")
    try:
        t0 = time.perf_counter()
        parts = simulate.replicate_uv(MODEL, DT, segs)
        wall = time.perf_counter() - t0
    finally:
        simulate.path_normals, simulate._euler_rows, Future.result = fill, euler, wait
    return (wall, spent["normals"], spent["euler"], spent["wait"], spent["chunks"],
            spent["steps"], parts)


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
        wall, normals, euler, wait, chunks, steps, parts = timed_pass(segs)
        runs.append((wall, normals, euler, wait, peak_mib(segs), timed_reduction(segs, parts)))
        print(f"repeat {r + 1}: pass {wall:.3f} s, normals {normals:.3f} s, "
              f"Euler {euler:.3f} s, wait {wait:.3f} s, {chunks} chunks, "
              f"{steps} step iterations, peak {runs[-1][4]:.2f} MiB, "
              f"reduce {1e3 * runs[-1][5]:.2f} ms")
    wall, normals, euler, wait, peak, reduce = (statistics.median(col) for col in zip(*runs))
    print(f"median: pass {wall:.3f} s, normals {normals:.3f} s, Euler {euler:.3f} s, "
          f"wait {wait:.3f} s, peak {peak:.2f} MiB, reduce {1e3 * reduce:.2f} ms")


if __name__ == "__main__":
    main()
