"""sde-remle benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. NAME is one of consistency, noniid,
roundtrip, consistency-2t, or "all" to run each in turn. Every run of a
workload is a fresh process (perfbench/worker.py) that calls
sde_remle.cli.main, one at a time: a closed loop with one client. Runs
repeat until S seconds are used, then the medians are reported.

--trace 0 reports the end-to-end metrics, measured untraced:
  wall_s            process wall time of one workload run
  path_steps_per_s  Euler path-steps (rows x steps, from the inputs) per wall_s
                    (these two scaled to the reference machine speed
                    by a probe process; see REF_PROBE_S)
  setup_s           import of sde_remle plus config parsing, unscaled
  peak_rss_mb       peak resident memory of the run's process
  failed_frac       failed / attempted operations (replicate fits on the
                    experiments, paths on roundtrip), printed and carried by
                    the "attempted" and "failed" fields of the result line
--trace 1 alternates untraced and traced runs and reports the per-layer
metrics from perfbench/tracer.py, plus trace.overhead_frac and
trace.accounted_frac.

Every run's CSVs are checked (exit code, header, row count with dropped
replicates counted, finite values; the unit-model closed form on
roundtrip; byte equality with a --threads 1 run on consistency-2t) and
hashed. The details, the machine record and the hashes go to
perfbench/_runs/<workload>-seed<N>-trace<T>.json. The last stdout line is
one JSON object with keys correct, attempted, failed and metrics.
"""

import argparse
import importlib.metadata
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = os.path.join(HERE, "_runs")
MIN_UNTRACED = 3
MIN_TRACED = 2
MAX_RUN_S = 150.0  # no new process starts after this; each run must end by 180 s

# Machine speed on shared hosts drifts by tens of percent over minutes.
# A probe process, which imports numpy and nothing of the program and
# times a fixed numpy computation, runs before the first run and after
# every run. Each run's wall time is scaled by REF_PROBE_S / (mean of the
# probes just before and just after it), so it reads as if measured on a
# machine whose probe takes REF_PROBE_S; on the reference machine (2-vCPU
# Xeon KVM guest) the probe took 0.26 to 0.57 s, median 0.34. It runs outside
# the measured processes, so nothing the program does changes it; set-up
# time and memory are not scaled. Raw times stay in the record.
REF_PROBE_S = 0.33
PROBE = """\
import time
import numpy
t0 = time.perf_counter()
a = numpy.random.default_rng(0).standard_normal(1_000_000)
for _ in range(48):
    b = numpy.cumsum(a)
    c = a * b
    c.sum()
print(time.perf_counter() - t0)
"""

# counters that must repeat exactly between traced runs at one seed
EXACT = ("rng.streams", "simulate.path_steps", "likelihood.evals",
         "estimator.fits", "estimator.iterations_per_fit", "io.bytes_written")


def quartiles(values):
    """(p25, median, p75) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def machine_record():
    rec = {"nproc": os.cpu_count(), "cpu_model": None, "caches": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            rec["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")), None)
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            if not index.startswith("index"):
                continue
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(base, index, key), encoding="utf-8") as fh:
                    fields[key] = fh.read().strip()
            rec["caches"][f"L{fields['level']}-{fields['type']}"] = fields["size"]
    except OSError:
        pass
    rec["commit"] = None
    if os.path.isdir(".git"):
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True)
            rec["commit"] = got.stdout.strip() or None
        except OSError:
            pass
    return rec


def versions():
    """Python, numpy and scipy versions, read without importing numpy or scipy."""
    rec = {"python": sys.version.split()[0]}
    for dist in ("numpy", "scipy"):
        try:
            rec[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            rec[dist] = None
    return rec


def probe(deadline):
    """Time the probe in a process of its own; returns seconds."""
    got = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                         timeout=max(deadline - time.monotonic(), 1.0), check=True)
    return float(got.stdout)


def run_once(workload, run_dir, seed, trace, deadline, checked):
    """One workload run in a fresh process; returns a record of it.

    checked maps the output hashes of runs already checked to their
    number of dropped operations.
    """
    os.makedirs(run_dir)
    calls, configs, files = workload.prepare(run_dir, seed)
    spec = {
        "calls": calls, "configs": configs, "trace": trace,
        "threads": workload.threads,
        "report": os.path.join(run_dir, "report.json"),
        "spans": os.path.join(run_dir, "spans.json"),
    }
    rec = {"trace": trace, "ok": False, "dropped": 0, "error": None}
    with open(os.path.join(run_dir, "log.txt"), "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
            stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        rec["wall_s"] = time.perf_counter() - t0
    if proc.returncode != 0 or not os.path.isfile(spec["report"]):
        rec["error"] = f"worker exit code {proc.returncode}, see {run_dir}/log.txt"
        return rec
    with open(spec["report"], encoding="utf-8") as fh:
        report = json.load(fh)
    rec.update(report)
    if trace:
        rec["wall_s"] -= report["dump_s"]
    if any(code != 0 for code in report["exit_codes"]):
        rec["error"] = f"CLI exit codes {report['exit_codes']}"
        return rec
    try:
        rec["hashes"] = {os.path.relpath(f, run_dir): wl.sha256(f) for f in files}
        key = tuple(sorted(rec["hashes"].items()))
        # outputs byte-identical to ones already checked need no second check
        if key not in checked:
            checked[key] = workload.check(run_dir)
    except (OSError, wl.CheckFailed) as err:
        rec["error"] = f"output check: {err}"
        return rec
    rec["dropped"] = checked[key]
    rec["ok"] = True
    return rec


def bench(workload, seed, seconds, trace, units):
    """Run one workload for about `seconds`; returns the result dict.

    units maps every metric name to its unit, as BENCHMARK.json declares.
    """
    work = os.path.join(RUNS, workload.name)
    shutil.rmtree(work, ignore_errors=True)
    start = time.monotonic()
    deadline = start + 170.0
    load_start = os.getloadavg()
    records = []
    checked = {}
    probes = [probe(deadline)]

    def spent():
        return time.monotonic() - start

    def next_trace():
        # one untraced run first, then the traced minimum, then alternate
        if not trace or not records:
            return 0
        n_traced = sum(r["trace"] for r in records)
        return int(n_traced < MIN_TRACED or not records[-1]["trace"])

    def enough():
        n_traced = sum(r["trace"] for r in records)
        n_plain = len(records) - n_traced
        if n_plain < (1 if trace else MIN_UNTRACED) or (trace and n_traced < MIN_TRACED):
            return False
        guess = statistics.median(r["cycle_s"] for r in records)
        return spent() + guess > seconds

    while not enough() and spent() < MAX_RUN_S and len(records) < 100:
        k = len(records)
        run_dir = os.path.join(work, f"run-{k:03d}")
        t0 = time.monotonic()
        rec = run_once(workload, run_dir, seed, next_trace(), deadline, checked)
        probes.append(probe(deadline))
        rec["probe_s"] = (probes[-2] + probes[-1]) / 2
        rec["speed"] = REF_PROBE_S / rec["probe_s"]
        rec["cycle_s"] = time.monotonic() - t0
        records.append(rec)
        if k > 0:
            shutil.rmtree(os.path.join(work, f"run-{k - 1:03d}"), ignore_errors=True)

    notes = []
    first_ok = next((r for r in records if r["ok"]), None)
    for r in records:
        if r["ok"] and r["hashes"] != first_ok["hashes"]:
            r["ok"] = False
            r["error"] = "output bytes differ between runs at one seed"
    if workload.threads > 1 and first_ok is not None:
        ref = run_once(wl.WORKLOADS["consistency"], os.path.join(work, "threads-1"),
                       seed, 0, deadline, {})
        if not ref["ok"] or ref["hashes"] != first_ok["hashes"]:
            for r in records:
                if r["ok"]:
                    r["ok"] = False
                    r["error"] = ("CSVs differ from the --threads 1 run"
                                  f"{': ' + ref['error'] if ref['error'] else ''}")
    notes.extend(dict.fromkeys(r["error"] for r in records if r["error"]))

    attempted = workload.operations * len(records)
    failed = sum(r["dropped"] if r["ok"] else workload.operations for r in records)
    correct = all(r["ok"] for r in records) and not notes
    # timings count from every run whose process completed, checked or not;
    # correct, attempted and failed carry the verdict on its outputs
    plain = [r for r in records if "setup_s" in r and not r["trace"]]
    traced = [r for r in records if "setup_s" in r and r["trace"]]
    summary = {}

    def put(name, values):
        p25, med, p75 = quartiles(values)
        summary[name] = {"value": med, "unit": units[name], "p25": p25, "p75": p75,
                         "n": len(values)}

    if plain:
        put("wall_s", [r["wall_s"] * r["speed"] for r in plain])
        put("path_steps_per_s",
            [workload.path_steps / (r["wall_s"] * r["speed"]) for r in plain])
        put("setup_s", [r["setup_s"] for r in plain])
        put("peak_rss_mb", [r["peak_rss_mb"] for r in plain])
    layers = {}
    counters_repeat = None
    if traced and plain:
        names = traced[0]["layers"]["metrics"].keys()
        for name in names:
            values = [r["layers"]["metrics"][name] for r in traced]
            p25, med, p75 = quartiles(values)
            if len(set(values)) == 1:
                med = values[0]
            layers[name] = {"value": med, "unit": units[name], "p25": p25,
                            "p75": p75, "n": len(traced)}
        if "estimator.fits" in names:
            # replicate rows the experiment dropped before fitting, counted
            # from the output CSVs
            layers["estimator.skipped_rows"] = {
                "value": max(r["dropped"] for r in traced),
                "unit": units["estimator.skipped_rows"], "n": len(traced)}
        counters_repeat = all(
            len({r["layers"]["metrics"][k] for r in traced}) == 1
            for k in EXACT if k in names)
        if not counters_repeat:
            notes.append("exact counters differ between traced runs")
        if "simulate.path_steps" in names and (
                layers["simulate.path_steps"]["value"] != workload.path_steps):
            notes.append("traced simulate.path_steps differs from the count "
                         "computed from the inputs")
        # each traced run against the nearest untraced run, both scaled by
        # their probes like wall_s, so that drift in machine speed cancels
        done = [r for r in records if "setup_s" in r]
        ratios = []
        for i, r in enumerate(done):
            if r["trace"]:
                near = done[min((abs(i - j), j) for j, p in enumerate(done)
                                if not p["trace"])[1]]
                ratios.append(r["wall_s"] * r["speed"] / (near["wall_s"] * near["speed"]))
        layers["trace.overhead_frac"] = {"value": statistics.median(ratios) - 1.0,
                                         "unit": units["trace.overhead_frac"],
                                         "n": len(traced)}
        # set-up plus the self times along the blocking steps, against the
        # wall of the same traced process. The self times tile the cli.main
        # spans by construction, so this is a start-up and exit check: the
        # remainder is interpreter start-up, the worker's own imports and exit
        layers["trace.accounted_frac"] = {
            "value": statistics.median(
                (r["setup_s"] + r["layers"]["blocking_self_s"]) / r["wall_s"]
                for r in traced),
            "unit": units["trace.accounted_frac"], "n": len(traced)}
        layers_missing = traced[0]["layers"]["missing"]
        if layers_missing:
            notes.append(f"boundaries missing: {layers_missing}; metrics not "
                         f"reported: {traced[0]['layers']['gone']}")

    result = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "metrics": summary, "probes_s": probes,
        "layers": layers, "counters_repeat": counters_repeat,
        "notes": notes,
        "machine": dict(machine_record(),
                        versions=versions(),
                        loadavg_start=load_start, loadavg_end=os.getloadavg()),
        "hashes": first_ok["hashes"] if first_ok else None,
        "runs": [{k: r.get(k) for k in ("trace", "ok", "wall_s", "probe_s", "speed",
                                        "setup_s", "peak_rss_mb", "dropped", "error")}
                 for r in records],
    }
    out = os.path.join(RUNS, f"{workload.name}-seed{seed}-trace{trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def report_lines(result):
    """Human-readable lines: every metric by name, with its unit."""
    w = result["workload"]
    lines = [f"[{w}] seed={result['seed']} correct={result['correct']} "
             f"attempted={result['attempted']} failed={result['failed']}",
             f"[{w}] failed_frac = {result['failed_frac']:.6g} frac"]
    for name, m in list(result["metrics"].items()) + list(result["layers"].items()):
        spread = (f" (p25 {m['p25']:.6g}, p75 {m['p75']:.6g}," if "p25" in m else " (")
        lines.append(f"[{w}] {name} = {m['value']:.6g} {m['unit']}{spread} n={m['n']})")
    lines.extend(f"[{w}] note: {n}" for n in result["notes"])
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=list(wl.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=None,
                   help="default: the workload's documented seed")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # turn SIGTERM into SystemExit so a running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join("src", "sde_remle", "__init__.py")):
        print("error: run from the root of an sde-remle checkout "
              "(src/sde_remle not found)", file=sys.stderr)
        return 2
    if args.seed is not None and args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    os.makedirs(RUNS, exist_ok=True)
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        seed = wl.DEFAULT_SEEDS[name] if args.seed is None else args.seed
        results.append(bench(wl.WORKLOADS[name], seed, args.seconds, args.trace, units))
        print("\n".join(report_lines(results[-1])), flush=True)

    key = "layers" if args.trace else "metrics"
    if len(results) == 1:
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in results[0][key].items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": m["value"], "unit": m["unit"]}
                   for r in results for k, m in r[key].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
