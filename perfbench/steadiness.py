"""Seed-to-seed steadiness of the end-to-end metrics.

    python3 perfbench/steadiness.py --seeds 101-110 [--workloads a,b] [--out FILE]

Run from the root of a checkout. Runs perfbench/run.py once per (workload,
seed) with the run_seconds of BENCHMARK.json, then reports for each
end-to-end metric the distance between the first and third quartiles of
its values (statistics.quantiles, n=4) as a share of their median. A
spread must stay below a third of the metric's bound. --compare FILE
checks that no median of this set is worse than that of an earlier --out
by more than the metric's bound.
--out writes every value, the per-seed output hashes and the machine
record as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=seed_list, required=True, help="e.g. 101-110")
    p.add_argument("--workloads", default=None, help="comma-separated; default all")
    p.add_argument("--out", default=None)
    p.add_argument("--compare", default=None, help="an earlier --out file")
    args = p.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    earlier = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)["workloads"]
    record = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    steady = True
    for name in names:
        values, hashes, machine = {}, {}, None
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().split("\n")[-1])
            if not result["correct"] or result["failed"]:
                print(out.stdout, file=sys.stderr)
                raise SystemExit(f"{name} seed {seed}: incorrect or failed operations")
            for k, m in result["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            path = os.path.join("perfbench", "_runs", f"{name}-seed{seed}-trace0.json")
            with open(path, encoding="utf-8") as fh:
                detail = json.load(fh)
            hashes[seed] = detail["hashes"]
            machine = detail["machine"]
        spreads = {}
        for k, v in values.items():
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spreads[k] = {"median": med, "p25": q[0], "p75": q[2],
                          "spread": (q[2] - q[0]) / med, "bound": bounds[k]}
            ok = spreads[k]["spread"] < bounds[k] / 3
            steady &= ok
            line = (f"{name:15s} {k:17s} median {med:12.6g}  spread "
                    f"{spreads[k]['spread']:.4f}  bound/3 {bounds[k] / 3:.4f}"
                    f"{'' if ok else '  TOO WIDE'}")
            if earlier and name in earlier:
                before = earlier[name]["spreads"][k]["median"]
                worse = (med - before if lower[k] else before - med) / before
                spreads[k]["worse_than_earlier"] = worse
                steady &= worse <= bounds[k]
                line += f"  vs earlier {worse:+.4f}{'' if worse <= bounds[k] else '  WORSE'}"
            print(line, flush=True)
        record["workloads"][name] = {"values": values, "spreads": spreads,
                                     "hashes": hashes, "machine": machine}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
