"""One workload run in a fresh process: python3 perfbench/worker.py SPEC_JSON.

SPEC_JSON holds "calls" (CLI argument lists), "configs" (their config
files), "trace" (0 or 1), "report" (where to write the timings) and
"spans" (where a traced run dumps its spans). Set-up is the import of
sde_remle (with whatever it imports) plus parsing every config, and ends
before the first CLI call. Run from the root of a checkout; sde_remle is
imported from its src/ directory.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main():
    spec = json.loads(sys.argv[1])
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import sde_remle
    from sde_remle import cli, config

    if not os.path.abspath(sde_remle.__file__).startswith(src + os.sep):
        raise SystemExit(f"sde_remle imported from {sde_remle.__file__}, not {src}")
    for path in spec["configs"]:
        with open(path, "r", encoding="utf-8") as fh:
            config.parse_config(fh.read())
    setup_s = time.perf_counter() - T_START

    tracer = None
    if spec["trace"]:
        import tracer as tracer_mod
        modules = {
            name.rpartition(".")[2]: mod for name, mod in list(sys.modules.items())
            if name.startswith("sde_remle.")
        }
        tracer = tracer_mod.install(modules)

    t0 = time.perf_counter()
    codes = [cli.main(argv) for argv in spec["calls"]]
    run_s = time.perf_counter() - t0
    report = {
        "setup_s": setup_s,
        "run_s": run_s,
        "exit_codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        t0 = time.perf_counter()
        report["layers"] = tracer_mod.summarise(tracer, spec["threads"])
        tracer.dump(spec["spans"])
        report["dump_s"] = time.perf_counter() - t0
    with open(spec["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
