"""Rerun the fixed-seed statistical checks of test_acceptance over a seed range.

Each check is the function a test calls at its own seed (test_05 to
test_09), with the test's exact assertions. A fixed-seed test that fails
at a tenth of the seeds passes or fails by the luck of its seed; this
tool measures that rate. pytest does not collect this file.

    python tests/seed_sweep.py CHECK FIRST END [NAME=VALUE ...]

runs CHECK at every seed in range(FIRST, END) and prints one line per
seed, then the pass count. NAME=VALUE sets a keyword of the check, such
as n=1600 or dt=0.1 for the normality checks. CHECK is one of the names
in CHECKS. Run it with the package importable, e.g. PYTHONPATH=src.
"""

import argparse
import ast
import os
import sys
import time
import traceback
import warnings

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import test_acceptance as acc  # noqa: E402

CHECKS = {
    "05": acc.check_05_fisher_information,
    "06": acc.check_06_consistency,
    "07": acc.check_07_normality,
    "08-limits": acc.check_08_limits,
    "08-normality": acc.check_08_normality,
    "09": acc.check_09_continuity,
}


def sweep(check, seeds, **settings):
    """Run check at each seed; returns the failing seeds with their messages."""
    failed = []
    for seed in seeds:
        t0 = time.perf_counter()
        try:
            check(seed, **settings)
            verdict = "pass"
        except AssertionError as exc:
            failed.append((seed, traceback.extract_tb(exc.__traceback__)[-1].line))
            verdict = f"FAIL {failed[-1][1]}"
        print(f"seed {seed}: {verdict} ({time.perf_counter() - t0:.1f} s)", flush=True)
    return failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("check", choices=sorted(CHECKS))
    parser.add_argument("first", type=int)
    parser.add_argument("end", type=int)
    parser.add_argument("settings", nargs="*", metavar="NAME=VALUE")
    args = parser.parse_args(argv)
    # as the suite runs them: a RuntimeWarning is an error
    warnings.simplefilter("error", RuntimeWarning)
    settings = {}
    for item in args.settings:
        name, _, value = item.partition("=")
        settings[name] = ast.literal_eval(value)
    seeds = range(args.first, args.end)
    failed = sweep(CHECKS[args.check], seeds, **settings)
    print(f"{args.check} {settings}: {len(seeds) - len(failed)} of {len(seeds)} seeds pass;"
          f" failing {[seed for seed, _ in failed]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
