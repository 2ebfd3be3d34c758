"""The scripts in tests/ that pytest does not collect run once at their
smallest size, so a renamed private helper they import fails here and
not at their next manual run."""

import os
import re
import subprocess
import sys

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


def _run(cwd, script, *args):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, os.path.join(TESTS, script), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("args,last", [
    (("bench_fit.py", "--repeats", "2"), r"120x800"),
    (("bench_kernel.py", "--repeats", "2", "--rows", "4"),
     r"median: pass .* s, peak .* MiB, reduce \d+\.\d\d ms$"),
    (("fuzz_reader.py", "--examples", "20"), r"20 files,"),
    (("seed_sweep.py", "05", "1", "2"), r"05 \{\}: 1 of 1 seeds pass"),
], ids=["bench_fit", "bench_kernel", "fuzz_reader", "seed_sweep"])
def test_uncollected_script_runs_at_its_smallest_size(tmp_path, args, last):
    # last matches the start of the script's last line
    done = _run(tmp_path, *args)
    assert done.returncode == 0, done.stderr
    assert re.match(last, done.stdout.splitlines()[-1])


def test_bench_fit_refuses_fewer_than_two_repeats(tmp_path):
    # the quartiles of one timing raised StatisticsError after the warm-up
    done = _run(tmp_path, "bench_fit.py", "--repeats", "1")
    assert done.returncode == 2
    assert done.stderr.splitlines()[-1] == (
        "bench_fit.py: error: --repeats must be >= 2: the quartiles need two timings")
