"""scipy.stats is imported only by the experiment that runs the KS test.

It costs most of the package's import time and memory, so importing the
package, running the consistency experiment, or simulating and fitting
must leave it unloaded. Each check runs in a fresh interpreter.
"""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _loads_scipy_stats(script, cwd):
    code = textwrap.dedent(script) + textwrap.dedent("""
        import sys
        print("scipy.stats" in sys.modules)
    """)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=cwd, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    assert not _loads_scipy_stats("import sde_remle", tmp_path)


def test_consistency_experiment_leaves_scipy_stats_unloaded(tmp_path):
    (tmp_path / "run.cfg").write_text(
        "model = unit\nmu0 = 1.0\nomega2_0 = 0.5\nmu_lo = -3.0\nmu_hi = 3.0\n"
        "omega2_lo = 0.0\nomega2_hi = 4.0\ndesign = iid\nx0 = 0.0\nT = 1.0\n"
        "n_schedule = 4,8\nreplicates = 3\ndt = 0.1\nseed = 1\n"
    )
    assert not _loads_scipy_stats("""
        from sde_remle.cli import main
        assert main(["experiment", "consistency", "--config", "run.cfg", "--out", "out"]) == 0
    """, tmp_path)


def test_simulate_and_fit_leave_scipy_stats_unloaded(tmp_path):
    (tmp_path / "sim.cfg").write_text(
        "model = unit\nmu0 = 1.0\nomega2_0 = 0.5\ndesign = iid\nx0 = 0.0\n"
        "T = 1.0\nn = 5\ndt = 0.1\nseed = 2\n"
    )
    (tmp_path / "fit.cfg").write_text(
        "model = unit\nmu_lo = -3.0\nmu_hi = 3.0\nomega2_lo = 0.0\nomega2_hi = 4.0\n"
        "data = sim/paths.csv\n"
    )
    assert not _loads_scipy_stats("""
        from sde_remle.cli import main
        assert main(["simulate", "--config", "sim.cfg", "--out", "sim"]) == 0
        assert main(["fit", "--config", "fit.cfg", "--out", "fit"]) == 0
    """, tmp_path)


def test_normality_experiment_does_load_scipy_stats(tmp_path):
    # the check above would pass vacuously if the probe could not see it
    (tmp_path / "run.cfg").write_text(
        "model = unit\nmu0 = 1.0\nomega2_0 = 0.5\nmu_lo = -3.0\nmu_hi = 3.0\n"
        "omega2_lo = 0.0\nomega2_hi = 4.0\ndesign = iid\nx0 = 0.0\nT = 1.0\n"
        "n = 8\nreplicates = 4\ninfo_replicates = 100\ndt = 0.1\nseed = 1\n"
    )
    assert _loads_scipy_stats("""
        from sde_remle.cli import main
        assert main(["experiment", "normality", "--config", "run.cfg", "--out", "out"]) == 0
    """, tmp_path)
