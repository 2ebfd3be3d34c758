"""scipy.stats is never imported, and importing the package loads no scipy.

scipy.stats costs more import time and memory than the rest of the
package together, and the KS p-values come from sde_remle.ks instead;
scipy.special, which that module needs, is itself loaded only by the
experiments that test normality. Each check runs in a fresh interpreter.
"""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

NORMALITY_CFG = (
    "model = unit\nmu0 = 1.0\nomega2_0 = 0.5\nmu_lo = -3.0\nmu_hi = 3.0\n"
    "omega2_lo = 0.0\nomega2_hi = 4.0\ndesign = iid\nx0 = 0.0\nT = 1.0\n"
    "n = 8\nreplicates = 4\ninfo_replicates = 100\ndt = 0.1\nseed = 1\n"
)
NONIID_CFG = (
    "model = unit\nmu0 = 1.0\nomega2_0 = 0.5\nmu_alt = 1.5\nomega2_alt = 0.5\n"
    "mu_lo = -3.0\nmu_hi = 3.0\nomega2_lo = 0.0\nomega2_hi = 4.0\n"
    "design = harmonic\nx_inf = 0.0\nx_amp = 1.0\nT_inf = 1.0\nT_amp = 1.0\n"
    "n = 4\nn_schedule = 1,2,4\nreplicates = 100\ninfo_replicates = 100\n"
    "limit_replicates = 100\ndt = 0.1\nseed = 1\n"
)


def _loaded_scipy(script, cwd):
    """The scipy modules loaded once script has run, in a fresh interpreter."""
    code = textwrap.dedent(script) + textwrap.dedent("""
        import sys
        print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
    """)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=cwd, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _loads_scipy_stats(script, cwd):
    return "scipy.stats" in _loaded_scipy(script, cwd)


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    assert not _loads_scipy_stats("import sde_remle", tmp_path)


def test_import_loads_no_scipy_module(tmp_path):
    # scipy.special alone would add about a quarter second to every run
    assert _loaded_scipy("import sde_remle", tmp_path) == set()


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


def test_normality_experiment_leaves_scipy_stats_unloaded(tmp_path):
    (tmp_path / "run.cfg").write_text(NORMALITY_CFG)
    loaded = _loaded_scipy("""
        from sde_remle.cli import main
        assert main(["experiment", "normality", "--config", "run.cfg", "--out", "out"]) == 0
    """, tmp_path)
    # the KS p-values did run: they are what loads scipy.special
    assert "scipy.special" in loaded and "scipy.stats" not in loaded


def test_noniid_experiment_leaves_scipy_stats_unloaded(tmp_path):
    (tmp_path / "run.cfg").write_text(NONIID_CFG)
    loaded = _loaded_scipy("""
        from sde_remle.cli import main
        assert main(["experiment", "noniid", "--config", "run.cfg", "--out", "out"]) == 0
    """, tmp_path)
    assert "scipy.special" in loaded and "scipy.stats" not in loaded


def test_normality_experiment_does_load_scipy_stats(tmp_path):
    # Non-vacuity of the checks above: the normality experiment no longer
    # loads scipy.stats, so the probe script imports it itself after the
    # run, and the probe must see it.
    (tmp_path / "run.cfg").write_text(NORMALITY_CFG)
    assert _loads_scipy_stats("""
        from sde_remle.cli import main
        assert main(["experiment", "normality", "--config", "run.cfg", "--out", "out"]) == 0
        import scipy.stats
    """, tmp_path)
