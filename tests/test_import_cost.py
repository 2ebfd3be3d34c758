"""No command loads a scipy module, and importing the package loads none.

The runtime needs numpy alone: the KS p-values of the normality
experiments come from sde_remle.ks, which computes them with numpy and
math. scipy.special alone would cost about a quarter second and 25 MB
in a fresh process, and scipy.stats more than the rest of the package
together; scipy is only the tests' oracle. Each check runs in a fresh
interpreter.
"""

import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

NORMALITY_CFG = (
    "model = unit\nmu0 = 1.0\nomega2_0 = 0.5\nmu_lo = -3.0\nmu_hi = 3.0\n"
    "omega2_lo = 0.0\nomega2_hi = 4.0\ndesign = iid\nx0 = 0.0\nT = 1.0\n"
    "n = 8\nreplicates = 100\ndt = 0.1\nseed = 1\n"
)
NONIID_CFG = (
    "model = unit\nmu0 = 1.0\nomega2_0 = 0.5\nmu_alt = 1.5\nomega2_alt = 0.5\n"
    "mu_lo = -3.0\nmu_hi = 3.0\nomega2_lo = 0.0\nomega2_hi = 4.0\n"
    "design = harmonic\nx_inf = 0.0\nx_amp = 1.0\nT_inf = 1.0\nT_amp = 1.0\n"
    "n = 4\nn_schedule = 1,2,4\nreplicates = 100\n"
    "limit_replicates = 100\ndt = 0.1\nseed = 1\n"
)
CONSISTENCY_CFG = (
    "model = unit\nmu0 = 1.0\nomega2_0 = 0.5\nmu_lo = -3.0\nmu_hi = 3.0\n"
    "omega2_lo = 0.0\nomega2_hi = 4.0\ndesign = iid\nx0 = 0.0\nT = 1.0\n"
    "n_schedule = 4,8\nreplicates = 3\ndt = 0.1\nseed = 1\n"
)
CONTINUITY_CFG = (
    "model = unit\nmu0 = 1.0\nomega2_0 = 0.5\npsi = 1.0\nxi = 1.0\n"
    "x_inf = 0.0\nx_amp = 1.0\nT_inf = 1.0\nT_amp = 1.0\nm_schedule = 1,2\n"
    "replicates = 3\nlimit_replicates = 100\ndt = 0.1\nseed = 1\n"
)
SIM_CFG = (
    "model = unit\nmu0 = 1.0\nomega2_0 = 0.5\ndesign = iid\nx0 = 0.0\n"
    "T = 1.0\nn = 5\ndt = 0.1\nseed = 2\n"
)
FIT_CFG = (
    "model = unit\nmu_lo = -3.0\nmu_hi = 3.0\nomega2_lo = 0.0\nomega2_hi = 4.0\n"
    "data = sim/paths.csv\n"
)


def _loaded(script, cwd, *packages):
    """The modules of the packages, themselves included, loaded once
    script has run, in a fresh interpreter."""
    prefixes = tuple(package + "." for package in packages)
    code = textwrap.dedent(script) + textwrap.dedent(f"""
        import sys
        print(" ".join(sorted(m for m in sys.modules if (m + ".").startswith({prefixes!r}))))
    """)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=cwd, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _loaded_scipy(script, cwd):
    return _loaded(script, cwd, "scipy")


def _loads_scipy_stats(script, cwd):
    return "scipy.stats" in _loaded_scipy(script, cwd)


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    assert not _loads_scipy_stats("import sde_remle", tmp_path)


def test_import_loads_no_scipy_module(tmp_path):
    # scipy.special alone would add about a quarter second to every run
    assert _loaded_scipy("import sde_remle", tmp_path) == set()


def test_consistency_experiment_leaves_scipy_stats_unloaded(tmp_path):
    (tmp_path / "run.cfg").write_text(CONSISTENCY_CFG)
    assert not _loads_scipy_stats("""
        from sde_remle.cli import main
        assert main(["experiment", "consistency", "--config", "run.cfg", "--out", "out"]) == 0
    """, tmp_path)


def test_simulate_and_fit_leave_scipy_stats_unloaded(tmp_path):
    (tmp_path / "sim.cfg").write_text(SIM_CFG)
    (tmp_path / "fit.cfg").write_text(FIT_CFG)
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
    assert loaded == set()


def test_noniid_experiment_leaves_scipy_stats_unloaded(tmp_path):
    (tmp_path / "run.cfg").write_text(NONIID_CFG)
    loaded = _loaded_scipy("""
        from sde_remle.cli import main
        assert main(["experiment", "noniid", "--config", "run.cfg", "--out", "out"]) == 0
    """, tmp_path)
    assert loaded == set()


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


def test_every_command_runs_with_scipy_refused(tmp_path):
    # a meta-path finder that refuses every scipy import, installed before
    # the package is imported: any command that needed scipy would fail
    for name, cfg in [("consistency", CONSISTENCY_CFG), ("normality", NORMALITY_CFG),
                      ("noniid", NONIID_CFG), ("continuity", CONTINUITY_CFG),
                      ("sim", SIM_CFG), ("fit", FIT_CFG)]:
        (tmp_path / f"{name}.cfg").write_text(cfg)
    _loaded_scipy("""
        import sys

        class RefuseScipy:
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] == "scipy":
                    raise ImportError("scipy is refused: " + name)
                return None

        sys.meta_path.insert(0, RefuseScipy())
        from sde_remle.cli import main
        for argv in (["simulate", "--config", "sim.cfg", "--out", "sim"],
                     ["fit", "--config", "fit.cfg", "--out", "fit"],
                     *(["experiment", kind, "--config", kind + ".cfg", "--out", kind]
                       for kind in ("consistency", "normality", "noniid", "continuity"))):
            assert main(argv) == 0, argv
    """, tmp_path)
    for out in ("sim", "fit", "consistency", "normality", "noniid", "continuity"):
        assert any((tmp_path / out).iterdir()), out


@pytest.mark.parametrize("argv", [
    *(["experiment", kind, "--config", kind + ".cfg", "--out", kind]
      for kind in ("consistency", "normality", "noniid", "continuity")),
    ["fit", "--config", "fit.cfg", "--out", "fit"],
], ids=lambda argv: argv[-1])
def test_no_command_loads_numpy_ma(tmp_path, argv):
    # np.quantile loads numpy.ma (through np.unique), about 1.2 MB of peak
    # RSS in a fresh process; each command runs after simulate, whose
    # paths.csv fit reads
    for name, cfg in [("consistency", CONSISTENCY_CFG), ("normality", NORMALITY_CFG),
                      ("noniid", NONIID_CFG), ("continuity", CONTINUITY_CFG),
                      ("sim", SIM_CFG), ("fit", FIT_CFG)]:
        (tmp_path / f"{name}.cfg").write_text(cfg)
    assert _loaded(f"""
        from sde_remle.cli import main
        assert main(["simulate", "--config", "sim.cfg", "--out", "sim"]) == 0
        assert main({argv!r}) == 0
    """, tmp_path, "numpy.ma") == set()


def test_import_and_fit_leave_the_draw_ahead_pool_unloaded(tmp_path):
    # concurrent.futures loads logging, about 4.6 ms in a fresh process;
    # only a simulation pass imports it. simulate runs in a process of
    # its own, so the probe sees what import and fit load
    (tmp_path / "sim.cfg").write_text(SIM_CFG)
    (tmp_path / "fit.cfg").write_text(FIT_CFG)
    pool = ("concurrent", "logging")
    assert {"concurrent.futures", "logging"} <= _loaded("""
        from sde_remle.cli import main
        assert main(["simulate", "--config", "sim.cfg", "--out", "sim"]) == 0
    """, tmp_path, *pool)
    assert _loaded("import sde_remle", tmp_path, *pool) == set()
    assert _loaded("""
        from sde_remle.cli import main
        assert main(["fit", "--config", "fit.cfg", "--out", "fit"]) == 0
    """, tmp_path, *pool) == set()
