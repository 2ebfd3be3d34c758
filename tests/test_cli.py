import re
import shutil
import subprocess
import sys

import io_reference as reference
import numpy as np
import pytest

from sde_remle import (
    Design, ModelSpec, ParamSpace, Path, Theta, builtin_model, simulate_ensemble,
)
from sde_remle.cli import _COMMANDS, main
from sde_remle.estimator import fit_mle
from sde_remle.io import read_paths_csv
from sde_remle.models import MAX_STEPS, DesignFamily
from sde_remle.stats import stats_list, suff_stats_rows

SIM_CFG = """\
model = unit
mu0 = 1.0
omega2_0 = 0.5
design = iid
x0 = 0.0
T = 1.0
n = 12
dt = 0.05
seed = 4
"""

SPACE_CFG = """\
mu_lo = -3.0
mu_hi = 3.0
omega2_lo = 0.0
omega2_hi = 4.0
"""


def _cfg(tmp_path, text, name="run.cfg"):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


def test_simulate_writes_paths_and_stats(tmp_path, capsys):
    cfg = _cfg(tmp_path, SIM_CFG)
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "paths.csv").exists()
    assert (tmp_path / "stats.csv").exists()
    out = capsys.readouterr().out
    assert "model=unit" in out and "seed=4" in out


def test_simulate_matches_library_call(tmp_path):
    cfg = _cfg(tmp_path, SIM_CFG)
    main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    back = read_paths_csv(tmp_path / "paths.csv")
    design = Design(subjects=((0.0, 1.0),) * 12, dt=0.05, seed=4)
    direct = simulate_ensemble(builtin_model("unit"), Theta(1.0, 0.5), design)
    assert len(back) == len(direct)
    for p, q in zip(back, direct):
        assert p.values.tolist() == q.values.tolist()


def test_fit_round_trips_through_csv(tmp_path, capsys):
    sim_dir = tmp_path / "sim"
    cfg = _cfg(tmp_path, SIM_CFG)
    main(["simulate", "--config", cfg, "--out", str(sim_dir)])

    fit_cfg = _cfg(
        tmp_path,
        f"model = unit\n{SPACE_CFG}data = {sim_dir / 'paths.csv'}\n",
        name="fit.cfg",
    )
    fit_dir = tmp_path / "fit"
    rc = main(["fit", "--config", fit_cfg, "--out", str(fit_dir)])
    assert rc == 0

    # the CSV carries full-precision reprs, so the round trip is exact
    model = builtin_model("unit")
    space = ParamSpace(mu_lo=-3.0, mu_hi=3.0, omega2_lo=0.0, omega2_hi=4.0)
    direct = fit_mle(*stats_list(read_paths_csv(sim_dir / "paths.csv"), model), space)
    header, row = (tmp_path / "fit" / "fit.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["mu_hat"]) == direct.theta_hat.mu
    assert float(cells["omega2_hat"]) == direct.theta_hat.omega2
    assert float(cells["loglik"]) == direct.loglik
    assert f"mu_hat={direct.theta_hat.mu!r}" in capsys.readouterr().out


@pytest.mark.parametrize("mu_hi, flags", [(3.0, "omega2_lo"), (0.5, "mu_hi|omega2_lo")])
def test_fit_prints_its_boundary_flags_as_fit_csv_does(tmp_path, capsys, mu_hi, flags):
    sim_dir, fit_dir = tmp_path / "sim", tmp_path / "fit"
    main(["simulate", "--config", _cfg(tmp_path, SIM_CFG), "--out", str(sim_dir)])
    space_cfg = SPACE_CFG.replace("mu_hi = 3.0", f"mu_hi = {mu_hi}")
    fit_cfg = _cfg(tmp_path, f"model = unit\n{space_cfg}data = {sim_dir / 'paths.csv'}\n", "f.cfg")
    assert main(["fit", "--config", fit_cfg, "--out", str(fit_dir)]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.endswith(f" boundary={flags} -> {fit_dir / 'fit.csv'}")
    header, row = (fit_dir / "fit.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["boundary"] == flags


def test_stats_and_fit_bytes_equal_the_per_cell_reference(tmp_path):
    # a harmonic design, so the paths lie on several grids
    sim_cfg = SIM_CFG.replace("model = unit", "model = bounded-ratio").replace(
        "design = iid\nx0 = 0.0\nT = 1.0\n",
        "design = harmonic\nx_inf = 0.5\nx_amp = 1.0\nT_inf = 1.0\nT_amp = 1.0\n",
    )
    sim_dir, fit_dir, ref = tmp_path / "sim", tmp_path / "fit", tmp_path / "ref"
    assert main(["simulate", "--config", _cfg(tmp_path, sim_cfg), "--out", str(sim_dir)]) == 0
    fit_cfg = f"model = bounded-ratio\n{SPACE_CFG}data = {sim_dir / 'paths.csv'}\n"
    assert main(["fit", "--config", _cfg(tmp_path, fit_cfg, "fit.cfg"), "--out", str(fit_dir)]) == 0

    # each path's statistics on its own, written cell by cell
    model = builtin_model("bounded-ratio")
    paths = reference.read_paths_csv(sim_dir / "paths.csv")
    assert len({len(p.times) for p in paths}) > 1
    u, v = (np.array(x) for x in zip(*(
        [float(s[0]) for s in suff_stats_rows(p.times, p.values, model)] for p in paths
    )))
    ref.mkdir()
    reference.write_stats_csv([p.subject_index for p in paths], u, v, ref / "stats.csv")
    space = ParamSpace(mu_lo=-3.0, mu_hi=3.0, omega2_lo=0.0, omega2_hi=4.0)
    reference.write_fit_csv(fit_mle(u, v, space), len(paths), ref / "fit.csv")
    want = (ref / "stats.csv").read_bytes()
    assert (sim_dir / "stats.csv").read_bytes() == want
    assert (fit_dir / "stats.csv").read_bytes() == want
    assert (fit_dir / "fit.csv").read_bytes() == (ref / "fit.csv").read_bytes()


def test_fit_with_an_infinite_v_is_validation_error(tmp_path, capsys):
    # b(x) = x on a path near 1e200 makes b^2 overflow, so V = inf
    data = tmp_path / "paths.csv"
    data.write_text("subject,k,t,x\n0,0,0.0,1e200\n0,1,0.5,2e200\n0,2,1.0,3e200\n"
                    "1,0,0.0,1.0\n1,1,0.5,1.2\n1,2,1.0,0.9\n")
    cfg = _cfg(tmp_path, f"model = linear-drift\n{SPACE_CFG}data = {data}\n", name="fit.cfg")
    rc = main(["fit", "--config", cfg, "--out", str(tmp_path / "fit")])
    assert rc == 1
    assert capsys.readouterr().err == "error: v must be finite and >= 0\n"
    assert not (tmp_path / "fit" / "stats.csv").exists()


def test_fit_with_an_overflowing_objective_is_runtime_error(tmp_path, capsys):
    # on the unit model U = x(T) - x0, so a finite path ending at 1e200
    # gives a U whose square overflows the objective
    data = tmp_path / "paths.csv"
    data.write_text("subject,k,t,x\n0,0,0.0,0.0\n0,1,1.0,1e200\n"
                    "1,0,0.0,0.0\n1,1,1.0,1.0\n")
    cfg = _cfg(tmp_path, f"model = unit\n{SPACE_CFG}data = {data}\n", name="fit.cfg")
    rc = main(["fit", "--config", cfg, "--out", str(tmp_path / "fit")])
    assert rc == 2
    assert "objective is not finite" in capsys.readouterr().err
    assert not (tmp_path / "fit" / "fit.csv").exists()


@pytest.mark.parametrize("rows", [
    # U = (1e308, 1e308, -1e308, -1e308) used to leak OverflowError from fsum
    ["0,0,0.0,0.0", "0,1,1.0,1e308", "1,0,0.0,0.0", "1,1,1.0,1e308",
     "2,0,0.0,0.0", "2,1,1.0,-1e308", "3,0,0.0,0.0", "3,1,1.0,-1e308"],
    # V = T = 1e308 used to give a finite, meaningless fit
    ["0,0,0.0,0.0", "0,1,1e308,1.0", "1,0,0.0,0.0", "1,1,1.0,2.0"],
])
def test_fit_with_overflowing_products_is_runtime_error(tmp_path, capsys, rows):
    # on the unit model U = x(T) - x0 and V = T
    data = tmp_path / "paths.csv"
    data.write_text("subject,k,t,x\n" + "\n".join(rows) + "\n")
    cfg = _cfg(tmp_path, f"model = unit\n{SPACE_CFG}data = {data}\n", name="fit.cfg")
    rc = main(["fit", "--config", cfg, "--out", str(tmp_path / "fit")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "objective is not finite" in err
    assert not (tmp_path / "fit" / "fit.csv").exists()


def test_missing_config_file_is_validation_error(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: cannot read config")


def test_a_config_byte_that_is_not_utf8_is_a_one_line_validation_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(SIM_CFG.encode().replace(b"design = iid", b"design = \xffiid"))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == "error: line 4: byte 0xff is not UTF-8\n"


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_config_lines_end_in_any_newline(tmp_path, capsys, newline):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes((SIM_CFG + "burnin = 7\n").replace("\n", newline).encode())
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == "error: line 10: unknown key 'burnin'\n"
    # a byte that is not UTF-8 is named by its line whatever the line ends
    cfg.write_bytes(SIM_CFG.replace("\n", newline).encode().replace(b"= iid", b"= \xffiid"))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: line 4: byte 0xff is not UTF-8\n"
    # a file that is only the first bytes of a byte order mark is not UTF-8
    for prefix in (b"\xef", b"\xef\xbb"):
        cfg.write_bytes(prefix)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: line 1: byte 0xef is not UTF-8\n"


def test_a_config_saved_with_a_byte_order_mark_reads_as_without(tmp_path):
    # the mark was read as part of the first key: "unknown key 'model'",
    # with the U+FEFF before "model" invisible; in a paths.csv it was read
    # as part of the header
    outputs, fits = [], []
    for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_bytes(bom + SIM_CFG.encode())
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        outputs.append({f: (tmp_path / name / f).read_bytes() for f in ("paths.csv", "stats.csv")})
        data = tmp_path / f"{name}.csv"
        data.write_bytes(bom + outputs[0]["paths.csv"])
        cfg.write_bytes(bom + f"model = unit\n{SPACE_CFG}data = {data}\n".encode())
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / f"fit-{name}")]) == 0
        fits.append({f: (tmp_path / f"fit-{name}" / f).read_bytes() for f in ("fit.csv", "stats.csv")})
    assert outputs[0] == outputs[1]
    assert fits[0] == fits[1]


@pytest.mark.parametrize("out, reason", [
    ("a_file", "File exists"),
    ("a_file/sub", "Not a directory"),
    ("out", "Is a directory"),
], ids=["out-is-a-file", "out-under-a-file", "output-file-is-a-directory"])
def test_a_bad_output_location_is_a_one_line_validation_error(tmp_path, capsys, out, reason):
    (tmp_path / "a_file").write_text("")
    (tmp_path / "out" / "paths.csv").mkdir(parents=True)
    cfg = _cfg(tmp_path, SIM_CFG)
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert reason in err and str(tmp_path / out) in err


def test_unknown_key_reports_line(tmp_path, capsys):
    cfg = _cfg(tmp_path, SIM_CFG + "burnin = 7\n")
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown key 'burnin'" in err and "line 10" in err


def test_missing_required_key(tmp_path, capsys):
    cfg = _cfg(tmp_path, "model = unit\nmu0 = 1.0\n")
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "missing required key" in capsys.readouterr().err


def test_unknown_model_is_validation_error(tmp_path, capsys):
    cfg = _cfg(tmp_path, SIM_CFG.replace("model = unit", "model = cir"))
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "cir" in capsys.readouterr().err


def test_bad_ingest_reports_subject_and_line(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text(
        "subject,k,t,x\n0,0,0.0,1.0\n0,1,0.5,1.1\n0,2,0.25,1.2\n"
    )
    cfg = _cfg(tmp_path, f"model = unit\n{SPACE_CFG}data = {data}\n")
    rc = main(["fit", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "subject 0" in err and "line 4" in err


@pytest.mark.parametrize("data, reason", [
    ("missing.csv", "No such file or directory"),
    (".", "Is a directory"),
    ("latin1.csv", "line 2: byte 0xe9 is not UTF-8"),
])
def test_unreadable_data_is_a_one_line_validation_error(tmp_path, capsys, data, reason):
    (tmp_path / "latin1.csv").write_bytes(b"subject,k,t,x\n0,0,0.0,caf\xe9\n")
    cfg = _cfg(tmp_path, f"model = unit\n{SPACE_CFG}data = {tmp_path / data}\n")
    rc = main(["fit", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err
    assert err.count("\n") == 1


_SIM_HEAD = "model = unit\nmu0 = 1.0\nomega2_0 = 0.5\nn = 4\ndt = 0.01\n"


# the config rejects a non-finite key, but the layout x_inf + x_amp / i,
# T_inf + T_amp / i can still overflow
@pytest.mark.parametrize("design, reason", [
    ("design = harmonic\nx_inf = 0.0\nx_amp = 1.0\nT_inf = 1e308\nT_amp = 1e308\n",
     "every x0 and T must be finite"),
    ("design = harmonic\nx_inf = 0.0\nx_amp = 1.0\nT_inf = 1e307\nT_amp = 1e307\n",
     "max(T) / dt overflows"),
    ("design = harmonic\nx_inf = 1e308\nx_amp = 1e308\nT_inf = 1.0\nT_amp = 1.0\n",
     "every x0 and T must be finite"),
], ids=["T-inf", "T-over-dt-inf", "x0-inf"])
def test_simulate_with_a_design_point_that_is_not_finite_is_validation_error(
        tmp_path, capsys, design, reason):
    cfg = _cfg(tmp_path, _SIM_HEAD + design)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", cfg, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {reason}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, T, steps", [
    ("simulate", "1e17", 10**19),
    ("simulate", "1000000.01", MAX_STEPS + 1),
    ("consistency", "1e17", 10**19),
], ids=["simulate-1e19", "simulate-past-the-bound", "consistency-1e19"])
def test_a_grid_past_the_step_bound_is_validation_error(tmp_path, capsys, command, T, steps):
    # the step count is checked before anything is allocated
    text = SIM_CFG.replace("T = 1.0", f"T = {T}").replace("dt = 0.05", "dt = 0.01")
    args = ["simulate"]
    if command != "simulate":
        text += SPACE_CFG + "n_schedule = 1,2\nreplicates = 2\n"
        args = ["experiment", command]
    out = tmp_path / "out"
    rc = main(args + ["--config", _cfg(tmp_path, text), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: T / dt gives {steps} steps; a grid may have at most {MAX_STEPS}\n"
    )
    assert list(out.iterdir()) == []


def test_threads_must_be_positive(capsys):
    rc = main(["simulate", "--config", "whatever.cfg", "--threads", "0"])
    assert rc == 1
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["simulate", "--config", "CFG", "--out", "OUT", "--seed", "abc"],
    ["simulate", "--config", "CFG", "--out", "OUT", "--threads", "x"],
    ["simulate", "--out", "OUT"],
    ["experiment", "bogus", "--config", "CFG", "--out", "OUT"],
    [],
], ids=["seed", "threads", "no-config", "kind", "no-command"])
def test_a_malformed_command_line_is_a_one_line_validation_error(
        tmp_path, capsys, monkeypatch, args):
    cfg = _cfg(tmp_path, SIM_CFG)
    monkeypatch.chdir(tmp_path)
    assert main([{"CFG": cfg, "OUT": str(tmp_path / "out")}.get(a, a) for a in args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    # nothing was written, not even the default output directory "."
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_negative_seed_rejected(tmp_path, capsys):
    cfg = _cfg(tmp_path, SIM_CFG)
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path), "--seed", "-1"])
    assert rc == 1
    assert "seed" in capsys.readouterr().err


def test_seed_flag_overrides_config(tmp_path, capsys):
    cfg = _cfg(tmp_path, SIM_CFG)
    main(["simulate", "--config", cfg, "--out", str(tmp_path), "--seed", "9"])
    assert "seed=9" in capsys.readouterr().out


def test_out_defaults_to_config_output_dir(tmp_path, capsys):
    target = tmp_path / "from_cfg"
    cfg = _cfg(tmp_path, SIM_CFG + f"output_dir = {target}\n")
    rc = main(["simulate", "--config", cfg])
    assert rc == 0
    assert (target / "paths.csv").exists()
    capsys.readouterr()


CONS_CFG = """\
model = unit
mu0 = 1.0
omega2_0 = 0.5
""" + SPACE_CFG + """\
design = iid
x0 = 0.0
T = 1.0
n_schedule = 20,40
replicates = 12
dt = 0.1
seed = 3
"""


def test_consistency_experiment_outputs(tmp_path, capsys):
    cfg = _cfg(tmp_path, CONS_CFG)
    rc = main(["experiment", "consistency", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "replicates.csv").exists()
    assert (tmp_path / "summary.csv").exists()
    reps = (tmp_path / "replicates.csv").read_text().splitlines()
    assert reps[0] == "rep,n,mu_hat,omega2_hat,z_mu,z_omega2,boundary"
    assert len(reps) == 1 + 12 * 2
    capsys.readouterr()


def test_threads_do_not_change_output_bytes(tmp_path, capsys):
    cfg = _cfg(tmp_path, CONS_CFG)
    d1, d8 = tmp_path / "t1", tmp_path / "t8"
    main(["experiment", "consistency", "--config", cfg, "--out", str(d1),
          "--threads", "1"])
    main(["experiment", "consistency", "--config", cfg, "--out", str(d8),
          "--threads", "8"])
    for name in ("replicates.csv", "summary.csv"):
        assert (d1 / name).read_bytes() == (d8 / name).read_bytes()
    capsys.readouterr()


def test_unsorted_schedule_rejected(tmp_path, capsys):
    cfg = _cfg(tmp_path, CONS_CFG.replace("n_schedule = 20,40", "n_schedule = 40,20"))
    rc = main(["experiment", "consistency", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "n_schedule" in capsys.readouterr().err


@pytest.mark.parametrize("schedule,message", [
    ("4,2", "n_schedule must be strictly increasing"),
    ("0,2", "n_schedule needs at least one entry, each >= 1"),
], ids=["unsorted", "zero"])
def test_noniid_schedule_errors_name_n_schedule(tmp_path, capsys, no_draws, schedule, message):
    cfg = _cfg(tmp_path, NONIID_CFG.replace("n_schedule = 1,2,4", f"n_schedule = {schedule}"))
    out = tmp_path / "out"
    assert main(["experiment", "noniid", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(out.iterdir()) == []


_COARSE_COMMON = """\
model = unit
mu0 = 1.0
omega2_0 = 0.5
""" + SPACE_CFG + """\
replicates = 100
dt = 0.05
"""

# each config breaks dt <= min(T) / 10 at exactly one horizon: the iid
# horizon, or the limit point that no subject of the schedule reaches
_COARSE = {
    "consistency": "design = iid\nx0 = 0.0\nT = 0.3\nn_schedule = 2,4\n",
    "normality": "design = iid\nx0 = 0.0\nT = 0.3\nn = 4\n",
    "noniid": "design = harmonic\nx_inf = 0.0\nx_amp = 1.0\nT_inf = 0.3\n"
              "T_amp = 1.0\nn = 4\nn_schedule = 1,2,4\nmu_alt = 1.5\n"
              "omega2_alt = 0.25\nlimit_replicates = 100\n",
    "continuity": "psi = 1.0\nxi = 1.0\nx_inf = 0.0\nx_amp = 1.0\nT_inf = 0.3\n"
                  "T_amp = 1.0\nm_schedule = 1,2\nlimit_replicates = 100\n",
}


@pytest.mark.parametrize("kind", sorted(_COARSE))
def test_experiment_rejects_step_coarser_than_a_tenth_of_a_horizon(tmp_path, capsys, kind):
    cfg = _cfg(tmp_path, _COARSE_COMMON + _COARSE[kind])
    out = tmp_path / "out"
    rc = main(["experiment", kind, "--config", cfg, "--out", str(out)])
    assert rc == 1
    assert "dt must be <= min(T) / 10" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# each config breaks T > 0 at exactly one horizon: the iid horizon, or
# the limit point of a harmonic family whose drawn subjects sit at T = 1/i
_NONPOSITIVE = {
    "simulate": "design = iid\nx0 = 0.0\nT = 0.0\nn = 4\n",
    "consistency": "design = iid\nx0 = 0.0\nT = 0.0\nn_schedule = 2,4\n",
    "normality": "design = iid\nx0 = 0.0\nT = 0.0\nn = 4\n",
    "noniid": "design = harmonic\nx_inf = 0.0\nx_amp = 1.0\nT_inf = 0.0\n"
              "T_amp = 1.0\nn = 2\nn_schedule = 1,2\nmu_alt = 1.5\n"
              "omega2_alt = 0.25\nlimit_replicates = 100\n",
    "continuity": "psi = 1.0\nxi = 1.0\nx_inf = 0.0\nx_amp = 1.0\nT_inf = 0.0\n"
                  "T_amp = 1.0\nm_schedule = 1,2\nlimit_replicates = 100\n",
}


@pytest.mark.parametrize("command", sorted(_NONPOSITIVE))
def test_every_command_that_draws_refuses_a_nonpositive_horizon_before_drawing(
        tmp_path, capsys, no_draws, command):
    cfg = _cfg(tmp_path, _COARSE_COMMON + _NONPOSITIVE[command])
    out = tmp_path / "out"
    assert main(_command_args(command) + ["--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: every T must be > 0\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("kind", ["consistency", "normality"])
def test_a_harmonic_limit_horizon_of_zero_runs_where_the_limit_is_not_drawn(
        tmp_path, capsys, kind):
    # subjects at T = 1/i; only noniid and continuity draw the limit (0, 0)
    text = (_COARSE_COMMON.replace("dt = 0.05", "dt = 0.02")
            + "design = harmonic\nx_inf = 0.0\nx_amp = 1.0\nT_inf = 0.0\nT_amp = 1.0\n"
            + ("n_schedule = 2,4\n" if kind == "consistency" else "n = 4\n"))
    rc = main(["experiment", kind, "--config", _cfg(tmp_path, text), "--out", str(tmp_path)])
    assert (rc, capsys.readouterr().err) == (0, "")
    assert len((tmp_path / "replicates.csv").read_text().splitlines()) > 1


def test_noniid_requires_harmonic_design(tmp_path, capsys):
    cfg = _cfg(tmp_path, CONS_CFG + "mu_alt = 1.5\nomega2_alt = 0.25\n"
               "n = 16\nlimit_replicates = 100\n")
    rc = main(["experiment", "noniid", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "harmonic" in capsys.readouterr().err


def test_experiment_failure_is_runtime_error(tmp_path, capsys):
    # growth 1 + phi*dt = 1e49 per step overflows float64 by step 8
    cfg = _cfg(tmp_path, CONS_CFG.replace("model = unit", "model = linear-drift")
               .replace("mu0 = 1.0", "mu0 = 1.0e50")
               .replace("mu_hi = 3.0", "mu_hi = 1.0e51"))
    rc = main(["experiment", "consistency", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert err == "error: consistency: more than 1% of replicates failed (24 failures)\n"
    assert out == ("experiment consistency: n_schedule=[20, 40] replicates=12 "
                   f"med_err_final=nan -> {tmp_path / 'replicates.csv'}\n")
    # partial outputs still land on disk for post-mortems: an empty table
    # is its header, and a level with no fit has NaN quantiles
    assert (tmp_path / "replicates.csv").read_bytes() == (
        b"rep,n,mu_hat,omega2_hat,z_mu,z_omega2,boundary\n")
    assert (tmp_path / "summary.csv").read_bytes() == (
        b"n,med_err,p90_err,ks_mu,ks_omega2,cov_mu,cov_omega2\n"
        b"20,nan,nan,,,,\n40,nan,nan,,,,\n")


NORM_CFG = (CONS_CFG.replace("n_schedule = 20,40\n", "n = 20\n")
            .replace("replicates = 12\n", "replicates = 100\n"))


def test_normality_with_singular_information_is_runtime_error(tmp_path, capsys, monkeypatch):
    # a Monte Carlo information estimate that is not positive definite is
    # a runtime failure (exit 2), not a bad input (exit 1)
    from sde_remle import asymptotics

    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    monkeypatch.setattr(asymptotics, "_info_mean", lambda *args: singular)
    cfg = _cfg(tmp_path, NORM_CFG)
    rc = main(["experiment", "normality", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "not positive definite" in capsys.readouterr().err


def test_normality_experiment_runs(tmp_path, capsys):
    cfg = _cfg(tmp_path, NORM_CFG)
    rc = main(["experiment", "normality", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    assert len((tmp_path / "replicates.csv").read_text().splitlines()) == 1 + 100
    capsys.readouterr()


NONIID_CFG = """\
model = unit
mu0 = 1.0
omega2_0 = 0.5
""" + SPACE_CFG + """\
design = harmonic
x_inf = 0.0
x_amp = 1.0
T_inf = 1.0
T_amp = 1.0
n = 4
n_schedule = 1,2,4
mu_alt = 1.5
omega2_alt = 0.25
replicates = 100
limit_replicates = 100
dt = 0.1
seed = 3
"""


def test_noniid_without_finite_monte_carlo_rows_is_runtime_error(tmp_path, capsys):
    # growth 1 + phi*dt = 1e49 per step: every information and divergence
    # row overflows, so the point estimate has nothing to average
    cfg = _cfg(tmp_path, NONIID_CFG.replace("model = unit", "model = linear-drift")
               .replace("mu0 = 1.0", "mu0 = 1.0e50")
               .replace("mu_hi = 3.0", "mu_hi = 1.0e51"))
    rc = main(["experiment", "noniid", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "(x, T) = (1.0, 2.0)" in err


@pytest.mark.parametrize("edit,message", [
    (("mu0 = 1.0", "mu0 = 5.0"), "the true theta must lie strictly inside the parameter rectangle"),
    (("mu_lo = -3.0", "mu_lo = 3.0"), "need mu_lo < mu_hi"),
], ids=["truth-outside", "empty-rectangle"])
def test_noniid_refuses_its_truth_and_rectangle_before_drawing(
        tmp_path, capsys, no_draws, edit, message):
    # the fits' checks, made before the ensemble is drawn
    cfg = _cfg(tmp_path, NONIID_CFG.replace(*edit))
    out = tmp_path / "out"
    assert main(["experiment", "noniid", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["consistency", "fit"])
def test_a_rectangle_no_data_can_be_fitted_on_is_refused_before_any_work(
        tmp_path, capsys, no_draws, command):
    # mu^2 V overflows for every V > 0 once max(|mu_lo|, |mu_hi|)^2 does
    data = tmp_path / "paths.csv"
    data.write_text(_DATA)
    text = (CONS_CFG if command == "consistency"
            else f"model = unit\n{SPACE_CFG}data = {data}\n")
    text = text.replace("mu_lo = -3.0", "mu_lo = -1e300").replace("mu_hi = 3.0", "mu_hi = 1e300")
    out = tmp_path / "out"
    assert main(_command_args(command) + ["--config", _cfg(tmp_path, text), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: need max(|mu_lo|, |mu_hi|)^2 and omega2_hi finite\n")
    assert list(out.iterdir()) == []


# on the schedule, before its last entry, off it, past it
@pytest.mark.parametrize("n", [4, 2, 3, 6],
                         ids=["n-4", "n-2", "n-off-schedule", "n-past-schedule"])
def test_noniid_writes_run_noniid_experiment_estimating_each_column_once(
        tmp_path, capsys, monkeypatch, n):
    """experiment noniid writes the tables of run_noniid_experiment at the
    config's values, with one information estimate per ensemble column
    and one for the limit point."""
    from sde_remle import DesignFamily, asymptotics, io, run_noniid_experiment

    calls = []
    real = asymptotics._reduce

    def counting(point, terms, names, cov=False):
        # an information estimate is the one reduction that takes covariances
        if cov:
            calls.append(point)
        return real(point, terms, names, cov)

    monkeypatch.setattr(asymptotics, "_reduce", counting)
    text = NONIID_CFG.replace("\nn = 4\n", f"\nn = {n}\n")
    rc = main(["experiment", "noniid", "--config", _cfg(tmp_path, text),
               "--out", str(tmp_path / "cli")])
    assert rc == 0
    assert len(calls) == max(n, 4) + 1
    capsys.readouterr()

    table, report = run_noniid_experiment(
        model=builtin_model("unit"), theta0=Theta(1.0, 0.5), theta=Theta(1.5, 0.25),
        space=ParamSpace(-3.0, 3.0, 0.0, 4.0),
        design=DesignFamily(kind="harmonic", x_inf=0.0, x_amp=1.0, T_inf=1.0, T_amp=1.0),
        n=n, n_schedule=(1, 2, 4), replicates=100, limit_replicates=100, dt=0.1, seed=3,
    )
    io.write_limits_csv(table, tmp_path / "limits.csv", tmp_path / "limit.csv")
    io.write_replicates_csv(report.rows, tmp_path / "replicates.csv")
    io.write_summary_csv(report.summaries, tmp_path / "summary.csv")
    names = ["limit.csv", "limits.csv", "replicates.csv", "summary.csv"]
    assert sorted(p.name for p in (tmp_path / "cli").iterdir()) == names
    for name in names:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes()


def test_noniid_runs_one_ensemble_pass_and_one_limit_point_pass(tmp_path, capsys, monkeypatch):
    """At the benchmark's noniid sizes one pass draws a (400, 32)
    ensemble and 12800 rows at the limit point: 25,600 rows and
    10,894,400 path steps."""
    from sde_remle import asymptotics
    from sde_remle.simulate import time_grid

    passes = []
    real = asymptotics.replicate_uv

    def counting(model, dt, segments, **kwargs):
        passes.append((sum(len(seg.phis) for seg in segments),
                       sum(len(seg.phis) * (len(time_grid(seg.T, dt)) - 1) for seg in segments)))
        return real(model, dt, segments, **kwargs)

    monkeypatch.setattr(asymptotics, "replicate_uv", counting)
    text = NONIID_CFG.replace("model = unit", "model = bounded-ratio")
    for key, value in (("mu0", "0.8"), ("omega2_0", "0.4"), ("n", "32"), ("mu_alt", "1.5"),
                       ("omega2_alt", "0.5"), ("n_schedule", "1,2,4,8,16,32"),
                       ("replicates", "400"), ("limit_replicates", "12800"), ("dt", "0.0025")):
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
    rc = main(["experiment", "noniid", "--config", _cfg(tmp_path, text),
               "--out", str(tmp_path / "out"), "--seed", "2"])
    assert rc == 0
    capsys.readouterr()
    ensemble_steps = 400 * sum(len(time_grid(1.0 + 1.0 / k, 0.0025)) - 1 for k in range(1, 33))
    assert passes == [(400 * 32 + 12800, ensemble_steps + 12800 * 400)]
    assert passes == [(25_600, 10_894_400)]


def test_normality_runs_one_ensemble_pass(tmp_path, capsys, monkeypatch):
    """The fits and the information that standardises them read one
    (replicates, n) ensemble: 100 rows of 20 subjects, 10 steps each."""
    from sde_remle import asymptotics
    from sde_remle.simulate import time_grid

    passes = []
    real = asymptotics.replicate_uv

    def counting(model, dt, segments, **kwargs):
        passes.append((sum(len(seg.phis) for seg in segments),
                       sum(len(seg.phis) * (len(time_grid(seg.T, dt)) - 1) for seg in segments)))
        return real(model, dt, segments, **kwargs)

    monkeypatch.setattr(asymptotics, "replicate_uv", counting)
    rc = main(["experiment", "normality", "--config", _cfg(tmp_path, NORM_CFG),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    capsys.readouterr()
    assert passes == [(100 * 20, 100 * 20 * 10)]


@pytest.mark.parametrize("kind", ["normality", "noniid"])
def test_info_replicates_is_accepted_and_read_by_no_command(tmp_path, capsys, kind):
    text = {"normality": NORM_CFG, "noniid": NONIID_CFG}[kind]
    for name, extra in (("plain", ""), ("keyed", "info_replicates = 7\n")):
        cfg = _cfg(tmp_path, text + extra, f"{name}.cfg")
        assert main(["experiment", kind, "--config", cfg, "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "keyed").iterdir())
    for name in names:
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "keyed" / name).read_bytes()


CONT_CFG = """\
model = unit
mu0 = 0.5
omega2_0 = 0.5
psi = 1.0
xi = 1.0
x_inf = 0.0
x_amp = 1.0
T_inf = 1.0
T_amp = 1.0
m_schedule = 1,2
replicates = 200
limit_replicates = 200
dt = 0.05
seed = 3
"""


def test_continuity_with_too_few_limit_replicates_is_validation_error(tmp_path, capsys):
    # a point needs 3 finite rows; 2 is refused before a normal is drawn
    cfg = _cfg(tmp_path, CONT_CFG.replace("limit_replicates = 200", "limit_replicates = 2"))
    out = tmp_path / "out"
    rc = main(["experiment", "continuity", "--config", cfg, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: moment estimation needs R >= 3\n"
    assert list(out.iterdir()) == []


def _last_row(path):
    header, *rows = path.read_text().splitlines()
    return dict(zip(header.split(","), rows[-1].split(",")))


# per kind: its config, the file its stdout line points at, the values it
# echoes from the config, and for every value it quotes from a CSV that
# file and column (of its last row)
_LINES = {
    "consistency": (CONS_CFG, "replicates.csv", {"n_schedule": "[20, 40]", "replicates": "12"},
                    {"med_err_final": ("summary.csv", "med_err")}),
    "normality": (NORM_CFG, "replicates.csv", {},
                  {key: ("summary.csv", key)
                   for key in ("n", "ks_mu", "ks_omega2", "cov_mu", "cov_omega2")}),
    "noniid": (NONIID_CFG, "replicates.csv", {},
               {"n": ("limits.csv", "n"), "kl_gap": ("limits.csv", "kl_gap"),
                "i00_gap": ("limits.csv", "i00_gap"), "ks_mu": ("summary.csv", "ks_mu")}),
    "continuity": (CONT_CFG, "continuity.csv", {"m_schedule": "[1, 2]"},
                   {"final_gap": ("continuity.csv", "gap")}),
}


@pytest.mark.parametrize("kind", sorted(_LINES))
def test_experiment_stdout_line_quotes_its_csv_cells(tmp_path, capsys, kind):
    text, target, echoed, quoted = _LINES[kind]
    out = tmp_path / "out"
    assert main(["experiment", kind, "--config", _cfg(tmp_path, text), "--out", str(out)]) == 0
    line = capsys.readouterr().out
    assert line.count("\n") == 1
    head, path = line.rstrip("\n").split(" -> ")
    assert path == str(out / target)
    prefix = f"experiment {kind}: "
    assert head.startswith(prefix)
    fields = re.findall(r"(\w+)=(\[[^\]]*\]|\S+)", head[len(prefix):])
    assert " ".join(f"{k}={v}" for k, v in fields) == head[len(prefix):]
    want = dict(echoed)
    want.update((key, _last_row(out / name)[column]) for key, (name, column) in quoted.items())
    assert dict(fields) == want


_CONFIGS = {"simulate": SIM_CFG, **{kind: text for kind, (text, *_) in _LINES.items()}}
_EMPTY = "design needs at least one subject"
_NO_STEP = "dt must be > 0"
_COUNT = {0: "replicates = 0", -1: "replicates must be >= 0, got -1"}
# (command, key): the error at key = 0 and at key = -1
_SIZE_ERRORS = {
    ("simulate", "n"): (_EMPTY, _EMPTY),
    ("simulate", "dt"): (_NO_STEP, _NO_STEP),
    ("consistency", "dt"): (_NO_STEP, _NO_STEP),
    ("consistency", "replicates"): (_COUNT[0], _COUNT[-1]),
    ("normality", "dt"): (_NO_STEP, _NO_STEP),
    ("normality", "replicates"): (_COUNT[0], _COUNT[-1]),
    ("normality", "n"): (_EMPTY, _EMPTY),
    ("noniid", "dt"): (_NO_STEP, _NO_STEP),
    ("noniid", "replicates"): (_COUNT[0], _COUNT[-1]),
    ("noniid", "limit_replicates"): ("divergence estimation needs R >= 100",) * 2,
    ("noniid", "n"): ("n must be >= 1, got 0", "n must be >= 1, got -1"),
    ("continuity", "dt"): (_NO_STEP, _NO_STEP),
    ("continuity", "replicates"): (_COUNT[0], _COUNT[-1]),
    ("continuity", "limit_replicates"): ("moment estimation needs R >= 3",
                                         "limit_replicates must be >= 0, got -1"),
}


@pytest.mark.parametrize("command,key,value,message", [
    *((command, key, value, message) for (command, key), messages in _SIZE_ERRORS.items()
      for value, message in zip((0, -1), messages)),
    # normality estimates its information from its own rows
    ("normality", "replicates", 99, "information estimation needs R >= 100"),
])
def test_a_size_below_one_is_refused_by_the_library_before_any_draw(
        tmp_path, capsys, no_draws, command, key, value, message):
    text, subs = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", _CONFIGS[command])
    assert subs == 1
    out = tmp_path / "out"
    args = [command] if command == "simulate" else ["experiment", command]
    assert main(args + ["--config", _cfg(tmp_path, text), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("kind", ["continuity", "noniid"])
def test_a_seed_past_64_bits_is_refused_before_any_work(tmp_path, capsys, kind):
    # 2**64 must not alias seed 0 through the derived seed lanes
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, _LINES[kind][0])
    assert main(["experiment", kind, "--config", cfg, "--out", str(out), "--seed", str(2**64)]) == 1
    assert capsys.readouterr().err == "error: seed must fit in 64 bits\n"
    assert not out.exists()


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sde_remle.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout and "experiment" in proc.stdout


def _command_args(command):
    return [command] if command in ("simulate", "fit") else ["experiment", command]


# a value for every key of the command table, at sizes that run in a blink;
# R = 100 is the least the information and divergence estimates take
_VALUES = {
    "model": "unit", "mu0": "1.0", "omega2_0": "0.5", "mu_alt": "1.5", "omega2_alt": "0.25",
    "mu_lo": "-3.0", "mu_hi": "3.0", "omega2_lo": "0.0", "omega2_hi": "4.0",
    "x0": "0.0", "T": "1.0", "x_inf": "0.0", "x_amp": "1.0", "T_inf": "1.0", "T_amp": "1.0",
    "n": "4", "n_schedule": "2,4", "m_schedule": "1,2", "dt": "0.1",
    "replicates": "100", "limit_replicates": "100", "psi": "0.5", "xi": "1.0",
}
_DATA = "subject,k,t,x\n" + "".join(
    f"{i},0,0.0,0.0\n{i},1,0.5,{x / 2}\n{i},2,1.0,{x}\n"
    for i, x in enumerate((0.3, 1.2, -0.4, 2.1, 0.9)))


@pytest.mark.parametrize("command,kind", [
    ("simulate", "iid"), ("simulate", "harmonic"), ("fit", None),
    ("consistency", "iid"), ("consistency", "harmonic"),
    ("normality", "iid"), ("normality", "harmonic"),
    ("noniid", "iid"), ("noniid", "harmonic"), ("continuity", None),
])
def test_every_key_a_command_reads_is_required(tmp_path, capsys, command, kind):
    """A config of exactly a command's required keys runs, and one that
    lacks any of them is refused with that key at the end-of-file line."""
    _, keys = _COMMANDS[command]
    assert ("design" in keys) == (kind is not None)
    keys += DesignFamily.FIELDS.get(kind, ())
    data = tmp_path / "paths.csv"
    data.write_text(_DATA)
    values = dict(_VALUES, design=kind, data=str(data))
    lines = [f"{key} = {values[key]}\n" for key in keys]
    out = tmp_path / "out"
    args = _command_args(command) + ["--config", str(tmp_path / "run.cfg"), "--out", str(out)]
    _cfg(tmp_path, "".join(lines))
    rc, err = main(args), capsys.readouterr().err
    if command == "noniid" and kind == "iid":
        # every key is there; the design is the wrong kind
        assert (rc, err) == (1, "error: the noniid experiment needs design = harmonic\n")
    else:
        assert (rc, err) == (0, "")
    for i, key in enumerate(keys):
        shutil.rmtree(out, ignore_errors=True)
        _cfg(tmp_path, "".join(lines[:i] + lines[i + 1:]))
        assert main(args) == 1
        eof = len(keys)  # the line after the last of the remaining keys
        assert capsys.readouterr().err == f"error: line {eof}: missing required key '{key}'\n"
        assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "consistency", "normality", "noniid"])
def test_an_unknown_design_kind_is_a_validation_error(tmp_path, capsys, command):
    # no point key is given; the kind is refused before any is read
    _, keys = _COMMANDS[command]
    values = dict(_VALUES, design="bogus")
    cfg = _cfg(tmp_path, "".join(f"{key} = {values[key]}\n" for key in keys))
    out = tmp_path / "out"
    assert main(_command_args(command) + ["--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: design kind must be 'iid' or 'harmonic'\n"


# b(x) = x at mu0 = 50 and dt = 1: the states grow by about 51 a step and
# stay finite up to T = 180, but b^2 / sigma^2 overflows long before
_OVERFLOW_CFG = """\
model = linear-drift
mu0 = 50.0
omega2_0 = 0.5
design = iid
x0 = 1.0
T = {T}
n = 3
dt = 1.0
seed = 4
"""
_LIB_SPACE = ParamSpace(mu_lo=-3.0, mu_hi=3.0, omega2_lo=0.0, omega2_hi=4.0)
_SIGNED = ModelSpec(name="signed", b=np.ones_like, sigma=lambda x: x)
_THIN_PATH = Path(times=np.array([0.0, 1.0]), values=np.array([1e-7, 1.0]), subject_index=0)

# one input per error role, and the one stderr line and exit code it
# gives: a config (with {data}, a paths.csv whose line 4 goes back in
# time), or a library call that the simulate runner makes in its stead
_ERRORS = {
    "unknown key": ("simulate", SIM_CFG + "burnin = 7\n",
                    "line 10: unknown key 'burnin'", 1),
    "missing key": ("simulate", "model = unit\nmu0 = 1.0\n",
                    "line 3: missing required key 'omega2_0'", 1),
    "bad value": ("simulate", SIM_CFG.replace("n = 12", "n = twelve"),
                  "line 7: 'n' needs an integer, got 'twelve'", 1),
    "unknown model": ("simulate", SIM_CFG.replace("model = unit", "model = bogus"),
                      "no model named 'bogus'", 1),
    "zero replicates": ("consistency", CONS_CFG.replace("replicates = 12", "replicates = 0"),
                        "replicates = 0", 1),
    "bad paths line": ("fit", f"model = unit\n{SPACE_CFG}data = {{data}}\n",
                       "line 4: subject 0 time must increase (t=0.25 after t=0.5)", 1),
    "diverged": ("simulate", _OVERFLOW_CFG.replace("{T}", "200"),
                 "state became non-finite at step 181 (subject 0)", 2),
    "no subjects": ("simulate", lambda: fit_mle([], [], _LIB_SPACE),
                    "cannot fit zero subjects", 1),
    "every V = 0": ("simulate", lambda: fit_mle([0.0, 0.0], [0.0, 0.0], _LIB_SPACE),
                    "every subject has V = 0", 2),
    "V = 0, U != 0": ("simulate", lambda: fit_mle([1.0, 1.0], [0.0, 1.0], _LIB_SPACE),
                      "subject with V = 0 but U != 0 makes the objective infinite", 2),
    "U not finite": ("simulate", lambda: fit_mle([np.nan], [1.0], _LIB_SPACE),
                     "U and V must be finite", 2),
    "sigma <= 0": ("simulate", lambda: simulate_ensemble(
        _SIGNED, Theta(1.0, 0.5), Design(subjects=((1.0, 1.0), (-1.0, 1.0)), dt=0.1, seed=4)),
        "sigma <= 0 at step 0 for model 'signed' at design point (x, T) = (-1.0, 1.0) "
        "(subject 1)", 2),
    "sigma^2 below floor": ("simulate", lambda: stats_list([_THIN_PATH], _SIGNED),
                            "sigma^2 below 1e-12 on the grid for model 'signed'", 2),
}


@pytest.mark.parametrize("case", _ERRORS)
def test_each_error_role_prints_its_line_and_exits_with_its_code(
        tmp_path, capsys, monkeypatch, case):
    command, source, line, code = _ERRORS[case]
    if callable(source):
        call, source = source, SIM_CFG
        monkeypatch.setitem(_COMMANDS, command,
                            (lambda cfg, seed, out_dir: call(), _COMMANDS[command][1]))
    data = tmp_path / "paths.csv"
    data.write_text("subject,k,t,x\n0,0,0.0,1.0\n0,1,0.5,1.1\n0,2,0.25,1.2\n")
    cfg = _cfg(tmp_path, source.replace("{data}", str(data)))
    rc = main(_command_args(command) + ["--config", cfg, "--out", str(tmp_path / "out")])
    assert (rc, capsys.readouterr().err) == (code, f"error: {line}\n")


@pytest.mark.parametrize("T", [100, 150])
def test_simulated_stats_that_overflow_are_a_runtime_error_naming_the_subject(
        tmp_path, capsys, T):
    # the states are finite, so it is the run that failed, not its input;
    # fit on such a paths.csv is still a validation error
    cfg = _cfg(tmp_path, _OVERFLOW_CFG.replace("{T}", str(T)))
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert (rc, capsys.readouterr().err) == (2, "error: v must be finite and >= 0 (subject 0)\n")
    assert not (tmp_path / "out" / "paths.csv").exists()
