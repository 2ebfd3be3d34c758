"""The four workloads: their CLI calls, work counts and output checks.

Each workload is a closed loop of one client: one CLI invocation (two for
roundtrip) at a time, in a process of its own. The seed reaches the
program only through --seed.

consistency     fit-bound and substream-bound: 360 fits on 10-step grids,
                one Philox substream per (subject, replicate).
noniid          simulation and information/KL Monte Carlo on wide row
                blocks; every subject has its own (x0, T).
roundtrip       simulate (one row per Euler call) then fit the paths.csv it
                wrote; the only workload where CSV I/O is real work.
consistency-2t  consistency at --threads 2, the only run of the
                experiment thread pool; its CSVs must equal consistency's.
"""

import hashlib
import math
import os

SPACE = {"mu_lo": -3.0, "mu_hi": 3.0, "omega2_lo": 0.0, "omega2_hi": 4.0}
THETA0 = {"mu0": 0.8, "omega2_0": 0.4}

CONSISTENCY = dict(
    model="linear-drift", **THETA0, **SPACE, design="iid", x0=1.0, T=1.0,
    n_schedule="50,200,800", replicates=120, dt=0.1,
)
NONIID = dict(
    model="bounded-ratio", **THETA0, mu_alt=1.5, omega2_alt=0.5, **SPACE,
    design="harmonic", x_inf=0.0, x_amp=1.0, T_inf=1.0, T_amp=1.0,
    n=32, n_schedule="1,2,4,8,16,32", replicates=400, info_replicates=400,
    limit_replicates=12800, dt=0.0025,
)
SIMULATE = dict(model="unit", **THETA0, design="iid", x0=1.0, T=2.0, n=600, dt=0.01)
FIT = dict(model="unit", **SPACE)

# documented default seed per workload (used when --seed is not given)
DEFAULT_SEEDS = {"consistency": 1, "noniid": 2, "roundtrip": 3, "consistency-2t": 1}

REPLICATES_HEADER = "rep,n,mu_hat,omega2_hat,z_mu,z_omega2,boundary"
SUMMARY_HEADER = "n,med_err,p90_err,ks_mu,ks_omega2,cov_mu,cov_omega2"
LIMIT_KEYS = ("kl", "kl_se", "i00", "i00_se", "i01", "i01_se", "i11", "i11_se")
LIMITS_HEADER = "n," + ",".join(
    f"{k}{s}" for k in ("kl", "i00", "i01", "i11") for s in ("", "_se", "_gap", "_gap_se")
)
FIT_HEADER = "n,mu_hat,omega2_hat,loglik,score_norm,boundary,se_mu,se_omega2,iterations"
BOUNDARY_FLAGS = {"mu_lo", "mu_hi", "omega2_lo", "omega2_hi"}


def steps(T, dt):
    """Euler steps on [0, T], as sde_remle.simulate.time_grid counts them."""
    return max(1, int(math.ceil(T / dt - 1e-9)))


def _schedule(cfg):
    return [int(k) for k in cfg["n_schedule"].split(",")]


def write_config(path, cfg):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in cfg.items())


class CheckFailed(Exception):
    pass


def _require(ok, what):
    if not ok:
        raise CheckFailed(what)


def read_table(path, header):
    """Rows of a CSV as lists of cells, after checking its header."""
    _require(os.path.isfile(path), f"{path} missing")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    _require(lines[0] == header, f"{path}: header {lines[0]!r}")
    _require(lines[-1] == "", f"{path}: no final newline")
    rows = [line.split(",") for line in lines[1:-1]]
    width = header.count(",") + 1
    _require(all(len(r) == width for r in rows), f"{path}: ragged rows")
    return rows


def finite(cell, where, empty_ok=False):
    if cell == "" and empty_ok:
        return None
    try:
        x = float(cell)
    except ValueError:
        raise CheckFailed(f"{where}: {cell!r} is not a number")
    _require(math.isfinite(x), f"{where}: {cell!r} is not finite")
    return x


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Workload:
    """name, CLI calls for one run, work counts from the inputs, checks."""

    threads = 1

    def prepare(self, run_dir, seed):
        """Write the configs; returns (calls, config paths, output CSVs)."""
        raise NotImplementedError

    def check(self, run_dir):
        """Check the outputs; returns the number of dropped operations."""
        raise NotImplementedError


class Consistency(Workload):
    name = "consistency"
    operations = CONSISTENCY["replicates"] * len(_schedule(CONSISTENCY))
    path_steps = CONSISTENCY["replicates"] * sum(_schedule(CONSISTENCY)) * steps(
        CONSISTENCY["T"], CONSISTENCY["dt"])

    def prepare(self, run_dir, seed):
        cfg = os.path.join(run_dir, "consistency.cfg")
        write_config(cfg, CONSISTENCY)
        out = os.path.join(run_dir, "out")
        call = ["experiment", "consistency", "--config", cfg, "--out", out,
                "--seed", str(seed), "--threads", str(self.threads)]
        files = [os.path.join(out, f) for f in ("replicates.csv", "summary.csv")]
        return [call], [cfg], files

    def check(self, run_dir):
        out = os.path.join(run_dir, "out")
        schedule = _schedule(CONSISTENCY)
        rows = read_table(os.path.join(out, "replicates.csv"), REPLICATES_HEADER)
        dropped = _check_replicates(rows, schedule, CONSISTENCY["replicates"], z=False)
        summary = read_table(os.path.join(out, "summary.csv"), SUMMARY_HEADER)
        _require([int(r[0]) for r in summary] == schedule, "summary.csv: n column")
        for r in summary:
            finite(r[1], "summary.csv med_err")
            finite(r[2], "summary.csv p90_err")
            _require(r[3:] == ["", "", "", ""], "summary.csv: consistency has no ks/cov")
        return dropped


class ConsistencyTwoThreads(Consistency):
    name = "consistency-2t"
    threads = 2


def _check_replicates(rows, schedule, replicates, z):
    seen = set()
    for r in rows:
        key = (int(r[1]), int(r[0]))
        _require(key[0] in schedule and 0 <= key[1] < replicates and key not in seen,
                 f"replicates.csv: unexpected row {r[:2]}")
        seen.add(key)
        for cell in r[2:4]:
            finite(cell, "replicates.csv estimate")
        for cell in r[4:6]:
            if z:
                finite(cell, "replicates.csv z")
            else:
                _require(cell == "", "replicates.csv: unexpected z")
        _require(r[6] == "-" or set(r[6].split("|")) <= BOUNDARY_FLAGS,
                 f"replicates.csv: boundary {r[6]!r}")
    return len(schedule) * replicates - len(rows)


def _noniid_path_steps(c):
    horizons = [c["T_inf"] + c["T_amp"] / i for i in range(1, c["n"] + 1)]
    # per design point: the KL and information passes, the plug-in
    # information pass and one column of the replicate ensemble
    per_point = 2 * c["replicates"] + c["info_replicates"] + c["replicates"]
    total = sum(per_point * steps(T, c["dt"]) for T in horizons)
    return total + 2 * c["limit_replicates"] * steps(c["T_inf"], c["dt"])


class NonIid(Workload):
    name = "noniid"
    operations = NONIID["replicates"]
    path_steps = _noniid_path_steps(NONIID)

    def prepare(self, run_dir, seed):
        cfg = os.path.join(run_dir, "noniid.cfg")
        write_config(cfg, NONIID)
        out = os.path.join(run_dir, "out")
        call = ["experiment", "noniid", "--config", cfg, "--out", out,
                "--seed", str(seed), "--threads", "1"]
        files = [os.path.join(out, f) for f in
                 ("limits.csv", "limit.csv", "replicates.csv", "summary.csv")]
        return [call], [cfg], files

    def check(self, run_dir):
        out = os.path.join(run_dir, "out")
        limits = read_table(os.path.join(out, "limits.csv"), LIMITS_HEADER)
        _require([int(r[0]) for r in limits] == _schedule(NONIID), "limits.csv: n column")
        limit = read_table(os.path.join(out, "limit.csv"), ",".join(LIMIT_KEYS))
        _require(len(limit) == 1, "limit.csv: one row")
        for cell in [c for r in limits for c in r[1:]] + limit[0]:
            finite(cell, "limits")
        rows = read_table(os.path.join(out, "replicates.csv"), REPLICATES_HEADER)
        dropped = _check_replicates(rows, [NONIID["n"]], NONIID["replicates"], z=True)
        summary = read_table(os.path.join(out, "summary.csv"), SUMMARY_HEADER)
        _require(len(summary) == 1 and int(summary[0][0]) == NONIID["n"], "summary.csv: n")
        for cell in summary[0][1:]:
            finite(cell, "summary.csv")
        return dropped


class Roundtrip(Workload):
    name = "roundtrip"
    operations = SIMULATE["n"]
    path_steps = SIMULATE["n"] * steps(SIMULATE["T"], SIMULATE["dt"])

    def prepare(self, run_dir, seed):
        sim_cfg = os.path.join(run_dir, "simulate.cfg")
        fit_cfg = os.path.join(run_dir, "fit.cfg")
        sim_out = os.path.join(run_dir, "sim")
        fit_out = os.path.join(run_dir, "fit")
        write_config(sim_cfg, SIMULATE)
        write_config(fit_cfg, dict(FIT, data=os.path.join(sim_out, "paths.csv")))
        calls = [
            ["simulate", "--config", sim_cfg, "--out", sim_out, "--seed", str(seed)],
            ["fit", "--config", fit_cfg, "--out", fit_out, "--seed", str(seed)],
        ]
        files = [os.path.join(sim_out, "paths.csv"), os.path.join(sim_out, "stats.csv"),
                 os.path.join(fit_out, "stats.csv"), os.path.join(fit_out, "fit.csv")]
        return calls, [sim_cfg, fit_cfg], files

    def check(self, run_dir):
        n, T = SIMULATE["n"], SIMULATE["T"]
        m = steps(T, SIMULATE["dt"])
        paths = read_table(os.path.join(run_dir, "sim", "paths.csv"), "subject,k,t,x")
        _require(len(paths) == n * (m + 1), f"paths.csv: {len(paths)} rows")
        for r in paths:
            finite(r[2], "paths.csv t")
            finite(r[3], "paths.csv x")
        for sub in ("sim", "fit"):
            stats = read_table(os.path.join(run_dir, sub, "stats.csv"), "subject,u,v")
            _require([int(r[0]) for r in stats] == list(range(n)), "stats.csv: subjects")
            u = [finite(r[1], "stats.csv u") for r in stats]
            for r in stats:
                finite(r[2], "stats.csv v")
        fit = read_table(os.path.join(run_dir, "fit", "fit.csv"), FIT_HEADER)
        _require(len(fit) == 1 and int(fit[0][0]) == n, "fit.csv: one row for n")
        mu_hat = finite(fit[0][1], "fit.csv mu_hat")
        w2_hat = finite(fit[0][2], "fit.csv omega2_hat")
        for cell in fit[0][3:5]:
            finite(cell, "fit.csv")
        _require(fit[0][5] == "-" or set(fit[0][5].split("|")) <= BOUNDARY_FLAGS,
                 f"fit.csv: boundary {fit[0][5]!r}")
        for cell in fit[0][6:8]:
            finite(cell, "fit.csv se", empty_ok=True)
        # unit model: closed-form Gaussian MLE from the written U column
        mean = math.fsum(u) / n
        var = math.fsum((x - mean) ** 2 for x in u) / n
        mu_cf = mean / T
        w2_cf = max((var / T - 1.0) / T, 0.0)
        _require(abs(mu_hat - mu_cf) <= 1e-5, f"mu_hat {mu_hat!r} vs closed form {mu_cf!r}")
        _require(abs(w2_hat - w2_cf) <= 1e-5,
                 f"omega2_hat {w2_hat!r} vs closed form {w2_cf!r}")
        return 0


WORKLOADS = {w.name: w for w in (Consistency(), NonIid(), Roundtrip(),
                                 ConsistencyTwoThreads())}
