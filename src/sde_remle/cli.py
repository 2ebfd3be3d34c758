"""Command-line front end.

Subcommands: simulate, fit, experiment {consistency,normality,noniid,
continuity}. Each takes --config PATH (flat key=value file), --seed N
(overrides the config key and the SDE_REMLE_SEED environment variable),
--out DIR, and --threads N. Every pass runs on one thread: --threads
must be >= 1 and changes nothing, so output files are byte-identical for
any value. Exit status: 0 success, 1 validation error, 2 runtime error.

Each experiment kind is one runner in the _EXPERIMENTS table. A runner
calls its library function with the config's values, writes its files
and returns the report (None for continuity) and the rest of its
"experiment KIND: ..." stdout line; one shared tail prints the line and
then raises ExperimentFailed when more than 1% of replicates failed."""

import argparse
import os
import sys

from . import config as config_mod
from . import io as io_mod
from .asymptotics import (
    run_consistency_experiment,
    run_moment_continuity_probe,
    run_noniid_experiment,
    run_normality_experiment,
)
from .errors import (
    ConfigError,
    EmptyEnsemble,
    EmptyExperiment,
    ExperimentFailed,
    IngestError,
    NotFound,
    ParseError,
    SdeRemleError,
)
from .estimator import fit_mle
from .models import Design, DesignFamily, ParamSpace, Theta, builtin_model
from .simulate import simulate_ensemble
from .stats import stats_list

_VALIDATION_ERRORS = (
    ConfigError, IngestError, NotFound, ValueError,
    EmptyExperiment, EmptyEnsemble,
)


def _parser():
    p = argparse.ArgumentParser(
        prog="sde-remle",
        description="Simulation and exact-likelihood estimation for "
                    "mixed-effects SDEs with multiplicative random drift.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, metavar="PATH")
        sp.add_argument("--seed", type=int, default=None, metavar="N")
        sp.add_argument("--out", default=None, metavar="DIR")
        sp.add_argument("--threads", type=int, default=1, metavar="N")

    common(sub.add_parser("simulate", help="simulate an ensemble, dump paths and stats"))
    common(sub.add_parser("fit", help="fit the MLE to a dumped path file"))
    pe = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    pe.add_argument("kind", choices=tuple(_EXPERIMENTS))
    common(pe)
    return p


def _theta0(cfg):
    return Theta(mu=cfg["mu0"], omega2=cfg["omega2_0"])


def _space(cfg):
    return ParamSpace(
        mu_lo=cfg["mu_lo"], mu_hi=cfg["mu_hi"],
        omega2_lo=cfg["omega2_lo"], omega2_hi=cfg["omega2_hi"],
    )


def _family(cfg, kind=None):
    """The config's subject layout; continuity, which has no design key,
    asks for its harmonic family by kind."""
    kind = kind or cfg["design"]
    if kind == "iid":
        return DesignFamily(kind="iid", x0=cfg["x0"], T=cfg["T"])
    return DesignFamily(
        kind=kind, x_inf=cfg["x_inf"], x_amp=cfg["x_amp"],
        T_inf=cfg["T_inf"], T_amp=cfg["T_amp"],
    )


def cmd_simulate(cfg, seed, out_dir):
    model = builtin_model(cfg["model"])
    theta0 = _theta0(cfg)
    design = Design(
        subjects=_family(cfg).subjects(cfg["n"]), dt=cfg["dt"], seed=seed
    )
    paths = simulate_ensemble(model, theta0, design)
    u, v = stats_list(paths, model)
    paths_file = os.path.join(out_dir, io_mod.PATHS_FILE)
    stats_file = os.path.join(out_dir, io_mod.STATS_FILE)
    io_mod.write_paths_csv(paths, paths_file)
    io_mod.write_stats_csv((p.subject_index for p in paths), u, v, stats_file)
    print(
        f"simulate: model={model.name} n={design.n} dt={cfg['dt']!r} "
        f"seed={seed} -> {paths_file}, {stats_file}"
    )
    return 0


def cmd_fit(cfg, seed, out_dir):
    model = builtin_model(cfg["model"])
    space = _space(cfg)
    paths = io_mod.read_paths_csv(cfg["data"])
    u, v = stats_list(paths, model)
    fit = fit_mle(u, v, space)
    stats_file = os.path.join(out_dir, io_mod.STATS_FILE)
    fit_file = os.path.join(out_dir, io_mod.FIT_FILE)
    io_mod.write_stats_csv((p.subject_index for p in paths), u, v, stats_file)
    io_mod.write_fit_csv(fit, len(u), fit_file)
    print(
        f"fit: n={len(u)} mu_hat={fit.theta_hat.mu!r} "
        f"omega2_hat={fit.theta_hat.omega2!r} loglik={fit.loglik!r} "
        f"boundary={io_mod._boundary_cell(fit.boundary)} -> {fit_file}"
    )
    return 0


def _write_report(report, out_dir):
    """Write replicates.csv and summary.csv; returns the replicates path."""
    rep_file = os.path.join(out_dir, io_mod.REPLICATES_FILE)
    io_mod.write_replicates_csv(report.rows, rep_file)
    io_mod.write_summary_csv(report.summaries, os.path.join(out_dir, io_mod.SUMMARY_FILE))
    return rep_file


# Each experiment kind's runner writes its files and returns (report or
# None, the text after "experiment KIND: " on stdout).

def _consistency(cfg, model, theta0, seed, out_dir):
    report = run_consistency_experiment(
        model, theta0, _space(cfg), _family(cfg), tuple(cfg["n_schedule"]),
        cfg["replicates"], cfg["dt"], seed,
    )
    rep_file = _write_report(report, out_dir)
    return report, (
        f"n_schedule={list(cfg['n_schedule'])} replicates={cfg['replicates']} "
        f"med_err_final={report.summaries[-1]['med_err']!r} -> {rep_file}"
    )


def _normality(cfg, model, theta0, seed, out_dir):
    report = run_normality_experiment(
        model, theta0, _space(cfg), _family(cfg), cfg["n"], cfg["replicates"], cfg["dt"], seed,
    )
    rep_file = _write_report(report, out_dir)
    s = report.summaries[0]
    return report, (
        f"n={s['n']} ks_mu={s['ks_mu']!r} ks_omega2={s['ks_omega2']!r} "
        f"cov_mu={s['cov_mu']!r} cov_omega2={s['cov_omega2']!r} -> {rep_file}"
    )


def _noniid(cfg, model, theta0, seed, out_dir):
    family = _family(cfg)
    if family.kind != "harmonic":
        raise ValueError("the noniid experiment needs design = harmonic")
    table, report = run_noniid_experiment(
        model, theta0, Theta(mu=cfg["mu_alt"], omega2=cfg["omega2_alt"]), _space(cfg), family,
        cfg["n"], tuple(cfg["n_schedule"]), cfg["replicates"], cfg["limit_replicates"],
        cfg["dt"], seed,
    )
    io_mod.write_limits_csv(table, os.path.join(out_dir, io_mod.LIMITS_FILE),
                            os.path.join(out_dir, io_mod.LIMIT_FILE))
    rep_file = _write_report(report, out_dir)
    final = table.rows[-1]
    return report, (
        f"n={final['n']} kl_gap={final['kl_gap']!r} i00_gap={final['i00_gap']!r} "
        f"ks_mu={report.summaries[0]['ks_mu']!r} -> {rep_file}"
    )


def _continuity(cfg, model, theta0, seed, out_dir):
    table = run_moment_continuity_probe(
        model, theta0, cfg["psi"], cfg["xi"], _family(cfg, "harmonic"),
        tuple(cfg["m_schedule"]), cfg["replicates"], cfg["limit_replicates"],
        cfg["dt"], seed,
    )
    out_file = os.path.join(out_dir, io_mod.CONTINUITY_FILE)
    io_mod.write_continuity_csv(table, out_file)
    return None, (
        f"m_schedule={list(cfg['m_schedule'])} "
        f"final_gap={table.rows[-1]['gap']!r} -> {out_file}"
    )


_EXPERIMENTS = {
    "consistency": _consistency,
    "normality": _normality,
    "noniid": _noniid,
    "continuity": _continuity,
}


def cmd_experiment(kind, cfg, seed, out_dir):
    model = builtin_model(cfg["model"])
    theta0 = _theta0(cfg)
    report, summary = _EXPERIMENTS[kind](cfg, model, theta0, seed, out_dir)
    print(f"experiment {kind}: {summary}")
    # the files are on disk for a post-mortem before a failed run raises
    if report is not None and report.failed:
        raise ExperimentFailed(
            f"{kind}: more than 1% of replicates failed "
            f"({len(report.failures)} failures)"
        )
    return 0


def _config_text(data):
    """The config file's bytes as text, newlines translated as a text-mode
    read translates them and one leading byte order mark dropped, as the
    utf-8-sig codec drops it; a byte that is not UTF-8 raises ParseError."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"byte 0x{data[err.start]:02x} is not UTF-8",
                         line=data.count(b"\n", 0, err.start) + 1) from None
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 1
    try:
        with open(args.config, "rb") as fh:
            data = fh.read()
    except OSError as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return 1
    command = args.command if args.command != "experiment" else args.kind
    try:
        text = _config_text(data)
        cfg = config_mod.parse_config(text)
        config_mod.check_required(command, cfg, eof_line=len(text.split("\n")))
        seed = config_mod.resolve_seed(cfg, args.seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        out_dir = args.out or cfg.get("output_dir") or "."
        os.makedirs(out_dir, exist_ok=True)
        if args.command == "simulate":
            return cmd_simulate(cfg, seed, out_dir)
        if args.command == "fit":
            return cmd_fit(cfg, seed, out_dir)
        return cmd_experiment(args.kind, cfg, seed, out_dir)
    except _VALIDATION_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:  # the output directory or a file in it
        print(f"error: cannot write output: {err}", file=sys.stderr)
        return 1
    except SdeRemleError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
