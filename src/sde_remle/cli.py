"""Command-line front end.

Subcommands: simulate, fit, experiment {consistency,normality,noniid,
continuity}. Each takes --config PATH (flat key=value file), --seed N
(overrides the config key and the SDE_REMLE_SEED environment variable),
--out DIR, and --threads N. --threads must be >= 1 and changes
nothing: a pass of more than one chunk draws its next chunk's normals
on one helper thread whatever --threads is, 1 included, so output files
are byte-identical for any value.
Exit status: 0 success; 1 for bad input, a ConfigError (a malformed
flag, config or output location), IngestError or ValueError; 2 for
every other SdeRemleError, a failed run. Every error is one
"error: ..." line on stderr.

Each command is one entry in the _COMMANDS table: its runner and the
config keys it needs, to which a command that reads the design key adds
its kind's DesignFamily.FIELDS. A runner calls its library function with
the config's values, writes its files and returns the report (None when
it has none) and the rest of its stdout line; one shared tail prints the
line and then raises ExperimentFailed when more than 1% of replicates
failed."""

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
from .errors import ConfigError, ExperimentFailed, IngestError, InvalidStats, SdeRemleError
from .estimator import fit_mle
from .models import Design, DesignFamily, ParamSpace, Theta, builtin_model
from .simulate import simulate_ensemble
from .stats import stats_list

_VALIDATION_ERRORS = (ConfigError, IngestError, ValueError)


class _Parser(argparse.ArgumentParser):
    # a malformed command line is a validation error like a malformed
    # config: one "error:" line and exit 1, not a usage dump and exit 2
    def error(self, message):
        raise ConfigError(message)


def _parser():
    p = _Parser(
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
    pe.add_argument("kind", choices=[c for c in _COMMANDS if c not in ("simulate", "fit")])
    common(pe)
    return p


_TRUTH = ("model", "mu0", "omega2_0")
_SPACE = ("mu_lo", "mu_hi", "omega2_lo", "omega2_hi")


def _theta0(cfg):
    return Theta(mu=cfg["mu0"], omega2=cfg["omega2_0"])


def _space(cfg):
    return ParamSpace(**{key: cfg[key] for key in _SPACE})


def _family(cfg, kind=None):
    """The config's subject layout; continuity, which has no design key,
    asks for its harmonic family by kind. An unknown kind reads no field
    and is refused by DesignFamily."""
    kind = kind or cfg["design"]
    return DesignFamily(kind, **{key: cfg[key] for key in DesignFamily.FIELDS.get(kind, ())})


# Each runner takes (cfg, seed, out_dir), writes its files and returns
# (report or None, the text after "COMMAND: " on stdout). It builds the
# model first and the truth second, so of a config's errors the model's
# is the one reported, then the truth's.

def _simulate(cfg, seed, out_dir):
    model = builtin_model(cfg["model"])
    theta0 = _theta0(cfg)
    design = Design(subjects=_family(cfg).subjects(cfg["n"]), dt=cfg["dt"], seed=seed)
    paths = simulate_ensemble(model, theta0, design)
    # simulate_ensemble refused non-finite states, so (U, V) that
    # stats_list refuses overflowed: the run failed, not its input
    try:
        u, v = stats_list(paths, model)
    except ValueError as err:
        raise InvalidStats(str(err)) from err
    paths_file = os.path.join(out_dir, io_mod.PATHS_FILE)
    stats_file = os.path.join(out_dir, io_mod.STATS_FILE)
    io_mod.write_paths_csv(paths, paths_file)
    io_mod.write_stats_csv((p.subject_index for p in paths), u, v, stats_file)
    return None, (f"model={model.name} n={design.n} dt={cfg['dt']!r} seed={seed} "
                  f"-> {paths_file}, {stats_file}")


def _fit(cfg, seed, out_dir):
    model = builtin_model(cfg["model"])
    space = _space(cfg)
    paths = io_mod.read_paths_csv(cfg["data"])
    u, v = stats_list(paths, model)
    fit = fit_mle(u, v, space)
    stats_file = os.path.join(out_dir, io_mod.STATS_FILE)
    fit_file = os.path.join(out_dir, io_mod.FIT_FILE)
    io_mod.write_stats_csv((p.subject_index for p in paths), u, v, stats_file)
    io_mod.write_fit_csv(fit, len(u), fit_file)
    return None, (f"n={len(u)} mu_hat={fit.theta_hat.mu!r} omega2_hat={fit.theta_hat.omega2!r} "
                  f"loglik={fit.loglik!r} boundary={io_mod._cell(fit.boundary)} -> {fit_file}")


def _write_report(report, out_dir):
    """Write replicates.csv and summary.csv; returns the replicates path."""
    rep_file = os.path.join(out_dir, io_mod.REPLICATES_FILE)
    io_mod.write_replicates_csv(report.rows, rep_file)
    io_mod.write_summary_csv(report.summaries, os.path.join(out_dir, io_mod.SUMMARY_FILE))
    return rep_file


def _consistency(cfg, seed, out_dir):
    model = builtin_model(cfg["model"])
    report = run_consistency_experiment(
        model, _theta0(cfg), _space(cfg), _family(cfg), tuple(cfg["n_schedule"]),
        cfg["replicates"], cfg["dt"], seed,
    )
    rep_file = _write_report(report, out_dir)
    return report, (f"n_schedule={list(cfg['n_schedule'])} replicates={cfg['replicates']} "
                    f"med_err_final={report.summaries[-1]['med_err']!r} -> {rep_file}")


def _normality(cfg, seed, out_dir):
    model = builtin_model(cfg["model"])
    report = run_normality_experiment(
        model, _theta0(cfg), _space(cfg), _family(cfg), cfg["n"], cfg["replicates"],
        cfg["dt"], seed,
    )
    rep_file = _write_report(report, out_dir)
    s = report.summaries[0]
    return report, (f"n={s['n']} ks_mu={s['ks_mu']!r} ks_omega2={s['ks_omega2']!r} "
                    f"cov_mu={s['cov_mu']!r} cov_omega2={s['cov_omega2']!r} -> {rep_file}")


def _noniid(cfg, seed, out_dir):
    model = builtin_model(cfg["model"])
    theta0 = _theta0(cfg)
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
    return report, (f"n={final['n']} kl_gap={final['kl_gap']!r} i00_gap={final['i00_gap']!r} "
                    f"ks_mu={report.summaries[0]['ks_mu']!r} -> {rep_file}")


def _continuity(cfg, seed, out_dir):
    model = builtin_model(cfg["model"])
    table = run_moment_continuity_probe(
        model, _theta0(cfg), cfg["psi"], cfg["xi"], _family(cfg, "harmonic"),
        tuple(cfg["m_schedule"]), cfg["replicates"], cfg["limit_replicates"],
        cfg["dt"], seed,
    )
    out_file = os.path.join(out_dir, io_mod.CONTINUITY_FILE)
    io_mod.write_continuity_csv(table, out_file)
    return None, (f"m_schedule={list(cfg['m_schedule'])} "
                  f"final_gap={table.rows[-1]['gap']!r} -> {out_file}")


# command -> (runner, the config keys it needs, in the order they are
# reported missing); "design" brings its kind's fields
_COMMANDS = {
    "simulate": (_simulate, _TRUTH + ("design", "n", "dt")),
    "fit": (_fit, ("model",) + _SPACE + ("data",)),
    "consistency": (_consistency, _TRUTH + _SPACE
                    + ("design", "n_schedule", "replicates", "dt")),
    "normality": (_normality, _TRUTH + _SPACE + ("design", "n", "replicates", "dt")),
    "noniid": (_noniid, _TRUTH + ("mu_alt", "omega2_alt") + _SPACE
               + ("design", "n", "n_schedule", "replicates", "limit_replicates", "dt")),
    "continuity": (_continuity, _TRUTH + ("psi", "xi") + DesignFamily.FIELDS["harmonic"]
                   + ("m_schedule", "replicates", "limit_replicates", "dt")),
}


def _config_text(path):
    """The config file's text from io.open_text: line ends translated, one
    leading byte order mark dropped. A file that cannot be read raises
    ConfigError, as does a byte that is not UTF-8, at its line."""
    try:
        first, fh = io_mod.open_text(path)
        with fh:
            text = first + fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from None
    if bad := io_mod.not_utf8(text):
        raise ConfigError(bad[1], line=text.count("\n", 0, bad[0]) + 1)
    return text


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        if args.threads < 1:
            raise ValueError("--threads must be >= 1")
        text = _config_text(args.config)
        cfg = config_mod.parse_config(text)
        command = args.kind if args.command == "experiment" else args.command
        run, keys = _COMMANDS[command]
        if "design" in keys:
            keys += DesignFamily.FIELDS.get(cfg.get("design"), ())
        config_mod.check_required(keys, cfg, eof_line=len(text.split("\n")))
        seed = config_mod.resolve_seed(cfg, args.seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        out_dir = args.out or cfg.get("output_dir") or "."
        try:
            os.makedirs(out_dir, exist_ok=True)
            report, line = run(cfg, seed, out_dir)
            print(f"experiment {command}: {line}" if args.command == "experiment"
                  else f"{command}: {line}")
        except OSError as err:  # the output directory or a file in it
            raise ConfigError(f"cannot write output: {err}") from None
        # the files are on disk for a post-mortem before a failed run raises
        if report is not None and report.failed:
            raise ExperimentFailed(
                f"{command}: more than 1% of replicates failed "
                f"({len(report.failures)} failures)"
            )
        return 0
    except _VALIDATION_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SdeRemleError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
