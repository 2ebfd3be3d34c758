"""The README's library quickstart runs as written, the package's public
names are exactly the names it exports, the README quotes each of them,
every package name the README quotes still exists, and every package
function it quotes as a call takes the arguments it names."""

import builtins
import inspect
import os
import pkgutil
import re

import sde_remle
from sde_remle import config

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme():
    return open(README, encoding="utf-8").read()


def _quickstart_code():
    section = _readme().split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_quickstart_runs_verbatim(capsys):
    namespace = {}
    exec(compile(_quickstart_code(), "README.md", "exec"), namespace)
    fit = namespace["fit"]
    assert isinstance(fit, sde_remle.MleFit)
    assert str(fit.theta_hat) in capsys.readouterr().out


# the public surface: a name joins or leaves it only by an edit here
PUBLIC = (
    "ConfigError", "ConvergenceTable", "Design", "DesignFamily", "ExperimentFailed",
    "ExperimentReport", "IngestError", "InvalidStats", "McEstimate", "MleFit", "ModelSpec",
    "ParamSpace", "Path", "SdeRemleError", "SimulationDiverged", "Theta",
    "averaged_limits", "builtin_model", "fisher_info_mc", "fit_mle", "kl_mc",
    "read_paths_csv", "run_consistency_experiment",
    "run_moment_continuity_probe", "run_noniid_experiment", "run_normality_experiment",
    "simulate_ensemble", "stats_list", "time_grid", "write_stats_csv",
)


def test_public_names_are_exactly_the_listed_ones():
    assert tuple(sorted(sde_remle.__all__)) == PUBLIC


def test_every_public_name_resolves_once():
    names = sde_remle.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(sde_remle, name) is not None, name


_MODULES = {m.name for m in pkgutil.iter_modules(sde_remle.__path__)}


def _package_names():
    """Dotted names the README quotes in backticks (a call's arguments
    dropped) that name the package: module.name for one of its modules,
    Name.attr for one of its public names, or a bare name written like
    one of its names (with '_' or a capital), other than a config key, a
    builtin or an environment variable."""
    prose = re.sub(r"```.*?```", "", _readme(), flags=re.S)
    for span in re.findall(r"`([^`]+)`", prose):
        m = re.fullmatch(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?", " ".join(span.split()))
        if m is None:
            continue
        name = m.group(1)
        head = name.split(".")[0]
        if "." in name:
            if head == "sde_remle" or head in _MODULES or head in sde_remle.__all__:
                yield name
        elif (("_" in name or name[0].isupper()) and name not in config._TYPES
              and not hasattr(builtins, name) and not name.startswith("SDE_REMLE_")):
            yield name


_MISSING, _FIELD = object(), object()


def _lookup(name):
    """The package object a dotted name names, _FIELD for a dataclass
    field, or _MISSING."""
    parts = name.split(".")
    if parts[0] == "sde_remle":
        parts = parts[1:]
    obj = sde_remle
    if parts[0] in _MODULES:
        obj = __import__(f"sde_remle.{parts[0]}", fromlist=["_"])
        parts = parts[1:]
    for part in parts:
        if part in getattr(obj, "__dataclass_fields__", {}):
            return _FIELD
        if not hasattr(obj, part):
            return _MISSING
        obj = getattr(obj, part)
    return obj


def _resolves(name):
    return _lookup(name) is not _MISSING


def test_the_readme_quotes_every_public_name():
    # bare or qualified, as in `io.write_stats_csv`
    quoted = {part for name in _package_names() for part in name.split(".")}
    assert sorted(set(sde_remle.__all__) - quoted) == []


def test_every_package_name_the_readme_quotes_resolves():
    names = set(_package_names())
    # the scan sees both forms
    assert {"fit_mle", "Design", "simulate.replicate_uv", "sde_remle.ks"} <= names
    assert sorted(n for n in names if not _resolves(n)) == []


def _quoted_calls():
    """(name, argument names with defaults dropped) of every call with
    arguments that the README quotes in backticks."""
    prose = re.sub(r"```.*?```", "", _readme(), flags=re.S)
    for span in re.findall(r"`([^`]+)`", prose):
        m = re.fullmatch(r"([A-Za-z_][\w.]*)\((.+)\)", " ".join(span.split()))
        if m is not None:
            yield m.group(1), [arg.split("=")[0].strip() for arg in m.group(2).split(",")]


def test_every_package_call_the_readme_quotes_names_its_parameters():
    signatures = {}
    for name, args in _quoted_calls():
        obj = _lookup(name)
        if inspect.isfunction(obj):
            params = [p for p in inspect.signature(obj).parameters if p != "self"]
            signatures[name] = (args, params)
    # the scan sees module functions, methods and the experiment runners
    assert {"fit_mle", "DesignFamily.point", "io.write_stats_csv",
            "run_normality_experiment"} <= signatures.keys()
    assert {name: pair for name, pair in signatures.items() if pair[0] != pair[1]} == {}
