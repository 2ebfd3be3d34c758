"""Flat key=value run configuration.

One option per line, '#' comments, UTF-8. Every key lives in a single
registry with a declared type; parsing rejects unknown keys, duplicate
keys, and unparseable values with the offending line number. emit_config
writes a canonical form (registry order) that reparses to the same
mapping. Which keys a command needs is the CLI's to say: check_required
takes the list and reports the first that is absent.
"""

import math
import os

from .errors import ConfigError

# key -> type tag; tuple order is the canonical emission order
_REGISTRY = (
    ("model", "str"),
    ("mu0", "float"),
    ("omega2_0", "float"),
    ("mu_alt", "float"),
    ("omega2_alt", "float"),
    ("mu_lo", "float"),
    ("mu_hi", "float"),
    ("omega2_lo", "float"),
    ("omega2_hi", "float"),
    ("design", "str"),
    ("x0", "float"),
    ("T", "float"),
    ("x_inf", "float"),
    ("x_amp", "float"),
    ("T_inf", "float"),
    ("T_amp", "float"),
    ("n", "int"),
    ("n_schedule", "int_list"),
    ("m_schedule", "int_list"),
    ("dt", "float"),
    ("seed", "int"),
    ("replicates", "int"),
    ("info_replicates", "int"),  # accepted, read by no command
    ("limit_replicates", "int"),
    ("psi", "float"),
    ("xi", "float"),
    ("data", "str"),
    ("output_dir", "str"),
)
_TYPES = dict(_REGISTRY)
_ORDER = tuple(key for key, _ in _REGISTRY)


def _parse_value(key, raw, line):
    kind = _TYPES[key]
    if kind == "str":
        if not raw:
            raise ConfigError(f"empty value for '{key}'", line=line)
        return raw
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"'{key}' needs an integer, got {raw!r}", line=line)
    if kind == "float":
        try:
            x = float(raw)
        except ValueError:
            raise ConfigError(f"'{key}' needs a number, got {raw!r}", line=line)
        if not math.isfinite(x):
            raise ConfigError(f"'{key}' must be finite", line=line)
        return x
    # int_list
    try:
        vals = tuple(int(tok.strip()) for tok in raw.split(","))
    except ValueError:
        raise ConfigError(
            f"'{key}' needs comma-separated integers, got {raw!r}", line=line
        )
    return vals


def parse_config(text):
    """Parse config text into a {key: typed value} dict.

    Raises ConfigError with the 1-based line number of the offending
    line.
    """
    out = {}
    lines = text.split("\n")
    for line_no, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", line=line_no)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _TYPES:
            raise ConfigError(f"unknown key '{key}'", line=line_no)
        if key in out:
            raise ConfigError(f"duplicate key '{key}'", line=line_no)
        out[key] = _parse_value(key, value, line_no)
    return out


def emit_config(cfg):
    """Canonical text form: registry order, 'key = value' per line."""
    lines = []
    for key in _ORDER:
        if key not in cfg:
            continue
        value = cfg[key]
        kind = _TYPES[key]
        if kind == "float":
            text = repr(float(value))
        elif kind == "int_list":
            text = ",".join(str(int(v)) for v in value)
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def check_required(keys, cfg, eof_line):
    """Raise ConfigError, positioned at the end of file, for the first of
    keys that cfg lacks."""
    for key in keys:
        if key not in cfg:
            raise ConfigError(f"missing required key '{key}'", line=eof_line)


def resolve_seed(cfg, flag_seed=None, env=None):
    """Seed precedence: --seed flag, then config key, then SDE_REMLE_SEED,
    then 0."""
    if flag_seed is not None:
        return int(flag_seed)
    if "seed" in cfg:
        return int(cfg["seed"])
    env = os.environ if env is None else env
    raw = env.get("SDE_REMLE_SEED")
    if raw is not None and raw != "":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"SDE_REMLE_SEED is not an integer: {raw!r}")
    return 0
