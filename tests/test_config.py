import pytest

from sde_remle.cli import _COMMANDS, main
from sde_remle.config import (
    check_required,
    emit_config,
    parse_config,
    resolve_seed,
)
from sde_remle.errors import MissingKey, ParseError, UnknownKey


def test_parse_theta_pair():
    cfg = parse_config("mu0 = 1.0\nomega2_0 = 0.5")
    assert cfg == {"mu0": 1.0, "omega2_0": 0.5}


def test_parse_skips_blanks_and_comments():
    cfg = parse_config("# run setup\n\n  model = unit  \n# trailing\nseed=7\n")
    assert cfg == {"model": "unit", "seed": 7}


def test_parse_int_list():
    cfg = parse_config("n_schedule = 50, 200,800")
    assert cfg["n_schedule"] == (50, 200, 800)


def test_unknown_key_carries_line_number():
    with pytest.raises(UnknownKey) as exc:
        parse_config("bogus = 1")
    assert exc.value.line == 1
    assert "bogus" in str(exc.value)


def test_duplicate_key_rejected():
    with pytest.raises(ParseError) as exc:
        parse_config("dt = 0.1\n# sep\ndt = 0.2")
    assert exc.value.line == 3


def test_missing_equals_sign():
    with pytest.raises(ParseError) as exc:
        parse_config("model unit")
    assert exc.value.line == 1


@pytest.mark.parametrize(
    "text,line",
    [
        ("n = 2.5", 1),
        ("dt = fast", 1),
        ("dt = inf", 1),
        ("model =", 1),
        ("seed = 1\nn_schedule = 10,,20", 2),
    ],
)
def test_typed_value_errors(text, line):
    with pytest.raises(ParseError) as exc:
        parse_config(text)
    assert exc.value.line == line


def test_emit_round_trip():
    cfg = parse_config(
        "seed = 3\nmodel = unit\ndt = 0.05\nmu0 = 1.0\nn_schedule = 50,200\nx0 = 0.0"
    )
    text = emit_config(cfg)
    assert parse_config(text) == cfg
    # canonical order puts model first and seed after dt
    keys = [ln.split(" = ")[0] for ln in text.strip().split("\n")]
    assert keys == ["model", "mu0", "x0", "n_schedule", "dt", "seed"]


def test_emit_floats_round_trip_exactly():
    cfg = {"dt": 1.0 / 3.0, "mu0": 0.1 + 0.2}
    again = parse_config(emit_config(cfg))
    assert again["dt"] == cfg["dt"]
    assert again["mu0"] == cfg["mu0"]


def _simulate_error(tmp_path, capsys, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    return rc, capsys.readouterr().err


def test_required_keys_follow_design_kind(tmp_path, capsys):
    base = "model = unit\nmu0 = 1.0\nomega2_0 = 0.5\nn = 3\ndt = 0.1\n"
    # iid asks for x0 and T, after the command's own keys
    assert _simulate_error(tmp_path, capsys, "design = iid\nT = 1.0\n" + base) == (
        1, "error: line 8: missing required key 'x0'\n")
    # harmonic asks for its four fields and not for x0
    harmonic = base + "design = harmonic\nx_inf = 0.0\nx_amp = 1.0\nT_inf = 1.0\n"
    assert _simulate_error(tmp_path, capsys, harmonic) == (
        1, "error: line 10: missing required key 'T_amp'\n")
    assert _simulate_error(tmp_path, capsys, harmonic + "T_amp = 1.0\n")[0] == 0
    # a command that is not in the table is a malformed command line
    rc = main(["experiment", "deploy", "--config", str(tmp_path / "run.cfg")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: argument kind: invalid choice: 'deploy'")


def test_check_required_reports_at_eof():
    cfg = parse_config("model = unit\ndesign = iid")
    check_required(("model", "design"), cfg, eof_line=12)
    with pytest.raises(MissingKey) as exc:
        check_required(("model", "x0", "design", "T"), cfg, eof_line=12)
    assert exc.value.line == 12
    # the first absent key, in the order given
    assert str(exc.value) == "line 12: missing required key 'x0'"


def test_every_command_has_requirements():
    assert set(_COMMANDS) == {
        "simulate",
        "fit",
        "consistency",
        "normality",
        "noniid",
        "continuity",
    }
    for _, keys in _COMMANDS.values():
        assert "model" in keys


def test_seed_precedence():
    assert resolve_seed({"seed": 5}, flag_seed=9, env={}) == 9
    assert resolve_seed({"seed": 5}, env={"SDE_REMLE_SEED": "3"}) == 5
    assert resolve_seed({}, env={"SDE_REMLE_SEED": "3"}) == 3
    assert resolve_seed({}, env={}) == 0
    assert resolve_seed({}, env={"SDE_REMLE_SEED": ""}) == 0
    with pytest.raises(ParseError):
        resolve_seed({}, env={"SDE_REMLE_SEED": "soon"})
