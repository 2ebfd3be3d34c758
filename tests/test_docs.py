"""The README's library quickstart runs as written, and the package's
public names are exactly the names it exports."""

import os
import re

import sde_remle

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _quickstart_code():
    text = open(README, encoding="utf-8").read()
    section = text.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_quickstart_runs_verbatim(capsys):
    namespace = {}
    exec(compile(_quickstart_code(), "README.md", "exec"), namespace)
    fit = namespace["fit"]
    assert isinstance(fit, sde_remle.MleFit)
    assert str(fit.theta_hat) in capsys.readouterr().out


def test_every_public_name_resolves_once():
    names = sde_remle.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(sde_remle, name) is not None, name
