import importlib
import pkgutil
import re
from pathlib import Path

import descyc

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "docs" / "formula_kinds.md"]
MODULES = {info.name for info in pkgutil.iter_modules(descyc.__path__)}


def test_backticked_names_resolve():
    # every `module.name` the docs cite must still exist in descyc.<module>
    cited = set()
    for path in DOCS:
        for module, name in re.findall(r"`(\w+)\.(\w+)", path.read_text()):
            if module in MODULES:
                cited.add((path.name, module, name))
    assert cited
    for doc, module, name in sorted(cited):
        assert hasattr(importlib.import_module(f"descyc.{module}"), name), (
            f"{doc} cites {module}.{name}")


def test_readme_cap_figures_match_the_constants():
    # "n = 2000, `linear.GENERALIZED_EULER_CAP`" and "10^7 (`linear.POWER_SUM_CAP`":
    # the figure next to each cited cap is the constant's value
    text = " ".join((ROOT / "README.md").read_text().split())
    cited = re.findall(r"`\w+\.\w+_CAP`", text)
    figures = re.findall(r"(\d+)(?:\^(\d+))?(?:,| \() ?`(\w+)\.(\w+_CAP)`", text)
    assert cited and len(figures) == len(cited), "a cap cited without its figure"
    for base, exponent, module, name in figures:
        value = int(base) ** int(exponent or 1)
        assert getattr(importlib.import_module(f"descyc.{module}"), name) == value, (
            f"README gives {module}.{name} as {value}")


def test_package_and_project_versions_agree():
    # a regex, not tomllib, which Python 3.10 lacks
    text = (ROOT / "pyproject.toml").read_text()
    assert re.findall(r'(?m)^version = "([^"]+)"$', text) == [descyc.__version__]
