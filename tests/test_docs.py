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
