import importlib
from pathlib import Path
import pkgutil
import re

import streamista

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
MODULES = {info.name for info in pkgutil.iter_modules(streamista.__path__)}
# every inline code span of the README
SPANS = re.findall(r"`([^`\n]+)`", README)


def test_readme_cites_only_names_that_exist():
    # a backticked `module.name` of a streamista module names an attribute of it
    cited = {
        (module, name)
        for module, name in (span.split(".") for span in SPANS
                             if re.fullmatch(r"\w+\.\w+", span))
        if module in MODULES
    }
    assert cited
    missing = [
        f"{module}.{name}" for module, name in sorted(cited)
        if not hasattr(importlib.import_module(f"streamista.{module}"), name)
    ]
    assert missing == []
    # and a backticked `streamista.module` is a module of the package
    packaged = {span.split(".")[1] for span in SPANS if re.fullmatch(r"streamista\.\w+", span)}
    assert packaged and packaged <= MODULES


def test_readme_cites_only_tests_that_exist():
    cited = set(re.findall(r"(tests/\w+\.py)::(test_\w+)", README))
    assert cited
    missing = [
        f"{path}::{name}" for path, name in sorted(cited)
        if not (ROOT / path).is_file()
        or not re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.MULTILINE)
    ]
    assert missing == []
