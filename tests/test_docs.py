import ast
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


def resolves(module, path: str) -> bool:
    """Whether the dotted ``path``, cited in ``module``'s docstrings, names an attribute.

    A path with a leading dot or ``streamista.`` starts at the package, a
    leading ``~`` is dropped, and any other path starts at ``module`` or,
    failing that, at the package module its first part names.
    """
    path = path.lstrip("~")
    if path.startswith(("streamista.", ".")):
        module, path = streamista, path.split(".", 1)[1]
    head, *rest = path.split(".")
    target = getattr(module, head, None)
    if target is None and head in MODULES:
        target = importlib.import_module(f"streamista.{head}")
    for part in rest:
        target = getattr(target, part, None)
    return target is not None


def test_docstrings_cite_only_names_that_exist():
    # every :func:, :class: or :mod: reference, and every ``module.name``
    # literal of a streamista module, in a module, class or function docstring
    missing, count = [], 0
    for name in sorted(MODULES):
        module = importlib.import_module(f"streamista.{name}")
        tree = ast.parse(Path(module.__file__).read_text())
        docs = [ast.get_docstring(node, clean=False) for node in ast.walk(tree)
                if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                     ast.AsyncFunctionDef))]
        for doc in filter(None, docs):
            cited = re.findall(r":(?:func|class|mod):`([^`]+)`", doc) + [
                literal for literal in re.findall(r"``(\w+(?:\.\w+)+)``", doc)
                if literal.split(".")[0] in MODULES
            ]
            count += len(cited)
            missing += [f"{name}: {path}" for path in cited if not resolves(module, path)]
    assert count
    assert missing == []
