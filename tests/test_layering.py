"""Import layering: the product path and the oracle share no code.

Agreement between a product value and ``gammaprod.reference`` is evidence
only while the two share no code, so the modules listed here must not
import from it, and the oracle imports nothing from the package but its
error type.  Every name a module exports in ``__all__`` must resolve, and
only ``errors.check_int`` words the range of a count.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gammaprod"

# jointfactor.py and polygamma.py join this list once the benchmark remap of
# ROADMAP item 8 stops tracing the helpers that still import the oracle.
ORACLE_FREE = ("gamma.py", "identities.py")


def _reference_imports(source: str) -> list[int]:
    """Line numbers of every import of gammaprod.reference in ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            relative = node.level == 1 and (node.module == "reference" or (node.module is None and "reference" in names))
            absolute = node.module == "gammaprod.reference" or (node.module == "gammaprod" and "reference" in names)
            if relative or absolute:
                lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(alias.name == "gammaprod.reference" for alias in node.names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("name", ORACLE_FREE)
def test_module_does_not_import_the_oracle(name):
    assert _reference_imports((SRC / name).read_text()) == []


def test_the_guard_sees_every_spelling():
    spellings = (
        "from .reference import ref_gamma",
        "from . import reference",
        "from gammaprod.reference import ref_gamma",
        "from gammaprod import reference",
        "import gammaprod.reference",
    )
    assert _reference_imports("\n".join(spellings)) == [1, 2, 3, 4, 5]
    assert _reference_imports("from .jointfactor import joint_factor\nimport math") == []


def _package_imports(source: str) -> set[str]:
    """The gammaprod modules ``source`` imports from, in any spelling; the
    package itself is "gammaprod"."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if node.level >= 1:
                found |= {node.module.split(".")[0]} if node.module else names
            elif node.module == "gammaprod":
                found |= names
            elif node.module and node.module.startswith("gammaprod."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] if "." in alias.name else alias.name
                      for alias in node.names if alias.name.split(".")[0] == "gammaprod"}
    return found


def test_the_oracle_imports_only_the_error_type():
    assert _package_imports((SRC / "reference.py").read_text()) == {"errors"}


def test_the_converse_guard_sees_every_spelling():
    spellings = (
        "from .jointfactor import _STIRLING",
        "from . import gamma",
        "from gammaprod.polygamma import digamma",
        "from gammaprod import coeffs",
        "import gammaprod.bounds",
        "import gammaprod",
        "import math\nfrom fractions import Fraction",
    )
    assert _package_imports("\n".join(spellings)) == {"jointfactor", "gamma", "polygamma", "coeffs", "bounds", "gammaprod"}


@pytest.mark.parametrize("module", ["gammaprod", "gammaprod.gamma"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


# The count messages of errors.check_int; "b must lie in [0, 1)" is a real interval, not a count.
_COUNT_MESSAGE = re.compile(r"must be an int|must be >= |must lie in \[[^\])]*\]")


def test_only_errors_words_a_count_message():
    assert _COUNT_MESSAGE.search("m must lie in [1, 2^53], got 0")
    assert not _COUNT_MESSAGE.search("b must lie in [0, 1), got 1.0")
    found = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
             for n, line in enumerate(path.read_text().splitlines(), 1) if _COUNT_MESSAGE.search(line)]
    assert found == []
