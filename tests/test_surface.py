"""Every function and class of the package is reached by the program.

A definition in ``src/artifact`` counts as reached when some code in
``src/artifact`` or ``perfbench`` names it: as a bare name, an
attribute, an imported name, or a dotted string such as the traced
paths of ``perfbench/spans.py``.  Code that only tests reach belongs in
``tests/`` as an oracle, or nowhere; this check keeps it from growing
back.  Dunder methods are reached by the language and are skipped.

The package's arithmetic is also exact: no file in ``src/artifact``
divides with ``/``, calls ``float`` or imports ``fractions`` or
``decimal``.
"""

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Definitions kept on purpose although no program code names them.
ALLOWED = {
    # cache resets for long-lived callers and for tests
    "clear_bracket_cache",
    "clear_evaluation_cache",
    "clear_flatten_cache",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _program_files() -> list[Path]:
    return sorted((REPO_ROOT / "src" / "artifact").glob("*.py")) + sorted(
        (REPO_ROOT / "perfbench").glob("*.py")
    )


def _definitions_and_names() -> tuple[dict[str, str], set[str]]:
    defined: dict[str, str] = {}
    named: set[str] = set()
    for path in _program_files():
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        in_package = path.parent.name == "artifact"
        for node in ast.walk(tree):
            if in_package and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                defined.setdefault(node.name, path.name)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _DOTTED.fullmatch(node.value):
                    named.update(node.value.split("."))
    return defined, named


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_named_by_program_code():
    defined, named = _definitions_and_names()
    unreached = sorted(
        f"{where}: {name}"
        for name, where in defined.items()
        if name not in named and name not in ALLOWED and not _is_dunder(name)
    )
    assert not unreached, "defined but named only by tests: " + ", ".join(unreached)


def test_allowlist_names_existing_definitions():
    defined, _ = _definitions_and_names()
    assert ALLOWED <= set(defined)


def _inexact_uses(path: Path) -> list[str]:
    """Every true division, ``float(`` call and import of ``fractions``
    or ``decimal`` in one file, as ``file:line: what``, in line order."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = []
    for node in ast.walk(tree):
        what = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            what = "true division"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            what = "float() call"
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[0] in ("fractions", "decimal") for a in node.names):
                what = "import of fractions or decimal"
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] in ("fractions", "decimal"):
                what = "import of fractions or decimal"
        if what:
            found.append((node.lineno, f"{path.name}:{node.lineno}: {what}"))
    return [use for _, use in sorted(found)]


def test_package_arithmetic_is_exact():
    # no floats or rationals in the package's arithmetic: every quantity
    # is an exact integer, and a result that is not one raises instead
    # of rounding
    found = [
        use
        for path in sorted((REPO_ROOT / "src" / "artifact").glob("*.py"))
        for use in _inexact_uses(path)
    ]
    assert not found, "inexact arithmetic in src/artifact: " + ", ".join(found)


def test_exactness_check_sees_each_inexact_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import fractions\n"
        "from decimal import Decimal\n"
        "x = 1 / 2\n"
        "x /= 3\n"
        "y = float(4)\n"
        "w = 7 // 2\n",
        encoding="utf-8",
    )
    assert [use.split(": ", 1)[1] for use in _inexact_uses(sample)] == [
        "import of fractions or decimal",
        "import of fractions or decimal",
        "true division",
        "true division",
        "float() call",
    ]
