"""Every function and class of the package is reached by the program.

A definition in ``src/artifact`` counts as reached when some code in
``src/artifact`` or ``perfbench`` names it: as an attribute, an
imported name, or a dotted string such as the traced paths of
``perfbench/spans.py``.  A string that is a bare word counts only in a
``perfbench`` file: in the package such a string is a tag or a JSON key
(``"empty"``, ``"edges"``), not a use.  A module-level function or
class also counts as reached through a bare name; a method defined in a
class does not, since a bare name can only be a local or a module-level
name, never the method.  Code that only tests reach belongs in ``tests/`` as an oracle,
or nowhere; this check keeps it from growing back.  Dunder methods are
reached by the language and are skipped.

The check goes by name alone, not by the object a name is read on, so
it cannot see a method that shares its name with an attribute used
elsewhere: ``LaurentPoly.mirror`` and ``LaurentPoly.items`` counted as
reached, through ``LinkDiagram.mirror`` and ``dict.items``, while only
tests called them.  Nor can it see a function that program code only
names without calling: ``foam._apply_birth`` counted through a dispatch
table, and ``webhom.pair_movies`` through the benchmark's span list.
A traced run covers that blind spot: every CLI mode runs under
``sys.setprofile`` in a fresh interpreter, and every function of the
package must be entered, apart from ``UNTRACED``, which says why each
of its entries is not.

Every field of a package class is read by the program too: a name
annotated in a class body (a dataclass or ``NamedTuple`` field) or an
attribute that ``__init__`` sets on ``self`` counts as read when some
file in ``src/artifact`` or ``perfbench`` reads it as an attribute.  A
field that is only written, passed to a constructor or read by tests
is kept for nothing.

Every default of a package function is left out by some program call:
a defaulted parameter of a module-level function or method in
``src/artifact`` counts as used when a call in ``src/artifact`` or
``perfbench`` that names the function (``__init__`` by its class name)
passes too few positional arguments to reach it and no keyword of its
name.  A default that only tests leave out is one the program does not
need.  Like the reach check it goes by name alone, so a same-named call
elsewhere can count as leaving a default out.  ``KEPT_DEFAULTS`` names
its one exception, ``Web.__init__``, with the reason.

The package's arithmetic is also exact: no file in ``src/artifact``
divides with ``/``, calls ``float`` or imports ``fractions`` or
``decimal``.  Nor does it check anything with an ``assert`` statement,
which ``python -O`` strips: a check the package relies on raises.

Every table kept from one call to the next lives in ``memo``, which
``memo.clear()`` empties: no other file of the package uses
``functools.lru_cache`` or ``functools.cache``, or binds an empty
``{}``, ``[]``, ``set()`` or ``dict()`` at module level.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Definitions kept on purpose although no program code names them.
ALLOWED = {
    # memo.clear(): empties every memo table, for long-lived callers and tests
    "clear",
}

#: Functions no traced run of the CLI enters, as ``file: qualified
#: name``, each with the reason it is kept.
UNTRACED = {
    "memo.py: clear": "empties every memo table, for long-lived callers and "
    "for tests that want a cold build; one CLI run never needs it",
    "corpus.py: fixture_diagrams": "the named fixtures as one table, which "
    "the benchmark and the tests read; the CLI takes --pd or --input",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _program_files() -> tuple[list[Path], list[Path]]:
    """The package's files, and the other program files (``perfbench``)."""
    return (
        sorted((REPO_ROOT / "src" / "artifact").glob("*.py")),
        sorted((REPO_ROOT / "perfbench").glob("*.py")),
    )


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _unreached(package: list[Path], others: list[Path]) -> list[str]:
    """Every non-dunder definition in the ``package`` files that no
    package or ``others`` file names, as ``file: name`` (``file:
    Class.name`` for a method), sorted."""
    defined: set[tuple[str, Optional[str], str]] = set()  # (file, class, name)
    bare: set[str] = set()
    qualified: set[str] = set()
    for path in package + others:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        owner = {
            item: node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, _DEFS)
        }
        for node in ast.walk(tree):
            if path in package and isinstance(node, _DEFS):
                defined.add((path.name, owner.get(node), node.name))
            elif isinstance(node, ast.Name):
                bare.add(node.id)
            elif isinstance(node, ast.Attribute):
                qualified.add(node.attr)
            elif isinstance(node, ast.alias):
                qualified.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                dotted = "." in node.value or path in others
                if dotted and _DOTTED.fullmatch(node.value):
                    qualified.update(node.value.split("."))
    return sorted(
        f"{where}: {cls + '.' if cls else ''}{name}"
        for where, cls, name in defined
        if name not in qualified
        and (cls is not None or name not in bare)
        and not _is_dunder(name)
    )


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_named_by_program_code():
    package, others = _program_files()
    unreached = [
        use for use in _unreached(package, others) if use.split(": ", 1)[1] not in ALLOWED
    ]
    assert not unreached, "defined but named only by tests: " + ", ".join(unreached)


def test_reach_check_sees_each_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "class Box:\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    def by_attribute(self):\n"
        "        pass\n"
        "    def by_dotted_string(self):\n"
        "        pass\n"
        "    def by_bare_name(self):\n"
        "        pass\n"
        "    def by_bare_string(self):\n"
        "        pass\n"
        "    def by_other_string(self):\n"
        "        pass\n"
        "def by_import():\n"
        "    pass\n"
        "def by_local_call():\n"
        "    pass\n"
        "def unnamed():\n"
        "    pass\n"
        "def walk():\n"
        "    by_bare_name = by_local_call()\n"
        "    return by_bare_name, 'sample.Box.by_dotted_string', 'by_bare_string'\n"
        "walk()\n",
        encoding="utf-8",
    )
    user = tmp_path / "user.py"
    user.write_text(
        "from sample import Box, by_import\n"
        "Box().by_attribute()\n"
        "TAG = 'by_other_string'\n",
        encoding="utf-8",
    )
    assert _unreached([sample], [user]) == [
        "sample.py: Box.by_bare_name",
        "sample.py: Box.by_bare_string",
        "sample.py: unnamed",
    ]


def _unread_fields(package: list[Path], others: list[Path]) -> list[str]:
    """Every field of a class in the ``package`` files that no package
    or ``others`` file reads as an attribute, as ``file: Class.field``,
    sorted.  A field is a name annotated in the class body or an
    attribute that ``__init__`` sets on ``self``."""
    fields: set[tuple[str, str, str]] = set()  # (file, class, name)
    read: set[str] = set()
    for path in package + others:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif path in package and isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(
                        item.target, ast.Name
                    ):
                        fields.add((path.name, node.name, item.target.id))
                    elif isinstance(item, ast.FunctionDef) and item.name == "__init__":
                        fields.update(
                            (path.name, node.name, target.attr)
                            for target in ast.walk(item)
                            if isinstance(target, ast.Attribute)
                            and isinstance(target.ctx, ast.Store)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        )
    return sorted(
        f"{where}: {cls}.{name}" for where, cls, name in fields if name not in read
    )


def test_every_field_is_read_by_program_code():
    unread = _unread_fields(*_program_files())
    assert not unread, "fields read only by tests, or never: " + ", ".join(unread)


def test_field_check_sees_each_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from dataclasses import dataclass\n"
        "from typing import NamedTuple\n"
        "@dataclass\n"
        "class Record:\n"
        "    read_here: int\n"
        "    read_elsewhere: int\n"
        "    only_constructed: int\n"
        "    LIMIT = 3\n"
        "    def total(self):\n"
        "        local: int = self.read_here\n"
        "        return local\n"
        "class Pair(NamedTuple):\n"
        "    left: int\n"
        "    right: int\n"
        "class Holder:\n"
        "    def __init__(self, x):\n"
        "        self.kept = x\n"
        "        self.first, self.second = x, x\n"
        "        self.counted = 0\n"
        "        other = Holder\n"
        "        other.elsewhere = x\n"
        "    def bump(self):\n"
        "        self.counted += 1\n"
        "        self.later = self.first\n"
        "Record(1, 2, only_constructed=3)\n"
        "NAME = 'Pair.right'\n",
        encoding="utf-8",
    )
    user = tmp_path / "user.py"
    user.write_text(
        "from sample import Holder, Pair, Record\n"
        "print(Record(1, 2, 3).read_elsewhere, Pair(1, 2).left)\n"
        "Holder(1).kept = Holder(2).kept\n",
        encoding="utf-8",
    )
    assert _unread_fields([sample], [user]) == [
        "sample.py: Holder.counted",
        "sample.py: Holder.second",
        "sample.py: Pair.right",
        "sample.py: Record.only_constructed",
    ]


#: Functions whose defaults no program call leaves out, as ``file:
#: Class.name``, each with the reason the defaults are kept.
KEPT_DEFAULTS = {
    "web.py: Web.__init__": "the program's constructions pass every map, but "
    "tests and oracles build empty, loop-only and keyword-subset webs in "
    "about 60 places; required maps would move ``parent=None, "
    "outer_face={}`` into each of them and change nothing in the package",
}


def _defaults(tree: ast.Module):
    """Every defaulted parameter of a module-level function or method in
    one parsed file, as (class or None, function, parameter, index),
    where ``index`` counts the positional arguments a call passes
    before it (after ``self`` or ``cls``) and is None for a keyword-only
    parameter."""
    functions = [(None, node) for node in tree.body]
    functions += [
        (node.name, item)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
    ]
    for cls, node in functions:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        static = any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list
        )
        if cls is not None and not static:
            positional = positional[1:]
        first = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional[first:], first):
            yield cls, node.name, arg.arg, index
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield cls, node.name, arg.arg, None


def _leaves_out(call: ast.Call, param: str, index: Optional[int]) -> bool:
    """Whether ``call`` leaves out the defaulted ``param`` (positional
    ``index``, None when keyword-only)."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return False
    if any(k.arg in (None, param) for k in call.keywords):
        return False
    return index is None or len(call.args) <= index


def _kept_defaults(package: list[Path], others: list[Path]) -> list[str]:
    """Every defaulted parameter of a function in the ``package`` files
    that no call in a ``package`` or ``others`` file leaves out, as
    ``file: Class.name(param)``, sorted.  A call names a function by its
    bare or attribute name, and ``__init__`` by its class name; it
    leaves a default out when it passes too few positional arguments to
    reach it and no keyword of its name.  A call with ``*args`` or
    ``**kwargs`` leaves out nothing."""
    defaults = []
    calls: dict[str, list[ast.Call]] = {}
    for path in package + others:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        if path in package:
            defaults += [(path.name, *found) for found in _defaults(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return sorted(
        f"{where}: {cls + '.' if cls else ''}{name}({param})"
        for where, cls, name, param, index in defaults
        if not any(
            _leaves_out(call, param, index)
            for call in calls.get(cls if name == "__init__" else name, ())
        )
    )


def test_every_default_is_left_out_by_program_code():
    kept = _kept_defaults(*_program_files())
    offenders = [use for use in kept if use.split("(", 1)[0] not in KEPT_DEFAULTS]
    assert not offenders, "defaults that only tests leave out: " + ", ".join(offenders)
    # an entry for a function whose defaults a program call now leaves
    # out, or that is gone, is stale
    assert KEPT_DEFAULTS.keys() <= {use.split("(", 1)[0] for use in kept}


def test_default_check_sees_each_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "class Box:\n"
        "    def __init__(self, size=1, label=None):\n"
        "        pass\n"
        "    def fill(self, amount=0, color=None):\n"
        "        pass\n"
        "    @classmethod\n"
        "    def make(cls, count=2, shape=None):\n"
        "        pass\n"
        "    @staticmethod\n"
        "    def tag(text='x'):\n"
        "        pass\n"
        "def scale(x, factor=2, offset=0):\n"
        "    pass\n"
        "def clip(x, *, low=0, high=9):\n"
        "    pass\n"
        "def only_tests(x, y=1):\n"
        "    pass\n"
        "def spread(x, y=1):\n"
        "    pass\n"
        "def splat(x, y=1):\n"
        "    pass\n"
        "scale(1, 3)\n"
        "spread(*[1, 2])\n"
        "splat(**{'x': 1})\n",
        encoding="utf-8",
    )
    user = tmp_path / "user.py"
    user.write_text(
        "from sample import Box, clip\n"
        "Box(label='a').fill(5)\n"
        "Box.make(shape=1)\n"
        "Box.tag('y')\n"
        "clip(1, high=3)\n",
        encoding="utf-8",
    )
    assert _kept_defaults([sample], [user]) == [
        "sample.py: Box.__init__(label)",
        "sample.py: Box.fill(amount)",
        "sample.py: Box.make(shape)",
        "sample.py: Box.tag(text)",
        "sample.py: clip(high)",
        "sample.py: only_tests(y)",
        "sample.py: scale(factor)",
        "sample.py: splat(y)",
        "sample.py: spread(y)",
    ]


def test_allowlist_names_existing_definitions():
    package, _ = _program_files()
    defined = {
        node.name
        for path in package
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, _DEFS)
    }
    assert ALLOWED <= defined


def _inexact_uses(path: Path) -> list[str]:
    """Every true division, ``float(`` call, import of ``fractions`` or
    ``decimal`` and ``assert`` statement in one file, as ``file:line:
    what``, in line order."""
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
        elif isinstance(node, ast.Assert):
            what = "assert statement"
        if what:
            found.append((node.lineno, f"{path.name}:{node.lineno}: {what}"))
    return [use for _, use in sorted(found)]


def test_package_arithmetic_is_exact():
    # no floats or rationals in the package's arithmetic: every quantity
    # is an exact integer, and a result that is not one raises instead
    # of rounding; no check is an assert, which python -O would strip
    found = [
        use
        for path in sorted((REPO_ROOT / "src" / "artifact").glob("*.py"))
        for use in _inexact_uses(path)
    ]
    assert not found, "inexact arithmetic or assert in src/artifact: " + ", ".join(
        found
    )


def test_exactness_check_sees_each_inexact_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import fractions\n"
        "from decimal import Decimal\n"
        "x = 1 / 2\n"
        "x /= 3\n"
        "y = float(4)\n"
        "w = 7 // 2\n"
        "assert w, 'checked'\n",
        encoding="utf-8",
    )
    assert [use.split(": ", 1)[1] for use in _inexact_uses(sample)] == [
        "import of fractions or decimal",
        "import of fractions or decimal",
        "true division",
        "true division",
        "float() call",
        "assert statement",
    ]


_CACHES = ("lru_cache", "cache")


def _is_empty_table(node: Optional[ast.expr]) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "dict")
        and not node.args
        and not node.keywords
    )


def _tables_outside_memo(path: Path) -> list[str]:
    """Every use of ``functools.lru_cache`` or ``functools.cache`` and
    every module-level binding of an empty ``{}``, ``[]``, ``set()`` or
    ``dict()`` in one file, as ``file:line: what``, in line order."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(a.name in _CACHES for a in node.names):
                found.append((node.lineno, "functools cache import"))
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in _CACHES
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            found.append((node.lineno, f"functools.{node.attr}"))
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_empty_table(node.value):
            found.append((node.lineno, "module-level empty table"))
    return [f"{path.name}:{line}: {what}" for line, what in sorted(found)]


def test_every_memo_table_lives_in_memo():
    package, _ = _program_files()
    found = [
        use
        for path in package
        if path.name != "memo.py"
        for use in _tables_outside_memo(path)
    ]
    assert not found, "a memo table outside memo.py: " + ", ".join(found)


def test_memo_table_check_sees_each_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import functools\n"
        "from functools import lru_cache, reduce\n"
        "A = {}\n"
        "B: list = []\n"
        "C = set()\n"
        "D = E = dict()\n"
        "F = {1: 2}\n"
        "G = dict(a=1)\n"
        "H: dict\n"
        "@functools.cache\n"
        "def f():\n"
        "    local = {}\n"
        "    return local\n",
        encoding="utf-8",
    )
    assert [use.split(": ", 1)[1] for use in _tables_outside_memo(sample)] == [
        "functools cache import",
        "module-level empty table",
        "module-level empty table",
        "module-level empty table",
        "module-level empty table",
        "functools.cache",
    ]


#: One run of the CLI per mode, format and a few small diagrams, with
#: the disk cache missed, then hit, then off, and one usage error.
_TRACED_RUN = r"""
import io, json, sys

entered = set()


def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(hook)
from artifact import cli

sink = io.StringIO()
sys.stdout = sys.stderr = sink
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
seen = sorted({(c.co_filename, c.co_firstlineno, c.co_name) for c in entered})
print(json.dumps({"codes": codes, "entered": seen}))
"""

_TRACED_PDS = (
    "",
    "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)",
    "X(1,2,3,4) X(4,3,2,1)",
    "X(7,5,1,2) X(2,3,4,8) X(3,1,5,6) X(6,7,8,4)",
)


def _traced_runs(tmp: Path) -> list[list[str]]:
    diagram = tmp / "trefoil.json"
    diagram.write_text(
        '{"crossings": [[1,4,2,5],[3,6,4,1],[5,2,6,3]], "over_in": [1,1,1]}',
        encoding="utf-8",
    )
    pairs = tmp / "pairs.json"
    pairs.write_text(
        '[{"name": "kink", "first": "X(1,2,2,1)", "second": "X(1,1,2,2)"}]',
        encoding="utf-8",
    )
    cache = ["--cache-dir", str(tmp / "cache")]
    modes = [
        ["bracket"],
        ["webs", "--dump-webs", "--dump-foams"],
        ["homology", *cache],
        ["homology", *cache],
        ["homology", "--no-cache"],
    ]
    runs = [["--mode", *mode, "--pd", pd] for pd in _TRACED_PDS for mode in modes]
    runs += [
        ["--mode", "homology", "--no-cache", "--input", str(diagram)],
        ["--mode", "selftest", "--closures", "2"],
        ["--mode", "invariance", "--input", str(pairs)],
    ]
    return [run + ["--format", fmt] for fmt in ("text", "json") for run in runs] + [
        ["--mode", "nonsense"]
    ]


def _functions(package: list[Path]) -> dict[tuple[str, int, str], str]:
    """Every function and method defined in the ``package`` files, keyed
    as its code object names it (file, first line, name), as ``file:
    qualified name``."""
    out = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    # a decorated function's code starts at its first decorator
                    lines = [child.lineno] + [d.lineno for d in child.decorator_list]
                    key = (str(path.resolve()), min(lines), child.name)
                    out[key] = f"{path.name}: {name}"
                visit(child, path, name + ".")
            else:
                visit(child, path, prefix)

    for path in package:
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path, "")
    return out


def test_every_function_is_entered_by_a_traced_run(tmp_path):
    runs = _traced_runs(tmp_path)
    done = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, json.dumps(runs)],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    report = json.loads(done.stdout)
    assert report["codes"] == [0] * (len(runs) - 1) + [1]
    entered = {(str(Path(f).resolve()), n, name) for f, n, name in report["entered"]}
    functions = _functions(_program_files()[0])
    missed = {
        where
        for key, where in functions.items()
        if key not in entered and not _is_dunder(key[2])
    }
    assert missed <= UNTRACED.keys(), "never entered: " + ", ".join(
        sorted(missed - UNTRACED.keys())
    )
    # an entry for a function that is gone, or that a run now enters, is stale
    assert UNTRACED.keys() <= missed
