"""Checks on the library's source text."""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

import divbound
from divbound.bounds import Measure

MODULES = sorted(Path(divbound.__file__).resolve().parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # asserts vanish under python -O; a guard must raise a typed error instead
    assert {"bounds.py", "cli.py", "generators.py", "oracle.py"} <= {p.name for p in MODULES}
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_export_lists_name_what_exists_and_what_the_package_imports():
    # a removed name may linger in neither a module's __all__ nor __init__.py
    modules = {
        p.stem: importlib.import_module(f"divbound.{p.stem}") for p in MODULES if p.stem != "__init__"
    }
    missing = [
        f"{stem}.{name}"
        for stem, mod in modules.items()
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert missing == []
    init = Path(divbound.__file__).resolve()
    eager = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(init.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    unlisted = [f"{m}.{n}" for m, n in eager if n not in getattr(modules[m], "__all__", ())]
    assert unlisted == []
    # the names __init__.py resolves on first access: listed by their modules,
    # reachable from the package, and with the eager ones all of __all__
    lazy = divbound._HOME
    assert sorted(divbound._LAZY) == ["coding", "oracle"]
    assert [f"{m}.{n}" for n, m in lazy.items() if n not in modules[m].__all__] == []
    assert all(getattr(divbound, n) is getattr(modules[m], n) for n, m in lazy.items())
    assert sorted(divbound.__all__) == sorted([*(n for _, n in eager), *lazy])
    assert len(set(divbound.__all__)) == len(divbound.__all__)
    assert set(divbound.__all__) <= set(dir(divbound))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        divbound.no_such_name


_REDUCTIONS = {"sum", "min", "max", "argmin", "argmax", "cumsum"}


def _axis(call: ast.Call):
    """The constant axis a reduction call names, by keyword or by position."""
    axis = [kw.value for kw in call.keywords if kw.arg == "axis"]
    if not axis:
        # np.sum(a, 1) takes the axis second, a.sum(1) first
        is_function = isinstance(call.func.value, ast.Name) and call.func.value.id in ("np", "numpy")
        axis = call.args[1:2] if is_function else call.args[:1]
    try:
        return ast.literal_eval(axis[0]) if axis else None
    except ValueError:  # not a constant
        return None


def _short_axis_reductions(source: str) -> list[int]:
    """Lines of reductions over axis 1 or -1, and of sums over axis 0,
    outside fdiv._row_sums and fdiv._row_extremes, which keep numpy's for
    wide rows.

    Axis 0 is the short axis of the column layout, (k, m) with each atom's
    masses in one row.  numpy sums it row after row, never by the pairwise
    tree it uses on a C-ordered row of 8, so a (k, m) array c is summed
    as fdiv._row_sums(c.T).  Other reductions over axis 0 give numpy's bits
    in any order: minima, maxima, their positions, integer counts
    (np.count_nonzero) and cumsum, which adds strictly in order."""
    tree = ast.parse(source)
    exempt = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name in ("_row_sums", "_row_extremes")
        for node in ast.walk(fn)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _REDUCTIONS
        and id(node) not in exempt
        and (_axis(node) in (1, -1) or (node.func.attr == "sum" and _axis(node) == 0))
    ]


def test_short_axis_reduction_check_catches_each_form():
    source = "\n".join([
        "a.sum(axis=1)", "a.min(axis=-1)", "a.max(1)", "a.argmin(axis=1)",
        "a.argmax(-1)", "np.cumsum(a, axis=1)", "np.sum(a, 1)",
        "a.sum(axis=0)", "np.sum(a, 0)", "a.T.sum(0)", "np.sum(a, axis=0)",
        "a.sum()", "np.argmin(v)", "np.cumsum(n)", "a.min(axis=0)", "a.argmax(axis=0)",
        "np.cumsum(a, axis=0)", "np.count_nonzero(a, axis=0)",
        "def _row_sums(a):\n    return a.sum(axis=-1)",
        "def _row_extremes(a):\n    return a.min(axis=1), a.max(axis=1)",
    ])
    assert _short_axis_reductions(source) == list(range(1, 12))


def test_oracle_and_evaluators_reduce_short_rows_by_columns():
    # numpy reduces a last axis of 2 to 8 entries 10-40 times slower than it
    # adds whole columns: sums go through fdiv._row_sums, minima and maxima
    # through fdiv._row_extremes, other reductions through column
    # arithmetic.  On the column layout, a (k, m) array c sums as
    # fdiv._row_sums(c.T)
    checked = ("oracle.py", "fdiv.py", "jensen.py")
    assert set(checked) <= {p.name for p in MODULES}
    found = [
        f"{path.name}:{line}"
        for path in MODULES
        if path.name in checked
        for line in _short_axis_reductions(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def _writer_breaches(source: str) -> list[int]:
    """Lines of cli source that format a cell or write output outside the
    writer: fmt_g12 named outside _cell, sys.stdout outside _emit, a write
    call outside _write and _emit (the --output file), and any print or
    echo call."""
    tree = ast.parse(source)
    owner = {
        id(node): fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
    }
    found = set()
    for node in ast.walk(tree):
        where = owner.get(id(node))
        if isinstance(node, ast.Name) and node.id == "fmt_g12" and where != "_cell":
            found.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "stdout" and where != "_emit":
            found.add(node.lineno)
        elif isinstance(node, ast.Call):
            called = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            if called in ("print", "echo", "secho") or (called == "write" and where not in ("_write", "_emit")):
                found.add(node.lineno)
    return sorted(found)


def test_writer_check_catches_each_form():
    source = "\n".join([
        "def _cell(v):\n    return fmt_g12(v)",
        "def _write(stream, text):\n    stream.write(text)",
        "def _emit(text, output):\n    _write(sys.stdout, text)\n    fh.write(text)",
        "def bounds(rows):\n    _emit(','.join(fmt_g12(v) for v in rows), None)",
        "def sandwich(text):\n    _write(sys.stdout, text)",
        "def sweep(text):\n    print(text)",
        "def verify(text):\n    click.echo(text)",
        "def divergence(fh, text):\n    fh.write(text)",
        "cell = fmt_g12",
    ])
    assert _writer_breaches(source) == [9, 11, 13, 15, 17, 18]


def test_cli_formats_and_writes_through_its_writer_only():
    # every table's cells go through the one cell rule, and its text to
    # stdout through _write; a row formatted by hand fails this
    source = (Path(divbound.__file__).resolve().parent / "cli.py").read_text(encoding="utf-8")
    defined = {fn.name for fn in ast.parse(source).body if isinstance(fn, ast.FunctionDef)}
    assert {"_cell", "_emit", "_write"} <= defined
    assert _writer_breaches(source) == []
    by_hand = source.replace(
        '_emit("eps,value", zip(eps_grid, values.tolist()), output)',
        '_write(sys.stdout, "".join(f"{fmt_g12(e)},{fmt_g12(v)}\\n" for e, v in zip(eps_grid, values)))',
    )
    assert by_hand != source and len(_writer_breaches(by_hand)) == 1


def _private_imports(source: str) -> list[str]:
    """The _-prefixed names a module's source imports from other modules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if any(part.startswith("_") for part in a.name.split("."))]
    return found


def test_private_import_check_catches_each_form():
    source = "\n".join([
        "from __future__ import annotations",
        "from .fdiv import _chernoff_floor, batch_chernoff",
        "from .dist import (\n    make_dist,\n    _check_base,\n)",
        "import numpy as np",
        "import divbound._impl",
        "from . import _private",
    ])
    assert _private_imports(source) == ["_chernoff_floor", "_check_base", "divbound._impl", "_private"]


def test_bounds_holds_the_bounds_and_nothing_private_of_other_modules():
    # the table states each bound; how the oracle screens its rows is the
    # oracle's own decision, so bounds borrows no private helper for it
    source = (Path(divbound.__file__).resolve().parent / "bounds.py").read_text(encoding="utf-8")
    assert _private_imports(source) == []
    fields = [f.name for f in dataclasses.fields(Measure)]
    assert fields == ["direction", "extremal_kind", "closed_form", "at_one", "evaluate"]
