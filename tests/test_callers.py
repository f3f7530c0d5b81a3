"""Every function, class and method in the package has a caller in the package,
and every field it stores is read there.

A definition counts as called when its name appears anywhere under
``src/hurwitzrec`` as a name, an attribute or an import alias.  The few
definitions reached only from outside the package are listed with the reason
they stay.  A field (a ``self.<name>`` store or a ``__slots__`` entry) counts
as read when ``<name>`` is loaded as an attribute somewhere under
``src/hurwitzrec``.  Every flag the CLI's parser declares is read as
``args.<dest>`` in ``cli.py``.
"""

import argparse
import ast
from pathlib import Path

import hurwitzrec

SRC = Path(hurwitzrec.__file__).parent

ALLOWED = {
    "_Parser.error": "argparse calls it",
    "hurwitz_by_recursion": "the README Library example uses it",
}


def _definitions_and_uses():
    defs, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.add(node.name)
            if isinstance(node, ast.ClassDef):
                defs.update(
                    f"{node.name}.{sub.name}"
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                    and not (sub.name.startswith("__") and sub.name.endswith("__"))
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name.rsplit(".", 1)[-1])
    return defs, used


def _uncalled():
    defs, used = _definitions_and_uses()
    return {name for name in defs if name.rsplit(".", 1)[-1] not in used}


def test_every_definition_has_a_caller():
    assert sorted(_uncalled() - ALLOWED.keys()) == []


def test_allowlist_is_not_stale():
    # an entry that gained a caller, or is gone, leaves the list
    assert sorted(ALLOWED.keys() - _uncalled()) == []


# A method counts as called when any method of its name is, so a name that
# several classes define hides a dead one among them.  Each such name is
# listed with its classes and the reason they share it.
SHARED = {}


def _method_owners():
    owners = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        owners.setdefault(sub.name, []).append(node.name)
    return owners


def test_shared_method_names_are_pinned():
    shared = {name: sorted(cls) for name, cls in _method_owners().items() if len(cls) > 1}
    assert shared == {name: cls for name, (cls, _why) in SHARED.items()}


def _unread_fields():
    fields, read = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__" for t in sub.targets
                    ):
                        fields.update(f"{node.name}.{elt.value}" for elt in sub.value.elts)
                    elif (
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                    ):
                        fields.add(f"{node.name}.{sub.attr}")
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return {name for name in fields if name.rsplit(".", 1)[-1] not in read}


def test_every_field_is_read():
    assert sorted(_unread_fields()) == []


def _imports(tree):
    """The modules a parsed file imports, as ``(node, dotted name)``; a
    relative import is written with its leading dots."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node, "." * node.level + (node.module or "")


def _parse(name):
    return ast.parse((SRC / name).read_text(encoding="utf-8"))


def _package_imports(name):
    return [n for _, n in _imports(_parse(name)) if n.startswith((".", "hurwitzrec"))]


def test_partitions_imports_only_the_shared_helpers():
    # the character oracle stays independent of the curve code it checks:
    # of the package it imports only the shared helpers, which import none
    assert _package_imports("partitions.py") == [".common"]
    assert _package_imports("common.py") == []


def test_recursion_layers_import_the_oracle_only_to_build_one():
    # a recursion request compiles no oracle code: the curve layers import
    # none, and extract only inside verify_bm, where it builds an oracle
    for name in ("toprec.py", "sweeps.py", "poleform.py", "series.py", "cache.py"):
        assert ".partitions" not in _package_imports(name), name
    tree = _parse("extract.py")
    top = {name for node, name in _imports(tree) if node in tree.body}
    assert ".partitions" not in top and ".partitions" in _package_imports("extract.py")


def test_series_imports_nothing_from_the_package():
    # the series layer sits below the curve code that builds on it
    names = [name for _, name in _imports(_parse("series.py"))]
    assert names and not [n for n in names if n.startswith((".", "hurwitzrec"))]


def test_series_defines_no_class_but_its_error():
    # the package holds one series representation, the coefficient list
    tree = _parse("series.py")
    assert [node.name for node in tree.body if isinstance(node, ast.ClassDef)] == [
        "TruncationError"
    ]


def test_extract_defines_no_class():
    # no object sits between a form and its Hurwitz numbers: h_series
    # returns them as a dict
    tree = _parse("extract.py")
    assert [node.name for node in tree.body if isinstance(node, ast.ClassDef)] == []


def test_sweeps_imports_only_at_its_top():
    # the recursion's arithmetic loads as a whole, on an engine's first miss
    tree = _parse("sweeps.py")
    assert all(node in tree.body for node, _ in _imports(tree))


def test_toprec_imports_the_sweeps_only_to_build_the_recursion():
    # a request whose forms all come from the cache compiles no recursion
    # arithmetic: toprec imports the sweeps in one place, the cached
    # property that builds an engine's Recursion on its first miss
    tree = _parse("toprec.py")
    deferred = [(node, name) for node, name in _imports(tree) if node not in tree.body]
    assert [name for _, name in deferred] == [".sweeps"]
    assert ".sweeps" not in {name for node, name in _imports(tree) if node in tree.body}
    (engine,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "LambertEngine"]
    (built,) = [n for n in engine.body if isinstance(n, ast.FunctionDef) and n.name == "recursion"]
    assert [d.id for d in built.decorator_list] == ["cached_property"]
    assert deferred[0][0] in set(ast.walk(built))


def test_only_the_sweeps_import_series():
    # so the series code, too, loads only when a form is computed
    importers = {
        path.name
        for path in SRC.glob("*.py")
        if {".series", "hurwitzrec.series"} & set(_package_imports(path.name))
    }
    assert importers == {"sweeps.py"}


def test_cli_imports_check_modules_only_for_check():
    # table and wkg compile neither module, and each command imports the
    # layers it runs, so the module top imports none
    tree = _parse("cli.py")
    top = {name for node, name in _imports(tree) if node in tree.body}
    assert ".bridge" not in top
    assert not [n for n in top if n.startswith((".", "hurwitzrec"))]
    assert ".bridge" in {name for _, name in _imports(tree)}


def test_extract_imports_form_code_only_where_it_expands():
    # an oracle table runs extract's table walk but expands no form
    tree = _parse("extract.py")
    top = {name for node, name in _imports(tree) if node in tree.body}
    assert ".poleform" not in top
    assert ".poleform" in {name for _, name in _imports(tree)}


def _declared_dests(parser):
    """Every ``dest`` a parser and its sub-parsers declare, argparse's own
    ``help`` action left out."""
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        yield action.dest
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _declared_dests(sub)


def test_every_flag_is_read():
    # a flag declared but never read as args.<dest> would be accepted and
    # then ignored
    from hurwitzrec.cli import _build_parser

    read = {
        node.attr
        for node in ast.walk(_parse("cli.py"))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }
    assert sorted(set(_declared_dests(_build_parser())) - read) == []
