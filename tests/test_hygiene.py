"""Checks on the source tree that need only the standard library."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# __init__.py imports names to re-export them, so it is not scanned
FILES = sorted(p for p in (ROOT / "src" / "qwebs").glob("*.py") if p.name != "__init__.py")
FILES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(tree):
    """Names bound by an import statement and never loaded anywhere in the module."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    unused = unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, ", ".join(f"line {line}: {name}" for line, name in unused)


def test_init_exports_what_it_imports():
    tree = ast.parse((ROOT / "src" / "qwebs" / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    (exported,) = [ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "__all__" for t in node.targets)]
    assert sorted(imported) == sorted(exported)


def test_private_helpers_have_library_callers():
    # a private helper that only tests call belongs in tests/, not the library
    trees = [ast.parse(p.read_text(), filename=str(p))
             for p in sorted((ROOT / "src" / "qwebs").glob("*.py"))]
    helpers = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")}
    # and the private methods of library classes; dunders belong to the language
    methods = {node.name for tree in trees for cls in tree.body if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)
               and node.name.startswith("_") and not node.name.endswith("__")}
    loaded = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert helpers and methods
    assert sorted((helpers | methods) - loaded) == []


def test_only_webs_slices_applies_rungs():
    # a rung list's slice weights come from webs.slices or the copy a Ladder
    # keeps, so no other code steps through rungs with apply_rung
    loads = set()
    for path in sorted((ROOT / "src" / "qwebs").glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if name == "apply_rung" and isinstance(node.ctx, ast.Load):
                    loads.add((path.name, getattr(top, "name", None)))
    assert loads == {("webs.py", "slices")}


def units(path):
    """(name, node) of the top-level functions, class members and assignments
    of a module; methods are named by their class, assignments by their
    targets."""
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(top, ast.ClassDef):
            yield from ((f"{top.name}.{getattr(node, 'name', '')}", node) for node in top.body)
        elif isinstance(top, ast.Assign):
            yield ", ".join(ast.unparse(t) for t in top.targets), top
        else:
            yield getattr(top, "name", None), top


def units_loading(path, name):
    """The units of a module that load name."""
    return {unit_name for unit_name, unit in units(path)
            if any(isinstance(node, ast.Name) and node.id == name for node in ast.walk(unit))}


def units_calling(path, name):
    """The units of a module that call name(...) directly."""
    return {unit_name for unit_name, unit in units(path)
            if any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
                   for node in ast.walk(unit))}


def reached(path, roots):
    """The top-level names of a module that the roots load, directly or
    through other top-level names of the same module, roots included."""
    nodes = {}
    for unit_name, node in units(path):
        if unit_name:
            nodes.setdefault(unit_name.split(".")[0], []).append(node)
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in nodes and name not in seen:
            seen.add(name)
            todo += [n.id for node in nodes[name] for n in ast.walk(node) if isinstance(n, ast.Name)]
    return seen


def test_push_core_walks_no_rung_list_and_reads_no_matrix_view():
    # a functor term carries the slices its builder walked, so the rung
    # lists of a verdict are walked once, where its sides are gathered; and
    # the core lists basis elements itself, so it needs no matrix view
    src = ROOT / "src" / "qwebs"
    assert units_loading(src / "repfun.py", "slices") == {"rung_matrix"}
    assert units_loading(src / "relations.py", "slices") == {"_sides_equal"}
    core = {"_certified", "_push", "_images", "_maps_agree", "_closed_value", "ev_closed", "web_form"}
    view = {unit.split(".")[0] for name in ("FockBasis", "QMatrix")
            for unit in units_loading(src / "repfun.py", name)}
    assert {"FockBasis", "QMatrix", "merge_matrix", "_terms_matrix"} <= view
    assert core <= reached(src / "repfun.py", core)
    assert reached(src / "repfun.py", core) & view == set()


def test_one_evaluation_path():
    # every output of the functor, a matrix, a verdict or a closed value, is
    # one _images call on a web's terms, and only _web_terms lists a ladder's
    # or a combination's terms
    path = ROOT / "src" / "qwebs" / "repfun.py"
    assert units_calling(path, "_push") == {"_images"}
    weights = {name for name, unit in units(path)
               if any(isinstance(node, ast.Attribute) and node.attr == "weights"
                      for node in ast.walk(unit))}
    assert weights == {"_web_terms"}
    assert "_terms" not in {name for name, _ in units(path)}


def test_no_library_function_calls_itself():
    # a recursion whose depth an input sets can hit Python's recursion limit
    # on a public call. _monomials_of_degree recurses once per ring variable,
    # and a ring has a few dozen of them at most, so it is the one exception.
    found = set()
    for path in sorted((ROOT / "src" / "qwebs").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                f = getattr(node, "func", None) if isinstance(node, ast.Call) else None
                if getattr(f, "id", None) == fn.name or (
                        isinstance(f, ast.Attribute) and f.attr == fn.name
                        and getattr(f.value, "id", None) in ("self", "cls")):
                    found.add((path.name, fn.name))
    assert found == {("mfcore.py", "_monomials_of_degree")}


def test_mfcore_builds_few_graded_rings():
    # a contraction keeps its input's ring and drops the removed generators
    # once, in _dropped, so no elimination step builds a smaller ring, by the
    # constructor or by object.__new__
    loads = units_loading(ROOT / "src" / "qwebs" / "mfcore.py", "GradedRing")
    assert loads == {"GradedRing.__eq__", "_glue", "_piece", "_zero_object", "_dropped"}


def test_coefficients_are_checked_only_at_the_public_api():
    # the trusted constructors take coefficients in normal form, so only the
    # constructors and evaluate, which are handed outside values, check them
    loads = {(path.name, unit) for path in sorted((ROOT / "src" / "qwebs").glob("*.py"))
             for unit in units_loading(path, "_norm_coeff")}
    assert loads == {("qpoly.py", "LaurentPoly.__init__"), ("qpoly.py", "MultiPoly.__init__"),
                     ("qpoly.py", "MultiPoly.evaluate")}


def test_layer_trace_targets_resolve():
    # perfbench/layertrace.py wraps qwebs names by string and fails at
    # install time when one is renamed or deleted; it is read, not edited
    spec = importlib.util.spec_from_file_location(
        "_layertrace", ROOT / "perfbench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    targets = [row[:3] for row in layertrace.SPANS + layertrace.COUNTS]
    assert targets
    missing = []
    for mod, cls, attr in targets:
        module = importlib.import_module(f"qwebs.{mod}")
        owner = vars(module)[cls] if cls else module
        if attr not in vars(owner):
            missing.append(f"{mod}.{cls + '.' if cls else ''}{attr}")
    assert missing == []
    # perfbench/worker.py reads the split cache's statistics
    from qwebs.repfun import split_matrix
    assert callable(split_matrix.cache_info)


def test_only_cli_run_writes_stdout():
    # handlers return their plain lines and JSON record; run alone picks the
    # format and writes, so an option such as a stats dump has one place to go
    writers = set()
    for top in ast.parse((ROOT / "src" / "qwebs" / "cli.py").read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "stdout":
                writers.add(getattr(top, "name", None))
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
                if not any(kw.arg == "file" for kw in node.keywords):
                    writers.add(getattr(top, "name", None))
    assert writers == {"run"}


def test_checking_constructors_take_only_outside_values():
    # arithmetic results go through the trusted _raw constructors; the
    # checking ones build only polynomials from values handed in
    src = sorted((ROOT / "src" / "qwebs").glob("*.py"))
    laurent = {(p.name, unit) for p in src for unit in units_calling(p, "LaurentPoly")}
    multi = {(p.name, unit) for p in src for unit in units_calling(p, "MultiPoly")}
    assert laurent == {("qpoly.py", "LaurentPoly.const"), ("qpoly.py", "LaurentPoly.q_power"),
                       ("repfun.py", "WEDGE_FLIP")}
    assert multi == {("qpoly.py", f"PolyRing.{name}") for name in ("zero", "one", "const", "var")}


def test_repfun_neither_composes_nor_reflects():
    # web_form pushes one rung list per pair of terms along the ladders' own
    # slices, so the representation side builds no stacked or flipped ladder
    path = ROOT / "src" / "qwebs" / "repfun.py"
    assert units_loading(path, "compose") == units_loading(path, "reflect") == set()


def test_only_graded_ring_names_variables():
    # inside the library a variable is a ring slot: GradedRing alone joins an
    # alphabet and an index into a name, nothing parses one back, and no
    # polynomial moves between rings by name
    def calls(tree, attrs):
        return [node.func.attr for node in ast.walk(tree) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute) and node.func.attr in attrs]

    def joins(unit):
        # an f-string with "{alphabet}.{index}" in it
        return any(isinstance(node, ast.JoinedStr)
                   and any(isinstance(a, ast.FormattedValue) and isinstance(c, ast.Constant)
                           and c.value == "." and isinstance(b, ast.FormattedValue)
                           for a, c, b in zip(node.values, node.values[1:], node.values[2:]))
                   for node in ast.walk(unit))

    src = ROOT / "src" / "qwebs"
    by_name = {path.name: [unit for unit, node in units(path)
                           if calls(node, {"substitute", "convert", "uses"})]
               for path in sorted(src.glob("*.py"))}
    assert {name: found for name, found in by_name.items() if found} == {}
    assert calls(ast.parse((src / "mfcore.py").read_text()), {"rsplit"}) == []
    cli_tree = ast.parse((src / "cli.py").read_text())
    assert not any(isinstance(node, ast.Attribute) and node.attr == "alphabets"
                   for node in ast.walk(cli_tree))
    naming = {(path, unit) for path in ("mfcore.py", "cli.py")
              for unit, node in units(src / path) if joins(node)}
    assert naming == {("mfcore.py", "GradedRing.__init__"), ("mfcore.py", "GradedRing.var")}
