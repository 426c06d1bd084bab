"""Every top-level name in src/hjhom is one the program runs.

The guard reads the syntax trees of src/hjhom/*.py and collects the
top-level functions, classes and constants reachable by name reference from
three places: hjhom.cli.main, the names in hjhom.__all__, and the module's
own top-level statements (the command table, constants, decorators).  A name
outside that set is reached only from the tests; such code belongs beside
them, in tests/lemmas.py.

The same holds one level down: every method, property and record field (a
class-level annotation, of a NamedTuple or a plain class) of a class is one
some src/hjhom expression reads.  And every configuration key of
config.SCHEMA is one that some src/hjhom expression outside config._validate
names, bar the keys of SCHEMA_UNREAD.
"""

import ast
import shutil
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hjhom"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# configuration keys that no command reads, each with why it stays
SCHEMA_UNREAD = {
    "cell.deltas": "the benchmark's cell workloads (perfbench/workloads.py) set it, "
                   "and an unknown key fails a configuration",
}


def _imports(tree: ast.Module) -> tuple:
    """(names, modules): name -> (module, name) for every `from .m import n`
    or `from hjhom.m import n`, function-local ones included, and alias ->
    module for every `from . import m`."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            source = node.module
        elif node.level == 0 and (node.module or "").startswith("hjhom."):
            source = node.module.split(".", 1)[1]
        else:
            continue
        for alias in node.names:
            if source is None:
                modules[alias.asname or alias.name] = alias.name
            else:
                names[alias.asname or alias.name] = (source, alias.name)
    return names, modules


def _top_level(tree: ast.Module) -> dict:
    """Top-level name -> its statement: defs, classes and assigned names."""
    out = {}
    for node in tree.body:
        if isinstance(node, DEFS):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        out[name.id] = node
    return out


def unreached(src: Path) -> list:
    """`module.name` of every top-level name of the package at src that no
    path of name references from the three roots reaches, sorted."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    defined = {mod: _top_level(tree) for mod, tree in trees.items()}
    imported = {mod: _imports(tree) for mod, tree in trees.items()}

    def resolve(mod, name, seen=()):
        if name in defined.get(mod, {}):
            return (mod, name)
        source = imported.get(mod, ({}, {}))[0].get(name)
        if source is None or source in seen:
            return None
        return resolve(*source, seen + (source,))

    def refs(mod, node):
        out = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(resolve(mod, sub.id))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                target = imported[mod][1].get(sub.value.id)
                if target is not None:
                    out.add(resolve(target, sub.attr))
        return out

    roots = {("cli", "main")}
    for node in trees.get("__init__", ast.Module(body=[])).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            roots |= {resolve("__init__", elt.value) for elt in node.value.elts}
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, DEFS):
                roots |= refs(mod, node)
    reached, todo = set(), [r for r in roots if r is not None]
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        node = defined[key[0]][key[1]]
        if isinstance(node, DEFS):
            todo.extend(r for r in refs(key[0], node) if r is not None and r not in reached)
    return sorted(f"{mod}.{name}" for mod, names in defined.items() for name in names
                  if (mod, name) not in reached)


def unread_members(src: Path) -> list:
    """`Class.member` of every method, property and class-level annotated
    field of a top-level class of the package at src whose name no expression
    of the package loads as an attribute (`x.name`), sorted.  Definitions,
    stores and constructor keywords do not count, and dunder methods run
    implicitly.  The match is by name alone, so a member another class's
    loaded member of the same name shadows goes unnoticed."""
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    loaded = {node.attr for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    out = []
    for tree in trees:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")) and name not in loaded:
                    out.append(f"{cls.name}.{name}")
    return sorted(out)


def unread_keys(src: Path) -> list:
    """`section.key` of every config.SCHEMA key of the package at src that no
    expression outside config._validate names, sorted.  A key is named by a
    string constant equal to it, or by an f-string whose literal prefix,
    section and dot included, it starts with (`f"cell.table_{axis}"` names
    cell.table_x, cell.table_p and cell.table_l)."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    schema = next(node.value for node in trees["config"].body
                  if isinstance(node, ast.Assign) and any(
                      isinstance(t, ast.Name) and t.id == "SCHEMA" for t in node.targets))
    keys = [f"{section.value}.{key.value}" for section, body in zip(schema.keys, schema.values)
            for key in body.keys]
    skip = {id(node) for node in ast.walk(trees["config"])
            if isinstance(node, ast.FunctionDef) and node.name == "_validate"}
    names, prefixes, todo = set(), set(), list(trees.values())
    while todo:
        node = todo.pop()
        if id(node) in skip:
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        elif isinstance(node, ast.JoinedStr) and node.values and isinstance(
                node.values[0], ast.Constant) and "." in node.values[0].value:
            prefixes.add(node.values[0].value)
        todo.extend(ast.iter_child_nodes(node))
    return sorted(k for k in keys
                  if k not in names and not any(k.startswith(p) for p in prefixes))


def _copy_of_src(tmp_path) -> Path:
    for path in SRC.glob("*.py"):
        shutil.copy(path, tmp_path / path.name)
    return tmp_path


def test_every_top_level_name_is_run_by_the_program():
    missing = unreached(SRC)
    assert not missing, "reached only from the tests: " + ", ".join(missing)


def test_every_class_member_is_read_by_the_program():
    unread = unread_members(SRC)
    assert not unread, "members no src/ expression reads: " + ", ".join(unread)


def test_every_schema_key_is_read_by_the_program():
    unread = unread_keys(SRC)
    stray = sorted(set(unread) - set(SCHEMA_UNREAD))
    assert not stray, "configuration keys no src/ expression reads: " + ", ".join(stray)
    # the allow-list cannot go stale: each of its keys really is unread
    read = sorted(set(SCHEMA_UNREAD) - set(unread))
    assert not read, "allowed as unread, but read: " + ", ".join(read)


def test_guard_names_an_unread_key(tmp_path):
    # the same package with one more key that only validation names, and
    # with the one f-string that reads the table axes spelled out
    src = _copy_of_src(tmp_path)
    config, cli = src / "config.py", src / "cli.py"
    text = config.read_text()
    entry = '        "tol": ("float", 1e-9),\n'
    check = "def _validate(cfg: RunConfig) -> list:\n    errors = []\n"
    assert text.count(entry) == 1 and text.count(check) == 1
    config.write_text(text.replace(entry, entry + '        "orphan": ("int", 0),\n')
                      .replace(check, check + '    errors += [] if cfg["cell.orphan"] else []\n'))
    assert unread_keys(src) == ["cell.deltas", "cell.orphan"]
    text = cli.read_text()
    axes = 'cfg[f"cell.table_{axis}"]'
    assert text.count(axes) == 1
    cli.write_text(text.replace(axes, 'cfg["cell.table_" + axis]'))
    assert unread_keys(src) == ["cell.deltas", "cell.orphan", "cell.table_l", "cell.table_p",
                                "cell.table_x"]


def test_guard_names_a_test_only_function(tmp_path):
    # the same package with one function that only a test could call
    src = _copy_of_src(tmp_path)
    with open(src / "operators.py", "a") as fh:
        fh.write("\n\ndef orphan(values, table):\n    return apply_table(values, table)\n")
    assert unreached(src) == ["operators.orphan"]


def test_guard_names_an_unread_field(tmp_path):
    # the same package with one record field that nothing reads, though a
    # constructor keyword sets it
    src = _copy_of_src(tmp_path)
    fill = src / "fill.py"
    text = fill.read_text()
    field_line = "    warm: Optional[np.ndarray]\n"
    call = "FillRecord(table, steps, warm)"
    assert text.count(field_line) == 1 and text.count(call) == 1
    fill.write_text(text.replace(field_line, field_line + "    orphan: int = 0\n")
                    .replace(call, "FillRecord(table, steps, warm, orphan=1)"))
    assert unread_members(src) == ["FillRecord.orphan"]
    assert unreached(src) == []


def _defs(tree: ast.Module) -> list:
    """(name, node) of every top-level function, and (Class.method, node) of
    every method of a top-level class."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for top in tree.body:
        if isinstance(top, funcs):
            out.append((top.name, top))
        elif isinstance(top, ast.ClassDef):
            out.extend((f"{top.name}.{d.name}", d) for d in top.body if isinstance(d, funcs))
    return out


def call_sites(src: Path, names: set) -> list:
    """`module.function:name` of every call in the package at src of a
    function whose name, bare or as an attribute, is in names, `function` the
    top-level function or method that makes it; sorted, without repeats."""
    found = set()
    for path in src.glob("*.py"):
        for holder, tree in _defs(ast.parse(path.read_text())):
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in names:
                        found.add(f"{path.stem}.{holder}:{name}")
    return sorted(found)


def test_only_the_fill_module_fills_tables():
    # a table is built in one place, fill_table, and read back in one,
    # load_table, and only the fill takes the cell formula, so that every
    # table the program writes comes from hjhom.fill.fill_table
    assert call_sites(SRC, {"EffectiveTable", "formula_below_one"}) == [
        "effective.load_table:EffectiveTable", "fill.fill_table:EffectiveTable",
        "fill.fill_table:formula_below_one"]


def test_guard_names_a_second_fill(tmp_path):
    # the same package with the cell formula called, and a table built from
    # its values, on the command line too
    src = _copy_of_src(tmp_path)
    with open(src / "cli.py", "a") as fh:
        fh.write("\n\ndef orphan(model, x, p, l):\n"
                 "    values = formula_below_one(model.a, model.ham, x, p, l)\n"
                 "    return EffectiveTable(x, p, l, values, 0 * values, None, 0.5)\n")
    assert call_sites(src, {"EffectiveTable", "formula_below_one"}) == [
        "cli.orphan:EffectiveTable", "cli.orphan:formula_below_one",
        "effective.load_table:EffectiveTable", "fill.fill_table:EffectiveTable",
        "fill.fill_table:formula_below_one"]


def holders(src: Path, text: str) -> list:
    """`module.function` of every top-level function or method in the package
    at src whose source holds text, and `module.<module>` where the rest of a
    module does; sorted."""
    found = []
    for path in sorted(src.glob("*.py")):
        source = path.read_text()
        rest = source.count(text)
        for name, node in _defs(ast.parse(source)):
            if count := ast.get_source_segment(source, node).count(text):
                found.append(f"{path.stem}.{name}")
                rest -= count
        if rest:
            found.append(f"{path.stem}.<module>")
    return sorted(found)


def test_one_positivity_message():
    # every cell-level read of a, b and f goes through one sampler, so one
    # function states what a must be, and every command refuses a alike
    assert holders(SRC, "coefficient a must be") == ["cell.cell_coefficients"]


def test_guard_names_a_second_positivity_message(tmp_path):
    # the same package with the closed form checking a itself as well
    src = _copy_of_src(tmp_path)
    effective = src / "effective.py"
    text = effective.read_text()
    check = "        A, bbar, fbar = self.means(x)\n"
    assert text.count(check) == 1
    effective.write_text(text.replace(check, check + (
        "        if np.any(A <= 0.0):\n"
        "            raise ValueError('coefficient a must be positive')\n")))
    assert holders(src, "coefficient a must be") == ["cell.cell_coefficients",
                                                     "effective.ClosedForm.value"]


def fluxless_schemes(src: Path) -> list:
    """`module:line` of every MonotoneScheme(...) call in the package at src
    that passes no flux: neither power= nor a Hamiltonian, positional (the
    second argument) or as ham=; sorted."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "MonotoneScheme" and len(node.args) < 2 and not any(
                    kw.arg in ("power", "ham") for kw in node.keywords):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_every_scheme_has_a_flux():
    # MonotoneScheme has no flux-less mode: every scheme the program builds
    # takes the Godunov flux on a power form or a table's Lax-Friedrichs flux
    assert fluxless_schemes(SRC) == []


def test_guard_names_a_fluxless_scheme(tmp_path):
    # the same package with one scheme built from a nonlocal term alone
    src = _copy_of_src(tmp_path)
    cell = src / "cell.py"
    with open(cell, "a") as fh:
        fh.write("\n\ndef orphan(n, table, a):\n"
                 "    return MonotoneScheme(1.0 / n, table=table, a=a)\n")
    assert fluxless_schemes(src) == [f"cell:{len(cell.read_text().splitlines())}"]
