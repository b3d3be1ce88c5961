"""The import layers of src/mvcrystals.  Every import between its modules
points down the order

    precision, rootdata -> trails, crystal, affine -> gallery -> looplab
    -> verify -> cli

so no module depends on one above it and no import cycle is held together by
an import inside a function.  The only function-level imports are the lazy
ones: the CLI commands that need looplab or verify, and the package's
__getattr__, which loads LoopGroup on first use."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mvcrystals"

# the second part of a module's name -> its layer; looplab's modules share one,
# and the package itself ("") stands above everything it re-exports
LAYER = {"precision": 0, "rootdata": 0, "trails": 1, "crystal": 1, "affine": 1,
         "gallery": 2, "looplab": 3, "verify": 4, "cli": 5, "": 5}
LAZY = {("mvcrystals.cli", "cmd_mv_sample"), ("mvcrystals.cli", "cmd_trop"),
        ("mvcrystals.cli", "cmd_verify"), ("mvcrystals", "__getattr__")}


def modules():
    """Module name -> parsed source, for every .py file of the package."""
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = ast.parse(path.read_text(), str(path))
    return out


def imports(tree, known):
    """(outermost enclosing function or None, module) for every mvcrystals
    module the tree imports; `from pkg import name` imports pkg.name when
    that is a module, else pkg."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, func or child.name)
                continue
            if isinstance(child, ast.ImportFrom):
                assert child.level == 0, f"relative import at line {child.lineno}"
                names = [f"{child.module}.{a.name}" if f"{child.module}.{a.name}" in known
                         else child.module for a in child.names]
            elif isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            else:
                visit(child, func)
                continue
            found.extend((func, name) for name in names if name.split(".")[0] == "mvcrystals")

    visit(tree, None)
    return found


def layer(module):
    return LAYER[(module.split(".") + [""])[1]]


def import_graph():
    """Module name -> its imports of mvcrystals modules."""
    mods = modules()
    return {name: imports(tree, mods) for name, tree in mods.items()}


def test_imports_point_down_the_layers():
    graph = import_graph()
    upward = [f"{src} imports {dst}" for src, edges in graph.items() for _, dst in edges
              if layer(dst) > layer(src)]
    assert upward == []


def test_only_the_lazy_places_import_inside_a_function():
    graph = import_graph()
    inside = [f"{src}.{func} imports {dst} inside a function"
              for src, edges in graph.items() for func, dst in edges
              if func is not None and (src, func) not in LAZY]
    assert inside == []


def test_no_import_cycle():
    graph = import_graph()
    state = {}  # module -> "open" while on the path, "done" after

    def walk(name, path):
        state[name] = "open"
        for _, dst in graph[name]:
            if state.get(dst) == "open":
                cycle = path[path.index(dst):] + [dst]
                raise AssertionError("import cycle: " + " -> ".join(cycle))
            if dst not in state:
                walk(dst, path + [dst])
        state[name] = "done"

    for name in graph:
        if name not in state:
            walk(name, [name])


def test_no_global_or_assert_statement():
    # no mutable module state set through `global`, and no check that
    # `python -O` could strip
    mods = modules()
    found = [f"{name}:{node.lineno} {type(node).__name__.lower()}"
             for name, tree in mods.items() for node in ast.walk(tree)
             if isinstance(node, (ast.Global, ast.Assert))]
    assert "mvcrystals.precision" in mods and found == []


# the vertex evaluations of the apartment; outside affine, src/ reads every
# face off W's tables except the gallery's origin face Delta'_0
VERTEX_CALLS = {"face_vertices", "phi_plus_aff"}
VERTEX_CALLERS = {("mvcrystals.gallery", "Gallery._origin_roots")}


def calls_by_scope(tree, names):
    """(enclosing class and function path, name) for every call of one of
    names, by bare name or as an attribute."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                if name in names:
                    found.append((".".join(scope), name))
            visit(child, scope)

    visit(tree, ())
    return found


def test_vertex_geometry_is_evaluated_only_in_affine_and_at_the_origin_face():
    mods = modules()
    found = [(name, scope, call) for name, tree in mods.items()
             for scope, call in calls_by_scope(tree, VERTEX_CALLS)]
    outside = [f"{name}.{scope} calls {call}" for name, scope, call in found
               if name != "mvcrystals.affine" and (name, scope) not in VERTEX_CALLERS]
    assert outside == []
    # the guard sees the one allowed caller, so a rename cannot empty it
    assert {(name, scope) for name, scope, _ in found} >= VERTEX_CALLERS


def written(node):
    """The targets node writes: those of an assignment or deletion, and for
    `setattr(X, ...)` or `delattr(X, ...)` an attribute `X.?`."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
            node.func.id in ("setattr", "delattr") and node.args:
        return [ast.Attribute(value=node.args[0], attr="?")]
    return node.targets if isinstance(node, (ast.Assign, ast.Delete)) else \
        [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []


def owner(target):
    """What a write to target changes: X for `X.attr` or an item of it, else None."""
    while isinstance(target, ast.Subscript):
        target = target.value
    return target.value if isinstance(target, ast.Attribute) else None


def datum_writes(tree):
    """Line and target of every write to an attribute of a datum: an
    assignment or deletion on `X.attr` or an item of it, or `setattr(X, ...)`,
    where X is a name containing "datum", a `.datum` attribute, or a name the
    module binds to `build_root_datum(...)`."""
    built = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Name)
             and node.value.func.id == "build_root_datum"
             for t in node.targets if isinstance(t, ast.Name)}

    def is_datum(x):
        return isinstance(x, ast.Name) and ("datum" in x.id or x.id in built) or \
            isinstance(x, ast.Attribute) and x.attr == "datum"

    return [f"{node.lineno}: {ast.unparse(t)}" for node in ast.walk(tree)
            for t in written(node) if is_datum(owner(t))]


def test_only_rootdata_writes_onto_a_datum():
    # a datum is shared by every caller of build_root_datum, so what it
    # stores is the datum's own: no other module keeps state on it
    found = [f"{name}:{line}" for name, tree in modules().items()
             if name != "mvcrystals.rootdata" for line in datum_writes(tree)]
    assert found == []


def test_the_datum_write_guard_sees_a_planted_write():
    planted = ast.parse(
        "def f(datum, g):\n"
        "    datum.x = 1\n"
        "    g.gtype.datum.memo[1] = 2\n"
        "    g.gtype.datum.cache = {}\n"
        "    a2 = build_root_datum('A', 2)\n"
        "    a2.count += 1\n"
        "    setattr(datum, 'y', 2)\n"
        "    g.x = 3\n")
    assert datum_writes(planted) == ["2: datum.x", "3: g.gtype.datum.memo[1]",
                                     "4: g.gtype.datum.cache", "6: a2.count", "7: datum.?"]


# a datum's facts are built with it, and W once on first use: after
# construction no other method changes what a shared datum holds
DATUM_WRITERS = {"__init__", "_build_roots", "weyl_elements"}


def self_writes(tree, cls):
    """(method, line and target) of every write of class cls's methods to an
    attribute of self or an item of one, plain or augmented."""
    body = next(node for node in tree.body if isinstance(node, ast.ClassDef)
                and node.name == cls).body
    return [(func.name, f"{node.lineno}: {ast.unparse(t)}")
            for func in body if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func) for t in written(node)
            if isinstance(x := owner(t), ast.Name) and x.id == "self"]


def test_a_datum_writes_to_itself_only_while_it_is_built():
    found = self_writes(modules()["mvcrystals.rootdata"], "RootDatum")
    assert [write for write in found if write[0] not in DATUM_WRITERS] == []
    # the guard sees each allowed writer, so a rename cannot empty it
    assert {name for name, _ in found} == DATUM_WRITERS


def test_the_datum_self_write_guard_sees_a_planted_write():
    planted = ast.parse(
        "class RootDatum:\n"
        "    def __init__(self):\n"
        "        self.rows = {}\n"
        "    def pairing_row(self, rc):\n"
        "        self.rows[rc] = row = rc\n"
        "        self.calls += 1\n"
        "        setattr(self, 'last', rc)\n"
        "        rc.x = self.y\n"
        "        return row\n")
    assert self_writes(planted, "RootDatum") == [
        ("__init__", "3: self.rows"), ("pairing_row", "5: self.rows[rc]"),
        ("pairing_row", "6: self.calls"), ("pairing_row", "7: self.?")]
