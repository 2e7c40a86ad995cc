"""Every def and class in src/srak is reached from a command, a report or
perfbench, and every import in src/srak is a used module-level one.

A name-based pass over the syntax trees.  The roots are the module-level
code of every srak module (the CLI entry point and its parser wiring among
it) and all of perfbench/*.py; tests are not roots.  A module-level def or
class is reached when its name is used in reached code: as a name, an
attribute name, an imported name or a string constant.  A method is
reached when its class is reached and its name is used as an attribute
name or a string constant (dunders with their class); a bare name of the
same spelling is some other binding, so a method does not hide behind a
local variable or a module-level function that shares its name.

Imports sit at module level, where they cost one load per process and
show the module's dependencies in one place; none breaks an import
cycle.  A module-level import is used when a name it binds is used in
the module as a bare name or is listed in ``__all__``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# qualified name -> why it stays although nothing reaches it
ALLOWED = {
    "srak.selftest.tampered_cherednik": "the criterion-12 tamper fixture that the acceptance tests build",
    "srak.cherednik.gram_kernel_vectors": "the planned `cherednik singular` command reads its kernel vectors",
    "srak.sra.SRAlgebra.element": "the checked constructor from raw term maps (ArityError on a malformed "
    "exponent tuple) through which the PBW property tests draw their elements",
}


def _uses(nodes):
    """The names used in ``nodes``, as a pair: (bare and imported names,
    attribute names and string constants)."""
    names, attrs = set(), set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.alias):
                names.add(n.name.rpartition(".")[2])
            elif isinstance(n, ast.Attribute):
                attrs.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                attrs.add(n.value)
    return names, attrs


def _definitions(path):
    """(qualified name, name, owner, nodes) per def/class; loose statements."""
    defs, loose = [], []
    module = ".".join(p for p in path.relative_to(SRC).with_suffix("").parts if p != "__init__")
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            loose.append(stmt)
            continue
        qual = "%s.%s" % (module, stmt.name)
        if isinstance(stmt, ast.ClassDef):
            methods = [m for m in stmt.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
            rest = [m for m in stmt.body if m not in methods]
            defs.append((qual, stmt.name, None, stmt.bases + stmt.keywords + stmt.decorator_list + rest))
            defs.extend(("%s.%s" % (qual, m.name), m.name, qual, [m]) for m in methods)
        else:
            defs.append((qual, stmt.name, None, [stmt]))
    return defs, loose


def unreached():
    defs, roots = [], []
    for path in sorted((SRC / "srak").rglob("*.py")):
        d, loose = _definitions(path)
        defs += d
        roots += loose
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        roots.append(ast.parse(path.read_text(encoding="utf-8")))
    (names, attrs), reached = _uses(roots), set()
    grown = True
    while grown:
        grown = False
        for qual, name, owner, nodes in defs:
            if qual in reached:
                continue
            if owner is None:
                hit = name in names or name in attrs
            else:
                dunder = name.startswith("__") and name.endswith("__")
                hit = owner in reached and (dunder or name in attrs)
            if hit:
                reached.add(qual)
                more_names, more_attrs = _uses(nodes)
                names |= more_names
                attrs |= more_attrs
                grown = True
    return sorted(qual for qual, _, _, _ in defs if qual not in reached)


def test_every_definition_is_reached():
    left = unreached()
    assert [q for q in left if q not in ALLOWED] == []
    # an allowlisted name that something now reaches leaves the list
    assert left == sorted(ALLOWED)


def _modules():
    for path in sorted((SRC / "srak").rglob("*.py")):
        yield path.relative_to(SRC), ast.parse(path.read_text(encoding="utf-8"))


def function_local_imports():
    """"path:line" of every import inside a def."""
    out = set()
    for rel, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.update("%s:%d" % (rel, n.lineno) for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom)))
    return sorted(out)


def unused_imports():
    """"path:name" of every name a module-level import binds and the
    module never uses."""
    out = []
    for rel, tree in _modules():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
                used |= {n.value for n in ast.walk(stmt.value) if isinstance(n, ast.Constant)}
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in used:
                        out.append("%s:%s" % (rel, bound))
    return out


def test_imports_are_module_level_and_used():
    assert function_local_imports() == []
    assert unused_imports() == []
