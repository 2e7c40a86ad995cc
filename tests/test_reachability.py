"""Every def and class in src/srak is reached from a command, a report or
perfbench.

A name-based pass over the syntax trees.  The roots are the module-level
code of every srak module (the CLI entry point and its parser wiring among
it) and all of perfbench/*.py; tests are not roots.  A module-level def or
class is reached when its name is used in reached code, a method when its
class is reached and its name is used (dunders with their class).  Names,
attribute names, imported names and string constants count as uses.
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
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, ast.alias):
                out.add(n.name.rpartition(".")[2])
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                out.add(n.value)
    return out


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
    used, reached = _uses(roots), set()
    grown = True
    while grown:
        grown = False
        for qual, name, owner, nodes in defs:
            dunder = name.startswith("__") and name.endswith("__")
            if qual in reached or (owner is not None and owner not in reached):
                continue
            if name in used or (owner is not None and dunder):
                reached.add(qual)
                used |= _uses(nodes)
                grown = True
    return sorted(qual for qual, _, _, _ in defs if qual not in reached)


def test_every_definition_is_reached():
    left = unreached()
    assert [q for q in left if q not in ALLOWED] == []
    # an allowlisted name that something now reaches leaves the list
    assert left == sorted(ALLOWED)
