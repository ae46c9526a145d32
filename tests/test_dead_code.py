"""No function or method in the library goes uncalled.

Every function and method defined in `src/afideals` must be named somewhere
in the library outside its own body: a function by a name or an attribute,
a method (a `def` directly in a class body) by an attribute only, since a
bare name such as a same-named parameter is not a call to it.  The
package's `__init__` re-exports, `__all__` strings and implicitly called
dunder methods do not count.  The few that no library code names are
listed in ALLOWED with the reason each stays, and the list must match the
scan exactly, so an entry goes once its function is called or deleted.
"""

import ast
from pathlib import Path

import afideals

PACKAGE = Path(afideals.__file__).parent

ALLOWED = {
    "exact.word_xor": "benchmarks/tracer.py traces it until the tracer's targets are refreshed",
    "bratteli.BratteliDiagram.successors": "benchmarks/tracer.py traces it until the tracer's "
                                           "targets are refreshed",
    "qi.point_distance": "the one public d(x, S), kept public by decision",
    "cli._Parser.error": "argparse hook: ArgumentParser calls it on a usage error",
    "cli._Parser._check_value": "argparse hook: ArgumentParser calls it for each choice value",
    "bratteli.FiniteDescriptor.sets": "the scaling report in benchmarks/run.py reads it",
    "metrics.CertifiedValue.lo": "the certified bracket's public lower endpoint",
    "metrics.CertifiedValue.hi": "the certified bracket's public upper endpoint",
}


def scan(tree: ast.Module, module: str):
    """(definitions, uses) of one module: each function or method as
    (qualified name, bare name, node, whether it is a method), and each name
    or attribute as (identifier, whether it is an attribute, the definition
    nodes enclosing it)."""
    definitions, uses = [], []

    def visit(node, prefix, enclosing):
        for child in ast.iter_child_nodes(node):
            inner, within = prefix, enclosing
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner, within = f"{prefix}.{child.name}", enclosing | {child}
                definitions.append((inner, child.name, child, isinstance(node, ast.ClassDef)))
            elif isinstance(child, ast.ClassDef):
                inner = f"{prefix}.{child.name}"
            elif isinstance(child, ast.Name):
                uses.append((child.id, False, enclosing))
            elif isinstance(child, ast.Attribute):
                uses.append((child.attr, True, enclosing))
            visit(child, inner, within)

    visit(tree, module, frozenset())
    return definitions, uses


def unnamed_functions(package: Path) -> set:
    """Qualified names of the functions and methods that no library code
    outside their own bodies names."""
    definitions, uses = [], []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        found, named = scan(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        definitions += found
        uses += named
    return {qualified for qualified, name, node, method in definitions
            if not (name.startswith("__") and name.endswith("__"))
            and not any(used == name and (attribute or not method) and node not in enclosing
                        for used, attribute, enclosing in uses)}


def test_every_library_function_is_named():
    assert unnamed_functions(PACKAGE) == set(ALLOWED)


def test_an_orphaned_helper_is_found(tmp_path):
    (tmp_path / "helpers.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def orphan():\n    return orphan()\n\n\n"
        "class Box:\n    def __repr__(self):\n        return used()\n\n"
        "    def unused(self):\n        return self.unused\n\n"
        "    def shadowed(self):\n        return 2\n\n\n"
        "def make(shadowed):\n    return Box(), shadowed\n\n\n"
        "make(used)\n",
        encoding="utf-8")
    (tmp_path / "__init__.py").write_text("from .helpers import orphan, unused\n", encoding="utf-8")
    assert unnamed_functions(tmp_path) == {"helpers.orphan", "helpers.Box.unused",
                                           "helpers.Box.shadowed"}
