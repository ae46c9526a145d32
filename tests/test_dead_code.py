"""No function or method in the library goes uncalled, and no default
goes unused.

Every function and method defined in `src/afideals` must be named somewhere
in the library outside its own body: a function by a name or an attribute,
a method (a `def` directly in a class body) by an attribute only, since a
bare name such as a same-named parameter is not a call to it.  The
package's `__init__` re-exports, `__all__` strings and implicitly called
dunder methods do not count.  The few that no library code names are
listed in ALLOWED with the reason each stays, and the list must match the
scan exactly, so an entry goes once its function is called or deleted.

Likewise every parameter with a default must be passed, by position or by
keyword, at some library call outside the function's own body.  A call
matches a definition by its name, bare or as an attribute; a method's calls
skip its first parameter, and a class's calls are the calls of its
`__init__`.  A `*args` reaches every positional parameter from its place
on, a `**kwargs` every parameter.  The defaults no library call passes are
listed in ALLOWED_DEFAULTS, which must match that scan exactly too.
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

ALLOWED_DEFAULTS = {
    "cli._Parser.exit(message)": "argparse hook: ArgumentParser.exit's signature",
    "cli.main(argv)": "the console script passes nothing; in-process callers pass argv",
    "exact.word_weight(base)": "the tests' definition-level W4 reference for d_beta",
}


def scan(tree: ast.Module, module: str):
    """(definitions, uses, calls) of one module: each function or method as
    (qualified name, bare name, node, whether it is a method), each name or
    attribute as (identifier, whether it is an attribute, the definition
    nodes enclosing it), and each call as (node, enclosing definitions)."""
    definitions, uses, calls = [], [], []

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
            elif isinstance(child, ast.Call):
                calls.append((child, enclosing))
            visit(child, inner, within)

    visit(tree, module, frozenset())
    return definitions, uses, calls


def scan_package(package: Path):
    """`scan` over every module of the package but its `__init__`."""
    definitions, uses, calls = [], [], []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        found, named, made = scan(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        definitions += found
        uses += named
        calls += made
    return definitions, uses, calls


def unnamed_functions(package: Path) -> set:
    """Qualified names of the functions and methods that no library code
    outside their own bodies names."""
    definitions, uses, _ = scan_package(package)
    return {qualified for qualified, name, node, method in definitions
            if not (name.startswith("__") and name.endswith("__"))
            and not any(used == name and (attribute or not method) and node not in enclosing
                        for used, attribute, enclosing in uses)}


def passes(call: ast.Call, index, keyword: str) -> bool:
    """Whether the call passes the parameter at this positional index (None
    for a keyword-only one) or of this name."""
    for place, arg in enumerate(call.args):
        if index is None or place > index:
            break
        if isinstance(arg, ast.Starred) or place == index:
            return True
    return any(k.arg in (None, keyword) for k in call.keywords)


def unpassed_defaults(package: Path) -> set:
    """`qualified(parameter)` for each defaulted parameter that no library
    call outside its function's own body passes."""
    definitions, _, calls = scan_package(package)
    unpassed = set()
    for qualified, name, node, method in definitions:
        callee = qualified.split(".")[-2] if method and name == "__init__" else name
        matching = [call for call, enclosing in calls if node not in enclosing
                    and getattr(call.func, "attr", getattr(call.func, "id", None)) == callee]
        positional = node.args.posonlyargs + node.args.args
        skip = 1 if method else 0
        defaulted = [(place - skip, arg) for place, arg
                     in enumerate(positional)][len(positional) - len(node.args.defaults):]
        defaulted += [(None, arg) for arg, default
                      in zip(node.args.kwonlyargs, node.args.kw_defaults) if default is not None]
        unpassed |= {f"{qualified}({arg.arg})" for index, arg in defaulted
                     if not any(passes(call, index, arg.arg) for call in matching)}
    return unpassed


def test_every_library_function_is_named():
    assert unnamed_functions(PACKAGE) == set(ALLOWED)


def test_every_library_default_is_passed():
    assert unpassed_defaults(PACKAGE) == set(ALLOWED_DEFAULTS)


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


def test_an_unpassed_default_is_found(tmp_path):
    (tmp_path / "defaults.py").write_text(
        "def scale(x, factor=2, offset=0):\n    return x * factor + offset\n\n\n"
        "def spread(x, a=0):\n    return x + a\n\n\n"
        "def gather(*, b=0):\n    return b\n\n\n"
        "def never(x, *, unused=None):\n    return never(x, unused=unused) if unused else x\n\n\n"
        "class Box:\n    def __init__(self, size=1):\n        self.size = size\n\n"
        "    def grow(self, by=1):\n        return self.size + by\n\n\n"
        "PAIR, OPTIONS = (1, 2), {'b': 3}\n"
        "scale(1, 3)\nscale(1, offset=4)\nspread(*PAIR)\ngather(**OPTIONS)\n"
        "never(1)\nBox(5).grow(2)\n",
        encoding="utf-8")
    assert unpassed_defaults(tmp_path) == {"defaults.never(unused)"}
