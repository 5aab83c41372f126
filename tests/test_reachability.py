"""Every public function and class in src/ has a caller outside the tests.

The walk goes by name over the source's syntax trees.  Its roots are
cli.main (the console script), every module-level statement, every name
tests/test_acceptance.py uses, and ALLOWED.  A reached definition reaches
every definition whose name appears in its body, as a plain name or as an
attribute; a reached class reaches its bases, decorators, class-level
statements and dunder methods, while its other methods need their own
caller.  It sees whole functions, not dead branches: an unused branch of
a reached function, or a definition that shares its name with a reached
one, passes unseen.
"""

import ast
from pathlib import Path

import defectbethe

SRC = Path(defectbethe.__file__).resolve().parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")

# Public definitions kept without a caller, each with the ROADMAP item
# that keeps it.
ALLOWED = {
    "state_density": "item 6: checked against z'/N of finite-N roots",
    "hole_dispersion": "item 6: the p(lambda) of the transmission phase",
    "pseudovacuum": "item 2: the vacuum energy of the energy route",
}


def _names(nodes):
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr


def _body(node):
    """What reaching node reaches: a class keeps its methods apart."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    return [*node.bases, *node.decorator_list, *(
        s for s in node.body if not isinstance(s, ast.FunctionDef)
        or s.name.startswith("__"))]


def test_every_public_definition_is_reached():
    defs, todo = {}, ["main", *ALLOWED]
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
        todo.extend(_names(s for s in tree.body if not isinstance(
            s, (ast.FunctionDef, ast.ClassDef))))
    todo.extend(_names([ast.parse(ACCEPTANCE.read_text())]))
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in defs.get(name, ()):
                todo.extend(_names(_body(node)))
    unreached = sorted(n for n in defs
                       if not n.startswith("_") and n not in reached)
    assert not unreached, f"public but never called: {', '.join(unreached)}"
    assert set(ALLOWED) <= set(defs), "stale ALLOWED entry"
