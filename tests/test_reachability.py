"""Every public function and class in src/ has a caller outside the tests,
the two routes of each amplitude share no code, and no function takes the
model twice.

The walk goes by name over the source's syntax trees.  Its roots are
cli.main (the console script), every module-level statement and every
name tests/test_acceptance.py uses.  A reached definition reaches every
definition whose name appears in its body, as a plain name or as an
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

# The entry functions of each amp kind's product and integral routes.
ROUTE_PAIRS = [
    ("kink_S_amplitudes", "kink_S_by_integral"),
    ("transmission_amplitudes", "transmission_by_integral"),
    ("breather_S", "breather_S_by_integral"),
    ("breather_T", "breather_T_by_integral"),
]

# What the two routes of some pair both reach, each with the reason it may.
_ERRORS = "an error class: refusing an input is no computation"
_INPUT = "a property of the model or the defect, the input both routes read"
SHARED = {
    "DefectBetheError": _ERRORS,
    "DomainError": _ERRORS,
    "NonConvergence": _ERRORS,
    "__init__": "NonConvergence.__init__, which stores its best residual",
    "AmplitudeValue": "the value, err and term count every route returns",
    "anisotropy": _INPUT,
    "is_rational": _INPUT,
    "nu": _INPUT,
    "regime": _INPUT,
    "regime_name": _INPUT,
    "branch_index": "the window m of the defect's data, set once by "
                    "DefectRegimeData.from_params: a wrong window passes "
                    "both routes unseen",
    "_window": "the rule behind branch_index",
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


def _definitions():
    """(defs, module_names): every function and class of src/ by name, and
    the names its module-level statements use."""
    defs, module_names = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
        module_names.extend(_names(s for s in tree.body if not isinstance(
            s, (ast.FunctionDef, ast.ClassDef))))
    return defs, module_names


def _reached(defs, roots):
    """The definition names reached from roots, the roots included."""
    todo, reached = list(roots), set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in defs.get(name, ()):
                todo.extend(_names(_body(node)))
    return reached & set(defs)


def test_every_public_definition_is_reached():
    defs, module_names = _definitions()
    reached = _reached(defs, ["main", *module_names,
                              *_names([ast.parse(ACCEPTANCE.read_text())])])
    unreached = sorted(n for n in defs
                       if not n.startswith("_") and n not in reached)
    assert not unreached, f"public but never called: {', '.join(unreached)}"


def test_route_pairs_share_no_code():
    """What both routes of a pair reach is in SHARED.  The walk sees names,
    not branches: a route reaches every name of a function it calls,
    whichever branch it takes, and code copied under a new name passes
    unseen."""
    defs, _ = _definitions()
    shared = set()
    for product, integral in ROUTE_PAIRS:
        both = _reached(defs, [product]) & _reached(defs, [integral])
        extra = sorted(both - set(SHARED))
        assert not extra, f"{product} and {integral} share {extra}"
        shared |= both
    assert set(SHARED) <= shared, "stale SHARED entry"


def test_no_function_takes_the_model_twice():
    """A rep, a defect's data and a chain each carry their model, so no
    function takes params beside one of them.  The walk sees argument
    names only: a second model under another name passes unseen."""
    defs, _ = _definitions()
    twice = []
    for name, nodes in sorted(defs.items()):
        for node in nodes:
            if isinstance(node, ast.FunctionDef):
                args = node.args
                names = {a.arg for a in (*args.posonlyargs, *args.args,
                                         *args.kwonlyargs)}
                if "params" in names and names & {"rep", "data", "chain"}:
                    twice.append(name)
    assert not twice, f"take params beside rep, data or chain: {twice}"
