"""Every name `src/` defines has a caller in `src/`.

Code that only the tests call lives in the test oracles, so the package's
modules are exactly the code the CLI commands run. The check is static: an
`ast` walk over `src/rydberg_frames/*.py` that finds, for each module-level
function, class and constant and each public method, a name load or
attribute read outside its own definition. Imports alone do not count.
"""

import ast
from pathlib import Path

import rydberg_frames

SRC = Path(rydberg_frames.__file__).resolve().parent

# perfbench's tracer reads `QuadratureRule.for_shell` for its node counts, and
# ROADMAP item 5 deletes both once the tracer no longer reads them (item 1 or 4)
ALLOWED = {"povm_so3.QuadratureRule", "povm_so3.QuadratureRule.for_shell"}


def _definitions(module, tree):
    """(qualified name, bare name, node) of each name the guard holds to a caller."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node.name, node
        elif isinstance(node, ast.ClassDef):
            yield f"{module}.{node.name}", node.name, node
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name, item
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield f"{module}.{target.id}", target.id, node


def _uses(node, outer=()):
    """(name, enclosing definitions) of each name load and attribute read under
    node; annotations are skipped, since no command runs them."""
    if isinstance(node, ast.arg) or node is None:
        return
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id, outer
    elif isinstance(node, ast.Attribute):
        yield node.attr, outer
    if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign)):
        outer = outer + (node,)
    if isinstance(node, ast.FunctionDef):
        children = [*node.args.defaults, *node.args.kw_defaults, *node.decorator_list, *node.body]
    elif isinstance(node, ast.AnnAssign):
        children = [node.target, node.value]
    else:
        children = ast.iter_child_nodes(node)
    for child in children:
        yield from _uses(child, outer)


def callerless_names():
    """Qualified names defined in src that nothing in src reads outside their definition."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    uses = [use for tree in trees.values() for use in _uses(tree)]
    return sorted(
        qualified
        for module, tree in trees.items()
        for qualified, name, node in _definitions(module, tree)
        if not any(used == name and node not in outer for used, outer in uses)
    )


def test_every_src_name_has_a_src_caller():
    assert [name for name in callerless_names() if name not in ALLOWED] == []


def test_allow_list_is_still_needed():
    assert ALLOWED <= set(callerless_names())
