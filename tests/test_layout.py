"""The library's public surface has callers, and one radial rule.

Every public top-level function and class in src/rieszlab, and every
public method, must be named somewhere outside its own definition: in the
package itself, in perfbench/ or in tests/test_acceptance.py. A name that
only the unit tests reach is library code with no run behind it.

Only grids.RadialGrid builds the radial trapezoid rule, as its weights
and half_widths, which every radial integral reads.
"""

import ast
import glob
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = sorted(glob.glob(os.path.join(ROOT, "src", "rieszlab", "*.py")))
USERS = PACKAGE + sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py"))) \
    + [os.path.join(ROOT, "tests", "test_acceptance.py")]


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _public_definitions(tree):
    """(name, first line, last line) of each public top-level function or
    class and of each public method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield item.name, item.lineno, item.end_lineno


def test_every_public_name_is_used_outside_the_unit_tests():
    texts = {path: _read(path) for path in USERS}
    unused = []
    for path in PACKAGE:
        lines = texts[path].splitlines()
        for name, first, last in _public_definitions(ast.parse(texts[path])):
            # the definition itself does not count as a use
            own = "\n".join(lines[:first - 1] + lines[last:])
            word = re.compile(r"\b%s\b" % re.escape(name))
            if not any(word.search(own if user == path else text)
                       for user, text in texts.items()):
                unused.append("%s:%d %s" % (os.path.basename(path), first,
                                            name))
    assert unused == []


def test_only_the_radial_grid_builds_the_radial_quadrature():
    builders = []
    for path in PACKAGE:
        text = _read(path)
        name = os.path.basename(path)
        if re.search(r"\b(trapz|trapezoid_weights)\b", text):
            builders.append("%s: a retired rule's name" % name)
        tree = ast.parse(text)
        grid = [node for node in tree.body if isinstance(node, ast.ClassDef)
                and node.name == "RadialGrid"]
        allowed = {id(node) for cls in grid for node in ast.walk(cls)}
        for node in ast.walk(tree):
            # a difference of node coordinates: np.diff(..nodes..)
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "diff"
                    and "nodes" in ast.unparse(node)
                    and id(node) not in allowed):
                builders.append("%s:%d %s" % (name, node.lineno,
                                              ast.unparse(node)))
    assert builders == []
