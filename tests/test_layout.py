"""The library's public surface has callers.

Every public top-level function and class in src/rieszlab, and every
public method, must be named somewhere outside its own definition: in the
package itself, in perfbench/ or in tests/test_acceptance.py. A name that
only the unit tests reach is library code with no run behind it.
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
