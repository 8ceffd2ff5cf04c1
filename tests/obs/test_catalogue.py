"""The metric catalogue against the source, read statically.

The ``repro.obs.registry`` docstring table is the naming registry.  Two
directions keep it honest without running anything:

* every catalogued name is created somewhere in ``src/`` — spelt as one
  string literal, or as a literal prefix ending in ``.`` concatenated
  with a literal suffix (``"geometry.raster." + name`` over a tuple of
  names) — so a row cannot outlive the code that emitted it;
* every literal name handed to ``.counter(`` / ``.gauge(`` /
  ``.histogram(`` in ``src/`` is catalogued, under that kind (a prefix
  concatenation: some row under that prefix, of that kind).
"""

import ast
import pathlib
import re

import pytest

import repro
from repro.obs import registry

pytestmark = pytest.mark.obs

_ROW = re.compile(r"^``([a-z0-9_.]+)``\s+(counter|gauge|histogram)\s", re.M)
_KINDS = ("counter", "gauge", "histogram")


def catalogue():
    """``{name: kind}`` of the registry docstring table."""
    rows = dict(_ROW.findall(registry.__doc__))
    assert rows, "the registry docstring lists no metrics"
    return rows


def source_trees():
    root = pathlib.Path(repro.__file__).parent
    return {path.relative_to(root).as_posix(): ast.parse(path.read_text())
            for path in sorted(root.rglob("*.py"))}


def literal(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def scan(trees):
    """(string literals, prefix literals, metric creations) of ``src/``.

    A prefix literal ends in ``.`` and is the left operand of a ``+``;
    a metric creation is ``(file, line, kind, name or prefix + "*")`` for
    every ``.counter(`` / ``.gauge(`` / ``.histogram(`` call whose first
    argument is a literal or a prefix concatenation.
    """
    literals, prefixes, created = set(), set(), []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            value = literal(node)
            if value is not None:
                literals.add(value)
            elif isinstance(node, ast.BinOp) \
                    and isinstance(node.op, ast.Add):
                left = literal(node.left)
                if left is not None and left.endswith("."):
                    prefixes.add(left)
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _KINDS and node.args:
                first = node.args[0]
                name = literal(first)
                if name is None and isinstance(first, ast.BinOp):
                    prefix = literal(first.left)
                    name = None if prefix is None else prefix + "*"
                if name is not None:
                    created.append((path, node.lineno, node.func.attr,
                                    name))
    return literals, prefixes, created


@pytest.fixture(scope="module")
def source():
    return scan(source_trees())


def test_every_catalogued_name_is_created_in_src(source):
    literals, prefixes, _ = source
    # Both spellings occur in src/: a scan that found neither would
    # pass vacuously.
    assert "store.scan.plans" in literals
    assert "geometry.raster." in prefixes and "built" in literals

    def spelt(name):
        return name in literals or any(
            name.startswith(prefix) and name[len(prefix):] in literals
            for prefix in prefixes)

    orphans = sorted(name for name in catalogue() if not spelt(name))
    assert not orphans, "catalogued but never created: {}".format(orphans)


def test_every_literal_metric_in_src_is_catalogued(source):
    rows = catalogue()
    _, _, created = source
    assert {"store.scan.plans", "geometry.raster.*"} <= \
        {name for _, _, _, name in created}
    missing = []
    for path, line, kind, name in created:
        if name.endswith("*"):
            # A prefix names a family: some row of it has this kind.
            if kind not in {rows[row] for row in rows
                            if row.startswith(name[:-1])}:
                missing.append((path, line, kind, name))
        elif rows.get(name) != kind:
            missing.append((path, line, kind, name))
    assert not missing, "created but not catalogued (as that kind): " \
        "{}".format(missing)

