"""Every by-name import kept only for the benchmark's tracer still has a reason.

Some modules import layer functions they no longer call, marked
``# noqa: F401``, because ``perfbench/spans.py`` installs its wrappers in
each module its ``TARGETS`` list as importing them.  This test reads those
pins from the source and checks that each one is such a target and that
its module never uses the name.  A pin left behind when a target or an
importer leaves ``TARGETS`` then fails here instead of lingering.
"""

import ast
from pathlib import Path

import pytest

from test_bench_targets import SPANS

SRC = Path(__file__).resolve().parents[1] / "src" / "statjpeg"


def pins():
    """``(module, home module, name, tree)`` for each name imported under noqa: F401."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        module = f"statjpeg.{path.stem}"
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            statement = lines[node.lineno - 1:node.end_lineno]
            if not any("# noqa: F401" in line for line in statement):
                continue
            home = f"statjpeg.{node.module}" if node.level else node.module
            found.extend((module, home, alias.name, tree) for alias in node.names)
    return found


PINS = pins()


def test_pins_are_found():
    assert {module for module, _, _, _ in PINS} >= {
        "statjpeg.jpeg", "statjpeg.stats", "statjpeg.metrics"
    }


@pytest.mark.parametrize("pin", PINS, ids=[f"{m}:{name}" for m, _, name, _ in PINS])
def test_pin_is_a_span_target_its_module_does_not_use(pin):
    module, home, name, tree = pin
    assert any(
        target_home == home and attr == name and module in importers
        for _, target_home, attr, importers, _ in SPANS.TARGETS
    ), f"{module} pins {name} from {home}, but perfbench/spans.py no longer wraps it there"
    uses = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == name]
    assert not uses, f"{module} uses its pinned {name} on lines {uses}"
