"""Every function the benchmark's tracer wraps still exists where it looks.

``perfbench/spans.py`` installs each wrapper in the function's home module
and in every module listed as importing it by name.  A refactor that drops
one of those imports would otherwise only show when a traced benchmark run
fails, so the target list is checked here, loaded from the file itself.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


@pytest.mark.parametrize(
    "target", SPANS.TARGETS, ids=[f"{home}.{attr}" for _, home, attr, _, _ in SPANS.TARGETS]
)
def test_target_resolves_in_home_and_importers(target):
    _, home, attr, importers, _ = target
    owner, name = SPANS._owner(home, attr)
    assert name in owner.__dict__, f"{home} has no {attr}"
    function = owner.__dict__[name]
    for module_name in importers:
        module = importlib.import_module(module_name)
        assert module.__dict__.get(attr) is function, (
            f"{module_name} no longer imports {attr} from {home}"
        )
