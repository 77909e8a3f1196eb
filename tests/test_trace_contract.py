"""Every name the benchmark tracer wraps still exists in the library.

`perfbench/tracing.py` wraps functions by module path and attribute name. A
name deleted or renamed in the library would only show when a traced
benchmark run fails; this test fails first.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves_to_a_callable():
    tracing = load_tracing()
    assert tracing.BOUNDARIES
    missing = []
    for path, attr, name, _ in tracing.BOUNDARIES:
        owner = tracing.resolve(path)
        try:
            target = tracing.lookup(owner, attr)
        except (AttributeError, KeyError):
            missing.append(name)
            continue
        if not callable(target):
            missing.append(name)
    assert missing == []
