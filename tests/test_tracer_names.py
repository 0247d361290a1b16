"""Every name the benchmark tracer wraps still exists in the library.

``bench/tracer.py`` rebinds functions and methods by name, so a rename in
``src/`` would otherwise show up only as a crash of a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracer = load_tracer()
    missing = []
    for mod, attr, _layer in tracer.FUNCTION_SPANS:
        if not callable(getattr(importlib.import_module(f"chaoslab.{mod}"), attr, None)):
            missing.append(f"{mod}.{attr}")
    for mod, cls, meth, *_layer in tracer.METHOD_SPANS + tracer.METHOD_COUNTERS:
        owner = getattr(importlib.import_module(f"chaoslab.{mod}"), cls, None)
        if owner is None or meth not in owner.__dict__:
            missing.append(f"{mod}.{cls}.{meth}")
    traced = len(tracer.FUNCTION_SPANS) + len(tracer.METHOD_SPANS) + len(tracer.METHOD_COUNTERS)
    assert traced == 39
    assert missing == []
