"""The names the benchmark in perfbench/ reaches into skewtherm through.

The tracer wraps each SPANS entry from outside, the worker clears three
lru caches before every cold unit and reads the preimage cache's hit and
miss counts; a refactor that renames or removes any of them breaks the
traced benchmark, so it must break a test first.
"""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for span, module, path, _ in load("tracer").SPANS:
        owner = importlib.import_module(module)
        *cls, attr = path.split(".")
        if cls:
            target = vars(getattr(owner, cls[0])).get(attr)
        else:
            target = getattr(owner, attr, None)
        assert callable(target), f"{span}: {module}.{path} is gone"


def test_cleared_caches_exist():
    caches = load("worker").import_program()
    assert set(caches) == {"preimage", "full_stencil", "base_geometry"}
    for name, cache in caches.items():
        assert callable(getattr(cache, "cache_clear", None)), name
    # layer_metrics reads the preimage cache's hit and miss counts
    info = caches["preimage"].cache_info()
    assert isinstance(info.hits, int) and isinstance(info.misses, int)
