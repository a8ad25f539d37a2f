"""Every layer the benchmark traces still names a callable of jd3."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _traced_layers() -> dict[str, tuple[str, str]]:
    """`LAYERS` of bench/spans.py, loaded by path without writing bytecode there."""
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module.LAYERS


def test_every_traced_layer_resolves_to_a_jd3_callable():
    layers = _traced_layers()
    assert layers
    unresolved = []
    for name, (module_name, path) in layers.items():
        target = importlib.import_module(module_name)
        for part in path.split("."):
            target = getattr(target, part, None)
        if not (module_name.startswith("jd3.") and callable(target)):
            unresolved.append(f"{name}: {module_name}.{path}")
    assert unresolved == []
