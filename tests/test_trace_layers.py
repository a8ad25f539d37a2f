"""The benchmark's tracer still fits jd3: every layer resolves, every slice fact reads."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    """bench/spans.py, loaded by path without writing bytecode there."""
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
    return module


def test_every_traced_layer_resolves_to_a_jd3_callable():
    layers = _load_spans().LAYERS
    assert layers
    unresolved = []
    for name, (module_name, path) in layers.items():
        target = importlib.import_module(module_name)
        for part in path.split("."):
            target = getattr(target, part, None)
        if not (module_name.startswith("jd3.") and callable(target)):
            unresolved.append(f"{name}: {module_name}.{path}")
    assert unresolved == []


def test_slice_facts_count_the_generators_each_family_consumed(monkeypatch):
    from jd3 import verifier

    spans = _load_spans()
    # install() rebinds every traced callable; monkeypatch puts each binding back afterwards
    for module_name, path in spans.LAYERS.values():
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        monkeypatch.setattr(owner, attr, original)
        for module in spans._package_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, value)
    tracer = spans.Tracer()
    spans.install(tracer)
    assert verifier.verify_odd_vanishing(15).all_passed
    facts = spans.slice_facts(tracer)
    assert tracer.missing == set()

    # each generator a family consumed is one skew_row call directly inside its slice
    consumed: dict[str, int] = {}
    for name, _start, _end, parent, _child_ns, _thread in tracer.spans:
        if name == "diagram_spaces.skew_row" and parent >= 0:
            builder = tracer.spans[parent][0].removeprefix("diagram_spaces.")
            consumed[builder] = consumed.get(builder, 0) + 1
    for builder in ("ihx_image_slice", "subring_family_slice"):
        used = sum(f["generators_used"] for f in facts if f["builder"] == builder)
        assert used == consumed[builder] > 0
    assert all(f["generators_used"] == f["dim"] for f in facts if f["builder"] == "tet_slice")
