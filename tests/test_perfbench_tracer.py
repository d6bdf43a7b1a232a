"""The benchmark's span tracer must find every entry point it wraps by name.

``perfbench/spans.py`` patches library functions by name and raises if one is
gone; without this test only a traced benchmark run would notice.
"""

import importlib.util
from pathlib import Path

from adapterkit import adapters, autodiff, backbone, hub, manager, package_io, training
from adapterkit.backbone import ModelConfig

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
PATCHED = (autodiff, backbone, adapters, manager.AdapterModel, training, training.Adam,
           package_io, hub)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_wraps_every_named_entry_point():
    spans = _load_spans()
    saved = [(owner, dict(vars(owner))) for owner in PATCHED]
    try:
        tracer = spans.Tracer()
        restore = spans.instrument(tracer)
        model = manager.AdapterModel(ModelConfig(hidden_size=8, num_layers=1, num_heads=2,
                                                 ffn_size=16, vocab_size=64, max_seq_len=8), seed=1)
        model.add_head("cls", 2)
        model.add_adapter("a", config="pfeiffer", reduction_factor=2)
        model.set_active_adapters(["a"])
        tracer.on = True
        model.predict([[1, 2, 3], [4]])
        tracer.on = False
        names = {span[spans.NAME] for span in tracer.spans}
        assert {"manager.predict", "manager.batch_logits", "backbone.apply_layer",
                "adapters.adapter_forward"} <= names
        restore()
        assert all(vars(owner).get(k) is v for owner, attrs in saved for k, v in attrs.items())
    finally:
        # instrument() leaves its earlier patches in place when a later name is missing
        for owner, attrs in saved:
            for k, v in attrs.items():
                if vars(owner).get(k) is not v:
                    setattr(owner, k, v)
