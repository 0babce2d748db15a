"""The benchmark's tracer still sees every per-layer metric that BENCHMARK.json lists.

``perfbench/run.py --trace 1`` raises on a listed metric it did not measure,
so a traced function that leaves its module, or a module the tracer does not
know, must fail here first.  The test reads BENCHMARK.json and perfbench/ and
writes neither.
"""

import importlib.util
import json
import os

import twcalc

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def load_spans():
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_listed_layer():
    spans = load_spans()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"] if not m["name"].startswith("trace.")]
    tracer = spans.Tracer()
    tracer.install()
    try:
        unseen = [name for name in names
                  if (name.removesuffix(".self_s") not in spans.MODULES if name.endswith(".self_s")
                      else name.rsplit(".", 1)[0] not in tracer.functions)]
    finally:
        tracer.uninstall()
    assert names and unseen == []
    assert not hasattr(twcalc.wong_to_json, "__wrapped__")       # uninstall restored the package
