"""The names the ``swarm-e2e`` benchmark reaches into ``src/`` by string.

``benchmarks/e2e/tracing.py`` patches timing wrappers onto classes and
module-level functions it names as ``"module:attr"`` strings, and
``benchmarks/e2e/workloads.py`` reads counters off ``StorageServer``. A
rename under ``src/`` that breaks one of them kills the benchmark's
traced pass, so this module resolves every such name the way the
tracer's ``install`` does and fails here, in seconds, instead.
"""

import importlib.util
import pathlib

import pytest

from repro.server.config import ServerConfig
from repro.server.server import StorageServer

_TRACING_PATH = (pathlib.Path(__file__).resolve().parent.parent
                 / "benchmarks" / "e2e" / "tracing.py")
_spec = importlib.util.spec_from_file_location("swarm_e2e_tracing",
                                               _TRACING_PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def _patched_callable(owner, attr):
    """What ``Tracer.install`` would wrap: the raw ``vars(owner)`` entry,
    unwrapped from ``classmethod``/``staticmethod``."""
    raw = vars(owner)[attr]
    return getattr(raw, "__func__", raw)


def _layer_classes():
    """Every class the tracer names, by class name."""
    classes = {}
    for paths in tracing.LAYER_CLASSES.values():
        for path in paths:
            module, class_name = tracing._resolve(path)
            classes[class_name] = getattr(module, class_name)
    return classes


@pytest.mark.parametrize("layer", tracing.LAYERS)
def test_every_target_of_the_layer_resolves(layer, monkeypatch):
    monkeypatch.setattr(tracing, "LAYERS", (layer,))
    targets = list(tracing.iter_targets())
    assert targets, "layer %r names nothing to trace" % layer
    for _layer, owner, attr, display in targets:
        assert callable(_patched_callable(owner, attr)), display


def test_wait_spans_are_traced_methods():
    span_names = {display.split(":")[1]
                  for _layer, _owner, _attr, display in tracing.iter_targets()}
    assert tracing.WAIT_SPANS <= span_names


def test_rpc_spans_are_own_methods():
    # The tracer wraps only what a class defines itself (``vars(cls)``):
    # a method hoisted into a shared base silently loses its span.
    classes = _layer_classes()
    assert {"call", "submit_many"} <= set(vars(classes["RetryingTransport"]))
    assert "call" in vars(classes["LocalTransport"])
    for span in tracing.WAIT_SPANS:
        class_name, attr = span.split(".")
        assert attr in vars(classes[class_name]), span


def test_frame_parts_is_a_traced_function():
    by_display = {display: (owner, attr)
                  for _layer, owner, attr, display in tracing.iter_targets()}
    assert callable(_patched_callable(*by_display[tracing.FRAME_PARTS]))


def test_too_small_names_live_attributes():
    classes = _layer_classes()
    for name in tracing.TOO_SMALL:
        class_name, attr = name.split(".")
        assert hasattr(classes[class_name], attr), name


def test_storage_server_exposes_what_the_workloads_read():
    server = StorageServer(ServerConfig("s0", fragment_size=1 << 12))
    for attr in ("bytes_stored", "bytes_retrieved", "store_ops",
                 "retrieve_ops", "delete_ops", "fragment_info", "list_fids",
                 "crash", "restart"):
        assert hasattr(server, attr), attr
