"""The program surface that perfbench's traced run wraps by name.

``perfbench/layers.py`` lists each layer's entry points in ``ENTRY_POINTS``
and patches them at run time.  Renaming or deleting one of those functions
breaks only the traced benchmark run, so these tests load that file by path
and check that every entry point still resolves and that uninstalling the
tracer puts every original back.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(module_name, path):
    """The (owner, attribute) pairs one ``ENTRY_POINTS`` entry names."""
    module = importlib.import_module(module_name)
    owner, _, attr = path.rpartition(".")
    if not owner:
        return [(module, attr)] if attr in vars(module) else []
    if owner == "*":
        classes = [value for value in vars(module).values()
                   if isinstance(value, type)
                   and value.__module__ == module_name]
    else:
        classes = [getattr(module, owner)]
    return [(cls, name) for cls in classes for name in vars(cls)
            if name == attr
            or (attr.endswith("*") and name.startswith(attr[:-1]))]


def _originals(layers):
    return {(owner, name): vars(owner)[name]
            for module_name, path, _layer in layers.ENTRY_POINTS
            for owner, name in _targets(module_name, path)}


def test_every_entry_point_resolves(layers):
    originals = _originals(layers)
    tracer = layers.LayerTracer()
    try:
        tracer.install()
        for module_name, path, _layer in layers.ENTRY_POINTS:
            targets = _targets(module_name, path)
            assert targets, f"{module_name}.{path} names nothing"
            for owner, name in targets:
                wrapper = vars(owner)[name]
                assert getattr(wrapper, "__wrapped__", None) is \
                    originals[owner, name], f"{module_name}.{path}: {name}"
    finally:
        tracer.uninstall()


def test_uninstall_restores_every_original(layers):
    originals = _originals(layers)
    tracer = layers.LayerTracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
    finally:
        tracer.uninstall()
    assert patches
    for owner, name, original in patches:
        assert vars(owner)[name] is original
    for (owner, name), original in originals.items():
        assert vars(owner)[name] is original
