"""The benchmark's layer targets exist where the benchmark patches them.

``perfbench/layers.py`` wraps each layer by replacing
``owner.__dict__[attribute]``.  A renamed method, or a store class that
inherits a method instead of defining it, breaks the benchmark only
when it runs; this checks every target against the program without
running a workload.  ``perfbench/`` is imported, never modified.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_layers():
    # layers.py imports its sibling ``speed`` as a top-level module.
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_layers", PERFBENCH / "layers.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


layers = _load_layers()


def _owners(owner):
    """Every class or module a target is patched on."""
    if owner == layers.STORE:
        return [layers._resolve(owner, name) for name in layers._STORE_MODULES]
    return [layers._resolve(owner, None)]


@pytest.mark.parametrize(
    "layer,owner,attribute", layers.LAYER_TARGETS,
    ids=[f"{layer}:{attr}" for layer, _, attr in layers.LAYER_TARGETS],
)
def test_layer_target_is_a_function_its_owner_defines(layer, owner, attribute):
    for target in _owners(owner):
        fn = target.__dict__.get(attribute)
        assert inspect.isfunction(fn), (
            f"{layer}: {target.__name__} does not itself define "
            f"function {attribute!r}"
        )


def test_both_store_names_resolve_to_one_class():
    classes = {layers._resolve(layers.STORE, name)
               for name in layers._STORE_MODULES}
    assert len(classes) == 1
