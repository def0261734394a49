"""The end-to-end benchmark's per-layer clock must find every hook.

``e2ebench/layers.py`` wraps named entry points across the serving,
attack, retrieval and gallery layers when it runs with ``--trace 1``.
Renaming or deleting one of them breaks only that traced run, so this
test resolves every ``(owner, attribute)`` it names.  The benchmark file
is read and executed in memory, never imported from its directory.
"""

import types
from pathlib import Path

LAYERS_PY = Path(__file__).parent.parent / "e2ebench" / "layers.py"


def _load_layers() -> types.ModuleType:
    module = types.ModuleType("e2ebench_layers")
    module.__file__ = str(LAYERS_PY)
    exec(compile(LAYERS_PY.read_text(), str(LAYERS_PY), "exec"),
         module.__dict__)
    return module


def test_every_layer_hook_resolves():
    layers = _load_layers()
    targets = layers._targets()
    assert targets
    for owner, attribute, layer in targets:
        assert hasattr(owner, attribute), \
            f"{getattr(owner, '__name__', owner)}.{attribute} is gone"
        assert layer in layers.LAYERS, layer
