"""The names the end-to-end benchmark's traced pass wraps must exist.

``perfbench/run.py --trace 1`` wraps every function and method listed in
``perfbench.layers.SPANS``.  Renaming or removing one of them in
``src/`` would crash that pass with a ``KeyError``; this test fails
first.
"""

from perfbench import layers
from perfbench.tracing import Tracer


def test_every_traced_name_can_be_wrapped():
    undo = layers.install(Tracer())
    try:
        assert len(undo) == len(layers.SPANS)
    finally:
        for restore in reversed(undo):
            restore()
