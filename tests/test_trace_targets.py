"""Every name the benchmark tracer in ``benchmarks/layers.py`` patches exists.

The tracer finds functions and methods by name when it is set up, so a
rename in the package would otherwise break only a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "benchmarks" / "layers.py"
_spec = importlib.util.spec_from_file_location("layers", LAYERS)
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)

FUNCTIONS = sorted({*layers.BUCKETS, *layers.COUNTED, *layers.INLINE})
METHODS = sorted({*layers.METHOD_SPANS, *layers.METHOD_COUNTS})


@pytest.mark.parametrize("key", FUNCTIONS)
def test_traced_function_is_defined_in_its_module(key):
    short, name = key.split(".")
    assert short in layers.MODULES
    module = importlib.import_module(f"groupexplain.{short}")
    fn = getattr(module, name, None)
    # the tracer wraps only functions defined in the module itself
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__


@pytest.mark.parametrize(
    "short,cls,method", METHODS, ids=[".".join(key) for key in METHODS]
)
def test_traced_method_is_defined_on_its_class(short, cls, method):
    owner = getattr(importlib.import_module(f"groupexplain.{short}"), cls)
    assert inspect.isclass(owner) and method in vars(owner)
