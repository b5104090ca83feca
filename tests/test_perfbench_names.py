"""The package names that ``perfbench/tracer.py`` wraps still exist.

The tracer patches functions by module attribute and methods by class
attribute, so a rename in the package breaks ``perfbench/run.py --trace 1``.
This reads the tracer's tables only: nothing is installed or wrapped.
"""
import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TABLES = load_tracer()


@pytest.mark.parametrize("module, attr", [entry[:2] for entry in TABLES._FUNCTIONS])
def test_wrapped_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("module, cls, attr", [entry[:3] for entry in TABLES._METHODS])
def test_wrapped_method_is_the_class_own(module, cls, attr):
    assert attr in getattr(importlib.import_module(module), cls).__dict__
