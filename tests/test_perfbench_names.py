"""The package names that ``perfbench/tracer.py`` wraps still exist, and
the package's values that ``perfbench/workloads.py`` copies still agree.

The tracer patches functions by module attribute and methods by class
attribute, so a rename in the package breaks ``perfbench/run.py --trace 1``.
This reads the tracer's tables and the workloads' constants only: nothing is
installed, wrapped or run.
"""
import importlib
import importlib.util
import os

import pytest

from waveshrink.noise import EVENT_A_SIZES

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TABLES = load("tracer")


@pytest.mark.parametrize("module, attr", [entry[:2] for entry in TABLES._FUNCTIONS])
def test_wrapped_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("module, cls, attr", [entry[:3] for entry in TABLES._METHODS])
def test_wrapped_method_is_the_class_own(module, cls, attr):
    assert attr in getattr(importlib.import_module(module), cls).__dict__


def test_workloads_check_event_A_at_the_package_sizes():
    # the benchmark's output checks keep their own copy of the sizes whose
    # reports carry event A
    assert load("workloads")._EVENT_SIZES == EVENT_A_SIZES
