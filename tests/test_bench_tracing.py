"""The benchmark's tracer binds library names from outside; they must exist.

perfbench/tracing.py wraps twistalg functions and methods by name when a run
is traced.  The benchmark's self-test is not collected with this suite, so
without this check a rename in the library would break traced runs unseen.
"""

import runpy
from pathlib import Path

import pytest

import twistalg as T
import twistalg.cli  # noqa: F401  (binds every submodule, as the tracer does)

TRACING = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"))
TARGETS = [(module, target) for module, target, *_ in TRACING["SPANS"] + TRACING["COUNTS"]]


@pytest.mark.parametrize("module,target", TARGETS)
def test_traced_target_resolves(module, target):
    mod = getattr(T, module)
    if "." in target:
        cls_name, meth = target.split(".")
        # the tracer patches the class's own attribute, not an inherited one
        assert callable(vars(getattr(mod, cls_name)).get(meth))
    else:
        assert callable(getattr(mod, target, None))
