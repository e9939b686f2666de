"""The benchmark's tracer (perfbench/tracing.py) wraps package attributes by
name, so a renamed one would break every traced benchmark run."""
import importlib
import importlib.util

from helpers import REPO_ROOT


def test_every_traced_target_is_a_callable_of_the_package():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO_ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # imports only the standard library
    assert tracing.TARGETS
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.TARGETS
        if not module.startswith("fuzzyqp.")
        or not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
