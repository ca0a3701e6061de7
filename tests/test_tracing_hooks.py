"""The benchmark tracer's hooks name functions that exist.

``perfbench/tracing.py`` patches each ``HOOKS`` entry by module and
attribute name and only counts a missing one in ``trace.absent_hooks``, so a
renamed or deleted function would silently drop out of the per-layer
metrics.  The tracer is loaded from its file; nothing in ``perfbench`` runs.
"""

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.HOOKS


def test_benchmark_hooks_resolve():
    hooks = _hooks()
    assert hooks
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in hooks
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
