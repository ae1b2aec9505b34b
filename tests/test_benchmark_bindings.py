"""The benchmark tracer's targets still name callables in the package.

perfbench/spans.py wraps module-level bindings by name; a refactor that
drops or renames one would only surface when a traced benchmark run starts.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_trace_target_is_a_callable_binding():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = [f"{mod}.{attr}" for mod, attr, _ in spans.TARGETS
               if not callable(getattr(importlib.import_module(mod), attr,
                                       None))]
    assert not missing, missing
