"""The benchmark tracer's targets still name callables in the package.

perfbench/spans.py wraps module-level bindings by name, and its span notes
read arguments of some of them by position or keyword; a refactor that
drops or renames a binding, or moves one of those arguments, would only
surface when a traced benchmark run starts.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# span name -> (position, keyword) of the argument its note reads; the
# keyword is None where the note reads the position only
NOTE_ARGUMENTS = {
    "velocity.rhs": (0, None),
    "spectral.smooth": (0, None),
    "scenario.export": (1, "path"),
}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_trace_target_is_a_callable_binding():
    spans = _load_spans()
    assert spans.TARGETS
    missing = [f"{mod}.{attr}" for mod, attr, _ in spans.TARGETS
               if not callable(getattr(importlib.import_module(mod), attr,
                                       None))]
    assert not missing, missing


def test_span_notes_find_their_arguments():
    spans = _load_spans()
    assert set(spans._NOTES) == set(NOTE_ARGUMENTS)
    positional = (inspect.Parameter.POSITIONAL_ONLY,
                  inspect.Parameter.POSITIONAL_OR_KEYWORD)
    for mod, attr, span in spans.TARGETS:
        if span not in NOTE_ARGUMENTS:
            continue
        pos, keyword = NOTE_ARGUMENTS[span]
        fn = getattr(importlib.import_module(mod), attr)
        params = list(inspect.signature(fn).parameters.values())
        assert len(params) > pos and params[pos].kind in positional, \
            f"{mod}.{attr}: no positional argument {pos}"
        if keyword is not None:
            assert params[pos].name == keyword, \
                f"{mod}.{attr}: argument {pos} is not {keyword!r}"
