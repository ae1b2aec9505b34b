"""The benchmark still runs against the package and its reference.

perfbench/spans.py wraps module-level bindings by name, and its span notes
read arguments of some of them by position or keyword; a refactor that
drops or renames a binding, or moves one of those arguments, would only
surface when a traced benchmark run starts. Likewise a kernel change that
moves a workload's outputs past the tolerances of perfbench/check.py would
only surface in a benchmark run, so each workload is also run here, at
seed 0, through the benchmark's own output check. The child's own map of
scenario presets is checked against the scenario table.
"""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

from muskat import scenario
from muskat.spectral import filtered_derivative

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# span name -> (position, keyword) of the argument its note reads; the
# keyword is None where the note reads the position only
NOTE_ARGUMENTS = {
    "velocity.rhs": (0, None),
    "spectral.smooth": (0, None),
    "scenario.export": (1, "path"),
}


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_a_callable_binding():
    spans = _load("spans")
    assert spans.TARGETS
    missing = [f"{mod}.{attr}" for mod, attr, _ in spans.TARGETS
               if not callable(getattr(importlib.import_module(mod), attr,
                                       None))]
    assert not missing, missing


def test_span_notes_find_their_arguments():
    spans = _load("spans")
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


def test_traced_run_notes_read_their_arguments(tmp_path, monkeypatch):
    # a note that cannot read its argument raises after the wrapped call,
    # which run_scenario turns into status ERROR
    spans = _load("spans")
    tracer = spans.Tracer()
    for mod, attr, span in spans.TARGETS:
        module = importlib.import_module(mod)
        monkeypatch.setattr(module, attr,
                            tracer.wrap(span, getattr(module, attr)))
    config = scenario.RunConfig(scenario="BACKWARD_SEED", n=32,
                                t_final=-1.6e-4, snapshot_every=4e-5,
                                out_dir=str(tmp_path))
    manifest = scenario.run_scenario(config)
    assert (manifest.status, manifest.error) == ("OK", None)
    assert manifest.trajectory.steps == 4
    assert [s for s in tracer.spans if s[5] is not None] == []
    notes = {name: [s[4] for s in tracer.spans if s[0] == name]
             for name in spans._NOTES}
    # four RK4 stages per step, and the end slope of the step in which the
    # smoothed seed lifts off
    assert len(notes["velocity.rhs"]) == 4 * 4 + 1
    assert set(notes["velocity.rhs"]) == {32}
    assert notes["spectral.smooth"] and notes["scenario.export"]


def test_child_samples_the_scenario_presets():
    # the child samples the preset inside setup_s from its own map; a
    # preset changed in the scenario table alone would time another curve
    child = _load("child")
    assert child._PRESET == {name: spec.preset
                             for name, spec in scenario._SCENARIOS.items()
                             if spec.preset is not None}


@pytest.mark.parametrize("name", ["backward-512", "turnover-512",
                                  "backward-2048"])
def test_workload_passes_the_benchmark_output_check(tmp_path, name):
    workloads, check = _load("workloads"), _load("check")
    child = _load("child")
    w = workloads.find(name)
    config = scenario.RunConfig(out_dir=str(tmp_path),
                                **workloads.config_fields(w, 0))
    manifest = scenario.run_scenario(config)
    observed = child._observe(manifest, w, tmp_path, scenario,
                              filtered_derivative)
    reference = json.loads((PERFBENCH / "reference.json").read_text())[name]
    passed, _, _, why = check.compare(observed, reference)
    assert passed, why
