"""The stream benchmark's tracer must keep finding what it wraps.

perfbench/tracer.py rebinds hones functions by name and splits step time into
phases through the span tree, where the ratio-test, update and toggle spans
must sit directly under a leg span.  A renamed target or a leg loop that
captured its step functions before the rebinding would silently empty a
phase, so both are checked here.
"""

import importlib
import importlib.util
from pathlib import Path

from hones import driver
from hones.flows import FlowConfig, synthetic_flow

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracer = load_tracer()


def test_every_target_resolves():
    for mod_name, attrs in tracer.TARGETS:
        mod = importlib.import_module(f"hones.{mod_name}")
        for attr in attrs:
            owner = mod
            for part in attr.split("."):
                assert hasattr(owner, part), f"hones.{mod_name}.{attr} is gone"
                owner = getattr(owner, part)
            assert callable(owner), f"hones.{mod_name}.{attr} is not callable"


def test_leg_step_spans_are_children_of_their_leg():
    flow = synthetic_flow(FlowConfig("synthetic", 12, 20, c_factor=0.1, seed=7))
    tr = tracer.Tracer()
    with tr.installed():
        session = driver.init_session(flow.a0, flow.c0)
        driver.run_sequence(session, flow, 20)
    spans = tr.spans
    legs = {"path_matrix": "path_matrix.run_lambda_leg", "path_vector": "path_vector.run_utilde_leg"}
    seen = set()
    for name, _, _, parent, _ in spans:
        mod = name.split(".")[0]
        if mod not in legs or name == legs[mod]:
            continue
        assert parent >= 0 and spans[parent][0] == legs[mod], f"{name} is not a direct child of {legs[mod]}"
        seen.add(name)
    assert {"path_matrix.find_lambda", "path_vector.find_utilde_lambda"} <= seen
    for leg in legs.values():
        parents = {spans[p][0] for name, _, _, p, _ in spans if name == leg}
        assert parents == {tracer.STEP}
