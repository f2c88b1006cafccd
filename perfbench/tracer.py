"""Spans around the public functions of hones, recorded from outside.

`Tracer.installed()` rebinds each target function wherever a hones module
holds a reference to it (the driver imports the leg and cache functions by
name, so the driver's binding is the one `step` calls) and restores the
originals on exit.  Each call records one span: name, start, end, parent span
and the step number `t` that the caller stamps on the tracer.  Spans stay in
memory until the run writes them out.

Self time is a span's duration minus the durations of its direct children.
The six step phases are disjoint sums over the spans that sit directly under
a `step` span or under one of the two legs; anything nested deeper is already
inside its ancestor's time:

  maintenance       the program's own `a_update_ns`: the catch-up spans inside
                    the legs plus the live-column update in `step`'s self time
  cache_refresh     direct_update_par2/par3 called by `step`
  ratio_test        find_lambda, find_utilde_lambda
  between_event     update_by_lambda, update_by_utilde_lambda
  support_toggle    expand/shrink, plus each leg's self time (its event loop:
                    index bookkeeping and the PathEvent record with the support
                    tuple it takes)
  residual_rebuild  residual, refresh_quadruple, both kinds of rebuild, and the
                    support tuples `step` takes for its turning-point checks

`phase.unaccounted` is the rest of the step wall: `step`'s own glue outside
the live-column update.  A catch-up is a child span, so it is already out of
its leg's self time; only the clock reads around it in the program's own timer
are counted twice, a few hundred nanoseconds per catch-up.
"""

import contextlib
import functools
import importlib
import sys
import time

TARGETS = (
    (
        "driver",
        (
            "step",
            "_catch_up_column",
            "rebuild",
            "init_session",
            "SolverSession.residual",
            "SolverSession.save",
            "SolverSession.load",
        ),
    ),
    (
        "state",
        (
            "direct_update_par2",
            "direct_update_par3",
            "par1_from_matrix",
            "refresh_quadruple",
            "Par1.rank1",
            "Par1.insert_col",
            "Par1.remove_col",
        ),
    ),
    (
        "path_matrix",
        ("run_lambda_leg", "find_lambda", "update_by_lambda", "expand_support_lambda", "shrink_support_lambda"),
    ),
    (
        "path_vector",
        (
            "run_utilde_leg",
            "find_utilde_lambda",
            "update_by_utilde_lambda",
            "expand_support_utilde",
            "shrink_support_utilde",
        ),
    ),
    ("kkt", ("oracle_solve", "Support.as_tuple")),
)

STEP = "driver.step"
LEGS = ("path_matrix.run_lambda_leg", "path_vector.run_utilde_leg")
# The in-leg rebuild callback that `step` hands to each leg.
LEG_REBUILD = "driver.leg_rebuild"
NEXT = "flows.next"
AS_TUPLE = "kkt.Support.as_tuple"

PHASE_OF = {
    "state.direct_update_par2": "cache_refresh",
    "state.direct_update_par3": "cache_refresh",
    "path_matrix.find_lambda": "ratio_test",
    "path_vector.find_utilde_lambda": "ratio_test",
    "path_matrix.update_by_lambda": "between_event",
    "path_vector.update_by_utilde_lambda": "between_event",
    "path_matrix.expand_support_lambda": "support_toggle",
    "path_matrix.shrink_support_lambda": "support_toggle",
    "path_vector.expand_support_utilde": "support_toggle",
    "path_vector.shrink_support_utilde": "support_toggle",
    "driver.leg_rebuild": "residual_rebuild",
    "driver.rebuild": "residual_rebuild",
    "driver.SolverSession.residual": "residual_rebuild",
    "state.refresh_quadruple": "residual_rebuild",
}
PHASES = ("maintenance", "cache_refresh", "ratio_test", "between_event", "support_toggle", "residual_rebuild")


def span_names():
    """Every span name a traced run can record, in report order."""
    names = [f"{mod}.{attr}" for mod, attrs in TARGETS for attr in attrs]
    return names + [LEG_REBUILD, NEXT]


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent index, t)
        self.t = 0
        self._stack = [-1]
        self._undo = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx] = (name, start, clock(), parent, self.t)

        return traced

    def _wrap_leg(self, name, fn):
        def leg(*args, **kwargs):
            if kwargs.get("rebuild") is not None:
                kwargs["rebuild"] = self.wrap(LEG_REBUILD, kwargs["rebuild"])
            return fn(*args, **kwargs)

        return self.wrap(name, functools.wraps(fn)(leg))

    @contextlib.contextmanager
    def installed(self):
        modules = [m for key, m in sys.modules.items() if key == "hones" or key.startswith("hones.")]
        try:
            for mod_name, attrs in TARGETS:
                mod = importlib.import_module(f"hones.{mod_name}")
                for attr in attrs:
                    name = f"{mod_name}.{attr}"
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        cls = getattr(mod, cls_name)
                        raw = vars(cls)[meth]
                        if isinstance(raw, classmethod):
                            new = classmethod(self.wrap(name, raw.__func__))
                        else:
                            new = self.wrap(name, raw)
                        self._undo.append((cls, meth, raw))
                        setattr(cls, meth, new)
                        continue
                    orig = getattr(mod, attr)
                    new = self._wrap_leg(name, orig) if name in LEGS else self.wrap(name, orig)
                    for m in modules:
                        for key, val in list(vars(m).items()):
                            if val is orig:
                                self._undo.append((m, key, val))
                                setattr(m, key, new)
            yield self
        finally:
            for owner, attr, old in reversed(self._undo):
                setattr(owner, attr, old)
            self._undo.clear()

    # -- aggregation ---------------------------------------------------------

    def totals(self):
        """Per span name: [calls, total ns, self ns]."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {name: [0, 0, 0] for name in span_names()}
        for i, (name, start, end, _, _) in enumerate(spans):
            row = out.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_ns[i]
        return out

    def phases(self, a_update_ns):
        """Step wall split into the six phases plus the unaccounted rest, in ns.

        `a_update_ns` is the stream's summed `StepReport.a_update_ns`.
        """
        spans = self.spans
        steps = {i for i, s in enumerate(spans) if s[0] == STEP}
        legs = {i for i, s in enumerate(spans) if s[0] in LEGS and s[3] in steps}
        wall = sum(spans[i][2] - spans[i][1] for i in steps)
        out = dict.fromkeys(PHASES, 0)
        for i in legs:
            out["support_toggle"] += spans[i][2] - spans[i][1]
        for name, start, end, parent, _ in spans:
            if parent in legs:
                out["support_toggle"] -= end - start
            if name == AS_TUPLE:
                phase = "support_toggle" if parent in legs else "residual_rebuild"
            else:
                phase = PHASE_OF.get(name)
            if phase is not None and (parent in steps or parent in legs):
                out[phase] += end - start
        out["maintenance"] = a_update_ns
        out["unaccounted"] = wall - sum(out.values())
        return wall, out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent,t\n")
            for i, (name, start, end, parent, t) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent},{t}\n")
