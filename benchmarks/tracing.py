"""Per-layer tracing from outside the program.

A traced run rebinds the names the calling modules look up (for example
`detnet5g.admission.hop_delay_bound` or `detnet5g.sim.write_trace`) to
timing wrappers and puts the originals back afterwards.  Register, remove
and simulator-phase calls each get a span (id, name, start, end, parent
id).  Hot leaf calls, which run into the millions, are only counted and
timed in aggregate.  Every wrapper also keeps the time its direct children
took, so a layer's self time is its time minus that.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from detnet5g import admission, calculus, scenario, sim

# (owner, attribute, layer name); a name listed twice sums both call sites
LEAVES = (
    (admission, "enumerate_spanning_trees", "topology.enumerate_spanning_trees"),
    (admission, "path_in_tree", "topology.path_in_tree"),
    (admission, "hop_delay_bound", "calculus.hop_delay_bound"),
    (admission, "sp_residual_service", "calculus.sp_residual_service"),
    (calculus, "sp_residual_service", "calculus.sp_residual_service"),
    (admission, "transit_contract", "transit5g.transit_contract"),
    (sim, "transit_contract", "transit5g.transit_contract"),
    (admission, "ul_capacity", "transit5g.capacity"),
    (admission, "dl_capacity", "transit5g.capacity"),
    (sim, "classify_and_tag", "nwtt.classify_and_tag"),
    (sim, "regulator_offer", "nwtt.regulator_offer"),
    (sim, "regulator_release", "nwtt.regulator_release"),
)
SPANS = (
    (admission.NetworkState, "register_flow", None),  # named by _register_name
    (admission.NetworkState, "remove_flow", "admission.remove"),
    (sim, "run", "sim.run"),
    (sim, "write_trace", "sim.write_trace"),
    (sim, "write_report", "sim.write_report"),
    (scenario, "load_scenario", "scenario.load_scenario"),
)


def targets():
    """Every (owner, attribute) a traced run rebinds."""
    return [(owner, attr) for owner, attr, _ in LEAVES + SPANS]


class Tracer:
    """Collects spans and per-layer call counts, total and self times."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.outcomes: Counter = Counter()
        self._stack: list[list] = []  # frames: [child time, span id, name]
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def __enter__(self) -> "Tracer":
        for owner, attr, name in LEAVES:
            self._rebind(owner, attr, self._wrap(owner.__dict__[attr], name, span=False))
        for owner, attr, name in SPANS:
            fn = owner.__dict__[attr]
            if attr == "register_flow":
                self._rebind(owner, attr, self._wrap_register(fn))
            else:
                self._rebind(owner, attr, self._wrap(fn, name, span=True))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------ wrappers

    def _wrap(self, fn, name, *, span: bool):
        stack = self._stack
        clock = time.perf_counter
        calls, total_s, self_s, spans = self.calls, self.total_s, self.self_s, self.spans

        def wrapper(*args, **kwargs):
            label = name() if callable(name) else name
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent is not None else None
            span_id = len(spans) if span else parent_span
            if span:
                spans.append(None)  # reserve the id; filled in on exit
            frame = [0.0, span_id, label]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                if parent is not None:
                    parent[0] += elapsed
                calls[label] += 1
                total_s[label] += elapsed
                self_s[label] += elapsed - frame[0]
                if span:
                    spans[span_id] = (span_id, label, t0, t1, parent_span)

        wrapper.__wrapped__ = fn
        return wrapper

    def _in_run(self) -> bool:
        return any(frame[2] == "sim.run" for frame in self._stack)

    def _register_name(self) -> str:
        """Registrations inside `sim.run` count as the simulator's admission."""
        return "sim.admit" if self._in_run() else "admission.register"

    def _wrap_register(self, fn):
        inner = self._wrap(fn, self._register_name, span=True)
        outcomes = self.outcomes
        tracer = self

        def register_flow(state, spec, *args, **kwargs):
            in_admission = not tracer._in_run()
            decision = inner(state, spec, *args, **kwargs)
            if in_admission:
                if decision.accepted:
                    outcomes["accepted"] += 1
                    if decision.reconfigured:
                        outcomes["reconfigured"] += 1
                else:
                    outcomes["rejected"] += 1
            return decision

        register_flow.__wrapped__ = fn
        return register_flow
