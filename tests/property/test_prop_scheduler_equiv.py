"""Differential property: the live scheduler equals the archived one.

Random workloads (1–6 threads with mixed priorities and affinity groups,
several instruction mixes, blocking phases, external ``exit_thread``
calls, starvation boosts, and memory commits that move the paging
factor mid-run) are driven through the live
:class:`repro.osmodel.scheduler.Scheduler` and through the archived
pre-refactor scheduler (:mod:`tests._reference_scheduler`) on fresh
engines and machines.  Every per-thread counter, every core's busy time, the shared
L2 stats and the engine's dispatched ``(time, seq)`` stream must be
equal with ``==``, and so must every thread's state, core and
round-robin stamp at each dispatched event — the lean decision path is
a pure refactor.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import tests._reference_scheduler as ref
from repro.hardware.cpu import (
    MIX_EINSTEIN,
    MIX_IDLE,
    MIX_KERNEL,
    MIX_MATRIX,
    MIX_SEVENZIP,
    MIX_VMM_SERVICE,
    blend,
)
from repro.hardware.machine import Machine
from repro.hardware.specs import core2duo_e6600
from repro.obs.metrics import METRICS
from repro.osmodel.scheduler import BoostPolicy, Scheduler
from repro.osmodel.threads import ThreadState
from repro.simcore.engine import Engine
from repro.simcore.rng import RngStreams

HORIZON_S = 0.3

_MIXES = (MIX_SEVENZIP, MIX_MATRIX, MIX_KERNEL, MIX_EINSTEIN, MIX_IDLE,
          MIX_VMM_SERVICE)
#: index len(_MIXES) means "a freshly built mix object for this segment".
_FRESH_MIX = len(_MIXES)

_SEGMENT = st.tuples(
    st.floats(min_value=1e3, max_value=5e7, allow_nan=False),  # cycles
    st.integers(min_value=0, max_value=_FRESH_MIX),            # mix
    st.sampled_from([0.0, 0.0, 1e-4, 0.004, 0.03]),            # block after
)
_THREAD = st.fixed_dictionaries({
    "priority": st.sampled_from([4, 6, 8, 10, 13]),
    "group": st.sampled_from([None, "vm-a", "vm-b"]),
    "start": st.sampled_from([0.0, 0.0, 0.001, 0.01, 0.05]),
    "segments": st.lists(_SEGMENT, min_size=1, max_size=6),
    # None = stays blocked after its last segment; "self" = exits
    # itself; a float = killed from outside at that time.
    "exit": st.one_of(st.none(), st.just("self"),
                      st.floats(min_value=0.0, max_value=HORIZON_S)),
})
_MEMORY_OP = st.tuples(
    st.floats(min_value=0.0, max_value=HORIZON_S),          # when
    st.sampled_from(["vm-a", "vm-b", "vm-c"]),              # owner
    st.floats(min_value=0.0, max_value=1.3),                # target / RAM
)
_WORKLOAD = st.fixed_dictionaries({
    "threads": st.lists(_THREAD, min_size=1, max_size=6),
    "memory": st.lists(_MEMORY_OP, max_size=6),
    "quantum": st.sampled_from([0.005, 0.020]),
    "boost": st.booleans(),
    "metrics": st.booleans(),
})


class _EventLog:
    """Stands in for the engine's trace-hash stream: keeps every
    dispatched ``(time, seq, callback name)`` verbatim, plus each
    thread's state, core and round-robin stamp as the event fires."""

    def __init__(self):
        self.events = []
        self.threads = []

    def update(self, when, seq, fn):
        self.events.append((
            when, seq, getattr(fn, "__name__", repr(fn)),
            tuple((t.state, t.core, t.rr_seq) for t in self.threads)))


def _thread_body(engine, scheduler, thread, spec):
    if spec["start"]:
        yield engine.timeout(spec["start"])
    for index, (cycles, mix_index, block_s) in enumerate(spec["segments"]):
        if thread.state is ThreadState.DONE:
            return
        mix = (_MIXES[mix_index] if mix_index < _FRESH_MIX
               else blend(f"fresh{index}", MIX_SEVENZIP, MIX_MATRIX, 0.5))
        yield scheduler.submit(thread, cycles, mix)
        if block_s:
            yield engine.timeout(block_s)
    if spec["exit"] == "self":
        scheduler.exit_thread(thread)


def _killer(engine, scheduler, thread, when):
    yield engine.timeout(when)
    scheduler.exit_thread(thread)


def _memory_op(engine, memory, when, owner, fraction):
    yield engine.timeout(when)
    held = memory.held(owner)
    others = memory.committed_bytes - held
    target = min(int(fraction * memory.spec.capacity_bytes),
                 memory.ceiling_bytes - others)
    if held == 0 and target > 0:
        memory.commit(owner, target)
    else:
        memory.adjust(owner, target - held)


def run_workload(scheduler_cls, workload):
    """Drive one workload; return everything the scheduler produced."""
    if not workload["metrics"]:
        return _drive(scheduler_cls, workload)
    METRICS.enable()
    try:
        observed = _drive(scheduler_cls, workload)
        observed["counters"] = dict(METRICS.counters)
        # sched.* observations are simulated time; engine.run_wall_s
        # is host wall time and differs run to run.
        observed["sched_timers"] = {
            name: list(value) for name, value in METRICS.timers.items()
            if name.startswith("sched.")}
    finally:
        METRICS.disable()
        METRICS.reset()
    return observed


def _drive(scheduler_cls, workload):
    engine = Engine()
    log = _EventLog()
    engine._thash = log
    machine = Machine(engine, core2duo_e6600("equiv"), RngStreams(0))
    boost = BoostPolicy(enabled=workload["boost"], scan_interval=0.02,
                        starvation_threshold=0.05, boost_cpu=0.004)
    scheduler = scheduler_cls(engine, machine, quantum=workload["quantum"],
                              boost=boost)
    log.threads = scheduler.threads
    for index, spec in enumerate(workload["threads"]):
        thread = scheduler.spawn(f"t{index}", spec["priority"],
                                 group=spec["group"])
        engine.process(_thread_body(engine, scheduler, thread, spec))
        if isinstance(spec["exit"], float):
            engine.process(_killer(engine, scheduler, thread, spec["exit"]))
    for when, owner, fraction in workload["memory"]:
        engine.process(_memory_op(engine, machine.memory, when, owner,
                                  fraction))
    engine.run(until=HORIZON_S)
    scheduler.core_utilization(HORIZON_S)  # charge up to the horizon
    return {
        "threads": [
            (t.name, t.state, t.core, t.rr_seq, t.cpu_seconds,
             t.cycles_retired, t.instructions_retired, t.segments_completed,
             t.remaining_cycles, t.quantum_used, t.boost_cpu_remaining)
            for t in scheduler.threads
        ],
        "cores": [
            (c.thread.name if c.thread is not None else None, c.speed,
             c.busy_seconds)
            for c in scheduler.cores
        ],
        "l2": machine.l2.stats,
        "paging": machine.memory.paging_penalty_factor(),
        "events": log.events,
    }


@settings(max_examples=60, deadline=None)
@given(_WORKLOAD)
def test_live_scheduler_equals_reference(workload):
    live = run_workload(Scheduler, workload)
    oracle = run_workload(ref.Scheduler, workload)
    assert live["events"] == oracle["events"]
    assert live == oracle


def test_generated_workloads_exercise_the_decision_path():
    """A fixed busy workload hits preemptions, starvation boosts, L2
    contention and a paging change, so the property is not vacuous."""
    workload = {
        "threads": [
            {"priority": 8, "group": "vm-a", "start": 0.0, "exit": None,
             "segments": [(4e7, 0, 0.0), (4e7, 1, 1e-4)] * 3},
            {"priority": 8, "group": None, "start": 0.0, "exit": "self",
             "segments": [(4e7, 0, 0.0)] * 4},
            {"priority": 4, "group": "vm-a", "start": 0.0, "exit": None,
             "segments": [(3e7, 3, 0.004)] * 4},
            {"priority": 13, "group": "vm-a", "start": 0.01, "exit": 0.2,
             "segments": [(1e6, 5, 0.03)] * 6},
            {"priority": 8, "group": "vm-b", "start": 0.001, "exit": None,
             "segments": [(2e7, _FRESH_MIX, 0.0)] * 5},
        ],
        "memory": [(0.05, "vm-a", 0.9), (0.1, "vm-b", 0.6),
                   (0.15, "vm-a", 0.3), (0.2, "vm-c", 1.3)],
        "quantum": 0.005,
        "boost": True,
        "metrics": True,
    }
    live = run_workload(Scheduler, workload)
    assert live == run_workload(ref.Scheduler, workload)
    counters = live["counters"]
    for name in ("sched.context_switches", "sched.preemptions",
                 "sched.starvation_boosts"):
        assert counters.get(name, 0) > 0, name
    assert live["paging"] < 1.0
    assert live["l2"].contended_seconds > 0.0
    assert all(t[7] > 0 for t in live["threads"])
