"""The scheduler's per-core speed memo stays small and stays exact.

Core speeds are memoised by the identities of the per-core instruction
mixes, valid for one paging factor.  Under an overcommitted multi-VM
host the balloon keeps moving that factor; the memo must be cleared on
every change (so it never grows with the run) and the run must still
equal the archived pre-refactor scheduler exactly.
"""

from __future__ import annotations

import pytest

import repro.osmodel.kernel as kernel_module
import tests._reference_scheduler as ref
from repro.audit.tracehash import TRACE_HASH
from repro.core.multivm import MultiVmConfig, run_multivm_impact
from repro.hardware.cpu import MIX_MATRIX, MIX_SEVENZIP, blend
from repro.osmodel import scheduler as scheduler_module
from repro.osmodel.scheduler import BoostPolicy, Scheduler
from repro.osmodel.threads import PRIORITY_NORMAL

#: 8 VMs at 2x overcommit: the balloon and kswapd move the paging factor
#: a dozen-plus times within the horizon.
BALLOON = MultiVmConfig(n_vms=8, overcommit_ratio=2.0, duration_s=8.0,
                        host_threads=1)
#: What the paper workloads actually need: a few placements per factor.
SMALL_MEMO = 16


@pytest.fixture
def memo_spy(monkeypatch):
    """Record the memo size and the paging factor after every decision."""
    seen = {"sizes": [], "paging": []}
    compute = Scheduler._compute_speeds

    def spy(self):
        compute(self)
        seen["sizes"].append(len(self._speed_memo))
        if not seen["paging"] or seen["paging"][-1] != self._memo_paging:
            seen["paging"].append(self._memo_paging)

    monkeypatch.setattr(Scheduler, "_compute_speeds", spy)
    return seen


def _traced_balloon_run(seed=5):
    TRACE_HASH.enable()
    try:
        metrics = run_multivm_impact(BALLOON, seed)
        return metrics, TRACE_HASH.snapshot()
    finally:
        TRACE_HASH.disable()
        TRACE_HASH.reset()


def test_memo_stays_small_under_a_balloon_storm(memo_spy):
    run_multivm_impact(BALLOON, 5)
    assert len(memo_spy["paging"]) >= 10, memo_spy["paging"]
    assert 0 < max(memo_spy["sizes"]) <= SMALL_MEMO


def test_balloon_storm_matches_reference_scheduler(monkeypatch):
    live = _traced_balloon_run()
    monkeypatch.setattr(kernel_module, "Scheduler", ref.Scheduler)
    oracle = _traced_balloon_run()
    assert live[0] == oracle[0]
    assert live[1] == oracle[1]
    assert live[1]["streams"]


def test_memo_capped_when_every_segment_brings_a_new_mix(engine, machine):
    """Fresh mix objects per segment would grow an identity-keyed memo
    without bound at a fixed paging factor; the cap clears it."""
    scheduler = Scheduler(engine, machine, boost=BoostPolicy(enabled=False))
    peak = 0

    def body(thread, offset):
        nonlocal peak
        for index in range(3 * scheduler_module._SPEED_MEMO_MAX):
            mix = blend(f"fresh{offset}-{index}", MIX_SEVENZIP, MIX_MATRIX,
                        0.5)
            yield scheduler.submit(thread, 1e6, mix)
            peak = max(peak, len(scheduler._speed_memo))

    for offset in range(2):
        thread = scheduler.spawn(f"t{offset}", PRIORITY_NORMAL)
        engine.process(body(thread, offset))
    engine.run()
    assert SMALL_MEMO < peak <= scheduler_module._SPEED_MEMO_MAX
