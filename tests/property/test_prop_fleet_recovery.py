"""Property tests: recovery storms never corrupt validation or accounting.

Two invariants over arbitrary fault storms (seeds, per-site
probabilities, recovery knobs):

* a work unit only validates with a true quorum of distinct hosts —
  unless the server was degraded, in which case the quorum-of-1 result
  is tagged on the unit (validator state 5 or 3 in the loop's flat end
  state) and counted in the report's risk tally;
* the waste buckets (erroneous/stale/redundant/lost/rolled_back) are an
  exact partition of wasted CPU seconds, and quorum + wasted + pending
  + in_flight is an exact partition of total CPU seconds.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultPlan, injected
from repro.fleet import FleetConfig, build_fleet_columns
from repro.fleet.server import FleetServer

probs = st.floats(min_value=0.0, max_value=0.8, allow_nan=False)

storms = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=2**16),
    "outage": probs,
    "partition": probs,
    "crash": probs,
    "interval": st.sampled_from([0.0, 300.0, 900.0, 3600.0]),
    "retries": st.integers(min_value=0, max_value=4),
    "threshold": st.integers(min_value=0, max_value=3),
})


def storm_run(storm):
    """One storm run: its config, the loop's flat end state, the report."""
    config = FleetConfig(hosts=12, hypervisor="mixed", seed=5,
                         duration_s=7200.0, workunits=30,
                         checkpoint_interval_s=storm["interval"],
                         upload_retries=storm["retries"],
                         upload_backoff_s=600.0,
                         degraded_threshold=storm["threshold"])
    plan = (FaultPlan(seed=storm["seed"])
            .arm("server.outage", storm["outage"])
            .arm("net.partition", storm["partition"])
            .arm("vm.crash", storm["crash"]))
    seen = {}
    fast_report = FleetServer._fast_report

    def keep_state(server, prep, state):
        seen["state"] = state
        return fast_report(server, prep, state)

    with injected(plan), \
            mock.patch.object(FleetServer, "_fast_report", keep_state):
        columns = build_fleet_columns(config, jobs=1)
        report = FleetServer(config, columns).run()
    return config, seen["state"], report


@settings(max_examples=25, deadline=None)
@given(storms)
def test_no_validation_without_true_quorum_unless_degraded(storm):
    config, state, report = storm_run(storm)
    quorum = config.quorum
    nhold = state["nhold"].tolist()
    hold_flat = state["hold_flat"].tolist()
    degraded_tagged = 0
    for wid, code in enumerate(state["wu_state"].tolist()):
        # bit 0 = validated; 0/2 = open/bad-locked, never tagged
        assert code in (0, 1, 2, 3, 5), code
        if code in (5, 3):
            degraded_tagged += 1
        elif code == 1:
            # validated by quorum: that many distinct matching hosts
            hosts = hold_flat[wid * quorum:wid * quorum + nhold[wid]]
            assert len(set(hosts)) == len(hosts) >= quorum
    # every quorum-of-1 acceptance is visible in the risk counter
    assert degraded_tagged == report.recovery["degraded_validated"]
    if config.degraded_threshold == 0:
        assert degraded_tagged == 0


@settings(max_examples=25, deadline=None)
@given(storms)
def test_waste_buckets_exactly_partition_cpu_seconds(storm):
    _, _, report = storm_run(storm)
    cpu = report.cpu_s
    assert cpu["wasted"] == pytest.approx(
        cpu["erroneous"] + cpu["stale"] + cpu["redundant"]
        + cpu["lost"] + cpu["rolled_back"], abs=1e-6)
    assert cpu["total"] == pytest.approx(
        cpu["quorum"] + cpu["wasted"] + cpu["pending"] + cpu["in_flight"],
        abs=1e-6)
    assert all(value >= -1e-9 for value in cpu.values())
