"""Property test: the columnar fast path is a pure re-encoding.

For arbitrary (seed, quorum, error rate, hypervisor, horizon) draws,
``simulate_fleet`` — columns, vectorised RNG, the C kernel when a
compiler is present, Python fallback otherwise — must reproduce the
archived pre-columnar server (:mod:`tests._reference_fleet`) byte for
byte through ``FleetReport.to_dict()``.  Under a fault storm —
outages, partitions, VM crashes and host dropouts, with degraded mode
and the upload retry budget drawn too — the live side runs the columnar
recovery state machine twice, once on the C kernel and once on the
pure-Python loop, and both must equal the oracle's object-path run.
"""

import json
from unittest import mock

from hypothesis import given, settings, strategies as st

import tests._reference_fleet as ref
from repro.faults import FaultPlan, injected
from repro.fleet import FleetConfig, server, simulate_fleet

scenarios = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=2**32 - 1),
    "hosts": st.integers(min_value=8, max_value=96),
    "workunits": st.integers(min_value=10, max_value=150),
    "quorum": st.integers(min_value=1, max_value=3),
    "extra_replicas": st.integers(min_value=0, max_value=2),
    "error_rate": st.sampled_from([0.0, 0.02, 0.1, 0.3]),
    "hypervisor": st.sampled_from(["mixed", "vmware", "qemu", "vmplayer"]),
    "duration_s": st.sampled_from([14400.0, 43200.0, 86400.0]),
    "checkpoint_interval_s": st.sampled_from([0.0, 1800.0]),
})


def build_config(draw):
    return FleetConfig(
        hosts=draw["hosts"], seed=draw["seed"],
        workunits=draw["workunits"], quorum=draw["quorum"],
        max_replicas=draw["quorum"] + 1 + draw["extra_replicas"],
        error_rate=draw["error_rate"], hypervisor=draw["hypervisor"],
        duration_s=draw["duration_s"],
        checkpoint_interval_s=draw["checkpoint_interval_s"])


def oracle_dict(config):
    hosts = ref.build_fleet_hosts(config, jobs=1)
    return ref.FleetServer(config, hosts).run().to_dict()


@settings(max_examples=20, deadline=None)
@given(scenarios)
def test_columnar_report_byte_identical_to_reference(draw):
    config = build_config(draw)
    live = simulate_fleet(config, jobs=1).to_dict()
    assert json.dumps(live, sort_keys=True) == \
        json.dumps(oracle_dict(config), sort_keys=True)


@settings(max_examples=10, deadline=None)
@given(scenarios,
       st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
       st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
       st.sampled_from([0, 2, 8]),
       st.sampled_from([0, 1, 3]))
def test_storm_report_byte_identical_to_reference(draw, outage, crash,
                                                  degraded_threshold,
                                                  upload_retries):
    config = build_config(draw).with_overrides(
        degraded_threshold=degraded_threshold,
        upload_retries=upload_retries)

    def plan():
        # plans carry per-(site, key) attempt counters, so each run
        # gets its own instance lest the second run see shifted draws
        return (FaultPlan(seed=draw["seed"] % 65536)
                .arm("server.outage", outage)
                .arm("net.partition", crash / 2.0)
                .arm("vm.crash", crash)
                .arm("host.dropout", crash / 4.0))

    with injected(plan()):
        expected = json.dumps(ref.simulate_fleet(config, jobs=1).to_dict(),
                              sort_keys=True)
    with injected(plan()):
        kernel = simulate_fleet(config, jobs=1).to_dict()
    with injected(plan()), \
            mock.patch.object(server, "_c_event_loop", lambda prep: None):
        fallback = simulate_fleet(config, jobs=1).to_dict()
    assert json.dumps(kernel, sort_keys=True) == expected
    assert json.dumps(fallback, sort_keys=True) == expected
