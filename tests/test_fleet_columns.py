"""Columnar fleet host state: CSR layout, view parity, vectorised RNG.

The columnar build (:mod:`repro.fleet.columns`) is only admissible if
it is a pure re-encoding of the object build: same hosts, same traces,
same floats, independent of sharding and of whether the C kernel's
``fleet_build`` or the Python spec ``_sample_shard_columns`` sampled
them.  These tests pin that contract and the CSR session-layout edge
cases (empty traces, single-session always-on hosts, departure-clipped
traces), plus the vectorised PCG64 replica (:mod:`repro.fleet.fastrng`)
against the scalar reference streams it must reproduce bit for bit.
"""

import dataclasses
import itertools
from collections import Counter

import numpy as np
import pytest

import tests._reference_fleet as ref
from repro.fleet import (
    COLUMN_SHARD_SIZE,
    FleetConfig,
    build_fleet_columns,
    cloop,
    column_shards,
    fastrng,
)
from repro.fleet.fastrng import VecPcg, fork_seed
from repro.simcore.rng import RngStreams

MIXED = FleetConfig(hosts=220, hypervisor="mixed", seed=13,
                    duration_s=86400.0)


def column_bytes(cols):
    """Every array column of ``cols`` as bytes, keyed by field name."""
    return {f.name: getattr(cols, f.name).tobytes()
            for f in dataclasses.fields(cols)
            if isinstance(getattr(cols, f.name), np.ndarray)}


def spec_columns(config, jobs=1):
    """``build_fleet_columns`` forced onto the Python spec."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cloop, "build_hosts", lambda config: None)
        return build_fleet_columns(config, jobs=jobs)


def assert_columns_match_hosts(config):
    cols = build_fleet_columns(config, jobs=1)
    hosts = ref.build_fleet_hosts(config, jobs=1)
    assert len(cols) == len(hosts) == config.hosts
    for host, view in zip(hosts, cols.views()):
        assert view.index == host.index
        assert view.name == host.name
        assert view.hypervisor == host.hypervisor
        assert view.slowdown == host.slowdown
        assert view.gflops == host.gflops
        assert view.availability == host.availability
        assert view.error_rate == host.error_rate
        assert view.departure_s == host.departure_s
        assert view.checkpoint_cost_s == host.checkpoint_cost_s
        assert view.sessions == host.sessions


class TestColumnsMatchObjects:
    def test_mixed_fleet_byte_identical(self):
        assert_columns_match_hosts(MIXED)

    def test_single_hypervisor_with_checkpointing(self):
        assert_columns_match_hosts(
            FleetConfig(hosts=90, hypervisor="qemu", seed=3,
                        duration_s=43200.0,
                        checkpoint_interval_s=1800.0))

    def test_sharded_build_equals_serial(self):
        # force > 1 shard, and the Python spec, so the map_shards path
        # actually runs
        config = FleetConfig(hosts=COLUMN_SHARD_SIZE + 57, seed=5,
                             duration_s=14400.0)
        assert len(column_shards(config.hosts)) > 1
        serial = column_bytes(spec_columns(config, jobs=1))
        sharded = column_bytes(spec_columns(config, jobs=4))
        assert sharded == serial
        assert column_bytes(build_fleet_columns(config, jobs=4)) == serial


class TestKernelBuild:
    """``fleet_build`` (the C build) against ``_sample_shard_columns``."""

    @pytest.fixture(autouse=True)
    def _kernel(self):
        if not cloop.available():
            pytest.skip("no C compiler / kernel unavailable")

    def test_kernel_build_port_is_bit_identical(self, monkeypatch):
        # the spec's ziggurat slow-path lanes, by distribution and by
        # branch (layer 0 is the tail, any other layer the wedge test):
        # the kernel must have taken the same branches on the same lanes
        slow = Counter()

        def counted(dist, unlikely):
            def wrapper(pcg, idx, *args):
                slow[dist, "tail" if idx == 0 else "wedge"] += 1
                return unlikely(pcg, idx, *args)
            return wrapper

        monkeypatch.setattr(fastrng, "_normal_unlikely", counted(
            "normal", fastrng._normal_unlikely))
        monkeypatch.setattr(fastrng, "_exp_unlikely", counted(
            "exp", fastrng._exp_unlikely))
        fleets = (("mixed", 0.25), ("qemu", 0.25), ("mixed", 0.0),
                  ("vmware", 0.0))
        horizons = (3600.0, 86400.0, 7 * 86400.0)
        for seed, (hypervisor, sigma), horizon in itertools.product(
                (0, 1, 2**64 - 1), fleets, horizons):
            config = FleetConfig(hosts=4000, hypervisor=hypervisor,
                                 host_gflops_sigma=sigma, seed=seed,
                                 duration_s=horizon)
            want = column_bytes(spec_columns(config))
            got = column_bytes(build_fleet_columns(config, jobs=1))
            assert got == want, (seed, hypervisor, sigma, horizon)
        for dist, branch in itertools.product(("normal", "exp"),
                                              ("tail", "wedge")):
            assert slow[dist, branch] > 0, (dist, branch, slow)

    @pytest.mark.parametrize("normal", [True, False],
                             ids=["normal", "exponential"])
    def test_sampler_port_is_bit_identical(self, monkeypatch, normal):
        # enough lanes that the rare branches recur: the normal tail
        # (~1 lane in 4,000) and its rejection loop, the exponential
        # tail and both wedge tests
        lanes = np.array([fork_seed(7, f"lane.{i}") for i in range(200_000)],
                         dtype=np.uint64)
        slow = Counter()
        unlikely = "_normal_unlikely" if normal else "_exp_unlikely"
        spec_unlikely = getattr(fastrng, unlikely)

        def counted(pcg, idx, *args):
            slow["tail" if idx == 0 else "wedge"] += 1
            return spec_unlikely(pcg, idx, *args)

        monkeypatch.setattr(fastrng, unlikely, counted)
        vec = VecPcg.seeded(lanes, "speed")
        want = vec.std_normal() if normal else vec.std_exp()
        got = cloop.zig_draws(lanes, "speed", normal)
        assert got.tobytes() == want.tobytes()
        assert slow["tail"] >= 20 and slow["wedge"] >= 20, slow

    def test_sessions_past_the_first_capacity_grow_and_resume(
            self, monkeypatch):
        # availability far above its mean (clamped spread) overruns the
        # kernel's first session-buffer guess, so the build pauses,
        # grows and rebuilds the interrupted host
        grows = []
        grow_for = cloop._grow_for

        def spy(status, ctx, bind):
            grows.append(status)
            return grow_for(status, ctx, bind)

        monkeypatch.setattr(cloop, "_grow_for", spy)
        config = FleetConfig(hosts=3000, seed=21, duration_s=7 * 86400.0,
                             availability_mean=0.05,
                             availability_spread=0.5)
        got = column_bytes(build_fleet_columns(config, jobs=1))
        assert grows and set(grows) == {cloop._ST_GROW_SESS}
        assert got == column_bytes(spec_columns(config))

    def test_unforkable_seed_falls_back_to_the_spec(self):
        # "{seed}/host-{i}" past one SHA-256 block: the Python spec builds
        config = FleetConfig(hosts=40, seed=10**50, duration_s=3600.0)
        assert cloop.build_hosts(config) is None
        assert column_bytes(build_fleet_columns(config, jobs=1)) == \
            column_bytes(spec_columns(config))
        assert_columns_match_hosts(config)


class TestCsrLayout:
    def test_offsets_are_a_valid_csr_index(self):
        cols = build_fleet_columns(MIXED, jobs=1)
        off = cols.s_off
        assert off.shape == (len(cols) + 1,)
        assert off[0] == 0
        assert off[-1] == len(cols.s_starts) == len(cols.s_ends)
        assert np.all(np.diff(off) >= 0)
        starts, ends = cols.s_starts, cols.s_ends
        assert np.all(ends >= starts)
        # sessions are ordered and disjoint within each host's slice
        for h in range(len(cols)):
            lo, hi = int(off[h]), int(off[h + 1])
            if hi - lo > 1:
                assert np.all(starts[lo + 1:hi] >= ends[lo:hi - 1])

    def test_empty_trace_host(self):
        # a host that departs immediately or never powers on has an
        # empty CSR slice and an empty sessions view
        config = FleetConfig(hosts=400, seed=29, duration_s=7200.0,
                             availability_mean=0.05,
                             availability_spread=0.01,
                             session_mean_s=600.0)
        cols = build_fleet_columns(config, jobs=1)
        off = cols.s_off
        empties = np.flatnonzero(off[1:] == off[:-1])
        assert empties.size > 0, "config produced no empty-trace host"
        for h in empties.tolist():
            assert cols.sessions_list(h) == []
            assert cols.views()[h].sessions == []

    def test_single_session_always_on_model(self):
        # availability >= 1.0 collapses the renewal process to a single
        # session spanning the whole horizon (host sampling clips at
        # AVAILABILITY_CEIL, so the branch is reached via the model).
        from repro.fleet.churn import ChurnModel, availability_trace

        model = ChurnModel(availability=1.0, session_mean_s=3600.0,
                           departure_mean_s=1e12)
        sessions, _departure = availability_trace(
            model, RngStreams(99), horizon_s=14400.0)
        assert len(sessions) == 1
        assert sessions[0][0] == 0.0

    def test_sampled_availability_is_capped_below_one(self):
        # even an availability_mean of 1.0 with zero spread samples
        # below 1.0, so every host still churns (multiple sessions)
        config = FleetConfig(hosts=64, seed=17, duration_s=14400.0,
                             availability_mean=1.0,
                             availability_spread=0.0)
        cols = build_fleet_columns(config, jobs=1)
        assert np.all(cols.availability < 1.0)
        counts = np.diff(cols.s_off)
        assert counts.max() > 1

    def test_traces_clipped_at_departure_and_horizon(self):
        # short horizon + short departures: every session end respects
        # min(horizon, departure)
        config = FleetConfig(hosts=300, seed=11, duration_s=86400.0 * 14,
                             departure_mean_s=86400.0 * 4)
        cols = build_fleet_columns(config, jobs=1)
        horizon = config.duration_s
        assert np.any(cols.departure_s <= horizon), \
            "config produced no departing host"
        for h in range(len(cols)):
            lo, hi = int(cols.s_off[h]), int(cols.s_off[h + 1])
            if hi > lo:
                limit = min(horizon, float(cols.departure_s[h]))
                assert cols.s_ends[hi - 1] <= limit


class TestFastRng:
    def test_serve_stream_doubles_match_scalar_reference(self):
        cols = build_fleet_columns(MIXED, jobs=1)
        vec = VecPcg.seeded(cols.serve_seed, "error")
        rounds = [vec.doubles() for _ in range(3)]
        for h in (0, 1, 57, len(cols) - 1):
            rng = RngStreams(int(cols.serve_seed[h]))
            for r in range(3):
                assert rounds[r][h] == rng.uniform("error")

    def test_fork_seed_matches_rngstreams_fork(self):
        root = RngStreams(1234)
        forked = root.fork("host.7")
        assert fork_seed(1234, "host.7") == forked.root_seed

    def test_vec_normal_and_exp_match_numpy(self):
        seeds = np.array([fork_seed(99, f"lane.{i}") for i in range(256)],
                         dtype=np.uint64)
        vec_n = VecPcg.seeded(seeds, "draw").std_normal()
        vec_e = VecPcg.seeded(seeds, "draw").std_exp()
        for i in (0, 1, 100, 255):
            gen = RngStreams(int(seeds[i]))
            assert vec_n[i] == gen.normal("draw")
            gen = RngStreams(int(seeds[i]))
            assert vec_e[i] == gen.exponential("draw", 1.0)
