"""Fast-loop equivalence and hot-path bugfix regressions.

Pins the contracts the columnar rewrite rides on:

* ``_percentile`` nearest-rank rounding is parity-stable (the
  half-up fix — ``round``'s banker's rounding flipped the p50 between
  the lower and upper middle sample depending on count parity);
* a metrics-on run takes the same event loop and is still
  byte-identical to the archived object-model server
  (:mod:`tests._reference_fleet`), and the ``fleet.*`` instruments it
  derives from the end state equal the oracle's per-event ones;
* the compiled C event kernel and the pure-Python fallback produce the
  same canonical flat state — fault-free and under a storm, with the
  kernel's SHA-256 fault draws and its lazy per-host serve draws pinned
  bit for bit to the Python ones — the C report folds equal their
  Python spec, and the whole fast path reproduces the oracle's
  :meth:`FleetReport.to_dict` byte for byte;
* a kernel library that lacks an entry point degrades to the Python
  fallback instead of crashing the run;
* no run builds ``FleetHost`` objects, metrics on or off, and a storm's
  bulk fault tallies equal the oracle's one-by-one ones;
* a server handed a host list instead of columns says how to build them.
"""

import json
import shutil
import types
from unittest import mock

import numpy as np
import pytest

import tests._reference_fleet as ref
from repro import api
from repro.faults import FAULTS, RUNLOG, injected, parse_fault_spec
from repro.faults.plan import _draw
from repro.fleet import (
    FleetConfig,
    FleetHost,
    FleetServer,
    build_fleet_columns,
    simulate_fleet,
)
from repro.fleet import cloop
from repro.fleet import server as server_module
from repro.fleet.cloop import available as cloop_available
from repro.fleet.cloop import (
    fault_draw,
    report_folds,
    run_event_loop,
    serve_doubles,
)
from repro.fleet.fastrng import VecPcg
from repro.fleet.server import (
    _apply_host_dropout,
    _percentile,
    _report_folds,
)
from repro.obs.metrics import METRICS
from tests.test_fleet_columns import column_bytes

CONFIGS = [
    FleetConfig(hosts=60, seed=7, duration_s=43200.0, workunits=120,
                quorum=2, error_rate=0.05),
    FleetConfig(hosts=45, seed=23, duration_s=21600.0, workunits=90,
                quorum=1, error_rate=0.0, hypervisor="vmware"),
    FleetConfig(hosts=80, seed=3, duration_s=86400.0, workunits=200,
                quorum=3, max_replicas=5, error_rate=0.1,
                hypervisor="qemu", checkpoint_interval_s=3600.0),
]


#: The perfbench storm (plus a seed): every fleet recovery site armed.
STORM = ("seed=11,server.outage=0.35,net.partition=0.3,vm.crash=0.3,"
         "host.dropout=0.05")

#: Storm cases for the kernel-vs-fallback state comparison: degraded
#: mode off/on, retry budgets 0-3, with and without checkpoints.
STORM_CASES = [
    CONFIGS[0].with_overrides(checkpoint_interval_s=1800.0,
                              degraded_threshold=2, upload_retries=3),
    CONFIGS[1].with_overrides(degraded_threshold=8, upload_retries=0),
    CONFIGS[2].with_overrides(degraded_threshold=0, upload_retries=1),
    # outages of up to three hours: buffered uploads outlive deadlines
    CONFIGS[0].with_overrides(outage_scale_s=10800.0, degraded_threshold=4),
    # quorum 3 in degraded mode: the lone accepted result is not the
    # work unit's first holder
    CONFIGS[2].with_overrides(degraded_threshold=4, upload_retries=2),
]


#: Quorum-of-1 with frequent errors: erroneous results lock units
#: (validator state 2) and later ok returns land on them, which no
#: other case reaches.
BAD_LOCK = FleetConfig(hosts=70, seed=19, duration_s=43200.0, workunits=150,
                       quorum=1, error_rate=0.2)


def oracle_dict(config):
    hosts = ref.build_fleet_hosts(config, jobs=1)
    return ref.FleetServer(config, hosts).run().to_dict()


def canonical(payload):
    return json.dumps(payload, sort_keys=True)


def with_metrics(run):
    """``run()`` under a fresh enabled registry; its result and the
    ``fleet.*`` part of the snapshot, canonical JSON."""
    METRICS.enable(reset=True)
    try:
        result = run()
        snap = METRICS.snapshot()
    finally:
        METRICS.disable()
        METRICS.reset()
    fleet = {kind: {name: value for name, value in items.items()
                    if name.startswith("fleet.")}
             for kind, items in snap.items()}
    return result, canonical(fleet)


class TestPercentileRounding:
    def test_empty_is_zero(self):
        assert _percentile([], 0.5) == 0.0

    def test_even_count_takes_upper_middle(self):
        # floor(0.5 * 1 + 0.5) = 1: two samples -> the larger one
        assert _percentile([1.0, 2.0], 0.5) == 2.0
        # floor(0.5 * 3 + 0.5) = 2: four samples -> the upper middle
        assert _percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 3.0

    def test_odd_count_takes_exact_middle(self):
        assert _percentile([1.0, 2.0, 3.0], 0.5) == 2.0
        assert _percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0

    def test_parity_does_not_flip_the_rank_direction(self):
        # the old round()-based rank picked index 0 for n=2 but index 2
        # for n=4; half-up always lands on the upper middle
        for n in range(2, 12, 2):
            values = [float(i) for i in range(1, n + 1)]
            assert _percentile(values, 0.5) == values[n // 2]

    def test_p90_p99_pinned(self):
        ten = [float(i) for i in range(1, 11)]
        assert _percentile(ten, 0.90) == 9.0   # floor(8.1 + 0.5) = 8
        assert _percentile(ten, 0.99) == 10.0  # floor(8.91 + 0.5) = 9
        four = [10.0, 20.0, 30.0, 40.0]
        assert _percentile(four, 0.99) == 40.0

    def test_extremes_clamped(self):
        assert _percentile([5.0], 0.0) == 5.0
        assert _percentile([5.0], 1.0) == 5.0


class TestClassicMatchesOracle:
    """An enabled metrics registry, which used to select the object
    loop, runs the same event loop and changes no bytes."""

    @pytest.mark.parametrize("config", CONFIGS)
    def test_classic_object_path_byte_identical(self, config):
        report, _ = with_metrics(lambda: simulate_fleet(config, jobs=1))
        assert canonical(report.to_dict()) == canonical(oracle_dict(config))


class TestMetricsFromEndState:
    """The ``fleet.*`` instruments derived from the flat end state equal
    the ones the oracle records event by event: counters, the need-queue
    gauge, the makespan timer and histogram."""

    @pytest.mark.parametrize(
        "config,storm",
        [(c, None) for c in CONFIGS] + [(BAD_LOCK, None)]
        + [(c, STORM) for c in STORM_CASES],
        ids=[f"config{i}" for i in range(len(CONFIGS))] + ["bad_lock"]
        + [f"storm{i}" for i in range(len(STORM_CASES))])
    @pytest.mark.parametrize("kernel", [True, False], ids=["c", "python"])
    def test_fleet_snapshot_equals_oracle(self, config, storm, kernel):
        def run(simulate):
            with injected(parse_fault_spec(storm or "seed=0")):
                return simulate(config, jobs=1)

        expected_report, expected = with_metrics(
            lambda: run(ref.simulate_fleet))
        with mock.patch.object(
                server_module, "_c_event_loop",
                run_event_loop if kernel else (lambda prep: None)), \
                mock.patch.object(
                    server_module, "_c_report_folds",
                    report_folds if kernel else (lambda prep, state: None)):
            report, got = with_metrics(lambda: run(simulate_fleet))
        assert got == expected
        assert canonical(report.to_dict()) == \
            canonical(expected_report.to_dict())
        snap = json.loads(got)
        assert snap["gauges"]["fleet.need_queue_peak"] > 0
        assert snap["timers"]["fleet.makespan_s"]["count"] \
            == report.valid > 0
        if storm:
            assert snap["counters"]["fleet.rolled_back"] > 0


class TestFastMatchesOracle:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_columnar_path_byte_identical(self, config):
        live = simulate_fleet(config, jobs=1).to_dict()
        assert canonical(live) == canonical(oracle_dict(config))

    @pytest.mark.parametrize(
        "config", STORM_CASES,
        ids=[f"storm{i}" for i in range(len(STORM_CASES))])
    @pytest.mark.parametrize("kernel", [True, False], ids=["c", "python"])
    def test_storm_columnar_path_byte_identical(self, config, kernel):
        with injected(parse_fault_spec(STORM)):
            expected = ref.simulate_fleet(config, jobs=1).to_dict()
        with injected(parse_fault_spec(STORM)), mock.patch.object(
                server_module, "_c_event_loop",
                run_event_loop if kernel else (lambda prep: None)), \
                mock.patch.object(
                    server_module, "_c_report_folds",
                    report_folds if kernel else (lambda prep, state: None)):
            live = simulate_fleet(config, jobs=1).to_dict()
        assert canonical(live) == canonical(expected)


def fast_prep(config, storm):
    """A server's ``_FastPrep`` for ``config``, under ``storm`` if set."""
    columns = build_fleet_columns(config, jobs=1)
    with injected(parse_fault_spec(storm or "seed=0")):
        if storm:
            _apply_host_dropout(columns, config.duration_s)
        server = FleetServer(config, columns)
        return server, server._fast_prep()


class TestKernelMatchesFallback:
    """C kernel and Python fallback emit the same canonical state."""

    @pytest.mark.parametrize(
        "config,storm",
        [(c, None) for c in CONFIGS] + [(c, STORM) for c in STORM_CASES],
        ids=[f"config{i}" for i in range(len(CONFIGS))]
        + [f"storm{i}" for i in range(len(STORM_CASES))])
    def test_state_dicts_identical(self, config, storm):
        if not cloop_available():
            pytest.skip("no C compiler / kernel unavailable")
        server, prep = fast_prep(config, storm)
        assert prep.faults == bool(storm)
        c_state = run_event_loop(prep)
        assert c_state is not None
        py_state = server._fast_loop_python(prep)
        assert set(c_state) == set(py_state)
        for key, c_val in c_state.items():
            p_val = py_state[key]
            if hasattr(c_val, "tobytes"):
                assert c_val.tobytes() == p_val.tobytes(), key
            else:
                assert c_val == p_val, key
        if storm:
            # the per-replica recovery columns are populated and compared
            assert len(c_state["r_rb"]) == c_state["n_rep"]
            assert c_state["vm_crashes"] > 0
            assert c_state["uploads_retried"] + c_state["uploads_lost"] > 0

    def test_report_folds_identical(self):
        if not cloop_available():
            pytest.skip("no C compiler / kernel unavailable")
        cases = ([(c, None) for c in CONFIGS + [BAD_LOCK]]
                 + [(c, STORM) for c in STORM_CASES])
        codes_seen = set()
        for config, storm in cases:
            _, prep = fast_prep(config, storm)
            state = run_event_loop(prep)
            waste_before = state["waste"].tobytes()
            c_folds = report_folds(prep, state)
            py_folds = _report_folds(prep, state)
            assert set(c_folds) == set(py_folds)
            for key, c_val in c_folds.items():
                p_val = py_folds[key]
                if isinstance(c_val, np.ndarray):
                    assert c_val.dtype == p_val.dtype, key
                    assert c_val.tobytes() == p_val.tobytes(), key
                else:
                    assert type(c_val) is float and type(p_val) is float
                    assert c_val == p_val, key
            # the folds read the state; they never fold into it
            assert state["waste"].tobytes() == waste_before
            codes_seen |= set(
                np.unique(state["wu_state"][state["ret_wid"]]).tolist())
        # the ok-return walk takes every validator-state branch
        assert {1, 2, 5} <= codes_seen, codes_seen

    def test_serve_draw_port_is_bit_identical(self):
        if not cloop_available():
            pytest.skip("no C compiler / kernel unavailable")
        rng = np.random.Generator(np.random.PCG64(2024))
        seeds = np.concatenate([
            np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64),
            rng.integers(0, 2**64, size=1200, dtype=np.uint64,
                         endpoint=False)])
        draws = 48
        # the kernel steps each lane on its own, lane after lane ...
        got = serve_doubles(seeds, draws)
        assert got.shape == (len(seeds), draws)
        # ... which must equal the lockstep rounds, round after round
        vec = VecPcg.seeded(seeds, "error")
        want = np.stack([vec.doubles() for _ in range(draws)], axis=1)
        assert got.tobytes() == want.tobytes()

    def test_fault_draw_port_is_bit_identical(self):
        if not cloop_available():
            pytest.skip("no C compiler / kernel unavailable")
        for seed in (0, -1, 2**63 + 5, 2**70):
            for salt in ("", "at"):
                for attempt in range(5):
                    got = [fault_draw(seed, "vm.crash", key, attempt, salt)
                           for key in range(5001)]
                    want = [_draw(seed, "vm.crash", key, attempt, salt)
                            for key in range(5001)]
                    assert got == want, (seed, salt, attempt)
        # a prefix past one SHA-256 block still hashes identically
        long_seed = 10**80
        assert fault_draw(long_seed, "net.partition", 7, 3, "at") \
            == _draw(long_seed, "net.partition", 7, 3, "at")


class TestKernelLoad:
    @staticmethod
    def _stale_library(monkeypatch, *entry_points):
        """Load a kernel library that exports only ``entry_points``."""
        def stale_cdll(path):
            return types.SimpleNamespace(**{
                name: types.SimpleNamespace() for name in entry_points})

        monkeypatch.delenv("REPRO_NO_CLOOP", raising=False)
        monkeypatch.setattr(cloop, "_lib", None)
        monkeypatch.setattr(cloop, "_tried", False)
        monkeypatch.setattr(cloop, "_compile", lambda: "stale.so")
        monkeypatch.setattr(cloop.ctypes, "CDLL", stale_cdll)

    def test_library_missing_an_entry_point_falls_back(self, monkeypatch):
        """A build that predates ``fleet_report`` or ``fleet_build`` must
        not crash the run."""
        config = CONFIGS[0]
        want = build_fleet_columns(config, jobs=1)
        self._stale_library(monkeypatch, "fleet_run", "fault_draw",
                            "serve_doubles", "fleet_build", "zig_draws")
        assert cloop_available() is False
        live = simulate_fleet(config, jobs=1).to_dict()
        assert canonical(live) == canonical(oracle_dict(config))

        # lacking fleet_build: the columns come from the Python spec
        self._stale_library(monkeypatch, "fleet_run", "fleet_report",
                            "fault_draw", "serve_doubles", "zig_draws")
        assert cloop_available() is False
        assert cloop.build_hosts(config) is None
        assert column_bytes(build_fleet_columns(config, jobs=1)) == \
            column_bytes(want)

    def test_cache_key_covers_compiler_and_flags(self, monkeypatch):
        flags = cloop._CFLAGS
        version = {"cc": b"gcc (GCC) 12.2.0"}
        monkeypatch.setattr(cloop, "_cc_version", lambda cc: version["cc"])

        def key(cc="/usr/bin/gcc", extra=()):
            return cloop._so_path(cc, flags + extra)

        paths = {key(), key(extra=("-O3",)), key(cc="/usr/bin/clang")}
        version["cc"] = b"gcc (GCC) 13.1.0"
        paths.add(key())
        monkeypatch.setattr(cloop.platform, "machine", lambda: "riscv64")
        paths.add(key())
        monkeypatch.setattr(cloop.sys, "platform", "freebsd14")
        paths.add(key())
        assert len(paths) == 6

    def test_compiler_version_is_read_from_the_compiler(self):
        if not cloop_available():
            pytest.skip("no C compiler / kernel unavailable")
        cc = shutil.which("gcc") or shutil.which("cc")
        assert cloop._cc_version(cc).strip()
        assert cloop._cc_version("/nonexistent/cc") == b""


class TestStormsStayColumnar:
    CONFIG = FleetConfig(hosts=120, hypervisor="mixed", seed=5,
                         duration_s=43200.0, checkpoint_interval_s=1800.0,
                         degraded_threshold=4)

    def test_metrics_off_storm_never_enters_the_classic_loop(self):
        def forbidden(*args, **kwargs):
            raise AssertionError("the run built a FleetHost object")

        def storm_run():
            with injected(parse_fault_spec(STORM)):
                return simulate_fleet(self.CONFIG, jobs=1)

        guard = mock.patch.object(FleetHost, "__init__", forbidden)
        with guard:
            off = storm_run()
            on, _ = with_metrics(storm_run)
        assert off.recovery["vm_crashes"] > 0
        assert off.dropouts > 0
        assert canonical(on.to_dict()) == canonical(off.to_dict())
        # the guard does bite: a host view is a FleetHost
        columns = build_fleet_columns(self.CONFIG, jobs=1)
        with guard, pytest.raises(AssertionError, match="FleetHost"):
            columns.views()[0]

    def test_bulk_fault_tally_matches_the_classic_loop(self, tmp_path):
        RUNLOG.clear()
        with injected(parse_fault_spec(STORM)) as fast_plan:
            fast = simulate_fleet(self.CONFIG, jobs=1)
        fast_runlog = dict(RUNLOG.injected)
        fast_section = api._faults_section(fast_plan, None)
        assert sorted(fast_plan.injected) == [
            "host.dropout", "net.partition", "server.outage", "vm.crash"]

        RUNLOG.clear()

        def oracle_run():
            with injected(parse_fault_spec(STORM)) as plan:
                return ref.simulate_fleet(self.CONFIG, jobs=1), plan

        (oracle, oracle_plan), _ = with_metrics(oracle_run)
        assert fast.to_dict() == oracle.to_dict()
        assert fast_plan.injected == oracle_plan.injected
        assert fast_runlog == RUNLOG.injected

        result = api.run(api.RunRequest(
            kind="fleet", target=self.CONFIG,
            config=api.RunConfig(metrics=True, cache=False, jobs=1,
                                 fault_spec=STORM,
                                 runs_dir=str(tmp_path))))
        with open(result.manifest_path) as handle:
            manifest = json.load(handle)
        assert manifest["faults"] == fast_section
        assert not FAULTS.enabled
        RUNLOG.clear()


class TestServerInput:
    def test_host_list_is_rejected_with_a_pointer_to_columns(self):
        config = CONFIGS[1]
        hosts = ref.build_fleet_hosts(config, jobs=1)
        with pytest.raises(TypeError, match="build_fleet_columns"):
            FleetServer(config, hosts)
        # the columns of the same fleet are accepted
        report = FleetServer(config, build_fleet_columns(config)).run()
        assert canonical(report.to_dict()) == canonical(oracle_dict(config))
