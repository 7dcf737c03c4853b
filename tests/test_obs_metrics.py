"""The metrics registry and its instrumentation sites."""

import math
import random

import pytest

from repro.obs.metrics import METRICS, MetricsRegistry
from repro.simcore.engine import Engine


@pytest.fixture(autouse=True)
def _clean_global_registry():
    """Every test starts and ends with the global registry disabled."""
    METRICS.disable()
    METRICS.reset()
    yield
    METRICS.disable()
    METRICS.reset()


class TestRegistry:
    def test_disabled_by_default_and_noop(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.gauge_set("b", 1.0)
        reg.gauge_max("c", 2.0)
        reg.observe("d", 3.0)
        assert reg.counters == {} and reg.gauges == {} and reg.timers == {}
        assert reg.counter("a") == 0.0
        assert reg.gauge("b") is None
        assert reg.timer("d") is None

    def test_counter_accumulates(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("x")
        reg.inc("x", 2.5)
        assert reg.counter("x") == 3.5

    def test_gauge_set_vs_max(self):
        reg = MetricsRegistry(enabled=True)
        reg.gauge_set("g", 5.0)
        reg.gauge_set("g", 2.0)
        assert reg.gauge("g") == 2.0
        reg.gauge_max("m", 5.0)
        reg.gauge_max("m", 2.0)
        assert reg.gauge("m") == 5.0

    def test_timer_aggregates(self):
        reg = MetricsRegistry(enabled=True)
        for value in (2.0, 8.0, 5.0):
            reg.observe("t", value)
        agg = reg.timer("t")
        assert agg["count"] == 3
        assert agg["total"] == 15.0
        assert agg["min"] == 2.0 and agg["max"] == 8.0
        assert agg["mean"] == 5.0

    def test_enable_resets_by_default(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("x")
        reg.enable()
        assert reg.counter("x") == 0.0
        reg.inc("x")
        reg.disable()
        reg.enable(reset=False)
        assert reg.counter("x") == 1.0

    def test_snapshot_is_json_safe_and_sorted(self):
        import json

        reg = MetricsRegistry(enabled=True)
        reg.inc("b")
        reg.inc("a")
        reg.gauge_max("g", 4.0)
        reg.observe("t", 1.0)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        json.dumps(snap)  # must not raise

    def test_merge_adds_counters_maxes_gauges_combines_timers(self):
        a = MetricsRegistry(enabled=True)
        a.inc("c", 2.0)
        a.gauge_max("g", 1.0)
        a.observe("t", 5.0)
        b = MetricsRegistry(enabled=True)
        b.inc("c", 3.0)
        b.inc("only_b")
        b.gauge_max("g", 9.0)
        b.observe("t", 1.0)
        a.merge(b.snapshot())
        assert a.counter("c") == 5.0
        assert a.counter("only_b") == 1.0
        assert a.gauge("g") == 9.0
        agg = a.timer("t")
        assert agg["count"] == 2 and agg["min"] == 1.0 and agg["max"] == 5.0


class TestHist:
    def test_power_of_two_buckets(self):
        reg = MetricsRegistry(enabled=True)
        for value in (0.7, 1.0, 3.0, 3.9):
            reg.hist("h", value)
        assert reg.hist_buckets("h") == {"le_1": 2.0, "le_4": 2.0}

    def test_zero_and_negative_split(self):
        # Regression: negatives used to be lumped into le_0 with the
        # legitimate zeros, hiding clock-went-backwards measurement bugs.
        reg = MetricsRegistry(enabled=True)
        reg.hist("h", 0.0)
        reg.hist("h", 0.0)
        reg.hist("h", -0.5)
        buckets = reg.hist_buckets("h")
        assert buckets["le_0"] == 2.0
        assert buckets["underflow"] == 1.0

    def test_underflow_sorts_first(self):
        reg = MetricsRegistry(enabled=True)
        reg.hist("h", 2.0)
        reg.hist("h", -1.0)
        reg.hist("h", 0.0)
        assert list(reg.hist_buckets("h")) == ["underflow", "le_0", "le_2"]

    def test_merge_with_pre_split_snapshot(self):
        # Old snapshots simply have no underflow key; merging one into a
        # new registry must keep adding matching buckets.
        old = MetricsRegistry(enabled=True)
        old.hist("h", 0.0)
        old.hist("h", 1.0)
        new = MetricsRegistry(enabled=True)
        new.hist("h", -2.0)
        new.hist("h", 1.0)
        new.merge(old.snapshot())
        assert new.hist_buckets("h") == {
            "underflow": 1.0, "le_0": 1.0, "le_1": 2.0}


def _per_call(values):
    reg = MetricsRegistry(enabled=True)
    for value in values:
        reg.observe("t", value)
        reg.hist("h", value)
    return reg


def _bulk(values):
    reg = MetricsRegistry(enabled=True)
    reg.observe_many("t", sorted(values))
    reg.hist_many("h", values)
    return reg


class TestBulkFolds:
    """``observe_many``/``hist_many`` leave the per-call state exactly."""

    @staticmethod
    def edge_values():
        values = [0.0, 0.0, -0.5, -3.0, 1e-310]
        for k in range(-60, 61, 3):
            p = 2.0 ** k
            values += [p, math.nextafter(p, 0.0), math.nextafter(p, 2 * p)]
        values += [0.1 * i for i in range(1, 400)]
        return values

    def test_edges_match_per_call_replay(self):
        values = self.edge_values()
        assert _bulk(values).snapshot() == _per_call(sorted(values)).snapshot()

    def test_powers_of_two_and_their_neighbours(self):
        reg = MetricsRegistry(enabled=True)
        reg.hist_many("h", [4.0, math.nextafter(4.0, 0.0),
                            math.nextafter(4.0, 8.0)])
        assert reg.hist_buckets("h") == {"le_4": 2.0, "le_8": 1.0}

    def test_bucket_label_is_an_upper_bound(self):
        # one ulp above 2**k belongs in le_<2**(k+1)>; 2**k itself and
        # one ulp below stay in le_<2**k> (math.log2 used to round the
        # first down into le_<2**k> at 113 of these 121 k)
        for k in range(-60, 61):
            p = 2.0 ** k
            above = [math.nextafter(p, math.inf)]
            at_or_below = [math.nextafter(p, 0.0), p]
            for fold in (_per_call, _bulk):
                assert fold(above).hist_buckets("h") == \
                    {f"le_{2 * p:g}": 1.0}, (fold.__name__, k)
                assert fold(at_or_below).hist_buckets("h") == \
                    {f"le_{p:g}": 2.0}, (fold.__name__, k)

    def test_subnormals_bucket_by_their_exact_exponent(self):
        tiny = 5e-324  # 2**-1074, the smallest subnormal
        for fold in (_per_call, _bulk):
            assert fold([tiny, 1e-310]).hist_buckets("h") == {
                f"le_{tiny:g}": 1.0, f"le_{2.0 ** -1029:g}": 1.0}

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_values_are_rejected(self, value):
        # frexp gives them exponent 0: they must not land in le_1
        reg = MetricsRegistry(enabled=True)
        with pytest.raises(ValueError, match="non-finite"):
            reg.hist("h", value)
        with pytest.raises(ValueError, match="non-finite"):
            reg.hist_many("h", [1.0, value])
        assert reg.hists == {}
        # -inf is negative: underflow, as before
        for fold in (_per_call, _bulk):
            assert fold([-math.inf]).hist_buckets("h") == {"underflow": 1.0}

    def test_random_makespans_match_per_call_replay(self):
        rng = random.Random(5)
        values = [rng.uniform(0.0, 86400.0) / 3600.0 for _ in range(5000)]
        assert _bulk(values).snapshot() == _per_call(sorted(values)).snapshot()

    def test_empty_input_creates_nothing(self):
        reg = _bulk([])
        assert reg.timers == {} and reg.hists == {}
        assert reg.snapshot() == _per_call([]).snapshot()

    def test_disabled_registry_untouched(self):
        reg = MetricsRegistry()
        reg.observe_many("t", [1.0, 2.0])
        reg.hist_many("h", [1.0, 2.0])
        assert reg.timers == {} and reg.hists == {}

    def test_second_batch_folds_into_the_first(self):
        first, second = [0.5, 2.0, 9.0], [-1.0, 0.25, 3.0, 40.0]
        bulk = MetricsRegistry(enabled=True)
        for batch in (first, second):
            bulk.observe_many("t", batch)
            bulk.hist_many("h", batch)
        assert bulk.snapshot() == _per_call(first + second).snapshot()

    def test_merged_snapshots_match_per_call(self):
        a, b = [0.0, 1.5, 7.0], [-2.0, 2.0 ** 10, 0.3]
        bulk = MetricsRegistry(enabled=True)
        bulk.merge(_bulk(a).snapshot())
        bulk.merge(_bulk(b).snapshot())
        per_call = MetricsRegistry(enabled=True)
        per_call.merge(_per_call(sorted(a)).snapshot())
        per_call.merge(_per_call(sorted(b)).snapshot())
        assert bulk.snapshot() == per_call.snapshot()


class TestEngineCounters:
    def _burn(self, engine, n):
        fired = []
        for i in range(n):
            engine.schedule(i * 0.001, fired.append, i)
        engine.run()
        assert len(fired) == n

    def test_dispatch_count_matches_counter(self):
        METRICS.enable()
        engine = Engine()
        self._burn(engine, 37)
        assert METRICS.counter("engine.events_dispatched") == \
            engine.events_processed == 37
        assert METRICS.counter("engine.runs") == 1
        assert METRICS.gauge("engine.heap_size") >= 1
        assert METRICS.timer("engine.run_wall_s")["count"] == 1

    def test_run_until_event_counts_too(self):
        METRICS.enable()
        engine = Engine()
        done = engine.timeout(0.5, "ok")
        for i in range(10):
            engine.schedule(i * 0.01, lambda: None, daemon=True)
        assert engine.run_until_event(done) == "ok"
        assert METRICS.counter("engine.events_dispatched") == \
            engine.events_processed

    def test_same_instant_batches(self):
        METRICS.enable()
        engine = Engine()
        for _ in range(4):
            engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.run()
        assert METRICS.counter("engine.same_instant_batches") == 2
        assert METRICS.counter("engine.same_instant_events") == 5
        assert METRICS.gauge("engine.batch_events_max") == 4

    def test_disabled_registry_untouched(self):
        engine = Engine()
        self._burn(engine, 10)
        assert METRICS.counters == {}


class TestCacheCounters:
    def test_hit_miss_store_match_cache_stats(self, tmp_path):
        from repro.core.cache import ResultCache

        METRICS.enable()
        cache = ResultCache(tmp_path / "cache")
        key = cache.key("exp", {"p": 1})
        assert cache.get(key) is None          # miss
        cache.put(key, {"v": 42}, "exp")       # store
        assert cache.get(key) == {"v": 42}     # hit
        assert METRICS.counter("cache.misses") == cache.misses == 1
        assert METRICS.counter("cache.hits") == cache.hits == 1
        assert METRICS.counter("cache.stores") == 1
