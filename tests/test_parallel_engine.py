"""The one fan-out engine: in-process task selection and submit recovery."""

import os
import signal
import threading
import time

import pytest

from repro.core.parallel import ParallelRepeater, map_shards
from repro.core.workerpool import get_pool, pool_generations
from repro.faults import RUNLOG


def type_name(task):
    return type(task).__name__


def pid_measure(seed):
    return {"pid": float(os.getpid()), "x": float(seed % 5)}


@pytest.fixture(autouse=True)
def _clean_runlog():
    RUNLOG.clear()
    yield
    RUNLOG.clear()


class TestUnpicklableShardTask:
    @pytest.mark.parametrize("retries", [0, 2])
    def test_runs_in_process_and_leaves_the_pool_alone(self, retries):
        assert map_shards(type_name, [1, 2, 3], jobs=2) == ["int"] * 3
        generation = pool_generations()[2]
        RUNLOG.clear()
        results = map_shards(type_name, [1, threading.Lock(), 3], jobs=2,
                             retries=retries)
        assert results == ["int", "lock", "int"]
        assert pool_generations()[2] == generation
        assert RUNLOG.retries == 0


class TestWorkerDiesIdle:
    def test_next_run_resubmits_once_on_a_rebuilt_pool(self):
        # Four repetitions at two jobs fork both workers of the pool.
        ParallelRepeater(base_seed=1, reps=4, jobs=2).run(pid_measure)
        pool = get_pool(2)
        executor = pool._executor
        victim = next(iter(executor._processes))
        generation = pool.generation
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        while not executor._broken:
            assert time.monotonic() < deadline, \
                "the executor never registered the dead worker"
            time.sleep(0.01)
        RUNLOG.clear()
        result = ParallelRepeater(base_seed=2, reps=4, jobs=2,
                                  retries=0).run(pid_measure)
        assert result["x"].n == 4
        assert RUNLOG.retries == 0
        assert pool.generation == generation + 1
        assert float(victim) not in result.raw["pid"]
