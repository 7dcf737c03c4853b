"""Parallel repetition execution: fan independent seeded runs over cores.

The paper's methodology repeats every test >= 50 times; repetitions are
independent by construction (each builds a fresh simulated world from its
own :func:`derive_rep_seed` seed), which makes them the natural unit of
scale-out.  :class:`ParallelRepeater` submits one compact task spec per
repetition to the **persistent** worker pool
(:mod:`repro.core.workerpool`) and folds the results back **in
repetition order**, so the resulting :class:`RepeatedResult` is
bit-identical to the serial :class:`repro.core.experiment.Repeater` —
same seeds, same raw value ordering, same ``summarize`` inputs.

The pool is created once per worker count and reused across
repetitions, retry rounds, figures in a sweep and fleet shards; workers
pre-import the tree at fork time and re-arm per task from the spec's
explicit context (metrics/trace-hash enablement, fault plan, activated
run config), so a dispatch costs a pickle round-trip instead of fork +
import + warm-up.  Results come back as versioned
:class:`repro.core.workerpool.WorkerResult` records whose bulk payloads
travel via shared memory above a size threshold.

Worker-count policy (first match wins):

* explicit ``jobs=`` argument;
* the activated :class:`repro.api.RunConfig` (the ``--jobs`` CLI flag
  lands here; the legacy ``REPRO_JOBS`` variable still works through
  ``RunConfig.from_env`` with a ``DeprecationWarning`` for library
  callers);
* every *schedulable* core
  (:func:`repro.core.workerpool.available_cpus` — CPU affinity, not
  ``os.cpu_count()``).

When the metrics registry is enabled each worker ships a snapshot of its
per-subsystem counters back with its result, and the parent merges them
— so engine/scheduler/hardware counters survive process fan-out — plus
per-worker wall time and queue wait observed from the parent side.
Fault RUNLOG tallies ship the same way, so injection counts no longer
depend on the metrics registry being enabled.

One engine
----------
Desktop grids assume workers die; so does this layer.  Repetitions and
:func:`map_shards` shards run through one round loop
(:func:`_run_rounds`) over one pool round (:func:`_pool_round`): every
pending task is submitted, results are collected in index order, and
failed, crashed or timed-out tasks are resubmitted for up to ``retries``
further rounds (capped exponential backoff between rounds, the pool
invalidated and lazily rebuilt if broken).  A retried repetition
re-derives the **same** seed, so a fault-injected run that recovers is
byte-identical to a fault-free one.  With ``retries=0`` the run is
fail-fast: the lowest-index failure is raised as :class:`ExperimentError`
carrying the repetition index and derived seed (or the shard index) plus
the remote traceback, so any failing repetition can be reproduced
standalone with ``measure(seed)``.  With ``min_reps`` the run degrades
gracefully instead: it completes with at least that many successes and
records the dropped seeds plus remote tracebacks (in
``RepeatedResult.dropped`` and the parent-side
:data:`repro.faults.RUNLOG`, which run manifests pick up).  A worker
that died idle between dispatches breaks submission; the round then
resubmits once on a rebuilt pool, which is not a retry round.

Fault-injection sites hosted here: ``worker.crash`` (hard ``os._exit``
in the worker body — breaks the pool), ``worker.hang`` (bounded sleep,
to trip task timeouts) and ``measure.transient`` (raise-once
:class:`repro.faults.InjectedFault` around the measurement).  Each
disabled site costs one attribute read and a branch.

In-process selection, derived from the inputs: one worker, or a
function or shard task the pickle module cannot serialise (e.g. a
test-local closure), runs in the parent.  So does a run of at most
:data:`SERIAL_FALLBACK_REPS` repetitions when no retry, timeout,
``min_reps`` or fault plan is in force, recording
``parallel.fallback_serial`` in METRICS: dispatch overhead only buys
wall-clock when there is enough work to amortise it, while timeouts and
process-level fault sites need real worker processes.  In the parent, a
run with none of those knobs is the serial :class:`Repeater`; with them,
the same round loop runs each round in-process.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.audit.tracehash import TRACE_HASH
from repro.core.experiment import (
    MeasureFn,
    Repeater,
    RepeatedResult,
    collect_repetitions,
)
from repro.core.workerpool import (
    WorkerPool,
    WorkerResult,
    WorkerResultError,
    build_task_context,
    get_pool,
    next_run_token,
)
from repro.errors import ExperimentError
from repro.faults import FAULTS, RUNLOG
from repro.obs.metrics import METRICS
from repro.simcore.rng import derive_rep_seed

#: Backoff before retry round ``n`` is ``RETRY_BACKOFF_S * 2**(n-1)``,
#: capped at :data:`RETRY_BACKOFF_CAP_S`.
RETRY_BACKOFF_S = 0.05
RETRY_BACKOFF_CAP_S = 2.0

#: Runs with this many repetitions or fewer and no resilience knob skip
#: the pool and run serially in the parent (``parallel.fallback_serial``
#: in METRICS): two tasks cannot amortise even a warm dispatch.
SERIAL_FALLBACK_REPS = 2

#: Fault-key prefix of a shard's ``worker.crash`` / ``worker.hang``
#: draws; repetitions use their bare index.
_SHARD_KEY = "shard:"

#: Failure text of a task whose worker died under it.
_POOL_BROKE = "worker pool broke: "


def resolve_jobs(jobs: Optional[int] = None,
                 env: Optional[Mapping[str, str]] = None) -> int:
    """Worker-count policy: explicit arg, then run config, then cores.

    With ``env=None`` the policy comes from the activated
    :class:`repro.api.RunConfig` when one is in force, else from the
    legacy ``REPRO_JOBS`` variable (with a ``DeprecationWarning``).  An
    explicit ``env`` mapping is interpreted directly — the testing hook.
    """
    from repro import api

    if jobs is not None:
        return api.RunConfig().resolve_jobs(jobs)
    if env is not None:
        config = api.RunConfig.from_env(env)
    else:
        config = api.fallback_config("jobs")
    return config.resolve_jobs()


def warm_pool(jobs: Optional[int] = None) -> None:
    """Pre-fork the persistent pool a run at ``jobs`` would use.

    A no-op for ``jobs`` ≤ 1 (serial runs never touch the pool).  Batch
    drivers call this once up front so the fork cost is paid before the
    first point rather than inside it.
    """
    jobs = resolve_jobs(jobs)
    if jobs > 1:
        from repro.core.workerpool import warm_pool as _warm

        _warm(jobs)


def _pickled(obj: Any) -> Optional[bytes]:
    """``obj`` pickled once parent-side for every round of a run;
    ``None`` when it cannot cross a process boundary."""
    try:
        return pickle.dumps(obj)
    except Exception:
        return None


def measure_is_picklable(measure: MeasureFn) -> bool:
    """Whether ``measure`` can cross a process boundary."""
    return _pickled(measure) is not None


def _backoff_s(round_no: int) -> float:
    """Capped exponential backoff before retry round ``round_no`` (>= 1)."""
    return min(RETRY_BACKOFF_S * 2.0 ** (round_no - 1), RETRY_BACKOFF_CAP_S)


def _run_repetition(measure: MeasureFn, repetition: int, seed: int,
                    submitted_at: float = 0.0, attempt: int = 0,
                    in_worker: bool = True, snapshot_registry: bool = True,
                    hash_group: int = 0
                    ) -> Tuple[int, int, Optional[Dict[str, float]],
                               Optional[str], float, float,
                               Optional[Dict[str, Any]],
                               Optional[Dict[str, Any]]]:
    """Worker body: one repetition, exceptions captured as text.

    Returns ``(repetition, seed, metrics, error, queue_wait_s, wall_s,
    counter_snapshot, trace_hash_snapshot)``.  A pool worker has its
    registries re-armed per task from the spec context
    (:func:`repro.core.workerpool._apply_task_context`); it resets its
    (process-private) metrics copy so the snapshot holds only this
    repetition's counters, which the parent merges back — and likewise
    for the audit trace-hash recorder, whose streams are labelled
    ``g<hash_group>/rep<n>`` (the group id is allocated parent-side) so
    they line up key-for-key with a serial run.  An in-process round
    runs this in the parent with ``snapshot_registry=False`` (never
    reset the parent registries, parent recorders accumulate directly)
    and ``in_worker=False`` (process-level sites stay quiet).
    """
    # Cross-process queue wait: spans two clocks, so the wall clock is
    # the only option.  # repro: allow-wall-clock
    queue_wait = max(0.0, time.time() - submitted_at) if submitted_at else 0.0
    metrics_on = METRICS.enabled and snapshot_registry
    if metrics_on:
        METRICS.reset()
    thash_on = TRACE_HASH.enabled
    if thash_on:
        if snapshot_registry:
            TRACE_HASH.reset()
        TRACE_HASH.set_context(f"g{hash_group}/rep{repetition}")
    started = time.perf_counter()
    try:
        if FAULTS.enabled:
            if in_worker and FAULTS.would_fire("worker.crash",
                                               key=repetition,
                                               attempt=attempt):
                os._exit(17)  # injected hard crash; the parent accounts it
            if in_worker and FAULTS.fires("worker.hang", key=repetition,
                                          attempt=attempt):
                time.sleep(FAULTS.hang_s)
            FAULTS.raise_if("measure.transient", key=seed, attempt=attempt)
        metrics = measure(seed)
        # dict() preserves insertion order across the pickle boundary, so
        # the parent rebuilds `raw` exactly as the serial path would.
        result: Optional[Dict[str, float]] = dict(metrics)
        error = None
    except Exception:
        result, error = None, traceback.format_exc()
    wall = time.perf_counter() - started
    snapshot = METRICS.snapshot() if metrics_on else None
    thash = TRACE_HASH.snapshot() if thash_on and snapshot_registry else None
    return repetition, seed, result, error, queue_wait, wall, snapshot, thash


def _run_shard(fn, index: int, task: Any, attempt: int = 0
               ) -> Tuple[int, Any, Optional[str],
                          Optional[Dict[str, Any]]]:
    """Worker body for :func:`map_shards`: one shard, errors as text.

    Returns ``(index, result, error, counter_snapshot)``; same metrics
    snapshot/reset and fault-site protocol as :func:`_run_repetition`
    (shard keys are ``"shard:<index>"``).
    """
    metrics_on = METRICS.enabled
    if metrics_on:
        METRICS.reset()
    try:
        if FAULTS.enabled:
            key = f"{_SHARD_KEY}{index}"
            if FAULTS.would_fire("worker.crash", key=key, attempt=attempt):
                os._exit(17)
            if FAULTS.fires("worker.hang", key=key, attempt=attempt):
                time.sleep(FAULTS.hang_s)
        result, error = fn(task), None
    except Exception:
        result, error = None, traceback.format_exc()
    snapshot = METRICS.snapshot() if metrics_on else None
    return index, result, error, snapshot


def _resilience_settings(retries: Optional[int],
                         task_timeout_s: Optional[float],
                         min_reps: Optional[int]
                         ) -> Tuple[int, Optional[float], Optional[int]]:
    """Fill unset resilience knobs from the activated run config."""
    from repro import api

    config = api.active_config()
    if config is not None:
        if retries is None:
            retries = config.resolve_retries()
        if task_timeout_s is None:
            task_timeout_s = config.resolve_task_timeout_s()
        if min_reps is None:
            min_reps = config.resolve_min_reps()
    retries = 0 if retries is None else int(retries)
    if retries < 0:
        raise ExperimentError(f"retries must be >= 0, got {retries}")
    if task_timeout_s is not None and task_timeout_s <= 0:
        raise ExperimentError(
            f"task_timeout_s must be > 0, got {task_timeout_s}")
    if min_reps is not None and min_reps < 1:
        raise ExperimentError(f"min_reps must be >= 1, got {min_reps}")
    return retries, task_timeout_s, min_reps


# ---------------------------------------------------------------------------
# The engine: task specs, one pool round, one round loop
# ---------------------------------------------------------------------------

def _rep_spec(fn_blob: bytes, repetition: int, seed: int, attempt: int,
              hash_group: int, context: Dict[str, Any],
              run_token: int) -> Dict[str, Any]:
    """Compact TaskSpec for one repetition."""
    return {
        "kind": "rep", "fn_blob": fn_blob, "task_blob": None,
        "index": repetition, "seed": seed, "attempt": attempt,
        # Queue wait spans two processes' clocks; the wall clock is the
        # only shared reference.
        "submitted_at": time.time(),  # repro: allow-wall-clock
        "hash_group": hash_group, "context": context,
        "run_token": run_token,
    }


def _shard_spec(fn_blob: bytes, index: int, task_blob: bytes, attempt: int,
                context: Dict[str, Any], run_token: int) -> Dict[str, Any]:
    """Compact TaskSpec for one :func:`map_shards` shard; ``task_blob``
    was pickled once, before the first round."""
    return {
        "kind": "shard", "fn_blob": fn_blob, "task_blob": task_blob,
        "index": index, "seed": None, "attempt": attempt,
        "submitted_at": 0.0, "hash_group": 0, "context": context,
        "run_token": run_token,
    }


def _submit_batch(pool: WorkerPool, specs: List[Dict[str, Any]]) -> list:
    """Submit one round of specs; a worker that died idle between
    dispatches breaks submission, so retry once on a rebuilt pool."""
    try:
        return [pool.submit(spec) for spec in specs]
    except Exception:
        pool.invalidate()
        return [pool.submit(spec) for spec in specs]


def _fold_observability(result: WorkerResult, metrics_on: bool,
                        timers: bool = True) -> None:
    """Merge one decoded result's snapshots into the parent registries."""
    if metrics_on:
        if timers:
            METRICS.observe("parallel.queue_wait_s", result.queue_wait_s)
            METRICS.observe("parallel.worker_wall_s", result.wall_s)
        if result.metrics is not None:
            METRICS.merge(result.metrics)
    if result.trace_hash is not None:
        TRACE_HASH.merge(result.trace_hash)
    if result.runlog is not None:
        RUNLOG.merge(result.runlog)


def _pool_round(pool: WorkerPool, specs: Dict[int, Dict[str, Any]],
                task_timeout_s: Optional[float], crash_key: str,
                done: Dict[int, Any], failures: Dict[int, str],
                metrics_on: bool, timers: bool = True) -> List[int]:
    """One round over the persistent pool; returns the indices still
    failing.

    ``specs`` maps task index to spec, in index order; ``crash_key`` is
    the ``worker.crash`` fault-key prefix (``""`` for repetitions,
    :data:`_SHARD_KEY` for shards).  Successful values land in ``done``
    and the last error text in ``failures``; every decoded result's
    observability is merged, success or not.  A crashed or hung worker
    invalidates the pool after the round; the next dispatch rebuilds it.
    """
    try:
        futures = _submit_batch(pool, list(specs.values()))
    except Exception as exc:
        pool.invalidate()
        for index in specs:
            failures[index] = f"{_POOL_BROKE}{exc}"
        return list(specs)
    still_pending: List[int] = []
    pool_broken = False
    for (index, spec), future in zip(specs.items(), futures):
        try:
            wire = future.result(timeout=task_timeout_s)
        except FutureTimeoutError:
            future.cancel()
            pool.abandon(future)
            RUNLOG.timeouts += 1
            if metrics_on:
                METRICS.inc("parallel.timeouts")
            failures[index] = f"timed out after {task_timeout_s}s"
            still_pending.append(index)
            pool_broken = True  # the hung worker occupies a slot
            continue
        except Exception as exc:
            # A crashed worker takes its fault tally with it; the
            # decision is deterministic, so account it parent-side.
            if FAULTS.enabled and FAULTS.would_fire(
                    "worker.crash", key=f"{crash_key}{index}",
                    attempt=spec["attempt"]):
                FAULTS.record("worker.crash")
            failures[index] = f"{_POOL_BROKE}{exc}"
            still_pending.append(index)
            pool_broken = True
            continue
        try:
            result = WorkerResult.from_wire(wire)
        except WorkerResultError as exc:
            if metrics_on:
                METRICS.inc("parallel.payload_quarantined")
            failures[index] = f"untrusted worker result: {exc}"
            still_pending.append(index)
            continue
        _fold_observability(result, metrics_on, timers)
        if result.error is None:
            done[index] = result.values
        else:
            failures[index] = result.error
            still_pending.append(index)
    if pool_broken:
        pool.invalidate()
    return still_pending


def _run_rounds(run_round: Callable[[List[int], int], List[int]],
                count: int, retries: int, metrics_on: bool) -> List[int]:
    """The one round loop: ``run_round(pending, round_no)`` runs every
    pending index and returns those still failing; each later round
    backs off first and is tallied as a retry.  Returns the indices
    that never succeeded."""
    pending = list(range(count))
    for round_no in range(retries + 1):
        if not pending:
            break
        if round_no > 0:
            time.sleep(_backoff_s(round_no))
            RUNLOG.retries += len(pending)
            if metrics_on:
                METRICS.inc("parallel.retries", len(pending))
        pending = run_round(pending, round_no)
    return pending


def _failure(what: str, unit: str, completed: int, total: int,
             attempts: int, error: str, hint: str = "") -> ExperimentError:
    """The error for a task still failing after its last round."""
    head = f"{what} failed after {attempts} attempt(s)"
    if error.startswith(_POOL_BROKE):
        head += (f": it broke the worker pool after {completed} of "
                 f"{total} {unit} had completed")
    else:
        head += f" ({completed} of {total} {unit} completed)"
    return ExperimentError(f"{head}{hint}.\nLast error:\n{error}")


def map_shards(fn, tasks, jobs: Optional[int] = None,
               retries: Optional[int] = None,
               task_timeout_s: Optional[float] = None) -> list:
    """Map ``fn`` over ``tasks`` across workers, results in task order.

    The generic fan-out primitive behind fleet host building (and any
    future shard-shaped work): tasks must be independent, and because
    results come back in task order the caller's merge is bit-identical
    to ``[fn(t) for t in tasks]`` at any worker count.  One worker, one
    task, or an ``fn`` or task the pickle module cannot serialise runs
    that list comprehension in-process; worker failures re-raise as
    :class:`ExperimentError` naming the shard index with the remote
    traceback attached.

    Dispatch goes through the persistent pool keyed by the resolved job
    count, so consecutive ``map_shards`` calls (every fleet size in a
    scaling sweep, every figure in a report) reuse warm workers.

    With ``retries``/``task_timeout_s`` (explicit or from the activated
    run config) failed, crashed or timed-out shards are resubmitted —
    every shard must ultimately succeed (there is no ``min_reps``
    analogue for shards, since a missing shard would skew the merge).
    """
    tasks = list(tasks)
    jobs_resolved = resolve_jobs(jobs)
    workers = min(jobs_resolved, len(tasks)) if tasks else 0
    retries, task_timeout_s, _ = _resilience_settings(
        retries, task_timeout_s, None)
    fn_blob = _pickled(fn) if workers > 1 else None
    task_blobs = ([_pickled(task) for task in tasks]
                  if fn_blob is not None else [])
    if fn_blob is None or None in task_blobs:
        return [fn(task) for task in tasks]
    metrics_on = METRICS.enabled
    context = build_task_context()
    run_token = next_run_token()
    pool = get_pool(jobs_resolved)
    done: Dict[int, Any] = {}
    failures: Dict[int, str] = {}

    def run_round(pending: List[int], round_no: int) -> List[int]:
        specs = {index: _shard_spec(fn_blob, index, task_blobs[index],
                                    round_no, context, run_token)
                 for index in pending}
        return _pool_round(pool, specs, task_timeout_s, _SHARD_KEY, done,
                           failures, metrics_on, timers=False)

    failed = _run_rounds(run_round, len(tasks), retries, metrics_on)
    if failed:
        raise _failure(f"shard {failed[0]}", "shards", len(done),
                       len(tasks), retries + 1, failures[failed[0]])
    if metrics_on:
        METRICS.inc("parallel.shards", len(done))
        METRICS.gauge_max("parallel.workers", workers)
    return [done[index] for index in range(len(tasks))]


class ParallelRepeater:
    """Drop-in :class:`Repeater` that spreads repetitions over processes.

    ``retries`` / ``task_timeout_s`` / ``min_reps`` default from the
    activated :class:`repro.api.RunConfig`; with all unset and no fault
    plan active, in-process runs are the serial :class:`Repeater`.
    """

    def __init__(self, base_seed: int = 0, reps: int = 5,
                 jobs: Optional[int] = None,
                 retries: Optional[int] = None,
                 task_timeout_s: Optional[float] = None,
                 min_reps: Optional[int] = None):
        if reps < 1:
            raise ExperimentError(f"reps must be >= 1, got {reps}")
        self.base_seed = base_seed
        self.reps = reps
        self.jobs = resolve_jobs(jobs)
        self.retries, self.task_timeout_s, self.min_reps = \
            _resilience_settings(retries, task_timeout_s, min_reps)
        if self.min_reps is not None and self.min_reps > reps:
            raise ExperimentError(
                f"min_reps ({self.min_reps}) cannot exceed reps ({reps})")

    @property
    def _resilient(self) -> bool:
        """Whether a retry, timeout, ``min_reps`` or fault plan is in
        force — the serial :class:`Repeater` honours none of them."""
        return (self.retries > 0 or self.task_timeout_s is not None
                or self.min_reps is not None or FAULTS.enabled)

    def run(self, measure: MeasureFn) -> RepeatedResult:
        """Run every repetition; retried repetitions re-derive the
        **same** seed, so a recovered run's :class:`RepeatedResult` is
        byte-identical to a fault-free one."""
        workers = min(self.jobs, self.reps)
        resilient = self._resilient
        if (workers > 1 and not resilient
                and self.reps <= SERIAL_FALLBACK_REPS):
            # Adaptive fallback: too little work to amortise dispatch.
            if METRICS.enabled:
                METRICS.inc("parallel.fallback_serial")
            workers = 1
        fn_blob = _pickled(measure) if workers > 1 else None
        if fn_blob is None and not resilient:
            return Repeater(self.base_seed, self.reps).run(measure)
        seeds = [derive_rep_seed(self.base_seed, repetition)
                 for repetition in range(self.reps)]
        metrics_on = METRICS.enabled
        thash_on = TRACE_HASH.enabled
        hash_group = TRACE_HASH.begin_group() if thash_on else 0
        done: Dict[int, Dict[str, float]] = {}
        failures: Dict[int, str] = {}
        if fn_blob is None:
            def run_round(pending: List[int], round_no: int) -> List[int]:
                return self._serial_round(measure, seeds, pending, round_no,
                                          done, failures, metrics_on,
                                          hash_group)
        else:
            pool = get_pool(self.jobs)
            context = build_task_context()
            run_token = next_run_token()

            def run_round(pending: List[int], round_no: int) -> List[int]:
                specs = {repetition: _rep_spec(
                    fn_blob, repetition, seeds[repetition], round_no,
                    hash_group, context, run_token)
                    for repetition in pending}
                return _pool_round(pool, specs, self.task_timeout_s, "",
                                   done, failures, metrics_on)
        try:
            failed = _run_rounds(run_round, self.reps, self.retries,
                                 metrics_on)
        finally:
            if thash_on:
                TRACE_HASH.clear_context()
        if metrics_on:
            METRICS.inc("parallel.repetitions", len(done))
            if fn_blob is not None:
                METRICS.gauge_max("parallel.workers", workers)
        return self._fold(seeds, failed, done, failures, metrics_on)

    def _serial_round(self, measure, seeds, pending, round_no,
                      done, failures, metrics_on, hash_group=0):
        """In-process round (one worker, or unpicklable ``measure``).

        Runs in the parent: process-level sites (``worker.crash`` /
        ``worker.hang``) stay quiet and the parent metrics registry is
        never reset (the trace-hash recorder likewise accumulates
        in-parent, under the same ``g<group>/rep<n>`` context labels the
        worker path uses); ``task_timeout_s`` cannot interrupt
        in-process work and is ignored here.
        """
        still_pending: List[int] = []
        for repetition in pending:
            (_rep, _seed, metrics, error, _qw, wall, _snap,
             _thash) = _run_repetition(
                measure, repetition, seeds[repetition], 0.0, round_no,
                in_worker=False, snapshot_registry=False,
                hash_group=hash_group)
            if metrics_on:
                METRICS.observe("parallel.worker_wall_s", wall)
            if error is None:
                done[repetition] = metrics
            else:
                failures[repetition] = error
                still_pending.append(repetition)
        return still_pending

    def _fold(self, seeds, failed, done, failures, metrics_on
              ) -> RepeatedResult:
        """Collect successes; degrade via ``min_reps`` or fail fast."""
        dropped: List[Dict[str, Any]] = []
        if failed:
            if self.min_reps is None or len(done) < self.min_reps:
                first = failed[0]
                raise _failure(
                    f"repetition {first} (seed {seeds[first]})",
                    "repetitions", len(done), self.reps, self.retries + 1,
                    failures[first],
                    hint=f"; reproduce with measure({seeds[first]})")
            dropped = [
                {"repetition": r, "seed": seeds[r],
                 "error": failures[r].strip().splitlines()[-1]
                 if failures[r].strip() else "unknown",
                 "traceback": failures[r]}
                for r in failed
            ]
            RUNLOG.dropped.extend(dropped)
            if metrics_on:
                METRICS.inc("parallel.dropped", len(dropped))
        result = collect_repetitions(
            (repetition, seeds[repetition], done[repetition])
            for repetition in sorted(done)
        )
        result.dropped = dropped
        return result
