"""The BOINC-style project server and the fleet discrete-event loop.

One :class:`FleetServer` owns the whole simulation: a batch of work
units, a queue of needed replicas, and every volunteer host's sampled
availability trace.  The event loop is a plain ``heapq`` of
``(time, seq, kind, payload)`` tuples — the monotone ``seq`` makes
simultaneous events totally ordered, so a run is a pure function of its
:class:`~repro.fleet.config.FleetConfig` (bit-identical at any worker
count; hosts are built in parallel, the serve loop is serial).

Server mechanics modelled (the V-BOINC / BOINC server loop):

* **dispatch** — a host on-line and idle polls for work; the server
  issues the oldest work unit still needing a replica that this host
  has not already served (one result per host per work unit);
* **deadlines** — every replica carries a completion deadline scaled by
  the work unit's expected wall time; a missed deadline marks the
  replica timed out and re-queues the work unit with a stretched
  (backed-off) deadline;
* **quorum validation** — results carry a result key; the work unit
  validates when ``quorum`` distinct hosts agree
  (:mod:`repro.fleet.validation`); erroneous results are injected per
  host with the configured probability and can never match;
* **churn** — computation pauses across off-sessions (the VM image
  persists on the host disk) and is lost for good when the host departs
  permanently; late results are stale and discarded, as the real server
  discards them after reassignment.

Failure & recovery (active only when :data:`repro.faults.FAULTS` arms
the sites; see :mod:`repro.fleet.recovery` for the model):

* **server.outage** — dispatch halts inside drawn down-windows (hosts
  re-poll at the window's end) and finished results buffer host-side on
  the upload retry policy;
* **net.partition** — an individual upload attempt is lost; the host
  retries with exponential backoff until the retry budget is exhausted,
  after which the result is lost for good;
* **vm.crash** — the guest restores from its last checkpoint, so only
  ``progress − last_checkpoint`` active seconds are redone (the
  ``rolled_back`` waste bucket), not the whole unit;
* **degraded mode** — when the buffered-upload backlog exceeds
  ``degraded_threshold`` the server sheds replication to quorum-of-1
  (every such validation tallied as a validation risk), recovering when
  the backlog drains to zero.

One event loop runs every fleet.  It drives the events over
:class:`repro.fleet.columns.FleetColumns` flat arrays and parallel
lists — in the compiled kernel (``_cloop.c``) or its pure-Python twin
:meth:`FleetServer._fast_loop_python`, which leave the same canonical
flat state — and :meth:`FleetServer._fast_report` renders the report
from that state.  Fault-free or under a storm, metrics on or off, the
same code runs: an enabled :data:`repro.obs.metrics.METRICS` registry
gets its ``fleet.*`` instruments from the end state after the run.
Reports are byte-identical, and the metrics snapshot equal, to the
archived object-model server in ``tests/_reference_fleet.py`` at every
seed, config and fault plan (asserted by the equivalence tests).
"""

from __future__ import annotations

import bisect
import heapq
import math
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.faults import FAULTS
from repro.faults.plan import _draw as fault_draw
from repro.fleet.calibration import fleet_slowdown
from repro.fleet.columns import FleetColumns, build_fleet_columns
from repro.fleet.config import FleetConfig
from repro.fleet.cloop import report_folds as _c_report_folds
from repro.fleet.cloop import run_event_loop as _c_event_loop
from repro.fleet.fastrng import VecPcg
from repro.fleet.recovery import outage_windows, rollback_seconds
from repro.obs.metrics import METRICS

# event kinds (ints so heap tuples compare cheaply and deterministically)
_REQUEST = 0
_DEADLINE = 1
_COMPLETE = 2
_UPLOAD = 3

#: Cap on the host poll backoff when the server has no work to give.
_MAX_POLL_BACKOFF_S = 7200.0


@dataclass
class FleetReport:
    """Everything one fleet run produced (JSON round-trippable)."""

    config: Dict[str, Any]
    hosts: int
    workunits: int
    duration_s: float
    valid: int
    failed: int
    in_progress: int
    unsent: int
    replicas_issued: int
    results_ok: int
    results_erroneous: int
    results_stale: int
    timeouts: int
    redundant_results: int
    departures: int
    dropouts: int                           # injected host.dropout departures
    throughput_per_hour: float
    makespan_s: Dict[str, float]            # mean/p50/p90/p99
    cpu_s: Dict[str, float]                 # quorum/redundant/... split
    waste_fraction: float
    realized_availability: float
    per_hypervisor: Dict[str, Dict[str, float]]
    recovery: Dict[str, Any]                # outage/upload/rollback tallies

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": "repro-fleet-report/2",
            "config": dict(self.config),
            "hosts": self.hosts,
            "workunits": self.workunits,
            "duration_s": self.duration_s,
            "valid": self.valid,
            "failed": self.failed,
            "in_progress": self.in_progress,
            "unsent": self.unsent,
            "replicas_issued": self.replicas_issued,
            "results_ok": self.results_ok,
            "results_erroneous": self.results_erroneous,
            "results_stale": self.results_stale,
            "timeouts": self.timeouts,
            "redundant_results": self.redundant_results,
            "departures": self.departures,
            "dropouts": self.dropouts,
            "throughput_per_hour": self.throughput_per_hour,
            "makespan_s": dict(self.makespan_s),
            "cpu_s": dict(self.cpu_s),
            "waste_fraction": self.waste_fraction,
            "realized_availability": self.realized_availability,
            "per_hypervisor": {name: dict(stats) for name, stats
                               in self.per_hypervisor.items()},
            "recovery": dict(self.recovery),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FleetReport":
        fields = {name: payload[name] for name in (
            "config", "hosts", "workunits", "duration_s", "valid", "failed",
            "in_progress", "unsent", "replicas_issued", "results_ok",
            "results_erroneous", "results_stale", "timeouts",
            "redundant_results", "departures", "dropouts",
            "throughput_per_hour", "makespan_s", "cpu_s", "waste_fraction",
            "realized_availability", "per_hypervisor", "recovery")}
        return cls(**fields)

    def summary(self) -> str:
        cpu = self.cpu_s
        lines = [
            f"fleet of {self.hosts} hosts "
            f"({self.config.get('hypervisor', '?')}) over "
            f"{self.duration_s / 3600:.0f} simulated hours",
            f"  work units  : {self.valid}/{self.workunits} validated"
            f" ({self.in_progress} in progress, {self.unsent} unsent,"
            f" {self.failed} abandoned)",
            f"  throughput  : {self.throughput_per_hour:.1f} validated"
            f" work units/hour",
            f"  makespan    : p50={self.makespan_s['p50'] / 3600:.2f}h"
            f"  p90={self.makespan_s['p90'] / 3600:.2f}h"
            f"  p99={self.makespan_s['p99'] / 3600:.2f}h",
            f"  results     : {self.results_ok} ok,"
            f" {self.results_erroneous} erroneous,"
            f" {self.results_stale} stale,"
            f" {self.timeouts} deadline timeouts,"
            f" {self.redundant_results} redundant",
            f"  cpu         : {cpu['quorum'] / 3600:.1f} core-h quorum,"
            f" {cpu['wasted'] / 3600:.1f} wasted"
            f" ({self.waste_fraction * 100:.1f}%),"
            f" {cpu['in_flight'] / 3600:.1f} in flight",
            f"  churn       : {self.departures} permanent departures,"
            f" realized availability"
            f" {self.realized_availability * 100:.1f}%",
        ]
        rec = self.recovery
        if any(rec.get(k) for k in ("outages", "uploads_retried",
                                    "uploads_lost", "vm_crashes",
                                    "degraded_windows")):
            lines.append(
                f"  recovery    : {rec['outages']} outages"
                f" ({rec['outage_s'] / 3600:.1f}h down),"
                f" {rec['uploads_retried']} uploads retried"
                f" / {rec['uploads_lost']} lost,"
                f" {rec['vm_crashes']} vm crashes"
                f" ({rec['rolled_back_s'] / 3600:.1f} core-h rolled back),"
                f" {rec['degraded_windows']} degraded windows"
                f" ({rec['degraded_validated']} quorum-of-1)"
            )
        for name, stats in sorted(self.per_hypervisor.items()):
            lines.append(
                f"    {name:<11} hosts={stats['hosts']:<5.0f}"
                f" ok={stats['results_ok']:<6.0f}"
                f" waste={stats['waste_fraction'] * 100:5.1f}%"
                f" slowdown={stats['slowdown']:.3f}x"
            )
        return "\n".join(lines)


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted list (0 if empty).

    The rank rounds half *up* (``floor(q·(n−1) + 0.5)``), never
    half-to-even: ``round`` would pick the lower middle sample for two
    makespans but the upper one for four, so the reported p50 would
    jump around with the sample count's parity.
    """
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      math.floor(q * (len(sorted_values) - 1) + 0.5)))
    return sorted_values[rank]


def _csr_finish(fs: List[float], fe: List[float], j: int, hi: int,
                now: float, needed: float) -> Optional[float]:
    """:func:`~repro.fleet.churn.finish_time` over one host's CSR slice
    ``[j, hi)`` (``j`` = the session cursor at ``now``); ``None`` when
    the trace runs out first."""
    remaining = needed
    for k in range(j, hi):
        s = fs[k]
        e = fe[k]
        lo = s if s > now else now
        if lo >= e:
            continue
        span = e - lo
        if span >= remaining:
            return lo + remaining
        remaining -= span
    return None


class _FastPrep:
    """Read-only inputs of the columnar fast loop.

    One instance is shared by the compiled event kernel
    (:mod:`repro.fleet.cloop` / ``_cloop.c``) and the pure-Python
    fallback loop, so both paths start from literally the same floats.
    ``delays`` is the poll-backoff table ``min(poll·2^(f−1), cap)``
    pre-tabulated until it saturates; doubling is an exact float
    operation, so the table entries equal the inline expression.

    ``faults`` is true when a fleet recovery site can fire (an outage
    window was drawn, or ``vm.crash``/``net.partition`` is armed); only
    then do the loops run the recovery state machine, fed by the outage
    window arrays, the two site probabilities, the fault seed and the
    recovery policy knobs.
    """

    __slots__ = ("n", "nwu", "horizon", "quorum", "max_replicas",
                 "err_rate", "fs", "fe", "soff", "departure", "an",
                 "base", "stretch", "delays", "serve_seed", "hv_code",
                 "ncodes", "faults", "fault_seed", "p_crash", "p_part",
                 "o_start", "o_end", "interval", "upload_retries",
                 "backoff", "degraded_threshold")


def _report_folds(prep: _FastPrep, state: Dict[str, Any]) -> Dict[str, Any]:
    """The report's order-sensitive folds over the canonical flat state.

    Every float accumulation whose order the report fixes lives here,
    as a Python left fold in the object model's walk order (the
    reference server in ``tests/_reference_fleet.py``):

    * the ok returns, wid-major with delivery order kept within a wid
      (the ``for wu: for wu.ok_returns`` walk), split by the
      work unit's validator state into quorum / redundant / pending;
    * the replicas still incomplete at the horizon, in rid order, into
      lost / rolled-back / in-flight seconds (a bisect into the host's
      CSR trace finds the session the replica started in);
    * the per-hypervisor quorum and waste sums, per code in host order
      (the ``+= 0.0`` terms for untouched hosts are float identities).

    ``state`` is left untouched.  ``cloop.report_folds`` (``fleet_report``
    in ``_cloop.c``) is its C transliteration and must return the same
    dict bit for bit: scalars ``quorum``, ``redundant``, ``pending``,
    ``lost``, ``rolled_back``, ``in_flight``, and float64 arrays
    ``waste``/``quorum_by_host`` (per host) and ``qc_sum``/``w_sum``
    (per hypervisor code).
    """
    n = prep.n
    quorum = prep.quorum
    horizon = prep.horizon
    st = state["wu_state"].tobytes()
    nhold = state["nhold"].tolist()
    hold_flat = state["hold_flat"].tolist()
    waste = state["waste"].tolist()

    ret_wid = state["ret_wid"]
    order = np.argsort(ret_wid, kind="stable")
    rw = ret_wid[order].tolist()
    rh = state["ret_host"][order].tolist()
    rc = state["ret_cpu"][order].tolist()
    quorum_cpu = 0.0
    redundant_cpu = state["red_cpu"]
    pending_cpu = 0.0
    quorum_cpu_by_host = [0.0] * n
    prev_wid = -1
    validated = False
    qset: set = set()
    for wid, h, cpu in zip(rw, rh, rc):
        if wid != prev_wid:
            prev_wid = wid
            code = st[wid]
            validated = code & 1
            b = wid * quorum
            if code == 1:
                qset = set(hold_flat[b:b + nhold[wid]])
            elif code == 5:
                # degraded quorum-of-1: the lone accepted result (the
                # last holder) is the load-bearing one
                qset = {hold_flat[b + nhold[wid] - 1]}
            else:
                # bad-locked: the validator's quorum is the bad key, so
                # no ok return is load-bearing
                qset = set()
        if validated:
            if h in qset:
                quorum_cpu += cpu
                quorum_cpu_by_host[h] += cpu
            else:
                redundant_cpu += cpu
                waste[h] += cpu
        else:
            pending_cpu += cpu

    lost_cpu = state["lost_upload_cpu"]
    rolled_back = state["rolled_back_cpu"]
    in_flight_cpu = 0.0
    r_flag = state["r_flag"]
    incomplete = np.flatnonzero((r_flag & 2) == 0)
    if incomplete.size:
        fs = prep.fs.tolist()
        fe = prep.fe.tolist()
        off = prep.soff.tolist()
        departure = prep.departure.tolist()
        hosts_sub = state["r_host"][incomplete].tolist()
        disp_sub = state["r_disp"][incomplete].tolist()
        flag_sub = r_flag[incomplete].tolist()
        if prep.faults:
            cpu_sub = state["r_cpu"][incomplete].tolist()
            rb_sub = state["r_rb"][incomplete].tolist()
        else:
            cpu_sub = rb_sub = [0.0] * incomplete.size
        for h, start, fl, cpu, rb in zip(hosts_sub, disp_sub, flag_sub,
                                         cpu_sub, rb_sub):
            if fl & 4:
                # computed, upload still buffered at the horizon: the
                # result never lands, so its useful seconds are lost
                useful = cpu - rb
                lost_cpu += useful
                waste[h] += useful
                continue
            spent = 0.0
            if horizon > start:
                lo_i = off[h]
                hi_i = off[h + 1]
                j = bisect.bisect_right(fs, start, lo_i, hi_i) - 1
                if j < lo_i:
                    j = lo_i
                while j < hi_i:
                    s = fs[j]
                    if s >= horizon:
                        break
                    e = fe[j]
                    lo = s if s > start else start
                    hi2 = e if e < horizon else horizon
                    if hi2 > lo:
                        spent += hi2 - lo
                    j += 1
            if rb:
                # the crash landed in-trace (traces end at the horizon),
                # so its redone seconds are rollback waste
                rolled_back += rb
                waste[h] += rb
                spent -= rb
            if departure[h] <= horizon:
                lost_cpu += spent
                waste[h] += spent
            else:
                in_flight_cpu += spent

    qc_sum = [0.0] * prep.ncodes
    w_sum = [0.0] * prep.ncodes
    for code, qv, wv in zip(prep.hv_code.tolist(), quorum_cpu_by_host,
                            waste):
        qc_sum[code] += qv
        w_sum[code] += wv
    return {
        "quorum": quorum_cpu,
        "redundant": redundant_cpu,
        "pending": pending_cpu,
        "lost": lost_cpu,
        "rolled_back": rolled_back,
        "in_flight": in_flight_cpu,
        "waste": np.array(waste, dtype=np.float64),
        "quorum_by_host": np.array(quorum_cpu_by_host, dtype=np.float64),
        "qc_sum": np.array(qc_sum, dtype=np.float64),
        "w_sum": np.array(w_sum, dtype=np.float64),
    }


class FleetServer:
    """One project server driving a fleet of sampled volunteer hosts."""

    def __init__(self, config: FleetConfig, columns: FleetColumns,
                 dropouts: int = 0):
        if not isinstance(columns, FleetColumns):
            raise TypeError(
                "FleetServer takes the fleet as FleetColumns (build it "
                "with repro.fleet.build_fleet_columns), got "
                f"{type(columns).__name__}")
        self.config = config
        self.columns = columns
        self.dropouts = dropouts
        self.policy = config.recovery_policy()
        # server.outage schedule: drawn once, from the fault stream only
        self._outages: List[Tuple[float, float]] = (
            outage_windows(config.duration_s, self.policy.outage_scale_s)
            if FAULTS.enabled else [])
        self._outage_starts = [start for start, _ in self._outages]

    def _outage_at(self, time_s: float) -> Optional[Tuple[float, float]]:
        """The ``[start, end)`` outage window covering ``time_s``, if any.

        Windows are sorted and disjoint, so a bisect over the start
        times replaces the old linear scan — under a long storm this
        runs on every request/upload event of a multi-million-event run.
        """
        index = bisect.bisect_right(self._outage_starts, time_s) - 1
        if index >= 0:
            window = self._outages[index]
            if time_s < window[1]:
                return window
        return None

    # -- the run ---------------------------------------------------------

    def run(self) -> FleetReport:
        """Run the fleet (fault-free or under a storm) and report.

        Builds the shared read-only prep, runs the event loop — the
        compiled C kernel when available, the pure-Python fallback
        otherwise; both produce the identical canonical flat state —
        tallies the run's ``vm.crash``/``net.partition`` injections in
        bulk and renders one report from that state.  An enabled
        metrics registry changes nothing here: the ``fleet.*``
        instruments are derived from the same end state afterwards.
        """
        prep = self._fast_prep()
        state = _c_event_loop(prep)
        if state is None:
            state = self._fast_loop_python(prep)
        if prep.faults:
            FAULTS.record("vm.crash", state["vm_crashes"])
            FAULTS.record("net.partition", state["part_n"])
        report = self._fast_report(prep, state)
        if METRICS.enabled:
            _record_metrics(report, state)
        return report


    def _fast_prep(self) -> _FastPrep:
        cfg = self.config
        cols = self.columns
        prep = _FastPrep()
        prep.n = len(cols)
        prep.nwu = cfg.resolved_workunits()
        prep.horizon = cfg.duration_s
        prep.quorum = cfg.quorum
        prep.max_replicas = cfg.max_replicas
        prep.err_rate = cfg.error_rate
        prep.fs = cols.s_starts
        prep.fe = cols.s_ends
        prep.soff = cols.s_off
        prep.departure = cols.departure_s
        an = cfg.wu_flops / cols.rate_flops_per_s
        interval = cfg.checkpoint_interval_s
        if interval > 0:
            ck = cols.checkpoint_cost_s
            an = np.where(ck > 0.0, an * (1.0 + ck / interval), an)
        prep.an = an
        prep.hv_code = cols.hv_code
        prep.ncodes = len(cols.hv_names)
        # deadline base per profile: deadline = now + base * stretch^t,
        # identical float order to _deadline_for
        base_by_code = [
            cfg.deadline_factor
            * ((cfg.wu_flops / (cfg.host_gflops_median * 1e9
                                / fleet_slowdown(name)))
               / cfg.availability_mean)
            for name in cols.hv_names]
        prep.base = np.array(base_by_code, dtype=np.float64)[
            cols.hv_code.astype(np.int64)]
        prep.stretch = np.array(
            [cfg.backoff_factor ** k for k in range(9)], dtype=np.float64)
        delays = [cfg.poll_interval_s]
        while delays[-1] < _MAX_POLL_BACKOFF_S and len(delays) < 4096:
            delays.append(min(delays[-1] * 2.0, _MAX_POLL_BACKOFF_S))
        prep.delays = np.array(delays, dtype=np.float64)
        prep.serve_seed = cols.serve_seed
        # the fault storm, read at run time
        plan = FAULTS.plan if FAULTS.enabled else None
        arms = plan.arms if plan is not None else {}
        prep.fault_seed = plan.seed if plan is not None else 0
        prep.p_crash = arms.get("vm.crash", 0.0)
        prep.p_part = arms.get("net.partition", 0.0)
        prep.o_start = np.array([s for s, _ in self._outages],
                                dtype=np.float64)
        prep.o_end = np.array([e for _, e in self._outages],
                              dtype=np.float64)
        prep.faults = bool(self._outages) or prep.p_crash > 0.0 \
            or prep.p_part > 0.0
        prep.interval = interval
        prep.upload_retries = self.policy.upload_retries
        prep.backoff = self.policy.upload_backoff_s
        prep.degraded_threshold = self.policy.degraded_threshold
        return prep

    def _fast_loop_python(self, prep: _FastPrep) -> Dict[str, Any]:
        """The fleet event loop over flat columns, in pure Python.

        Same events, same order, same floats as the object-model
        reference server — the differences are representational
        (parallel lists instead of replica and work-unit records,
        pre-drawn error uniforms, a monotone
        per-host cursor into the CSR trace) plus three provably
        unobservable event elisions:

        * a completion at ``t`` re-dispatches inline when no other event
          is scheduled at ``t`` — the pushed re-poll would pop next
          anyway (any tied event carries a smaller sequence number, and
          an upload retry is always scheduled strictly later);
        * without a storm, a replica whose completion lands at or before
          its deadline never pushes the deadline event (delivery is
          immediate, so the completed flag makes the deadline handler a
          no-op).  Under a storm an upload can outlive the deadline, so
          every in-horizon deadline is pushed;
        * events past the horizon are never pushed — the loop stops at
          the first popped time past the horizon, processing none of
          them, and relative order among surviving events is preserved.

        Under a storm (``prep.faults``) the loop runs the
        recovery state machine: requests inside an outage window
        re-poll at its end; ``vm.crash`` draws at dispatch and, when the
        crash lands in-trace, adds the rolled-back seconds to the
        replica's compute; completion counts the rollback and attempts
        the upload, which an outage or a ``net.partition`` draw turns
        into an ``_UPLOAD`` retry on exponential backoff (or a lost
        result once the budget is spent); the retry backlog drives the
        degraded quorum-of-1 hysteresis.

        Replica flag bits: 1 = timed out, 2 = completed (delivered or
        lost), 4 = compute done (storms only; the upload may still be
        pending).  Work-unit validator state: 0 = open, 1 = validated
        by quorum, 2 = locked by a quorum-of-1 erroneous result (the
        validator accepted a bad key, so later matching results can
        never validate the unit), 5 = open then validated by a degraded
        quorum-of-1 (the last holder is the lone result), 3 = locked
        then validated by a degraded quorum-of-1.  Bit 0 is "validated".
        ``need_peak`` is the need queue's longest length right after a
        dispatch (the ``fleet.need_queue_peak`` gauge).

        ``repro/fleet/_cloop.c`` is a transliteration of this loop;
        both return the canonical flat state that
        :meth:`_fast_report` renders.
        """
        cfg = self.config
        horizon = prep.horizon
        n = prep.n
        quorum = prep.quorum
        max_replicas = prep.max_replicas
        poll_interval = cfg.poll_interval_s
        nwu = prep.nwu

        # per-host columns as plain python lists (fastest scalar indexing)
        departure = prep.departure.tolist()
        fs = prep.fs.tolist()
        fe = prep.fe.tolist()
        off = prep.soff.tolist()
        an = prep.an.tolist()
        base = prep.base.tolist()
        stretch = prep.stretch.tolist()

        # work-unit state, flat
        wu_validated: List[Optional[float]] = [None] * nwu
        wu_issued = [0] * nwu
        wu_out = [0] * nwu
        wu_tmo = [0] * nwu
        wu_state = bytearray(nwu)
        wu_holders: List[Optional[list]] = [None] * nwu
        ret_wid: List[int] = []
        ret_host: List[int] = []
        ret_cpu: List[float] = []
        wu_hosts: List[Optional[list]] = [None] * nwu
        need = deque(wid for wid in range(nwu) for _ in range(quorum))
        need_peak = 0

        # replica state, flat
        r_pack: List[Tuple[int, int, float]] = []  # (wu_id, host, deadline)
        r_disp: List[float] = []
        r_flag = bytearray()

        # serve-stream error uniforms, drawn one vectorised round at a
        # time: draws[r][h] is the object path's (r+1)-th uniform("error")
        # on host h's serve fork
        serve_vec = VecPcg.seeded(prep.serve_seed, "error")
        err_rate = prep.err_rate
        draws: List[array] = []
        ucur = [0] * n
        cur = off[:n]               # per-host session cursor (monotone)
        poll_fail = [0] * n

        # fault storm: outage windows, site probabilities, policy, and
        # per-replica compute / rolled-back seconds / upload attempts
        faults = prep.faults
        outage_at = self._outage_at
        fault_seed = prep.fault_seed
        p_crash = prep.p_crash
        p_part = prep.p_part
        interval = prep.interval
        upload_retries = prep.upload_retries
        backoff = prep.backoff
        threshold = prep.degraded_threshold
        r_cpu: List[float] = []
        r_rb: List[float] = []
        r_att: List[int] = []
        uploads_retried = uploads_lost = vm_crashes = part_n = 0
        degraded_validated = 0
        rolled_back_cpu = lost_upload_cpu = 0.0
        backlog = 0
        degraded = False
        deg_since = 0.0
        deg_n = 0
        deg_s = 0.0

        heap: List[Tuple[float, int, int, int]] = []
        seq = 0
        for h in range(n):
            if off[h + 1] > off[h]:
                heap.append((fs[off[h]], seq, _REQUEST, h))
                seq += 1
        heapq.heapify(heap)
        push = heapq.heappush
        pop = heapq.heappop

        n_valid = 0
        ok_n = err_n = stale_n = tmo_n = red_n = 0
        err_cpu = stale_cpu = red_cpu = 0.0
        waste = [0.0] * n

        def reissue(wid: int) -> None:
            """Queue another replica when the quorum is no longer
            reachable from matching results plus outstanding replicas."""
            if wu_validated[wid] is not None:
                return
            hl = wu_holders[wid]
            if ((0 if hl is None else len(hl)) + wu_out[wid] < quorum
                    and wu_issued[wid] < max_replicas):
                need.append(wid)

        def validate(wid: int, now: float) -> None:
            nonlocal n_valid
            wu_validated[wid] = now
            n_valid += 1

        def dispatch(h: int, now: float) -> None:
            nonlocal seq, vm_crashes, need_peak
            window = outage_at(now) if faults else None
            if window is not None:
                # scheduler down: the host re-polls when the window ends
                # (poll-failure backoff untouched)
                end = window[1]
                limit = departure[h]
                if horizon < limit:
                    limit = horizon
                if end < limit:
                    push(heap, (end, seq, _REQUEST, h))
                    seq += 1
                return
            wid = -1
            stash = None
            while need:
                w = need.popleft()
                if wu_validated[w] is not None \
                        or wu_issued[w] >= max_replicas:
                    continue  # entry is stale; drop it
                hl = wu_hosts[w]
                if hl is not None and h in hl:
                    if stash is None:
                        stash = [w]
                    else:
                        stash.append(w)
                    continue
                wid = w
                break
            if stash is not None:
                need.extendleft(reversed(stash))
            if wid < 0:
                if n_valid >= nwu:
                    return  # everything validated; the host retires
                f = poll_fail[h] + 1
                poll_fail[h] = f
                delay = poll_interval * (2.0 ** (f - 1))
                if delay > _MAX_POLL_BACKOFF_S:
                    delay = _MAX_POLL_BACKOFF_S
                next_poll = now + delay
                limit = departure[h]
                if horizon < limit:
                    limit = horizon
                if next_poll < limit:
                    push(heap, (next_poll, seq, _REQUEST, h))
                    seq += 1
                return
            poll_fail[h] = 0
            if len(need) > need_peak:
                need_peak = len(need)
            rid = len(r_disp)
            t = wu_tmo[wid]
            deadline = now + base[h] * stretch[t if t < 8 else 8]
            hi = off[h + 1]
            c = cur[h]
            while c + 1 < hi and fs[c + 1] <= now:
                c += 1
            cur[h] = c
            needed = an[h]
            if faults:
                rolled = 0.0
                if p_crash > 0.0 \
                        and fault_draw(fault_seed, "vm.crash", rid, 0) < p_crash:
                    # crash point as a fraction of this replica's
                    # compute; the guest redoes progress − last
                    # checkpoint, and only a crash the trace reaches counts
                    progress = fault_draw(fault_seed, "vm.crash", rid, 0,
                                          "at") * needed
                    if _csr_finish(fs, fe, c, hi, now, progress) is not None:
                        rolled = rollback_seconds(progress, interval)
                        needed += rolled
                        vm_crashes += 1
                r_cpu.append(needed)
                r_rb.append(rolled)
                r_att.append(0)
            fin = _csr_finish(fs, fe, c, hi, now, needed)
            r_pack.append((wid, h, deadline))
            r_disp.append(now)
            r_flag.append(0)
            wu_issued[wid] += 1
            wu_out[wid] += 1
            hl = wu_hosts[wid]
            if hl is None:
                wu_hosts[wid] = [h]
            else:
                hl.append(h)
            if fin is not None and fin <= horizon:
                push(heap, (fin, seq, _COMPLETE, rid))
                seq += 1
                if deadline < fin or (faults and deadline <= horizon):
                    push(heap, (deadline, seq, _DEADLINE, rid))
                    seq += 1
            elif deadline <= horizon:
                push(heap, (deadline, seq, _DEADLINE, rid))
                seq += 1

        def deliver(rid: int, now: float) -> None:
            nonlocal ok_n, err_n, stale_n, red_n, err_cpu, stale_cpu, \
                red_cpu, degraded_validated
            wid, h, deadline = r_pack[rid]
            fl = r_flag[rid]
            r_flag[rid] = fl | 2
            # rolled-back seconds are already their own waste bucket
            useful = r_cpu[rid] - r_rb[rid] if faults else an[h]
            if fl & 1 or now > deadline:
                # past deadline: the server already reassigned; discard
                stale_n += 1
                stale_cpu += useful
                waste[h] += useful
                if not fl & 1:
                    wu_out[wid] -= 1
                    r_flag[rid] = fl | 3
                reissue(wid)
                return
            wu_out[wid] -= 1
            if wu_validated[wid] is not None:
                red_n += 1
                red_cpu += useful
                waste[h] += useful
                return
            u = ucur[h]
            ucur[h] = u + 1
            while u >= len(draws):
                round_draws = array("d")
                round_draws.frombytes(serve_vec.doubles().tobytes())
                draws.append(round_draws)
            if draws[u][h] < err_rate:
                err_n += 1
                err_cpu += useful
                waste[h] += useful
                if quorum == 1 and wu_state[wid] == 0:
                    wu_state[wid] = 2
                reissue(wid)
                return
            ok_n += 1
            ret_wid.append(wid)
            ret_host.append(h)
            ret_cpu.append(useful)
            if wu_state[wid] == 0:
                hl = wu_holders[wid]
                if hl is None:
                    hl = wu_holders[wid] = [h]
                else:
                    hl.append(h)
                if len(hl) >= quorum:
                    wu_state[wid] = 1
                    validate(wid, now)
                    return
                lone = 5
            else:
                lone = 3  # bad-locked: the match can never validate
            if degraded:
                # degraded mode: the server accepts this lone result as
                # quorum-of-1 — a validation risk, counted as such
                wu_state[wid] = lone
                validate(wid, now)
                degraded_validated += 1
            else:
                reissue(wid)

        def update_degraded(now: float) -> None:
            """Degraded-mode hysteresis on the buffered-upload backlog."""
            nonlocal degraded, deg_since, deg_n, deg_s
            if threshold <= 0:
                return
            if not degraded and backlog > threshold:
                degraded = True
                deg_since = now
            elif degraded and backlog == 0:
                degraded = False
                deg_n += 1
                deg_s += now - deg_since

        def drop_upload(rid: int) -> None:
            """Retry budget exhausted: the computed result is lost."""
            nonlocal uploads_lost, lost_upload_cpu
            wid, h, _deadline = r_pack[rid]
            fl = r_flag[rid]
            r_flag[rid] = fl | 2
            uploads_lost += 1
            useful = r_cpu[rid] - r_rb[rid]
            lost_upload_cpu += useful
            waste[h] += useful
            if not fl & 1:
                wu_out[wid] -= 1
                r_flag[rid] = fl | 3
            reissue(wid)

        def attempt_upload(rid: int, now: float) -> None:
            """Deliver a finished result, or buffer it for a retry when
            an outage or a ``net.partition`` draw blocks this attempt."""
            nonlocal seq, backlog, uploads_retried, part_n
            window = outage_at(now)
            if window is not None:
                earliest = window[1]
            elif not (p_part > 0.0 and fault_draw(
                    fault_seed, "net.partition", rid, r_att[rid]) < p_part):
                deliver(rid, now)
                return
            else:
                part_n += 1
                earliest = now
            attempt = r_att[rid]
            r_att[rid] = attempt + 1
            if attempt >= upload_retries:
                drop_upload(rid)
                return
            uploads_retried += 1
            retry_at = now + backoff * (2.0 ** attempt)
            if earliest > retry_at:
                retry_at = earliest
            backlog += 1
            update_degraded(now)
            if retry_at <= horizon:
                push(heap, (retry_at, seq, _UPLOAD, rid))
                seq += 1

        while heap:
            time_s, _s, kind, payload = pop(heap)
            if time_s > horizon:
                break
            if kind == _COMPLETE:
                rid = payload
                h = r_pack[rid][1]
                redispatch = n_valid < nwu
                if redispatch and heap and heap[0][0] == time_s:
                    # a tied event must process first: fall back to the
                    # pushed re-poll (delivery pushes no events at this
                    # time, so relative order matches the object model)
                    push(heap, (time_s, seq, _REQUEST, h))
                    seq += 1
                    redispatch = False
                if faults:
                    r_flag[rid] |= 4
                    rolled = r_rb[rid]
                    if rolled:
                        rolled_back_cpu += rolled
                        waste[h] += rolled
                    attempt_upload(rid, time_s)
                else:
                    deliver(rid, time_s)
                if redispatch:
                    dispatch(h, time_s)
            elif kind == _REQUEST:
                dispatch(payload, time_s)
            elif kind == _UPLOAD:
                backlog -= 1
                attempt_upload(payload, time_s)
                update_degraded(time_s)
            else:
                rid = payload
                if not r_flag[rid] & 3:
                    r_flag[rid] |= 1
                    wid = r_pack[rid][0]
                    wu_out[wid] -= 1
                    if wu_validated[wid] is None:
                        wu_tmo[wid] += 1
                        tmo_n += 1
                        reissue(wid)

        hold_flat = np.full(nwu * quorum, -1, dtype=np.int32)
        nhold = np.zeros(nwu, dtype=np.uint8)
        for wid, hl in enumerate(wu_holders):
            if hl:
                hold_flat[wid * quorum:wid * quorum + len(hl)] = hl
                nhold[wid] = len(hl)
        return {
            "n_valid": n_valid,
            "n_rep": len(r_disp),
            "ok_n": ok_n,
            "err_n": err_n,
            "stale_n": stale_n,
            "tmo_n": tmo_n,
            "red_n": red_n,
            "err_cpu": err_cpu,
            "stale_cpu": stale_cpu,
            "red_cpu": red_cpu,
            "wu_state": np.frombuffer(bytes(wu_state), dtype=np.uint8),
            "wu_validated": np.fromiter(
                (0.0 if v is None else v for v in wu_validated),
                dtype=np.float64, count=nwu),
            "wu_issued": np.array(wu_issued, dtype=np.int32),
            "wu_out": np.array(wu_out, dtype=np.int32),
            "hold_flat": hold_flat,
            "nhold": nhold,
            "ret_wid": np.array(ret_wid, dtype=np.int32),
            "ret_host": np.array(ret_host, dtype=np.int32),
            "ret_cpu": np.array(ret_cpu, dtype=np.float64),
            "r_host": np.fromiter((p[1] for p in r_pack), dtype=np.int32,
                                  count=len(r_pack)),
            "r_disp": np.array(r_disp, dtype=np.float64),
            "r_flag": np.frombuffer(bytes(r_flag), dtype=np.uint8),
            "r_cpu": np.array(r_cpu, dtype=np.float64),
            "r_rb": np.array(r_rb, dtype=np.float64),
            "r_att": np.array(r_att, dtype=np.int32),
            "waste": np.array(waste, dtype=np.float64),
            "uploads_retried": uploads_retried,
            "uploads_lost": uploads_lost,
            "vm_crashes": vm_crashes,
            "part_n": part_n,
            "degraded_validated": degraded_validated,
            "rolled_back_cpu": rolled_back_cpu,
            "lost_upload_cpu": lost_upload_cpu,
            "backlog": backlog,
            "degraded": int(degraded),
            "deg_since": deg_since,
            "deg_n": deg_n,
            "deg_s": deg_s,
            "need_peak": need_peak,
        }

    def _fast_report(self, prep: _FastPrep,
                     state: Dict[str, Any]) -> FleetReport:
        """The run's report from the canonical flat state — field for
        field, float operation for float operation, what the object
        model's report computes.

        The order-sensitive float folds (the wid-major walk over ok
        returns, the rid-order walk over incomplete replicas, the
        host-order per-hypervisor buckets) come from one fold pass:
        ``fleet_report`` in the compiled kernel when it is loaded, its
        Python spec :func:`_report_folds` otherwise — bit-identical.
        What stays here is order-free: numpy gathers, sorts and integer
        counts, plus the scalar arithmetic and builtin ``sum()`` calls
        the object model's report makes over the fold results.
        """
        cfg = self.config
        cols = self.columns
        horizon = prep.horizon
        n = prep.n
        nwu = prep.nwu
        n_valid = state["n_valid"]
        n_rep = state["n_rep"]
        ok_n = state["ok_n"]
        err_n = state["err_n"]
        stale_n = state["stale_n"]
        tmo_n = state["tmo_n"]
        red_n = state["red_n"]
        err_cpu = state["err_cpu"]
        stale_cpu = state["stale_cpu"]
        red_cpu = state["red_cpu"]
        wu_state = state["wu_state"]

        folds = _c_report_folds(prep, state)
        if folds is None:
            folds = _report_folds(prep, state)
        quorum_cpu = folds["quorum"]
        redundant_cpu = folds["redundant"]
        pending_cpu = folds["pending"]
        lost_cpu = folds["lost"]
        rolled_back = folds["rolled_back"]
        in_flight_cpu = folds["in_flight"]
        waste = folds["waste"]

        wasted = (err_cpu + stale_cpu + redundant_cpu + lost_cpu
                  + rolled_back)
        total_cpu = quorum_cpu + wasted + pending_cpu + in_flight_cpu
        waste_fraction = wasted / total_cpu if total_cpu else 0.0

        wu_issued = state["wu_issued"]
        wu_out = state["wu_out"]
        not_valid = (wu_state & 1) == 0
        unsent = int(np.count_nonzero(not_valid & (wu_issued == 0)))
        started = not_valid & (wu_issued > 0)
        failed = int(np.count_nonzero(
            started & (wu_out == 0) & (wu_issued >= cfg.max_replicas)))
        in_progress = int(np.count_nonzero(started)) - failed
        makespans = np.sort(
            state["wu_validated"][np.logical_not(not_valid)]).tolist()
        makespan = {
            "mean": (sum(makespans) / len(makespans)) if makespans else 0.0,
            "p50": _percentile(makespans, 0.50),
            "p90": _percentile(makespans, 0.90),
            "p99": _percentile(makespans, 0.99),
        }
        departures = int(np.count_nonzero(cols.departure_s <= horizon))
        session_time = sum((cols.s_ends - cols.s_starts).tolist())
        realized_availability = session_time / (horizon * n)

        # per-hypervisor buckets.  hosts/results_ok are exact integer
        # accumulations (any order gives the same float), so numpy
        # counts them; the two cpu columns come from the folds.
        ncodes = prep.ncodes
        qc_sum = folds["qc_sum"].tolist()
        w_sum = folds["w_sum"].tolist()
        host_count = np.bincount(prep.hv_code, minlength=ncodes)
        ok_by_host = np.bincount(state["ret_host"], minlength=n)
        ok_count = np.bincount(prep.hv_code, weights=ok_by_host.astype(
            np.float64), minlength=ncodes)
        codes, first_at = np.unique(prep.hv_code, return_index=True)
        per_hv: Dict[str, Dict[str, float]] = {}
        # insertion order = first-appearance order, as the host walk
        for code in codes[np.argsort(first_at)].tolist():
            name = cols.hv_names[code]
            denom = qc_sum[code] + w_sum[code]
            per_hv[name] = {
                "hosts": float(host_count[code]),
                "results_ok": float(ok_count[code]),
                "quorum_cpu_s": qc_sum[code],
                "wasted_cpu_s": w_sum[code],
                "waste_fraction": w_sum[code] / denom if denom else 0.0,
                "slowdown": fleet_slowdown(name),
            }

        # degraded windows: the closed ones, plus one still open at the
        # horizon; Python's sum() of no windows is the integer 0
        degraded_windows = state["deg_n"]
        degraded_s = state["deg_s"]
        if state["degraded"]:
            degraded_windows += 1
            degraded_s += horizon - state["deg_since"]

        return FleetReport(
            config=cfg.to_dict(),
            hosts=n,
            workunits=nwu,
            duration_s=horizon,
            valid=n_valid,
            failed=failed,
            in_progress=in_progress,
            unsent=unsent,
            replicas_issued=n_rep,
            results_ok=ok_n,
            results_erroneous=err_n,
            results_stale=stale_n,
            timeouts=tmo_n,
            redundant_results=red_n,
            departures=departures,
            dropouts=self.dropouts,
            throughput_per_hour=n_valid / (horizon / 3600.0),
            makespan_s=makespan,
            cpu_s={
                "quorum": quorum_cpu,
                "redundant": redundant_cpu,
                "erroneous": err_cpu,
                "stale": stale_cpu,
                "lost": lost_cpu,
                "rolled_back": rolled_back,
                "pending": pending_cpu,
                "in_flight": in_flight_cpu,
                "wasted": wasted,
                "total": total_cpu,
            },
            waste_fraction=waste_fraction,
            realized_availability=realized_availability,
            per_hypervisor=per_hv,
            recovery={
                "outages": len(self._outages),
                "outage_s": sum(end - start for start, end in self._outages),
                "uploads_retried": state["uploads_retried"],
                "uploads_lost": state["uploads_lost"],
                "vm_crashes": state["vm_crashes"],
                "rolled_back_s": rolled_back,
                "degraded_windows": degraded_windows,
                "degraded_s": degraded_s if degraded_windows else 0,
                "degraded_validated": state["degraded_validated"],
            },
        )


def _record_metrics(report: FleetReport, state: Dict[str, Any]) -> None:
    """Record the ``fleet.*`` instruments of one run from its end state.

    Each instrument equals what a per-event site in the loop would have
    recorded (the archived object-model server in
    ``tests/_reference_fleet.py`` still records them that way, and the
    snapshots are pinned equal): the counters are the report's tallies,
    ``rolled_back`` counts the replicas whose crash redid any seconds,
    ``degraded_entered`` counts degraded windows including one still
    open at the horizon, and ``need_queue_peak`` is the longest need
    queue right after a dispatch.  Validation times fold into the
    makespan timer and histogram in ascending order, which is the order
    the events validated them.  A counter no event would have touched
    stays absent; hosts, work units and departures are always recorded.
    """
    METRICS.inc("fleet.hosts", report.hosts)
    METRICS.inc("fleet.workunits", report.workunits)
    METRICS.inc("fleet.departures", report.departures)
    recovery = report.recovery
    for name, count in (
            ("dispatched", report.replicas_issued),
            ("timeouts", report.timeouts),
            ("rolled_back", int(np.count_nonzero(state["r_rb"]))),
            ("upload_retried", recovery["uploads_retried"]),
            ("upload_lost", recovery["uploads_lost"]),
            ("degraded_entered", recovery["degraded_windows"]),
            ("stale", report.results_stale),
            ("redundant", report.redundant_results),
            ("erroneous", report.results_erroneous),
            ("validated", report.valid),
            ("degraded_validated", recovery["degraded_validated"])):
        if count:
            METRICS.inc(f"fleet.{name}", count)
    if report.replicas_issued:
        METRICS.gauge_max("fleet.need_queue_peak", state["need_peak"])
    makespans = np.sort(state["wu_validated"][(state["wu_state"] & 1) == 1])
    METRICS.observe_many("fleet.makespan_s", makespans)
    METRICS.hist_many("fleet.makespan_h", makespans / 3600.0)


def simulate_fleet(config: FleetConfig,
                   jobs: Optional[int] = None) -> FleetReport:
    """Build the fleet (sharded across workers) and run the server loop.

    The one-call entry point used by :func:`repro.api.run`, the
    fleet figures and the benchmarks.  Deterministic per config; the
    ``jobs`` count affects wall-clock only, never the report.  Host
    building dispatches to the persistent worker pool only above
    :data:`repro.fleet.host.MIN_PARALLEL_HOSTS` — small fleets run
    serially because pool dispatch would cost more than it saves.

    Every run builds :class:`~repro.fleet.columns.FleetColumns` and
    runs the one columnar event loop on them, fault-free or under a
    storm, with metrics on or off.  Under a fault plan the
    ``host.dropout`` site is a pre-pass that clips the CSR traces; the
    other fleet sites fire inside the event loop.  An enabled metrics
    registry (the ``repro fleet``/``repro campaign`` default) only adds
    the ``fleet.*`` instruments, derived from the run's end state.
    """
    columns = build_fleet_columns(config, jobs=jobs)
    dropouts = _apply_host_dropout(columns, config.duration_s) \
        if FAULTS.enabled else 0
    return FleetServer(config, columns, dropouts=dropouts).run()


def _apply_host_dropout(columns: FleetColumns, horizon_s: float) -> int:
    """Injection site ``host.dropout``: permanently remove hosts early.

    Each selected host departs at a deterministic fraction of the
    horizon (drawn from the fault plan, keyed by host index): its
    departure time is truncated and later availability sessions are
    clipped (:meth:`FleetColumns.depart_early`).  This *changes results
    by design* — the fault-plan token is folded into the cache identity
    so such runs never collide with fault-free ones.

    A dropout drawn *after* the host's own permanent departure is a
    no-op and is neither tallied as an injection nor counted in the
    returned effective-dropout count — the host departed exactly once,
    on its own schedule, so :class:`FleetReport` must not double-count
    it (``report.departures`` counts each departed host once;
    ``report.dropouts`` counts only dropouts that moved a departure).
    """
    hosts: List[int] = []
    at_s: List[float] = []
    departure = columns.departure_s.tolist()
    for index in range(len(columns)):
        if not FAULTS.would_fire("host.dropout", key=index, attempt=0):
            continue
        dropout_s = FAULTS.uniform("host.dropout", key=index) * horizon_s
        if dropout_s >= departure[index]:
            continue  # already departed on its own: nothing to inject
        hosts.append(index)
        at_s.append(dropout_s)
    if hosts:
        FAULTS.record("host.dropout", len(hosts))
        columns.depart_early(hosts, at_s)
    return len(hosts)
