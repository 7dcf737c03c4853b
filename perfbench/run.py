"""perfbench — the repository's fixed benchmark: four workloads through
``repro.api.run``, end-to-end metrics untraced, per-layer metrics from a
separate traced run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fleet-clean --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (see ``perfbench/README.md`` for every name, unit and
the layer -> end-to-end table).  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it print the same numbers for people, plus the machine
fingerprint and the output digest.

Each workload is a closed loop: one client, one ``run()`` call at a
time, repeated until ``--seconds`` have passed (at least
``MIN_PASSES`` calls).  The seed feeds ``FleetConfig.seed``, the fault
plan seed and the figure ``base_seed``.  Everything the run writes lands
in ``perfbench/out/<workload>-seed<seed>-trace<t>/``: the record, the
spans of the traced run, the traced figure runs' manifests, and the
run's own ``TMPDIR``, where the compiled fleet kernel is cached.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = BENCH_DIR / "reference.json"

#: The seed whose output digests are committed in ``reference.json``.
DEFAULT_SEED = 1
#: Fresh processes timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Untraced ``run()`` calls per run, however short ``--seconds`` is.
MIN_PASSES = 3
DAY_S = 86400.0
STORM_FAULTS = ("server.outage=0.35,net.partition=0.3,vm.crash=0.3,"
                "host.dropout=0.05")


@dataclass(frozen=True)
class Workload:
    """One fixed unit of work, run through ``repro.api.run``."""

    name: str
    jobs: int
    hosts: int = 0              #: fleet size (fleet workloads)
    faults: str = ""            #: fault spec without its seed (storm)
    figure: str = ""            #: figure id (paper workloads)
    reps: int = 1               #: repetitions per environment
    duration_s: float = 20.0    #: simulated seconds per Fig 7 repetition

    @property
    def is_fleet(self) -> bool:
        return not self.figure


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("fleet-clean", jobs=1, hosts=100_000),
    Workload("fleet-storm", jobs=1, hosts=5_000, faults=STORM_FAULTS),
    Workload("guest-net", jobs=1, figure="fig4", reps=1),
    # Two or fewer reps per point would run serially (SERIAL_FALLBACK_REPS)
    # and leave the pool unmeasured.
    Workload("host-impact", jobs=2, figure="fig7", reps=3),
)}


# ---------------------------------------------------------------------------
# What one workload asks of the package
# ---------------------------------------------------------------------------

def fleet_config(w: Workload, seed: int) -> Any:
    from repro.fleet import FleetConfig

    extra: Dict[str, Any] = {}
    if w.faults:
        # Checkpoints make vm.crash roll back; a positive threshold lets
        # the upload backlog push the server into degraded mode.
        extra = {"checkpoint_interval_s": 1800.0, "degraded_threshold": 100}
    return FleetConfig(hosts=w.hosts, hypervisor="mixed", duration_s=DAY_S,
                       seed=seed, **extra)


def run_request(w: Workload, seed: int, metrics: bool = False,
                runs_dir: Optional[Path] = None) -> Any:
    """The ``RunRequest`` of one operation: explicit config, cache off."""
    from repro.api import RunConfig, RunRequest

    if w.is_fleet:
        # Never metrics=True here: it moves the fleet onto the classic loop.
        config = RunConfig(
            cache=False, metrics=False, jobs=w.jobs,
            fault_spec=f"seed={seed},{w.faults}" if w.faults else None)
        return RunRequest(kind="fleet", target=fleet_config(w, seed),
                          config=config)
    config = RunConfig(cache=False, metrics=metrics, jobs=w.jobs,
                       reps=w.reps, base_seed=seed,
                       runs_dir=str(runs_dir) if runs_dir else None)
    options = {"duration_s": w.duration_s} if w.figure == "fig7" else {}
    return RunRequest(kind="figure", target=w.figure, config=config,
                      options=options)


def _netbench_factory(testbed: Any) -> Any:
    from repro.workloads.netbench import IperfServer, NetBench

    IperfServer(testbed.peer_kernel)
    return NetBench(testbed.peer_kernel)


def rep_plan(w: Workload, seed: int
             ) -> List[Tuple[str, str, Callable[[], Any]]]:
    """Every repetition of one figure pass as (series label, metric,
    call), with the seeds the figure derives for it."""
    from repro.simcore.rng import derive_rep_seed

    plan = []
    if w.figure == "fig4":
        from repro.core.figures import FIG4_ENVIRONMENTS
        from repro.core.guest_perf import run_benchmark_in_environment

        for env in FIG4_ENVIRONMENTS:
            for rep in range(w.reps):
                call = functools.partial(
                    run_benchmark_in_environment, env, _netbench_factory,
                    derive_rep_seed(seed, rep))
                plan.append((env, "mbps", call))
    elif w.figure == "fig7":
        from repro.core.figures import HOST_ENVIRONMENTS
        from repro.core.host_impact import HostImpactConfig, run_sevenzip_impact

        for threads in (1, 2):
            for env in HOST_ENVIRONMENTS:
                config = HostImpactConfig(environment=env,
                                          duration_s=w.duration_s)
                for rep in range(w.reps):
                    call = functools.partial(
                        run_sevenzip_impact, config, threads,
                        derive_rep_seed(seed + threads, rep))
                    plan.append((f"{env}/{threads}t", "usage_pct", call))
    return plan


def _metric(result: Any, name: str) -> float:
    return float(result[name] if isinstance(result, dict)
                 else result.metric(name))


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def output_digest(w: Workload, result: Any) -> str:
    """SHA-256 of the canonical FleetReport JSON or of the figure's
    measured values (floats keep every digit through ``json``)."""
    payload = (result.report.to_dict() if w.is_fleet
               else result.figure.measured_values())
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def output_problems(w: Workload, result: Any) -> List[str]:
    """Invariants every correct output satisfies, at any seed."""
    problems = []
    if w.is_fleet:
        r = result.report
        if r.hosts != w.hosts:
            problems.append(f"report has {r.hosts} hosts, expected {w.hosts}")
        if r.valid + r.failed + r.in_progress + r.unsent != r.workunits:
            problems.append("work units do not add up")
        if not 0 < r.valid <= r.replicas_issued:
            problems.append(f"valid={r.valid} outside (0, replicas_issued]")
        return problems
    values = result.figure.measured_values()
    if set(values) != set(result.figure.paper):
        problems.append(f"series {sorted(values)} do not match the paper's "
                        f"{sorted(result.figure.paper)}")
    if not all(math.isfinite(v) and v >= 0 for v in values.values()):
        problems.append(f"non-finite or negative values: {values}")
    return problems


def paper_error(figure: Any) -> float:
    """Mean relative error of the measured values against the paper's."""
    measured = figure.measured_values()
    errors = [abs(measured[label] - paper) / abs(paper)
              for label, paper in figure.paper.items() if label in measured]
    return statistics.fmean(errors)


# ---------------------------------------------------------------------------
# Spans (traced run only)
# ---------------------------------------------------------------------------

class Tracer:
    """Spans kept in memory and written once when the run ends."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []
        self.trace_id = 0
        #: Set when a fleet layer ever ran with the metrics registry on.
        self.metrics_seen = False

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "trace": self.trace_id,
                  "parent": self._open[-1] if self._open else None,
                  "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None]

    def self_times(self) -> Dict[str, float]:
        """Per span name: duration minus the time its children cover."""
        child_s: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] = (child_s.get(s["parent"], 0.0)
                                        + s["end"] - s["start"])
        out: Dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child_s.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out


@contextlib.contextmanager
def fleet_spans(tracer: Tracer, observed: Dict[str, Any]):
    """Time the fleet layers by wrapping their public functions for the
    length of one traced pass.

    A layer the package no longer calls simply records no span.  Every
    wrapper also notes whether the metrics registry was on: fleet passes
    must never enable it, because that moves them onto the classic loop.
    """
    from repro.fleet import server
    from repro.obs.metrics import METRICS

    def wrap(name: str, fn: Callable, observe=None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.metrics_seen |= METRICS.enabled
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(result)
            return result
        return wrapper

    def sessions(columns: Any) -> None:
        observed["sessions"] = len(columns.s_starts)

    targets = [(server, "build_fleet_columns", "fleet.columns.build",
                sessions),
               (server, "build_fleet_hosts", "fleet.host.build", None),
               (server.FleetServer, "run", "fleet.server.run", None)]
    saved = []
    for owner, attr, name, observe in targets:
        fn = owner.__dict__.get(attr)
        if fn is not None:
            saved.append((owner, attr, fn))
            setattr(owner, attr, wrap(name, fn, observe))
    try:
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# The measurement
# ---------------------------------------------------------------------------

def _tool_version(argv: List[str]) -> Optional[str]:
    try:
        done = subprocess.run(argv, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def machine_fingerprint(load_at_start: float, kernel: bool) -> Dict[str, Any]:
    import numpy

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gcc": _tool_version(["gcc", "-dumpfullversion"]),
        "cloop_available": kernel,
        "load_avg_1m_at_start": load_at_start,
        "platform": platform.platform(),
    }


def _children() -> List[int]:
    pids: List[int] = []
    for task in Path("/proc/self/task").glob("*/children"):
        pids.extend(int(p) for p in task.read_text().split())
    return pids


def _vm_hwm_kb(pid: str) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return float(line.split()[1])
    raise ValueError(f"no VmHWM for {pid}")


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live pool workers."""
    try:
        kb = _vm_hwm_kb("self") + sum(_vm_hwm_kb(str(p)) for p in _children())
    except (OSError, ValueError):
        import resource

        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def time_setup(jobs: int, probes: int) -> List[Dict[str, float]]:
    """``probes`` fresh processes, each timed from spawn to ready."""
    samples = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "probe.py"), str(jobs),
             str(SRC)], stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or not line:
            raise RuntimeError(f"setup probe exited with {code}")
        sample = json.loads(line)
        sample["setup_s"] = elapsed
        samples.append(sample)
    return samples


class Run:
    """One benchmark run: setup, passes, checks, and the metrics."""

    def __init__(self, w: Workload, seed: int, seconds: float, trace: bool,
                 out_dir: Path, reference: Optional[str] = None,
                 probes: int = SETUP_PROBES, min_passes: int = MIN_PASSES):
        self.w = w
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out_dir = out_dir
        self.reference = reference
        self.probes = probes
        self.min_passes = min_passes
        self.tracer = Tracer()
        self.passes: List[Dict[str, Any]] = []
        self.errors: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.digest: Optional[str] = None
        self.paper_err: Optional[float] = None
        self.last_result: Any = None
        self.traced_result: Any = None
        self.observed: Dict[str, Any] = {}

    # -- operations ------------------------------------------------------

    def _operation(self, traced: bool) -> None:
        """One ``run()`` call, timed and checked; a failure is counted."""
        from repro.api import run

        self.attempted += 1
        request = run_request(self.w, self.seed, metrics=traced,
                              runs_dir=self.out_dir / "runs")
        try:
            with contextlib.ExitStack() as stack:
                if traced:
                    stack.enter_context(self.tracer.span("pass"))
                    stack.enter_context(
                        fleet_spans(self.tracer, self.observed)
                        if self.w.is_fleet else self.tracer.span("api.run"))
                t0 = time.perf_counter()
                result = run(request)
                wall = time.perf_counter() - t0
        except Exception as exc:  # a failed operation is counted, not fatal
            self._fail(f"run() raised {type(exc).__name__}: {exc}")
            return
        finally:
            self.tracer.trace_id += 1
        digest = output_digest(self.w, result)
        self.passes.append({"wall_s": wall, "traced": traced,
                            "digest": digest})
        problems = output_problems(self.w, result)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append(f"digest {digest} differs from the run's first "
                            f"{self.digest}")
        if self.reference is not None and digest != self.reference:
            problems.append(f"digest {digest} does not match the committed "
                            f"reference {self.reference}")
        if problems:
            self._fail("; ".join(problems))
            return
        if not self.w.is_fleet:
            self.paper_err = paper_error(result.figure)
        self.last_result = result
        if traced:
            self.traced_result = result

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def _serial_reps(self) -> List[float]:
        """Time each repetition of the figure as its own serial call and
        check that their means rebuild the figure's series exactly."""
        import numpy as np

        rep_s: List[float] = []
        values: Dict[str, List[float]] = {}
        with self.tracer.span("core.experiment.serial_reps"):
            for label, metric, call in rep_plan(self.w, self.seed):
                with self.tracer.span("core.experiment.rep"):
                    t0 = time.perf_counter()
                    result = call()
                    rep_s.append(time.perf_counter() - t0)
                values.setdefault(label, []).append(_metric(result, metric))
        if self.last_result is not None:
            series = self.last_result.figure.measured_values()
            rebuilt = {label: float(np.asarray(v).mean())
                       for label, v in values.items()}
            if rebuilt != series:
                self._fail(f"serial repetitions give {rebuilt}, the figure "
                           f"{series}")
        return rep_s

    # -- the run ---------------------------------------------------------

    def execute(self) -> Dict[str, Any]:
        load_at_start = os.getloadavg()[0]
        t0 = time.perf_counter()
        import repro.api  # noqa: F401
        import repro.core.figures  # noqa: F401
        import repro.fleet  # noqa: F401
        from repro.core import workerpool
        from repro.fleet import cloop

        imported = Path(repro.api.__file__).resolve()
        if SRC.resolve() not in imported.parents:
            raise RuntimeError(f"imported repro from {imported}, not {SRC}")
        t1 = time.perf_counter()
        kernel = cloop.available()  # cold: this run's TMPDIR starts empty
        cold_s = time.perf_counter() - t1
        self.fingerprint = machine_fingerprint(load_at_start, kernel)
        self.own_setup = {"import_s": t1 - t0, "cloop_cold_s": cold_s}

        self.setup = time_setup(self.w.jobs, self.probes)
        if self.w.jobs > 1:
            workerpool.warm_pool(self.w.jobs).executor().submit(
                os.getpid).result()

        rep_s: List[float] = []
        started = time.perf_counter()
        deadline = started + self.seconds
        if self.trace:
            # Alternate untraced and traced calls while another pair fits.
            while True:
                t = time.perf_counter()
                self._operation(traced=False)
                self._operation(traced=True)
                now = time.perf_counter()
                if now + (now - t) > deadline:
                    break
        else:
            while (self.attempted < self.min_passes
                   or time.perf_counter() < deadline):
                self._operation(traced=False)
        if self.trace and not self.w.is_fleet:
            try:
                rep_s = self._serial_reps()
            except Exception as exc:  # counted like a failed operation
                self.attempted += 1
                self._fail(f"serial repetition raised "
                           f"{type(exc).__name__}: {exc}")
        self.measured_s = time.perf_counter() - started
        self.rss_mb = peak_rss_mb()
        self.pools_created = sum(workerpool.pool_generations().values())
        return self.record(rep_s)

    # -- metrics ---------------------------------------------------------

    def _wall(self, traced: bool) -> float:
        walls = [p["wall_s"] for p in self.passes if p["traced"] == traced]
        return statistics.median(walls) if walls else float("nan")

    def end_to_end(self) -> Dict[str, float]:
        return {
            "setup_s": statistics.median(s["setup_s"] for s in self.setup),
            "wall_s": self._wall(False),
            "peak_rss_mb": self.rss_mb,
        }

    def per_layer(self, rep_s: List[float]) -> Dict[str, float]:
        w = self.w
        # Layers a workload never enters read 0.
        out = {name: 0.0 for name in _names("per_layer")}
        for name in ("api.import_s", "fleet.cloop.ready_s",
                     "core.workerpool.warm_s"):
            out[name] = statistics.median(s[name] for s in self.setup)
        out["fleet.cloop.cold_s"] = self.own_setup["cloop_cold_s"]
        untraced = self._wall(False)
        out["trace.overhead"] = self._wall(True) / untraced - 1.0
        result = self.traced_result
        if w.is_fleet and result is not None:
            r = result.report
            run_s = _median0(self.tracer.durations("fleet.server.run"))
            out["fleet.columns.build_s"] = _median0(
                self.tracer.durations("fleet.columns.build"))
            out["fleet.columns.sessions"] = float(
                self.observed.get("sessions", 0))
            out["fleet.host.build_s"] = _median0(
                self.tracer.durations("fleet.host.build"))
            out["fleet.server.run_s"] = run_s
            out["fleet.server.us_per_replica"] = (
                run_s / r.replicas_issued * 1e6)
            out["fleet.report.replicas"] = float(r.replicas_issued)
            out["fleet.report.valid"] = float(r.valid)
            out["fleet.report.valid_ratio"] = r.results_ok / r.replicas_issued
            for key in ("uploads_retried", "uploads_lost", "vm_crashes",
                        "degraded_windows"):
                out[f"fleet.recovery.{key}"] = float(r.recovery.get(key, 0))
        elif result is not None and result.metrics is not None and rep_s:
            counters = result.metrics["counters"]
            timers = result.metrics["timers"]
            events = counters.get("engine.events_dispatched", 0.0)
            frames = counters.get("hw.nic.frames", 0.0)
            total = math.fsum(rep_s)
            out["core.experiment.rep_s.p50"] = statistics.median(rep_s)
            out["core.experiment.rep_s.max"] = max(rep_s)
            out["simcore.engine.events"] = events
            out["simcore.engine.ns_per_event"] = (
                total / events * 1e9 if events else 0.0)
            for key in ("context_switches", "preemptions",
                        "starvation_boosts"):
                out[f"osmodel.scheduler.{key}"] = counters.get(
                    f"sched.{key}", 0.0)
            out["hardware.nic.frames"] = frames
            out["hardware.nic.us_per_frame"] = (
                total / frames * 1e6 if frames else 0.0)
            out["virt.vcpu.steal_cycles"] = counters.get(
                "virt.vcpu.steal_cycles", 0.0)
            out["virt.clock.ticks_caught_up"] = counters.get(
                "virt.clock.ticks_caught_up", 0.0)
            out["core.parallel.efficiency"] = total / (w.jobs * untraced)
            wait = timers.get("parallel.queue_wait_s") or {}
            out["core.parallel.queue_wait_s"] = wait.get("total", 0.0)
            out["core.workerpool.pools_created"] = float(self.pools_created)
        return out

    def record(self, rep_s: List[float]) -> Dict[str, Any]:
        w = self.w
        e2e = self.end_to_end()
        wall = e2e["wall_s"]
        reps = len(rep_plan(w, self.seed)) if not w.is_fleet else 0
        return {
            "schema": "perfbench/1",
            "workload": w.name,
            "seed": self.seed,
            "trace": self.trace,
            "seconds": self.seconds,
            "measured_s": self.measured_s,
            "machine": self.fingerprint,
            "setup": {
                "mode": "warm",
                "note": "the run compiles the fleet kernel once into its own "
                        "empty TMPDIR (cold, fleet.cloop.cold_s); each timed "
                        "probe loads that build",
                "probes": self.setup,
                "own": self.own_setup,
            },
            "passes": self.passes,
            "digest": self.digest,
            "reference": self.reference,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "end_to_end": e2e,
            "report": {
                "hosts_per_s": w.hosts / wall if w.is_fleet else None,
                "reps_per_s": reps / wall if not w.is_fleet else None,
                "error_rate": self.failed / max(1, self.attempted),
                "paper_err": self.paper_err,
            },
            "per_layer": self.per_layer(rep_s) if self.trace else None,
            "rep_s": rep_s,
            "metrics_enabled_in_fleet_pass": self.tracer.metrics_seen,
            "spans": self.tracer.spans,
            "self_time_s": self.tracer.self_times(),
        }


def _median0(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


@functools.lru_cache(maxsize=None)
def _spec() -> Dict[str, Any]:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def _names(section: str) -> List[str]:
    return [m["name"] for m in _spec()[section]]


def _units(section: str) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in _spec()[section]}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def result_line(record: Dict[str, Any]) -> Dict[str, Any]:
    """The contract's last line: every metric of the requested kind."""
    section = "per_layer" if record["trace"] else "end_to_end"
    values = record[section]
    units = _units(section)
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in _names(section)},
    }


def human_lines(record: Dict[str, Any]) -> List[str]:
    why = {w["name"]: w["why"] for w in _spec()["workloads"]}
    e2e = record["end_to_end"]
    rep = record["report"]
    m = record["machine"]
    untraced = sum(1 for p in record["passes"] if not p["traced"])
    lines = [
        f"perfbench {record['workload']} seed={record['seed']} "
        f"trace={int(record['trace'])} ({why[record['workload']]})",
        f"machine: cpus={m['cpu_count']} affinity={m['affinity']} "
        f"python={m['python']} numpy={m['numpy']} gcc={m['gcc']} "
        f"cloop={'yes' if m['cloop_available'] else 'no'} "
        f"load={m['load_avg_1m_at_start']:.2f}",
        f"setup: {record['setup']['mode']} — {record['setup']['note']}",
        f"end-to-end (host time, median of {untraced} untraced passes, "
        f"{len(record['setup']['probes'])} setup probes):",
        f"  setup_s      {e2e['setup_s']:.4f} s",
        f"  wall_s       {e2e['wall_s']:.4f} s",
        "  hosts_per_s  " + (f"{rep['hosts_per_s']:.1f} hosts/s"
                             if rep["hosts_per_s"] is not None
                             else "n/a hosts/s (paper workload)"),
        "  reps_per_s   " + (f"{rep['reps_per_s']:.4f} reps/s"
                             if rep["reps_per_s"] is not None
                             else "n/a reps/s (fleet workload)"),
        f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB",
        f"  error_rate   {rep['error_rate']:.4f} fraction "
        f"({record['failed']}/{record['attempted']} operations failed)",
        "  paper_err    " + (f"{rep['paper_err']:.6f} fraction (in-sample)"
                             if rep["paper_err"] is not None
                             else "unvalidated fraction (the fleet has no "
                                  "reference values)"),
    ]
    if record["reference"] is None:
        lines.append(f"digest: {record['digest']} (seed {record['seed']} "
                     "has no committed reference; compare across commits)")
    else:
        status = ("matches" if record["digest"] == record["reference"]
                  else "DOES NOT MATCH")
        lines.append(f"digest: {record['digest']} {status} the committed "
                     "reference")
    if record["per_layer"] is not None:
        units = _units("per_layer")
        lines.append("per-layer (traced run):")
        for name in _names("per_layer"):
            lines.append(f"  {name:<36} {record['per_layer'][name]:.6g} "
                         f"{units[name]}")
    for error in record["errors"]:
        lines.append(f"FAILED: {error}")
    return lines


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def isolate(tmp_dir: Path) -> None:
    """No REPRO_* policy leaks in; temp files (the compiled kernel) go
    to the run's own directory.  Child processes inherit both."""
    import tempfile

    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["TMPDIR"] = str(tmp_dir)
    tempfile.tempdir = None


def stop_workers() -> None:
    """Shut the persistent pools down and wait for every worker."""
    import multiprocessing

    workerpool = sys.modules.get("repro.core.workerpool")
    if workerpool is not None:
        workerpool.shutdown_pools()
    for child in multiprocessing.active_children():
        child.join(timeout=30)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: no {SRC / 'repro'} or {SPEC.name}; run from the "
              "root of a repro checkout", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    out_dir = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    (out_dir / "tmp").mkdir(parents=True)
    isolate(out_dir / "tmp")
    sys.path.insert(0, str(SRC))
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[w.name]

    try:
        record = Run(w, args.seed, args.seconds, bool(args.trace), out_dir,
                     reference=reference).execute()
    finally:
        stop_workers()
    if not any(not p["traced"] for p in record["passes"]):
        for error in record["errors"]:
            print(f"FAILED: {error}", file=sys.stderr)
        return 1
    (out_dir / "spans.json").write_text(
        json.dumps(record.pop("spans"), indent=1) + "\n", encoding="utf-8")
    (out_dir / "record.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(out_dir / "tmp", ignore_errors=True)
    for line in human_lines(record):
        print(line)
    print(json.dumps(result_line(record)), flush=True)
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
