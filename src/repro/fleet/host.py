"""One volunteer host as a record, and the sampling constants.

Each host is a small record — calibrated slowdown, native speed,
availability trace — not a full simulated machine: the per-machine
physics already ran once to calibrate the hypervisor profiles (Figures
1-8), so the fleet only needs their reduction
(:func:`repro.fleet.calibration.fleet_slowdown`).

Every host is a pure function of ``(fleet seed, host index)``: its
parameters come from ``RngStreams(seed).fork(f"host-{index}")``.  The
fleet is built as flat columns (:mod:`repro.fleet.columns`), and
:class:`FleetHost` is the lazy per-host view of them
(:meth:`FleetColumns.host_view`) for tests, figures and ``to_dict``.
The per-host object sampler survives only as the equivalence oracle in
``tests/_reference_fleet.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.fleet.config import FleetConfig
from repro.virt.profiles import PROFILE_ORDER

#: Fleets smaller than this build serially regardless of ``jobs``: two
#: shards cannot amortise pool dispatch (the old path made ``--jobs 4``
#: *slower* than serial at small sizes).  Identical output either way —
#: shard boundaries are fixed and hosts seed only from their own index.
MIN_PARALLEL_HOSTS = 256

#: Per-host availability is clamped into this band after sampling: a
#: volunteer that is literally never (or always) on is not a volunteer.
AVAILABILITY_FLOOR = 0.05
AVAILABILITY_CEIL = 0.98


@dataclass
class FleetHost:
    """One volunteer desktop as the fleet server sees it."""

    index: int
    name: str
    hypervisor: str              #: resolved profile name
    slowdown: float              #: calibrated cycles-per-science factor
    gflops: float                #: native speed
    availability: float          #: sampled long-run on fraction
    error_rate: float            #: per-result erroneous probability
    sessions: List[Tuple[float, float]]
    departure_s: float
    #: wall seconds one guest checkpoint write costs this host (the
    #: repro.virt.checkpoint image through the hypervisor's calibrated
    #: virtual-disk path; see repro.fleet.recovery.checkpoint_cost_s)
    checkpoint_cost_s: float = 0.0

    @property
    def rate_flops_per_s(self) -> float:
        """Science throughput while on: native speed over VM slowdown."""
        return self.gflops * 1e9 / self.slowdown

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index, "name": self.name,
            "hypervisor": self.hypervisor, "slowdown": self.slowdown,
            "gflops": self.gflops, "availability": self.availability,
            "error_rate": self.error_rate,
            "sessions": [[s, e] for s, e in self.sessions],
            "departure_s": self.departure_s,
            "checkpoint_cost_s": self.checkpoint_cost_s,
        }


def host_hypervisor(config: FleetConfig, index: int) -> str:
    """A mixed fleet stripes the four profiles by index; otherwise the
    configured profile (already alias-resolved)."""
    if config.mixed:
        return PROFILE_ORDER[index % len(PROFILE_ORDER)]
    return config.hypervisor
