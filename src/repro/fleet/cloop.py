"""Compile-on-first-use ctypes driver for the fleet kernels.

The hot event loop of the columnar fleet path lives in ``_cloop.c``, a
straight transliteration of ``FleetServer._fast_loop_python``.  This
module compiles it with the system C compiler on first use (cached in
the temp directory, keyed by a hash of the source, the compiler's path
and ``--version`` output, the flags and the platform), loads it through
:mod:`ctypes`, and drives the pause/resume protocol: a kernel returns
to Python whenever a growable buffer would overflow, the driver grows
the numpy buffer and resumes.  Everything a kernel touches is a numpy
array owned here, so the canonical flat state comes back with zero
copying.

The kernel draws the serve-stream error uniforms itself: the driver
seeds the per-host PCG64 lanes once (:meth:`VecPcg.seeded`) and hands
over each lane's 128-bit state and increment; the kernel steps a lane
only when that host's result consumes a uniform.  :func:`serve_doubles`
exposes that step so tests can pin it to :meth:`VecPcg.doubles`.
Under a fault storm the kernel also draws the ``vm.crash``/
``net.partition`` decisions (a SHA-256 port of
:func:`repro.faults.plan._draw`, fed the ``"{seed}|{site}|"`` prefix
bytes built here); :func:`fault_draw` exposes that port.

:func:`report_folds` is the second entry point: the C transliteration
of ``repro.fleet.server._report_folds``, the report's order-sensitive
folds over the flat state.

:func:`build_hosts` is the third: ``fleet_build``, the C port of
``repro.fleet.columns._sample_shard_columns`` over the whole fleet in
one call (seed forks, PCG64 seeding, ziggurat draws from the
:mod:`repro.fleet._zigdata` tables passed in, and the churn traces
written into growable CSR session buffers); :func:`zig_draws` exposes
its seeding and samplers so tests can pin them over many lanes.

No compiler, a failed compile, a library missing an entry point, or
``REPRO_NO_CLOOP=1`` all degrade to ``run_event_loop``,
``report_folds`` and ``build_hosts`` returning ``None``; the callers
then run the pure-Python loop, folds and sharded column build, which
produce byte-identical results.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.fleet._zigdata import EXP_R, NOR_INV_R, NOR_R
from repro.fleet.fastrng import (
    _FE,
    _FI,
    _KE,
    _KI,
    _WE,
    _WI,
    VecPcg,
    spawn_key_words,
)
from repro.fleet.host import AVAILABILITY_CEIL, AVAILABILITY_FLOOR

__all__ = ["available", "build_hosts", "fault_draw", "report_folds",
           "run_event_loop", "serve_doubles", "zig_draws"]

_SRC = Path(__file__).with_name("_cloop.c")

_ST_DONE = 0
_ST_GROW_HEAP = 1
_ST_GROW_NEED = 2
_ST_GROW_REP = 3
_ST_GROW_RET = 4
_ST_GROW_SESS = 5

_P = ctypes.c_void_p
_I = ctypes.c_int64
_D = ctypes.c_double


class _FleetCtx(ctypes.Structure):
    """Mirror of the C ``FleetCtx`` — every field is 8 bytes, so the
    layouts agree with no padding on any LP64 platform."""

    _fields_ = [
        ("n", _I), ("nwu", _I), ("quorum", _I), ("max_replicas", _I),
        ("horizon", _D), ("err_rate", _D),
        ("n_delays", _I),
        ("fs", _P), ("fe", _P), ("soff", _P),
        ("departure", _P), ("an", _P), ("base", _P),
        ("stretch", _P), ("delays", _P),
        ("serve_state", _P), ("serve_inc", _P),
        ("wu_state", _P), ("wu_validated", _P),
        ("wu_issued", _P), ("wu_out", _P), ("wu_tmo", _P),
        ("wu_holders", _P), ("wu_nhold", _P), ("wu_hosts", _P),
        ("r_wid", _P), ("r_host", _P), ("r_dead", _P), ("r_disp", _P),
        ("r_flag", _P), ("rep_cap", _I),
        ("ret_wid", _P), ("ret_host", _P), ("ret_cpu", _P),
        ("ret_cap", _I),
        ("need", _P), ("need_head", _I), ("need_count", _I),
        ("need_cap", _I), ("stash", _P),
        ("h_t", _P), ("h_seq", _P), ("h_pay", _P),
        ("heap_len", _I), ("heap_cap", _I),
        ("waste", _P), ("poll_fail", _P), ("cur", _P),
        ("seq", _I), ("n_valid", _I), ("n_rep", _I), ("ret_count", _I),
        ("ok_n", _I), ("err_n", _I), ("stale_n", _I), ("tmo_n", _I),
        ("red_n", _I),
        ("err_cpu", _D), ("stale_cpu", _D), ("red_cpu", _D),
        ("faults", _I),
        ("o_start", _P), ("o_end", _P), ("n_out", _I),
        ("p_crash", _D), ("p_part", _D), ("interval", _D), ("backoff", _D),
        ("upload_retries", _I), ("degraded_threshold", _I),
        ("crash_prefix", _P), ("crash_plen", _I),
        ("part_prefix", _P), ("part_plen", _I),
        ("r_cpu", _P), ("r_rb", _P), ("r_att", _P),
        ("uploads_retried", _I), ("uploads_lost", _I), ("vm_crashes", _I),
        ("part_n", _I), ("degraded_validated", _I), ("backlog", _I),
        ("degraded", _I), ("deg_n", _I),
        ("rolled_back_cpu", _D), ("lost_upload_cpu", _D),
        ("deg_since", _D), ("deg_s", _D),
        ("need_peak", _I),
    ]


class _ReportCtx(ctypes.Structure):
    """Mirror of the C ``ReportCtx`` (all fields 8 bytes, as above)."""

    _fields_ = [
        ("n", _I), ("nwu", _I), ("quorum", _I), ("ncodes", _I),
        ("faults", _I), ("horizon", _D),
        ("wu_state", _P), ("nhold", _P), ("hold_flat", _P),
        ("ret_wid", _P), ("ret_host", _P), ("ret_cpu", _P),
        ("ret_count", _I), ("wid_start", _P), ("order", _P),
        ("r_host", _P), ("r_disp", _P), ("r_cpu", _P), ("r_rb", _P),
        ("r_flag", _P), ("n_rep", _I),
        ("fs", _P), ("fe", _P), ("departure", _P), ("soff", _P),
        ("hv_code", _P),
        ("waste", _P), ("quorum_by_host", _P), ("qc_sum", _P),
        ("w_sum", _P),
        ("quorum_cpu", _D), ("redundant", _D), ("pending", _D),
        ("lost", _D), ("rolled_back", _D), ("in_flight", _D),
    ]


class _BuildCtx(ctypes.Structure):
    """Mirror of the C ``BuildCtx`` (all fields 8 bytes, as above)."""

    _fields_ = [
        ("n", _I), ("next", _I), ("n_sess", _I), ("sess_cap", _I),
        ("draw_speed", _I),
        ("horizon", _D), ("session_mean", _D), ("departure_mean", _D),
        ("avail_mean", _D), ("avail_spread", _D), ("avail_floor", _D),
        ("avail_ceil", _D),
        ("prefix", _P), ("plen", _I), ("spawn", _P),
        ("ki_nor", _P), ("ke_exp", _P),
        ("wi_nor", _P), ("fi_nor", _P), ("we_exp", _P), ("fe_exp", _P),
        ("nor_r", _D), ("nor_inv_r", _D), ("exp_r", _D),
        ("speed_z", _P), ("avail", _P), ("departure", _P),
        ("serve_seed", _P), ("s_cnt", _P),
        ("s_starts", _P), ("s_ends", _P),
    ]


#: Scalar tallies the kernel accumulates in the context, returned in the
#: state dict.
_STATE_INTS = ("n_valid", "n_rep", "ok_n", "err_n", "stale_n", "tmo_n",
               "red_n", "uploads_retried", "uploads_lost", "vm_crashes",
               "part_n", "degraded_validated", "backlog", "degraded",
               "deg_n", "need_peak")
_STATE_FLOATS = ("err_cpu", "stale_cpu", "red_cpu", "rolled_back_cpu",
                 "lost_upload_cpu", "deg_since", "deg_s")


_lib: Optional[ctypes.CDLL] = None
_tried = False


#: -ffp-contract=off: no FMA contraction, so every double op rounds
#: exactly as CPython's interpreter does (SSE2 doubles)
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Linked after the source: ``fleet_build``'s ziggurat tails call libm's
#: ``log1p``/``exp``, the ones CPython's ``math`` module calls
_LDLIBS = ("-lm",)


def _cc_version(cc: str) -> bytes:
    """The compiler's ``--version`` output; empty if it cannot run."""
    try:
        return subprocess.run([cc, "--version"], capture_output=True,
                              timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return b""


def _so_path(cc: str, flags: Tuple[str, ...]) -> str:
    """The cached build's path, keyed by the source, the compiler (its
    path and its version output), the flags and the platform — an
    upgraded compiler, a flag change or another architecture sharing
    the temp directory must not reuse an old build."""
    key = hashlib.sha256(_SRC.read_bytes())
    key.update("\0".join((cc,) + flags).encode())
    key.update(b"\0" + _cc_version(cc))
    key.update(f"\0{sys.platform}\0{platform.machine()}".encode())
    tag = getattr(os, "getuid", lambda: 0)()
    return os.path.join(tempfile.gettempdir(),
                        f"repro_cloop_{key.hexdigest()[:16]}_{tag}.so")


def _compile() -> Optional[str]:
    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        return None
    so_path = _so_path(cc, _CFLAGS + _LDLIBS)
    if os.path.exists(so_path):
        return so_path
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=tempfile.gettempdir())
    os.close(fd)
    try:
        result = subprocess.run(
            [cc, *_CFLAGS, "-o", tmp, str(_SRC), *_LDLIBS],
            capture_output=True, timeout=120)
        if result.returncode != 0:
            os.unlink(tmp)
            return None
        os.replace(tmp, so_path)
    except (OSError, subprocess.SubprocessError):
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return None
    return so_path


def _load() -> Optional[ctypes.CDLL]:
    global _lib, _tried
    if _tried:
        return _lib
    _tried = True
    # a kill switch, not run policy: the fallback loop is byte-identical,
    # so this only ever changes speed
    if os.environ.get("REPRO_NO_CLOOP"):  # repro: allow-env-read
        return None
    so_path = _compile()
    if so_path is None:
        return None
    try:
        lib = ctypes.CDLL(so_path)
        lib.fleet_run.argtypes = [ctypes.POINTER(_FleetCtx)]
        lib.fleet_run.restype = ctypes.c_int
        lib.fleet_report.argtypes = [ctypes.POINTER(_ReportCtx)]
        lib.fleet_report.restype = None
        lib.fault_draw.argtypes = [ctypes.c_char_p, _I, _I, _I,
                                   ctypes.c_char_p, _I]
        lib.fault_draw.restype = ctypes.c_double
        lib.serve_doubles.argtypes = [_P, _P, _I, _I, _P]
        lib.serve_doubles.restype = None
        lib.fleet_build.argtypes = [ctypes.POINTER(_BuildCtx)]
        lib.fleet_build.restype = ctypes.c_int
        lib.zig_draws.argtypes = [ctypes.POINTER(_BuildCtx), _P, _I, _I, _P]
        lib.zig_draws.restype = None
    except (OSError, AttributeError):
        # unloadable, or a build that lacks one of the entry points
        return None
    _lib = lib
    return _lib


def available() -> bool:
    """Whether the compiled kernel can be used on this machine."""
    return _load() is not None


def _addr(arr: np.ndarray) -> int:
    return arr.ctypes.data


def _prefix(seed: int, site: str) -> bytes:
    """The ``_draw`` payload up to the key: ``"{seed}|{site}|"``."""
    return f"{seed}|{site}|".encode("utf-8")


def fault_draw(seed: int, site: str, key: int, attempt: int,
               salt: str = "") -> Optional[float]:
    """The kernel's :func:`repro.faults.plan._draw`; ``None`` if the
    kernel is absent."""
    lib = _load()
    if lib is None:
        return None
    prefix = _prefix(seed, site)
    tail = salt.encode("utf-8")
    return lib.fault_draw(prefix, len(prefix), key, attempt, tail, len(tail))


def _serve_lanes(serve_seed: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-host PCG64 state and increment of the ``"error"`` serve
    streams as ``(n, 2)`` ``{lo, hi}`` uint64 words — the layout
    ``pcg_double`` in the kernel steps."""
    serve = VecPcg.seeded(serve_seed, "error")
    u64 = np.uint64
    words = []
    for limbs in (serve.s, serve.inc):
        lanes = np.empty((len(limbs[0]), 2), dtype=u64)
        lanes[:, 0] = limbs[0] | (limbs[1] << u64(32))
        lanes[:, 1] = limbs[2] | (limbs[3] << u64(32))
        words.append(lanes)
    return words[0], words[1]


def serve_doubles(serve_seed: np.ndarray,
                  draws: int) -> Optional[np.ndarray]:
    """The kernel's lazy serve draws: ``out[i, k]`` is lane ``i``'s
    ``k``-th uniform of ``VecPcg.seeded(serve_seed, "error")``, each
    lane stepped on its own; ``None`` if the kernel is absent."""
    lib = _load()
    if lib is None:
        return None
    state, inc = _serve_lanes(serve_seed)
    n = len(state)
    out = np.empty((n, draws), dtype=np.float64)
    lib.serve_doubles(_addr(state), _addr(inc), n, draws, _addr(out))
    return out


class _Bound:
    """The numpy buffers behind one ctypes context, by field name.

    Binding stores the array (keeping it alive for the kernel) and
    points the context field at its data.
    """

    def __init__(self, ctx: ctypes.Structure):
        self.ctx = ctx
        self.arrays: Dict[str, np.ndarray] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def __call__(self, name: str, arr: np.ndarray) -> np.ndarray:
        self.arrays[name] = arr
        setattr(self.ctx, name, _addr(arr))
        return arr

    def inputs(self, get: Callable[[str], Any],
               fields: Tuple[Tuple[str, type], ...]) -> None:
        """Bind each ``get(name)`` as a contiguous ``dtype`` array."""
        for name, dtype in fields:
            self(name, np.ascontiguousarray(get(name), dtype=dtype))


_F8 = np.float64

#: Read-only ``_FastPrep`` columns the event kernel reads.
_LOOP_PREP = (("fs", _F8), ("fe", _F8), ("soff", np.int64),
              ("departure", _F8), ("an", _F8), ("base", _F8),
              ("stretch", _F8), ("delays", _F8), ("o_start", _F8),
              ("o_end", _F8))

#: Growable kernel buffers per pause status: the capacity field and the
#: buffers it sizes.  The per-replica recovery columns (``r_cpu``,
#: ``r_rb``, ``r_att``) are empty when fault-free and stay empty.
_GROWABLE = {
    _ST_GROW_REP: ("rep_cap", ("r_wid", "r_host", "r_dead", "r_disp",
                               "r_flag", "r_cpu", "r_rb", "r_att")),
    _ST_GROW_RET: ("ret_cap", ("ret_wid", "ret_host", "ret_cpu")),
    _ST_GROW_HEAP: ("heap_cap", ("h_t", "h_seq", "h_pay")),
    _ST_GROW_SESS: ("sess_cap", ("s_starts", "s_ends")),
}


def _grow_for(status: int, ctx: ctypes.Structure, bind: _Bound) -> bool:
    """Double the buffers a ``_GROWABLE`` pause status names; False for
    any other status."""
    if status not in _GROWABLE:
        return False
    cap_field, names = _GROWABLE[status]
    cap = 2 * getattr(ctx, cap_field)
    setattr(ctx, cap_field, cap)
    for name in names:
        if len(bind[name]):
            bind(name, _grow(bind[name], cap))
    return True


def run_event_loop(prep: Any) -> Optional[Dict[str, Any]]:
    """Run the fleet event loop in C; ``None`` if the kernel is absent.

    ``prep`` is the server's ``_FastPrep``.  Returns the canonical flat
    state dict consumed by ``FleetServer._fast_report`` — identical,
    value for value, to what ``_fast_loop_python`` produces.
    """
    lib = _load()
    if lib is None:
        return None
    n = prep.n
    nwu = prep.nwu
    quorum = prep.quorum
    max_replicas = prep.max_replicas
    if quorum > 255 or n >= 2 ** 32 or nwu >= 2 ** 31:
        return None  # outside the kernel's packing assumptions

    ctx = _FleetCtx()
    bind = _Bound(ctx)
    bind.inputs(partial(getattr, prep), _LOOP_PREP)
    soff = bind["soff"]
    fs = bind["fs"]

    wu_state = bind("wu_state", np.zeros(nwu, dtype=np.uint8))
    bind("wu_validated", np.zeros(nwu, dtype=_F8))
    bind("wu_issued", np.zeros(nwu, dtype=np.int32))
    bind("wu_out", np.zeros(nwu, dtype=np.int32))
    bind("wu_tmo", np.zeros(nwu, dtype=np.int32))
    bind("wu_holders", np.full(nwu * quorum, -1, dtype=np.int32))
    bind("wu_nhold", np.zeros(nwu, dtype=np.uint8))
    bind("wu_hosts", np.full(nwu * max_replicas, -1, dtype=np.int32))

    # per-replica recovery columns exist only under a storm
    faults = bool(prep.faults)
    ctx.rep_cap = rep_cap = max(4096, 2 * n)
    rec_cap = rep_cap if faults else 0
    for name, dtype, cap in (
            ("r_wid", np.int32, rep_cap), ("r_host", np.int32, rep_cap),
            ("r_dead", _F8, rep_cap), ("r_disp", _F8, rep_cap),
            ("r_flag", np.uint8, rep_cap), ("r_cpu", _F8, rec_cap),
            ("r_rb", _F8, rec_cap), ("r_att", np.int32, rec_cap)):
        bind(name, np.empty(cap, dtype=dtype))

    ctx.ret_cap = ret_cap = max(4096, 2 * n)
    bind("ret_wid", np.empty(ret_cap, dtype=np.int32))
    bind("ret_host", np.empty(ret_cap, dtype=np.int32))
    bind("ret_cpu", np.empty(ret_cap, dtype=_F8))

    need_cap = nwu * quorum + n + 1024
    need = bind("need", np.empty(need_cap, dtype=np.int32))
    initial_need = np.repeat(np.arange(nwu, dtype=np.int32), quorum)
    need[:len(initial_need)] = initial_need
    bind("stash", np.empty(need_cap, dtype=np.int32))
    ctx.need_head = 0
    ctx.need_count = len(initial_need)
    ctx.need_cap = need_cap

    ctx.heap_cap = heap_cap = max(1024, 2 * n)
    h_t = bind("h_t", np.empty(heap_cap, dtype=_F8))
    h_seq = bind("h_seq", np.empty(heap_cap, dtype=np.int64))
    h_pay = bind("h_pay", np.empty(heap_cap, dtype=np.uint64))
    # initial REQUEST events: one per host with sessions, seq assigned
    # in host order; a (t, seq)-sorted array is a valid binary min-heap
    has_sessions = np.flatnonzero(soff[1:] > soff[:-1])
    first_start = fs[soff[:-1][has_sessions]]
    seqs = np.arange(len(has_sessions), dtype=np.int64)
    order = np.lexsort((seqs, first_start))
    k = len(has_sessions)
    h_t[:k] = first_start[order]
    h_seq[:k] = seqs[order]
    h_pay[:k] = has_sessions[order].astype(np.uint64)  # K_REQUEST == 0
    ctx.heap_len = ctx.seq = k

    waste = bind("waste", np.zeros(n, dtype=_F8))
    bind("poll_fail", np.zeros(n, dtype=np.int32))
    bind("cur", soff[:n].copy())
    serve_state, serve_inc = _serve_lanes(prep.serve_seed)
    bind("serve_state", serve_state)
    bind("serve_inc", serve_inc)
    ctx.crash_plen = len(bind("crash_prefix", np.frombuffer(
        _prefix(prep.fault_seed, "vm.crash"), dtype=np.uint8)))
    ctx.part_plen = len(bind("part_prefix", np.frombuffer(
        _prefix(prep.fault_seed, "net.partition"), dtype=np.uint8)))

    ctx.n = n
    ctx.nwu = nwu
    ctx.quorum = quorum
    ctx.max_replicas = max_replicas
    ctx.horizon = prep.horizon
    ctx.err_rate = prep.err_rate
    ctx.n_delays = len(bind["delays"])
    ctx.faults = int(faults)
    ctx.n_out = len(bind["o_start"])
    ctx.p_crash = prep.p_crash
    ctx.p_part = prep.p_part
    ctx.interval = prep.interval
    ctx.backoff = prep.backoff
    ctx.upload_retries = prep.upload_retries
    ctx.degraded_threshold = prep.degraded_threshold

    while True:
        status = lib.fleet_run(ctypes.byref(ctx))
        if status == _ST_DONE:
            break
        if _grow_for(status, ctx, bind):
            continue
        if status == _ST_GROW_NEED:
            # linearize the ring into a doubled buffer
            count = ctx.need_count
            idx = (ctx.need_head + np.arange(count)) % ctx.need_cap
            grown = np.empty(2 * ctx.need_cap, dtype=np.int32)
            grown[:count] = bind["need"][idx]
            bind("need", grown)
            bind("stash", np.empty(len(grown), dtype=np.int32))
            ctx.need_head = 0
            ctx.need_cap = len(grown)
        else:  # pragma: no cover - unknown status means a kernel bug
            raise RuntimeError(f"fleet kernel returned status {status}")

    n_rep = int(ctx.n_rep)
    ret_count = int(ctx.ret_count)
    rec_rep = n_rep if faults else 0
    state = {name: int(getattr(ctx, name)) for name in _STATE_INTS}
    state.update((name, float(getattr(ctx, name)))
                 for name in _STATE_FLOATS)
    state.update(
        wu_state=wu_state,
        wu_validated=bind["wu_validated"],
        wu_issued=bind["wu_issued"],
        wu_out=bind["wu_out"],
        hold_flat=bind["wu_holders"],
        nhold=bind["wu_nhold"],
        ret_wid=bind["ret_wid"][:ret_count],
        ret_host=bind["ret_host"][:ret_count],
        ret_cpu=bind["ret_cpu"][:ret_count],
        r_host=bind["r_host"][:n_rep],
        r_disp=bind["r_disp"][:n_rep],
        r_flag=bind["r_flag"][:n_rep],
        r_cpu=bind["r_cpu"][:rec_rep],
        r_rb=bind["r_rb"][:rec_rep],
        r_att=bind["r_att"][:rec_rep],
        waste=waste,
    )
    return state


#: The flat state the report folds read, and the prep columns.
_FOLD_STATE = (("wu_state", np.uint8), ("nhold", np.uint8),
               ("hold_flat", np.int32), ("ret_wid", np.int32),
               ("ret_host", np.int32), ("ret_cpu", _F8),
               ("r_host", np.int32), ("r_disp", _F8), ("r_flag", np.uint8),
               ("r_cpu", _F8), ("r_rb", _F8))
_FOLD_PREP = (("fs", _F8), ("fe", _F8), ("departure", _F8),
              ("soff", np.int64), ("hv_code", np.uint16))


def report_folds(prep: Any, state: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The report's ordered folds in C; ``None`` if the kernel is absent.

    ``prep``/``state`` are the server's ``_FastPrep`` and the loop's
    canonical flat state (left untouched).  Returns exactly what
    ``repro.fleet.server._report_folds`` returns, bit for bit.
    """
    lib = _load()
    if lib is None:
        return None
    ctx = _ReportCtx()
    bind = _Bound(ctx)
    bind.inputs(state.__getitem__, _FOLD_STATE)
    bind.inputs(partial(getattr, prep), _FOLD_PREP)
    bind("wid_start", np.zeros(prep.nwu + 1, dtype=np.int64))
    bind("order", np.empty(len(bind["ret_wid"]), dtype=np.int64))
    out = {"waste": np.array(state["waste"], dtype=_F8),
           "quorum_by_host": np.zeros(prep.n, dtype=_F8),
           "qc_sum": np.zeros(prep.ncodes, dtype=_F8),
           "w_sum": np.zeros(prep.ncodes, dtype=_F8)}
    for name, arr in out.items():
        bind(name, arr)
    ctx.n = prep.n
    ctx.nwu = prep.nwu
    ctx.quorum = prep.quorum
    ctx.ncodes = prep.ncodes
    ctx.faults = int(bool(prep.faults))
    ctx.horizon = prep.horizon
    ctx.ret_count = len(bind["ret_wid"])
    ctx.n_rep = len(bind["r_flag"])
    ctx.redundant = state["red_cpu"]
    ctx.lost = state["lost_upload_cpu"]
    ctx.rolled_back = state["rolled_back_cpu"]
    lib.fleet_report(ctypes.byref(ctx))
    out.update(quorum=ctx.quorum_cpu, redundant=ctx.redundant,
               pending=ctx.pending, lost=ctx.lost,
               rolled_back=ctx.rolled_back, in_flight=ctx.in_flight)
    return out


#: The per-host streams ``fleet_build`` seeds, in the kernel's order.
_BUILD_STREAMS = ("speed", "avail", "churn.departure", "churn.phase",
                  "churn.on", "churn.off")

#: The longest message one SHA-256 block holds (64 bytes less padding).
_ONE_BLOCK = 55

_ZIG_TABLES = (("ki_nor", _KI), ("ke_exp", _KE), ("wi_nor", _WI),
               ("fi_nor", _FI), ("we_exp", _WE), ("fe_exp", _FE))


def _sampler_ctx(streams: Tuple[str, ...]) -> Tuple[_BuildCtx, _Bound]:
    """A ``BuildCtx`` bound to the ziggurat tables and the spawn-key
    words of ``streams``."""
    ctx = _BuildCtx()
    bind = _Bound(ctx)
    bind("spawn", np.array([spawn_key_words(name) for name in streams],
                           dtype=np.uint32))
    for name, table in _ZIG_TABLES:
        bind(name, table)
    ctx.nor_r, ctx.nor_inv_r, ctx.exp_r = NOR_R, NOR_INV_R, EXP_R
    return ctx, bind


def zig_draws(entropy: np.ndarray, name: str,
              normal: bool) -> Optional[np.ndarray]:
    """The kernel's seeding and ziggurat samplers: ``out[i]`` is the
    first draw of ``VecPcg.seeded(entropy, name)`` lane ``i``
    (``std_normal`` if ``normal``, else ``std_exp``); ``None`` if the
    kernel is absent."""
    lib = _load()
    if lib is None:
        return None
    ctx, bound = _sampler_ctx((name,))  # bound keeps the arrays alive
    lanes = np.ascontiguousarray(entropy, dtype=np.uint64)
    out = np.empty(len(lanes), dtype=_F8)
    lib.zig_draws(ctypes.byref(ctx), _addr(lanes), len(lanes), int(normal),
                  _addr(out))
    return out


def build_hosts(config: Any) -> Optional[Dict[str, Any]]:
    """Sample every host of ``config`` in C; ``None`` if the kernel is
    absent.

    Returns what ``repro.fleet.columns._sample_shard_columns`` returns
    for hosts ``[0, config.hosts)``, bit for bit, except ``gflops``:
    ``speed_z`` holds the raw ``"speed"`` normals instead (``None`` when
    ``host_gflops_sigma`` is 0, which draws none) and the caller takes
    their exponential in numpy.
    """
    lib = _load()
    if lib is None:
        return None
    n = config.hosts
    prefix = f"{config.seed}/host-".encode("utf-8")
    if len(prefix) + len(str(n - 1)) > _ONE_BLOCK:
        return None  # a seed too long for the kernel's one-block forks
    ctx, bind = _sampler_ctx(_BUILD_STREAMS)
    ctx.plen = len(bind("prefix", np.frombuffer(prefix, dtype=np.uint8)))

    draw_speed = config.host_gflops_sigma != 0.0
    speed_z = bind("speed_z", np.empty(n if draw_speed else 0, dtype=_F8))
    for name, dtype in (("avail", _F8), ("departure", _F8),
                        ("serve_seed", np.uint64), ("s_cnt", np.int64)):
        bind(name, np.empty(n, dtype=dtype))
    # sessions expected before departure or the horizon, plus slack
    horizon = config.duration_s
    live = -config.departure_mean_s * math.expm1(
        -horizon / config.departure_mean_s)
    ctx.sess_cap = cap = 1024 + int(n * (
        2 + live * config.availability_mean / config.session_mean_s))
    bind("s_starts", np.empty(cap, dtype=_F8))
    bind("s_ends", np.empty(cap, dtype=_F8))

    ctx.n = n
    ctx.draw_speed = int(draw_speed)
    ctx.horizon = horizon
    ctx.session_mean = config.session_mean_s
    ctx.departure_mean = config.departure_mean_s
    ctx.avail_mean = config.availability_mean
    ctx.avail_spread = config.availability_spread
    ctx.avail_floor = AVAILABILITY_FLOOR
    ctx.avail_ceil = AVAILABILITY_CEIL
    while True:
        status = lib.fleet_build(ctypes.byref(ctx))
        if status == _ST_DONE:
            break
        if not _grow_for(status, ctx, bind):  # pragma: no cover
            raise RuntimeError(f"fleet build kernel returned status {status}")

    total = int(ctx.n_sess)
    return {"speed_z": speed_z if draw_speed else None,
            "availability": bind["avail"], "departure_s": bind["departure"],
            "serve_seed": bind["serve_seed"],
            # copies, so the over-allocated buffers are freed
            "s_starts": bind["s_starts"][:total].copy(),
            "s_ends": bind["s_ends"][:total].copy(),
            "s_cnt": bind["s_cnt"]}


def _grow(arr: np.ndarray, new_cap: int) -> np.ndarray:
    grown = np.empty(new_cap, dtype=arr.dtype)
    grown[:len(arr)] = arr
    return grown
