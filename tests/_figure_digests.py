"""Figure-JSON and trace-hash digests for the paper figures.

Runs fig1–fig8 (fig6b included) in fast mode with the trace-hash
recorder on and reduces each run to two SHA-256 digests: one over the
canonical figure JSON, one over every engine stream's rolling
trace-hash checkpoints.  The committed ``tests/figure_digests.json``
pins both, so a refactor of a hot path (the OS scheduler, the engine)
can prove it left every figure value and every dispatched ``(time,
seq)`` event unchanged.

Usage::

    PYTHONPATH=src python tests/_figure_digests.py --check tests/figure_digests.json
    PYTHONPATH=src python tests/_figure_digests.py --write tests/figure_digests.json

``--jobs N`` runs the repetitions on a worker pool; the digests do not
depend on it (the trace-hash audit guarantees serial == parallel).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Dict, Optional

from repro.api import RunConfig, RunRequest, run

#: The paper figures whose outputs are pinned.
PAPER_FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig6b",
                 "fig7", "fig8")

SCHEMA = "repro-figure-digests/1"


def _sha256(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def figure_digest(fig_id: str, jobs: int = 1) -> Dict[str, object]:
    """Digests of one fast-mode figure run with trace hashing on."""
    config = RunConfig(fast=True, jobs=jobs, cache=False, trace_hash=True)
    result = run(RunRequest(kind="figure", target=fig_id, config=config))
    streams = (result.trace_hash or {}).get("streams", {})
    return {
        "figure": _sha256(result.figure.to_dict()),
        "trace_hash": _sha256(streams),
        "streams": len(streams),
        "events": int(sum(item[2] for cps in streams.values()
                          for item in cps)),
    }


def compute(jobs: int = 1) -> Dict[str, object]:
    return {
        "schema": SCHEMA,
        "mode": "fast",
        "figures": {fig_id: figure_digest(fig_id, jobs)
                    for fig_id in PAPER_FIGURES},
    }


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--check", metavar="FILE",
                        help="recompute and compare with FILE")
    action.add_argument("--write", metavar="FILE",
                        help="recompute and write FILE")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)

    if args.write:
        digests = compute(args.jobs)
        with open(args.write, "w", encoding="utf-8") as handle:
            json.dump(digests, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {len(PAPER_FIGURES)} figure digest(s) to {args.write}")
        return 0

    with open(args.check, encoding="utf-8") as handle:
        expected = json.load(handle)["figures"]
    failures = 0
    for fig_id in PAPER_FIGURES:
        got = figure_digest(fig_id, args.jobs)
        want = expected.get(fig_id)
        status = "ok" if got == want else "MISMATCH"
        failures += got != want
        print(f"{fig_id:6s} {status}  figure {got['figure'][:16]}  "
              f"trace {got['trace_hash'][:16]}  events {got['events']}")
        if got != want:
            print(f"       expected {want}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
