"""Set-up probe: one fresh process that does what a benchmark run needs
before its first timed operation, then reports how long each step took.

Usage (from ``perfbench/run.py``, never by hand)::

    python3 perfbench/probe.py <jobs> <path-to-src>

Steps, each timed on the probe's own clock:

1. import the package (``repro.api``, ``repro.fleet``, ``repro.core.figures``);
2. ``repro.fleet.cloop.available()`` — load the compiled event kernel
   (compiling it if the temp directory holds no cached build);
3. warm the persistent worker pool at ``jobs`` workers (skipped at one
   job, where every workload runs serially).

The probe prints one JSON line once it is ready, then shuts its pool
down and exits.  The parent times the whole span from spawning the
process to reading that line, which is the ``setup_s`` sample.
"""

import json
import os
import sys
import time


def main() -> int:
    jobs = int(sys.argv[1])
    sys.path.insert(0, sys.argv[2])

    t0 = time.perf_counter()
    import repro.api  # noqa: F401
    import repro.core.figures  # noqa: F401
    import repro.fleet  # noqa: F401
    from repro.core import workerpool
    from repro.fleet import cloop

    t1 = time.perf_counter()
    kernel = cloop.available()
    t2 = time.perf_counter()
    if jobs > 1:
        executor = workerpool.warm_pool(jobs).executor()
        # The first submit forks every worker; wait until one answers.
        executor.submit(os.getpid).result()
    t3 = time.perf_counter()
    print(json.dumps({
        "api.import_s": t1 - t0,
        "fleet.cloop.ready_s": t2 - t1,
        "core.workerpool.warm_s": t3 - t2,
        "kernel": kernel,
    }), flush=True)
    workerpool.shutdown_pools()
    return 0


if __name__ == "__main__":
    sys.exit(main())
