"""One benchmark process: set up a workload, run one measured pass, check it.

``run.py`` starts this file in a fresh interpreter for every sample,
because ``suite.build_circuit`` is ``lru_cache``d and a warm process
would hide set-up work.  Modes:

* ``prepare`` — make sure the suite cache holds the circuits the warm
  workloads load (a cold build the first time, a no-op afterwards);
* ``setup`` — set up only, report when set-up ended;
* ``pass`` — set up, run one timed pass, check its outputs.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _reap_children() -> None:
    """Stop any fault-simulation pool worker the pass left running.

    Collecting garbage lets unreachable engines close their pools the
    normal way; whatever is still running after that is terminated.
    """
    gc.collect()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("prepare", "setup", "pass"),
                        required=True)
    parser.add_argument("--workload", choices=sorted(workloads.CIRCUITS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--trace-out", type=Path,
                        help="where a traced pass writes its spans")
    parser.add_argument("--record", action="store_true",
                        help="skip the digest comparison (recording them)")
    args = parser.parse_args()

    if args.mode == "prepare":
        from repro.experiments.suite import build_circuit

        for name in workloads.warm_circuits(args.smoke):
            build_circuit(name)
        print(json.dumps({"prepared": workloads.warm_circuits(args.smoke)}))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    dispatch = tracing.install_dispatch_counter()
    workload = workloads.Workload(args.workload, args.seed, smoke=args.smoke,
                                  expect=not args.record)
    workload.setup()
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    import numpy

    report = {"ready": ready, "numpy": numpy.__version__}
    start = time.perf_counter()
    try:
        outputs = workload.run()
    except Exception as exc:  # noqa: BLE001 - reported as a failed pass
        _reap_children()
        report.update(error=f"{type(exc).__name__}: {exc}")
        print(json.dumps(report))
        return 0
    end = time.perf_counter()
    if tracer is not None:
        # Reduced before the checks, whose own simulation calls are traced.
        report["layers"] = tracing.layer_metrics(tracer.spans, (start, end))
        report["spans"] = len(tracer.spans)
        if args.trace_out:
            tracing.dump(tracer.spans, args.trace_out)
    _reap_children()
    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    outcome = workload.check(outputs, corrupt=args.corrupt)
    report.update(
        run_s=end - start,
        peak_rss_mb=usage / 1024.0,
        attempted=outcome.attempted,
        failed=outcome.failed,
        errors=outcome.errors,
        digests=outcome.digests,
        quality=outcome.quality,
        stages=outcome.stages,
        dispatch=dict(dispatch),
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    # Skip interpreter-exit finalizers: a pool whose workers were already
    # terminated above can deadlock in its own exit-time teardown.
    os._exit(code)
