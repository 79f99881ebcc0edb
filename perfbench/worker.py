"""One pass of a workload in a fresh interpreter, so every cache starts cold.

    python3 perfbench/worker.py --workload tables --seed 1 --size full \
        [--trace-out PATH]

Imports ``howecorr`` from ``src/`` of the checkout, runs the workload's
fixed input set as a closed loop (each call starts when the previous one
returned), then checks every output and prints one JSON line: wall time
(without the speed probe run between items), per-item times, the probe's
units and time, peak RSS, failures, the output digest and, when traced,
the per-layer summary.  ``run.py`` starts one worker per pass.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import howecorr
    import howecorr.cli

    howecorr.cli.build_parser()
    import_s = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(howecorr.__file__)) != os.path.join(SRC, "howecorr"):
        print(f"howecorr imported from {howecorr.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from speed import Meter
    from tracer import Tracer
    from workloads import WORKLOADS, Checker, Library, Outcome

    lib = Library()
    workload = WORKLOADS[args.workload](args.seed, args.size == "tiny")
    prepared = workload.prepare(lib)
    outcomes = []

    def record(kind, spec, seconds, output, error):
        outcomes.append(Outcome(kind, spec, seconds, output, error))

    tracer = None
    missing = []
    if args.trace_out:
        tracer = Tracer()
        missing = tracer.install()
    meter = Meter()
    gc.collect()
    start = time.perf_counter()
    workload.run(lib, prepared, record, tracer, meter)
    wall_s = time.perf_counter() - start - meter.seconds
    meter.flush()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
        tracer.write(args.trace_out)

    failures = []
    digest = hashlib.sha256()
    checker = Checker()
    for o in outcomes:
        if o.error is not None:
            error, data = f"raised {type(o.error).__name__}: {o.error}", repr(o.error).encode()
        else:
            try:
                error, data = workload.check(lib, checker, o)
            except Exception as err:  # a malformed output is a failed item
                error, data = f"check raised {type(err).__name__}: {err}", b"!"
        if error is not None:
            failures.append(f"{o.kind} {o.spec}: {error}" if o.spec is not None else f"{o.kind}: {error}")
        digest.update(o.kind.encode() + b"\0" + data + b"\0")

    kinds = {}
    for o in outcomes:
        kinds[o.kind] = kinds.get(o.kind, 0) + 1
    print(json.dumps({
        "wall_s": wall_s,
        "rss_mb": rss_mb,
        "import_s": import_s,
        "probe": [meter.units, meter.seconds],
        "items": [[o.kind, o.seconds] for o in outcomes],
        "kinds": kinds,
        "failed": len(failures),
        "failures": failures[:20],
        "digest": digest.hexdigest(),
        "trace": tracer.summary() if tracer else None,
        "missing_hooks": missing,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
