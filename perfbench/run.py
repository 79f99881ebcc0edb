"""Benchmark of the howecorr library and CLI.

    python3 perfbench/run.py --workload {tables,queries,certify} \
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Run from anywhere inside a checkout: the library is imported from the
checkout's ``src/``.  The load is one closed-loop client in one process:
each pass starts a fresh interpreter (``worker.py``), so every
``lru_cache`` starts cold as it does for each ``howecorr`` call, runs the
workload's fixed input set once and checks every output.  Passes repeat
until ``--seconds`` have gone by (at least ``MIN_PASSES``), and each
reported figure is a per-pass figure averaged over the passes; ``setup_s``
is the median over fresh interpreters that only import the package.

The host's speed drifts by a third over minutes, so a probe of fixed work
(``speed.py``) runs between the items of each pass, outside their timing,
for a quarter as long as the items, and right before and after each setup
probe; every end-to-end time is scaled to the probe's nominal speed:
measured time x nominal probe time / measured probe time, per pass and per
setup probe.  The unscaled times and the scales are printed and recorded
with the result.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics, with the tracing overhead (traced minus untraced wall
time).  The spans of the last traced pass, and a record of each run, go to
``.bench_out/`` in the checkout.  The last line of output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only when every output passed its check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

DEFAULT_SEED = 1
MIN_PASSES = 3  # untraced passes per --trace 0 run; fixes the tail percentile
MIN_TRACED = 2  # passes of each kind per --trace 1 run
SETUP_PROBES = 7
PASS_TIMEOUT_S = 150
DEADLINE_S = 165  # no new pass starts once the next one could end after this
TAIL_BEYOND = 10
SETUP_PER_PASS = 1  # setup probes after each pass, so they span the run
SETUP_SPEED_UNITS = 2  # probe units right before and after each setup probe

PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import howecorr.cli\n"
    "howecorr.cli.build_parser()\n"
    "print(time.perf_counter() - start, howecorr.__file__)\n"
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _child(argv: list) -> str:
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[:3]} ran past {PASS_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{argv[:3]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def measure_setup(count: int) -> list:
    """Import ``howecorr`` and build the CLI parser in ``count`` fresh
    interpreters; return (seconds, scale) pairs, the scale from the probe
    units run in this process right before and after each."""
    out = []
    for _ in range(count):
        before = speed.units(SETUP_SPEED_UNITS)
        seconds, path = _child(["-c", PROBE, SRC]).split()
        after = speed.units(SETUP_SPEED_UNITS)
        if not os.path.abspath(path).startswith(os.path.join(SRC, "howecorr")):
            raise BenchError(f"howecorr was imported from {path}, not from {SRC}")
        scale = speed.NOMINAL_UNIT_S * 2 * SETUP_SPEED_UNITS / (before + after)
        out.append((float(seconds), scale))
    return out


def run_pass(workload: str, seed: int, size: str, trace_out: str | None) -> dict:
    argv = [os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--size", size]
    if trace_out:
        argv += ["--trace-out", trace_out]
    lines = _child(argv).strip().splitlines()
    return json.loads(lines[-1])


def tail_percentile(items_per_pass: int) -> int:
    """The highest whole percentile with at least TAIL_BEYOND samples
    beyond it over the smallest run (MIN_PASSES passes), so every run of a
    workload reports the same percentile."""
    return math.floor(100 * (1 - TAIL_BEYOND / (MIN_PASSES * items_per_pass)))


def nearest_rank(sorted_values: list, percentile: float):
    index = max(math.ceil(percentile / 100 * len(sorted_values)) - 1, 0)
    return sorted_values[index], len(sorted_values) - 1 - index


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "howecorr")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def load_spec() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        raise BenchError(f"cannot read BENCHMARK.json: {err}")


def recorded_digest(workload: str) -> str | None:
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh).get(workload)


def pass_scale(p: dict) -> float:
    units, seconds = p["probe"]
    return speed.NOMINAL_UNIT_S * units / seconds


def end_to_end(setup: list, passes: list) -> tuple:
    """Per-pass figures, each scaled by its pass's probe, averaged over
    the passes.  The machine's speed switches between states that last tens
    of milliseconds; a mean over passes moves with the share of time spent
    in each, as the probe's mean does, where a median jumps between them."""
    q = tail_percentile(len(passes[0]["items"]))
    per_pass = [sorted(t for _, t in p["items"]) for p in passes]
    tails = [nearest_rank(times, q) for times in per_pass]
    scales = [pass_scale(p) for p in passes]
    per_pass_raw = {
        "wall_s": [p["wall_s"] for p in passes],
        "item_p50_ms": [1000 * statistics.median(t) for t in per_pass],
        "item_tail_ms": [1000 * value for value, _ in tails],
    }
    raw = {"setup_s": statistics.median(s for s, _ in setup)}
    metrics = {"setup_s": statistics.median(s * k for s, k in setup)}
    for name, values in per_pass_raw.items():
        raw[name] = statistics.fmean(values)
        metrics[name] = statistics.fmean(v * k for v, k in zip(values, scales))
    metrics["peak_rss_mb"] = statistics.fmean(p["rss_mb"] for p in passes)
    n = len(passes)
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters: import howecorr, build the CLI parser",
        "wall_s": f"mean of {n} passes over the fixed input set",
        "item_p50_ms": f"median item time of each pass, mean of {n} passes",
        "item_tail_ms": (f"p{q} item time of each pass, mean of {n} passes; "
                         f"{sum(b for _, b in tails)} of {sum(map(len, per_pass))} samples beyond it"),
        "peak_rss_mb": f"ru_maxrss of the pass process, mean of {n} passes",
    }
    for name, value in raw.items():
        notes[name] += f"; {value:.6g} unscaled"
    return metrics, notes, q


def per_layer(names: list, plain: list, traced: list) -> tuple:
    metrics = {}
    missing = []
    for name in names:
        if name == "trace.overhead_s":
            value = (statistics.median(p["wall_s"] * pass_scale(p) for p in traced)
                     - statistics.median(p["wall_s"] * pass_scale(p) for p in plain))
        elif name == "cli.import_s":
            value = statistics.median_low(p["import_s"] for p in traced)
        else:
            values = [p["trace"].get(name) for p in traced]
            if None in values:
                missing.append(name)
                values = [0]
            value = statistics.median_low(values)
        metrics[name] = value
    return metrics, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("tables", "queries", "certify"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    began = time.monotonic()

    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if not os.path.isfile(os.path.join(SRC, "howecorr", "__init__.py")):
        raise BenchError(f"no howecorr package under {SRC}")
    os.makedirs(OUT, exist_ok=True)
    measure_setup(1)  # compiles bytecode; not counted
    setup = []

    trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    plain, traced = [], []
    measuring = time.monotonic()
    last = 0.0
    while True:
        enough = (len(plain) >= MIN_PASSES) if not args.trace else (
            min(len(plain), len(traced)) >= MIN_TRACED)
        now = time.monotonic()
        if enough and (now - measuring >= seconds or now - began + last > DEADLINE_S):
            break
        with_trace = args.trace and len(traced) < len(plain)
        start = time.monotonic()
        result = run_pass(args.workload, args.seed, args.size, trace_path if with_trace else None)
        (traced if with_trace else plain).append(result)
        setup += measure_setup(SETUP_PER_PASS)
        last = time.monotonic() - start
    setup += measure_setup(max(0, SETUP_PROBES - len(setup)))

    passes = plain + traced
    attempted = sum(len(p["items"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    digests = {p["digest"] for p in passes}
    want = recorded_digest(args.workload) if (args.seed, args.size) == (DEFAULT_SEED, "full") else None
    for p in passes:
        if len(digests) > 1 or (want is not None and p["digest"] != want):
            failed += len(p["items"]) - p["failed"]
    if len(digests) > 1:
        failures.append(f"passes disagree on their outputs: digests {sorted(digests)}")
    elif want is not None and want not in digests:
        failures.append(f"outputs differ from the recorded seed-{DEFAULT_SEED} digest {want}")

    kinds = passes[0]["kinds"]
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics, missing = per_layer(names, plain, traced)
        notes = {name: "median over traced passes" for name in names}
        notes["trace.overhead_s"] = (
            f"traced minus untraced wall_s, medians of {len(traced)} and {len(plain)} "
            "passes, each scaled by its probe")
        if missing:
            print(f"warning: not observed, reported as 0: {', '.join(missing)}", file=sys.stderr)
        q = None
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics, notes, q = end_to_end(setup, passes)
        metrics = {name: metrics[name] for name in units}

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "seconds": seconds,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "items_per_pass": kinds,
        "tail_percentile": q,
        "setup_probes": len(setup),
        "speed_scale": {"nominal_unit_s": speed.NOMINAL_UNIT_S,
                        "passes": [pass_scale(p) for p in passes],
                        "setup": [k for _, k in setup]},
        "load": "closed loop, one client, one process per pass",
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for i, p in enumerate(passes, 1):
        print(f"pass {i}: {'traced' if p['trace'] else 'untraced'} wall_s {p['wall_s']:.4f} "
              f"peak_rss_mb {p['rss_mb']:.1f} items {len(p['items'])} failed {p['failed']} "
              f"digest {p['digest'][:16]}")
    for failure in failures[:20]:
        print(f"FAIL {failure}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}  ({notes.get(name, '')})")
    print(f"error_rate {failed / attempted:.6g} ratio  ({failed} of {attempted} items failed)")
    print(f"digest {passes[0]['digest']}"
          + (f" ({'matches' if want in digests else 'differs from'} the recorded digest)" if want else ""))
    correct = failed == 0
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"provenance": provenance, "metrics": metrics, "failures": failures,
                   "passes": [{k: v for k, v in p.items() if k != "items"} for p in passes]},
                  fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"benchmark could not run: {err}", file=sys.stderr)
        sys.exit(2)
