"""Smoke test of the benchmark: every workload at a tiny size, both trace
modes, the output schema, and the output checks on broken answers.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference as ref  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "tables", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_table_check_catches_a_missing_entry():
    lib = workloads.Library()
    cell = (1, 0, 3, 2, "coxeter_sign")
    ctx, ctx_p = lib.contexts(cell)
    table = lib.unipotent.omega_unipotent(ctx, ctx_p, cell[0], convention=cell[4])
    assert workloads._check_table(table, cell) is None
    entries = dict(table.entries)
    entries.pop(next(iter(entries)))
    broken = dataclasses.replace(table, entries=entries)
    assert "degree identity" in workloads._check_table(broken, cell)


def test_image_check_follows_the_sharp_law():
    lib = workloads.Library()
    cell = (0, 0, 3, 1, "sign_changes")
    first = ref.first_kind(0, ref.partner_index(0, 0))
    for label in ref.bipartitions(3):
        pi = lib.series_label(0, label)
        ctx, ctx_p = lib.contexts(cell)
        images = [
            (s.k, workloads._plain(s), m)
            for s, m in lib.unipotent.theta_images(pi, ctx, ctx_p, convention=cell[4])
        ]
        assert workloads._check_images(images, cell, label) is None
        assert bool(images) == ref.row_nonempty(label, 3, 1, first, cell[4])
        if images:
            assert workloads._check_images([], cell, label) is not None


def test_bounds_check_uses_dominance():
    labels = [((2,), ()), ((1, 1), ()), ((1,), (1,))]
    assert workloads._check_bounds(((1,), (1,)), ((2,), ()), labels) is None
    assert workloads._check_bounds(((1, 1), ()), ((2,), ()), labels) is not None


def test_reference_degrees():
    assert [ref.hook_dimension(p) for p in ref.partitions(4)] == [1, 3, 2, 3, 1]
    for n in range(6):
        assert sum(ref.bipartition_degree(b) ** 2 for b in ref.bipartitions(n)) == 2**n * math.factorial(n)


def test_meter_probes_in_proportion_to_item_time():
    meter = speed.Meter()
    meter.after(speed.EVERY_S / 2)
    assert meter.units == 0
    meter.after(speed.EVERY_S)
    assert meter.units == max(1, round(speed.SHARE * 1.5 * speed.EVERY_S / speed.NOMINAL_UNIT_S))
    assert meter.pending == 0 and meter.seconds > 0 and meter.scale() > 0
    assert speed.unit() == speed.unit()
