"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

They live beside the benchmark, outside the package's test suite, because
the comparison with ``uinv tables`` solves every table cell twice.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker
from spans import Tracer
from unitary_inversion import sdp

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_table_cells_are_the_cells_uinv_tables_solves():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "unitary_inversion.cli", "tables", "--svec-cap", "2000", "--json"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    cli_values = {}
    for key, entry in json.loads(proc.stdout)["cells"].items():
        mode, d, n = key.split("/")
        cli_values[(mode, int(d[1:]), int(n[1:]))] = entry["value"]
    assert len(worker.TABLE_CELLS) == len(set(worker.TABLE_CELLS)) == 32
    assert set(worker.TABLE_CELLS) == set(cli_values)

    result = worker.run_workload("table", seed=0, seconds=0, trace=False)
    assert result["failed"] == 0, result["records"]
    for record in result["records"]:
        cell = (record["mode"], record["d"], record["n"])
        assert record["value"] == pytest.approx(cli_values[cell], abs=1e-9), cell


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_small_traced_run_emits_every_layer_metric(workload):
    untraced = worker.run_workload(workload, seed=3, seconds=0, trace=False, small=True)
    traced = worker.run_workload(workload, seed=3, seconds=0, trace=True, small=True)
    assert untraced["failed"] == traced["failed"] == 0
    layers = run.per_layer(untraced, traced)
    assert set(layers) == set(run.PER_LAYER)
    for name, value in layers.items():
        if name.endswith(".self_s"):
            assert value >= 0, name
    assert 0.0 <= layers["trace.uncovered_frac"] <= 1.0
    # Each workload reaches the layers it was chosen for.  (Matrix units are
    # cached per process, so the untraced run above already built them.)
    expected_calls = {
        "circuit": "tensor.apply_to_subsystems.calls",
        "table": "symmetric_group.embedding_matrix.calls",
        "frontier": "symmetric_group.embedding_matrix.calls",
        "oracle": "tensor.embed_operator.calls",
    }[workload]
    assert layers[expected_calls] > 0
    # Tracing leaves the library as it found it.
    assert not hasattr(sdp.solve, "__wrapped__")


def test_a_wrong_catalyst_fails_an_honest_run_but_not_an_adversarial_one():
    circuits = worker.circuit_setup()
    rng = worker.np.random.default_rng(0)
    _, u, phi, _ = worker.circuit_items(rng, (("standard", 1),))[0]
    assert worker.circuit_run(("standard", u, phi, None), circuits)[0]
    wrong = worker.protocol.honest_catalyst(worker.tensor.haar_unitary(2, rng))
    assert not worker.circuit_run(("catalytic", u, phi, wrong), circuits)[0]
    assert worker.circuit_run(("adversarial", u, phi, wrong), circuits)[0]


def test_tracer_self_time_excludes_children_and_busy_counts_outermost():
    tracer = Tracer()

    def leaf():
        return sum(range(1000))

    traced_leaf = tracer.wrap("leaf", leaf)

    def node(depth):
        traced_leaf()
        return traced_node(depth - 1) if depth else 0

    traced_node = tracer.wrap("node", node)
    traced_node(2)
    assert tracer.calls == {"leaf": 3, "node": 3}
    assert tracer.covered_ns == tracer.busy_ns["node"]
    assert tracer.self_ns["node"] + tracer.self_ns["leaf"] == tracer.busy_ns["node"]
    assert tracer.busy_ns["leaf"] == tracer.self_ns["leaf"]


def test_without_source_tree_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "circuit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
