"""Benchmark of the unitary-inversion reproduction, end to end and per layer.

    python3 perfbench/run.py --workload circuit --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Workloads (each runs in a fresh process started by this script):

- ``circuit``: seeded Haar unitaries through the seven-qubit protocol.
  Only ``tensor`` and ``protocol`` work here; no SDP layer runs.
- ``table``: the 32 cells that ``uinv tables`` solves at its default cap,
  many small programs where solver time goes to per-row Python loops.
- ``frontier``: seq d=3 n=4, the smallest cell beyond that cap, where dense
  row preprocessing and the Schur complement dominate.
- ``oracle``: the full-space programs against their reduced ones, and a
  reduce/expand round trip; one dense block instead of many small ones.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing.  ``setup_s`` is the median over ``SETUP_REPEATS`` fresh processes.
A workload repeats passes over its item list while they fit in
``--seconds`` (the SDP workloads fit one).  ``wall_s`` is the median pass
time, ``trials_per_s`` trials per pass over ``wall_s``, and
``trial_ms.p99`` the 99th percentile of trial latency over all passes.  A
trial is one protocol run on ``circuit`` (1,000 a pass) and the whole pass
on the SDP workloads, whose per-program build, solve and verify times are
in the result file.  The median trial latency is printed and kept in the
result file but is not a metric: on ``circuit`` it moved by a third
between runs as the shared host slowed and recovered, more than any bound
could absorb.

Every item is checked, and items that fail a check are counted in
``failed``, so ``failed / attempted`` is the failure fraction.

With ``--trace 1`` the metrics are per-layer: an untraced and a traced
process run one after the other, and the traced one wraps the library's
public functions (see ``worker.TRACED``).  ``trace.overhead_s`` is traced
minus untraced ``wall_s``.

The last line of output is one JSON object; a full record of the run,
with per-item records and the environment, goes to
``perfbench/results/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"

WORKLOADS = ("circuit", "table", "frontier", "oracle")
SETUP_REPEATS = 3
DEADLINE_S = 170.0  # one workload run, all of its processes together

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "1/s",
    "trial_ms.p99": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "tensor.apply_to_subsystems.calls": "count",
    "tensor.apply_to_subsystems.busy_s": "s",
    "tensor.reduced_density_matrix.busy_s": "s",
    "tensor.embed_operator.calls": "count",
    "tensor.embed_operator.busy_s": "s",
    "tensor.partial_trace.busy_s": "s",
    "symmetric_group.embedding_matrix.calls": "count",
    "symmetric_group.embedding_matrix.busy_s": "s",
    "symmetric_group.embedding_matrix.distinct_frac": "fraction",
    "symmetric_group.standard_tableaux.hit_frac": "fraction",
    "symmetric_group.permutation_matrix.busy_s": "s",
    "symmetric_group.matrix_unit.calls": "count",
    "symmetric_group.matrix_unit.busy_s": "s",
    "protocol.build_protocol.busy_s": "s",
    "protocol.run_inversion.busy_s": "s",
    "protocol.run_inversion.self_s": "s",
    "protocol.run_catalytic.busy_s": "s",
    "protocol.empirical_transfer_matrix.busy_s": "s",
    "comb_sdp.build_sequential_sdp.busy_s": "s",
    "comb_sdp.build_sequential_sdp.self_s": "s",
    "comb_sdp.build_parallel_sdp.busy_s": "s",
    "comb_sdp.build_parallel_sdp.self_s": "s",
    "comb_sdp.performance_blocks.busy_s": "s",
    "comb_sdp.svec": "count",
    "comb_sdp.build_full_sdp.busy_s": "s",
    "comb_sdp.build_full_sdp.self_s": "s",
    "comb_sdp.full_performance_operator.busy_s": "s",
    "comb_sdp.reduce_comb.busy_s": "s",
    "comb_sdp.expand_comb.busy_s": "s",
    "sdp.solve.busy_s": "s",
    "sdp.solve.iterations": "count",
    "sdp.solve.s_per_iter": "s/iter",
    "sdp.solve.rss_rise_mb": "MB",
    "sdp.solve.not_optimal": "count",
    "sdp.verify.busy_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_frac": "fraction",
}


class BenchError(RuntimeError):
    """A run that cannot produce a result."""


def spawn(workload: str, seed: int, seconds: float, trace: bool, deadline: float,
          setup_only: bool = False) -> dict:
    """Run one worker process to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before starting a process")
    command = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    if setup_only:
        command.append("--setup-only")
    command += ["--t0-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited {proc.returncode}\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def per_layer(untraced: dict, traced: dict) -> dict:
    """Per-layer metrics from an untraced and a traced run of one workload."""
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return layers


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; returns the full record."""
    deadline = time.monotonic() + DEADLINE_S
    load_start = os.getloadavg()
    if trace:
        untraced = spawn(workload, seed, seconds, False, deadline)
        traced = spawn(workload, seed, seconds, True, deadline)
        runs = [untraced, traced]
        layers = per_layer(untraced, traced)
        metrics = {name: (layers[name], unit) for name, unit in PER_LAYER.items()}
    else:
        main = spawn(workload, seed, seconds, False, deadline)
        setups = [main["setup_s"]] + [
            spawn(workload, seed, seconds, False, deadline, setup_only=True)["setup_s"]
            for _ in range(SETUP_REPEATS - 1)
        ]
        runs = [main]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": main["wall_s"],
            "trials_per_s": main["trials_per_pass"] / main["wall_s"],
            "trial_ms.p99": main["trial_ms"]["p99"],
            "peak_rss_mb": main["peak_rss_mb"],
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "env": dict(runs[0]["env"], commit=_commit(), source_sha256=_source_digest(),
                    loadavg_start=load_start, loadavg_end=os.getloadavg()),
        "runs": runs,
    }


def _commit() -> str | None:
    """The checked-out commit, when the benchmark runs inside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    """Digest of the package sources, which names the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "unitary_inversion").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def report(record: dict) -> None:
    """Human-readable lines: every metric by name with its unit."""
    w = record["workload"]
    for name, metric in record["metrics"].items():
        print(f"{w:9s} {name:48s} {metric['value']:14.6g} {metric['unit']}")
    main = record["runs"][0]
    print(f"{w:9s} {'fail_frac':48s} {record['fail_frac']:14.6g} "
          f"({record['failed']}/{record['attempted']})")
    print(f"{w:9s} passes={main['passes']} items/pass={main['items_per_pass']} "
          f"trial_ms.p50={main['trial_ms']['p50']:.6g} "
          f"trial latency samples={main['trial_ms']['samples']}")
    for run in record["runs"]:
        for error in run["errors"]:
            print(f"{w:9s} error: {error}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "unitary_inversion" / "__init__.py").is_file():
        print(f"no unitary_inversion source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for workload in workloads:
            record = measure(workload, args.seed, args.seconds, bool(args.trace))
            RESULTS.mkdir(exist_ok=True)
            out = RESULTS / f"{workload}-seed{args.seed}-trace{args.trace}.json"
            out.write_text(json.dumps(record, indent=1))
            report(record)
            records.append(record)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 3
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
