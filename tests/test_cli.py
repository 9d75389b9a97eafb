import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from unitary_inversion import cli, sdp
from unitary_inversion.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_simulate_standard(capsys):
    code, out = run(capsys, "simulate", "--trials", "5", "--seed", "7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["min_fidelity"] >= 1 - 1e-10
    assert len(payload["per_trial"]) == 5


def test_simulate_catalytic(capsys):
    code, out = run(
        capsys, "simulate", "--trials", "1", "--seed", "0", "--mode", "catalytic", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["per_trial"][0]["catalyst_fidelity"] >= 1 - 1e-10


def test_simulate_adversarial_reports_without_asserting(capsys):
    code, out = run(
        capsys, "simulate", "--trials", "10", "--seed", "3", "--mode", "adversarial", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    fidelities = [r["target_fidelity"] for r in payload["per_trial"]]
    assert all(f < 1.0 for f in fidelities)


def test_simulate_payload_reproducible(capsys):
    _, first = run(capsys, "simulate", "--trials", "4", "--seed", "11", "--json")
    _, second = run(capsys, "simulate", "--trials", "4", "--seed", "11", "--json")
    assert first == second


# SHA-256 of the printed payload of `simulate --trials 50 --seed 7 --json`
# per mode: any change to the circuit's numerics moves these digests.
SIMULATE_DIGESTS = {
    "standard": "fa5f61ff00008f667afd40fee8fc0618dc76e67895c93762d193b9b5dd9b6812",
    "catalytic": "d08a8b7c0b8583a737ea6bcab1dcb66fee2fd38cfdcf607a04fc4f57003a4b69",
    "adversarial": "8f2323a6ec758ed33108fd1dc96703831ddc1089ea2b092bb4cc2ef4904bb347",
}


@pytest.mark.parametrize("mode", sorted(SIMULATE_DIGESTS))
def test_simulate_payload_digest_is_pinned(mode, capsys):
    _, out = run(capsys, "simulate", "--trials", "50", "--seed", "7", "--mode", mode, "--json")
    assert hashlib.sha256(out.encode()).hexdigest() == SIMULATE_DIGESTS[mode]


BOUNDARY_SCRIPT = """
import json, sys
from pathlib import Path
from unitary_inversion import cli, protocol
out = Path(sys.argv[1])
code = cli.main(["simulate", "--trials", "3"])
protocol.build_protocol("matrix")
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
(out / "boundary.json").write_text(json.dumps({"code": code, "scipy": scipy}))
for argv in (["solve", "--d", "2", "--n", "1"], ["tables", "--d-max", "2", "--n-max", "1"]):
    cli.main(argv + ["--out", str(out / argv[0])])
"""


def test_simulate_never_loads_scipy(tmp_path):
    # the circuit path, the matrix-path reference build included, is numpy
    # alone; the SDP commands record the --svec-cap default in their manifests
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    subprocess.run(
        [sys.executable, "-c", BOUNDARY_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, check=True,
    )
    report = json.loads((tmp_path / "boundary.json").read_text())
    assert report == {"code": 0, "scipy": []}
    for command in ("solve", "tables"):
        manifest = json.loads((tmp_path / command / "manifest.json").read_text())
        assert manifest["parameters"]["svec_cap"] == cli.REDUCED_SVEC_CAP == 2000


def test_solve_sequential_cell(capsys):
    code, out = run(capsys, "solve", "--d", "2", "--n", "4", "--mode", "seq", "--json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["optimal_fidelity"] - 1.0) <= 1e-4
    assert payload["status"] == "optimal"


def test_solve_parallel_cell(capsys):
    code, out = run(capsys, "solve", "--d", "2", "--n", "2", "--mode", "par", "--json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["optimal_fidelity"] - 0.6545) <= 1e-3


def test_solve_full_matches_reduced(capsys):
    code, out = run(capsys, "solve", "--d", "2", "--n", "1", "--mode", "full-seq", "--json")
    assert code == 0
    full_value = json.loads(out)["optimal_fidelity"]
    code, out = run(capsys, "solve", "--d", "2", "--n", "1", "--mode", "seq", "--json")
    assert code == 0
    reduced_value = json.loads(out)["optimal_fidelity"]
    assert abs(full_value - reduced_value) <= 1e-5


def test_solve_size_cap_exit_code(monkeypatch, capsys):
    # both caps refuse from mode, d and n alone, before any builder runs
    from unitary_inversion import comb_sdp

    def unbuilt(*args):
        raise AssertionError("a cell over its cap reached a builder")

    for name in ("build_full_sdp", "build_sequential_sdp", "build_parallel_sdp"):
        monkeypatch.setattr(comb_sdp, name, unbuilt)
    code = main(["solve", "--d", "6", "--n", "5", "--mode", "seq"])
    assert capsys.readouterr().err == "size cap: reduced instance (d=6, n=5) exceeds svec cap 2000\n"
    assert code == 3
    code = main(["solve", "--d", "3", "--n", "3", "--mode", "full-seq"])
    capsys.readouterr()
    assert code == 3
    code = main(["solve", "--d", "2", "--n", "4", "--mode", "full-seq"])
    err = capsys.readouterr().err
    assert code == 3
    assert "full-space dimension 1024 exceeds cap" in err
    assert "matrix_unit" not in err
    for d, n, total in ((3, 2, 729), (5, 1, 625)):
        for mode in ("full-seq", "full-par"):
            code = main(["solve", "--d", str(d), "--n", str(n), "--mode", mode])
            assert code == 3
            assert f"full-space dimension {total} exceeds cap 256" in capsys.readouterr().err


def test_only_a_size_cap_exits_3(monkeypatch, capsys):
    # any other build error propagates instead of being reported as a cap
    from unitary_inversion import comb_sdp

    def broken(*args):
        raise ValueError("every read must name a row")

    monkeypatch.setattr(comb_sdp, "build_sequential_sdp", broken)
    monkeypatch.setattr(comb_sdp, "build_full_sdp", broken)
    for argv in (
        ["solve", "--d", "2", "--n", "2"],
        ["solve", "--d", "2", "--n", "1", "--mode", "full-seq"],
        ["tables", "--d-max", "2", "--n-max", "1", "--modes", "seq"],
    ):
        with pytest.raises(ValueError, match="every read"):
            main(argv)
    assert "size cap" not in capsys.readouterr().err


# cells far over a cap: the exponent d^(2n+2) cannot be printed at full-seq
# (2, 8000), and the reduced ones have a million to hundreds of millions of
# ordered diagram pairs
OVERSIZED = [
    ["solve", "--mode", "full-seq", "--d", "2", "--n", "8000"],
    ["solve", "--d", "6", "--n", "40"],
    ["solve", "--d", "2", "--n", "2000"],
    ["solve", "--d", "2", "--n", "4000"],
    ["solve", "--d", "10", "--n", "40"],
    ["tables", "--d-min", "10", "--d-max", "10", "--n-min", "40", "--n-max", "40"],
]


@pytest.mark.parametrize("argv", OVERSIZED, ids=" ".join)
def test_an_oversized_cell_is_refused_in_bounded_time(argv):
    # a subprocess with a timeout, so that a refusal that builds or enumerates
    # the instance fails here instead of hanging or exhausting memory
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "unitary_inversion.cli", *argv],
        env=env, capture_output=True, text=True, timeout=20,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 3, done.stderr
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("size cap: ")
    assert elapsed < 2.0


@settings(max_examples=200, deadline=None)
@given(
    mode=st.sampled_from(["seq", "par", "full-seq", "full-par"]),
    d=st.integers(2, 50),
    n=st.integers(1, 10**6),
)
@example(mode="seq", d=3, n=4)
@example(mode="par", d=2, n=5)
@example(mode="full-seq", d=2, n=4)
@example(mode="full-par", d=5, n=1)
@example(mode="full-par", d=3, n=2)
def test_every_cell_over_its_cap_exits_3(mode, d, n):
    # the default caps admit d^(2n+2) <= 256 in full modes, and n <= 3 or
    # (d, n) = (2, 4) in reduced ones: the 32 default table cells and, at
    # d > 6, cells with the block sizes of d = 6
    if mode.startswith("full-"):
        admitted = n <= 3 and d ** (2 * n + 2) <= 256
    else:
        admitted = n <= 3 or (d, n) == (2, 4)
    assume(not admitted)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["solve", "--mode", mode, "--d", str(d), "--n", str(n)])
    assert code == 3
    assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("size cap: ")


def test_solve_manifest_records_only_a_cap_that_applies(tmp_path, capsys):
    # a full mode has no svec cap, so its manifest keeps the parsed None
    for mode, cap in (("full-par", None), ("seq", cli.REDUCED_SVEC_CAP)):
        code = main(["solve", "--mode", mode, "--d", "2", "--n", "1", "--out", str(tmp_path / mode)])
        assert code == 0
        manifest = json.loads((tmp_path / mode / "manifest.json").read_text())
        assert manifest["parameters"]["svec_cap"] == cap
    capsys.readouterr()


def test_solve_out_writes_reproducible_instance(tmp_path, capsys):
    from test_sdp_solver import assert_payload_holds
    from unitary_inversion.comb_sdp import build_sequential_sdp

    dirs = [tmp_path / "first", tmp_path / "second"]
    for out_dir in dirs:
        code, _ = run(capsys, "solve", "--d", "2", "--n", "2", "--mode", "seq", "--out", str(out_dir))
        assert code == 0
    for name in ("instance.json", "solution.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    payload = json.loads((dirs[0] / "instance.json").read_text())
    assert_payload_holds(payload, build_sequential_sdp(2, 2))
    assert {k: payload[k] for k in ("d", "n", "mode")} == {"d": 2, "n": 2, "mode": "seq"}


def test_tables_small_grid(tmp_path, capsys):
    out_dir = tmp_path / "tables"
    code, out = run(
        capsys,
        "tables",
        "--d-min", "2", "--d-max", "3",
        "--n-min", "1", "--n-max", "2",
        "--out", str(out_dir),
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["breaches"] == 0
    assert abs(payload["cells"]["seq/d2/n2"]["value"] - 0.75) <= 1e-3
    table = (out_dir / "table_seq.csv").read_text().splitlines()
    assert table[0] == "d,n=1,n=2"
    assert table[1].startswith("2,0.5000,0.7500")
    deviations = (out_dir / "deviations.csv").read_text().splitlines()
    assert deviations[0] == "mode,d,n,computed,reference,tolerance,deviation,status"
    assert all(line.endswith(",ok") for line in deviations[1:])
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert set(manifest["artifact_hashes"]) >= {"table_seq.csv", "table_par.csv", "deviations.csv"}


def test_tables_marks_skipped_cells(tmp_path, capsys):
    out_dir = tmp_path / "skip"
    code, _ = run(
        capsys,
        "tables",
        "--d-min", "2", "--d-max", "2",
        "--n-min", "4", "--n-max", "5",
        "--modes", "seq",
        "--out", str(out_dir),
    )
    assert code == 0
    table = (out_dir / "table_seq.csv").read_text()
    assert "SKIPPED" in table  # n=5 exceeds the default size cap
    assert "1.0000" in table


def test_tables_size_cap_rejecting_every_cell(capsys):
    code = main(
        ["tables", "--d-min", "2", "--d-max", "3", "--n-min", "2", "--n-max", "3",
         "--svec-cap", "1", "--json"]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "svec cap 1" in captured.err


def test_solver_failure_prints_its_reason(monkeypatch, capsys):
    reason = "Schur complement not positive definite at iteration 3"
    real = sdp.solve

    def failing(problem, config=None):
        return dataclasses.replace(real(problem, config), status="numerical_failure", reason=reason)

    monkeypatch.setattr(sdp, "solve", failing)
    assert main(["solve", "--d", "2", "--n", "1", "--json"]) == 4
    captured = capsys.readouterr()
    assert reason in captured.err
    payload = json.loads(captured.out)
    assert (payload["status"], payload["reason"]) == ("numerical_failure", reason)
    argv = ["tables", "--d-max", "2", "--n-max", "1", "--modes", "seq", "--json"]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert "seq d=2 n=1" in captured.err and reason in captured.err
    payload = json.loads(captured.out)
    assert payload["cells"]["seq/d2/n1"]["reason"] == reason
    assert payload["solver_failures"] == 1


def test_solver_options_reach_the_solver(monkeypatch, capsys):
    # a command that built SolverConfig() instead would still solve, to the defaults
    real, configs = sdp.solve, []

    def capture(problem, config=None):
        configs.append(config)
        return real(problem, config)

    monkeypatch.setattr(sdp, "solve", capture)
    tolerances = ["--tol-gap", "1e-7", "--tol-feas", "1e-9"]
    assert main(["solve", "--d", "2", "--n", "1", *tolerances, "--max-iterations", "50"]) == 0
    assert main(["tables", "--d-max", "2", "--n-max", "1", "--modes", "seq", *tolerances]) == 0
    capsys.readouterr()
    assert [(c.gap_tol, c.feasibility_tol, c.max_iterations) for c in configs] == [
        (1e-7, 1e-9, 50), (1e-7, 1e-9, 200),
    ]


def test_iteration_cap_ends_the_solve_with_its_reason(capsys):
    code = main(["solve", "--d", "2", "--n", "2", "--max-iterations", "2", "--json"])
    captured = capsys.readouterr()
    assert code == 4
    reason = "no convergence within 2 iterations"
    assert f"solver max_iter: {reason}" in captured.err
    assert json.loads(captured.out)["reason"] == reason


def reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


def test_diverged_solve_exits_with_its_reason(monkeypatch, tmp_path, capsys):
    # a NaN step is refused, so the payloads describe the last finite iterate
    real = sdp._step_length
    calls = []

    def nan_step(*args):
        # an iteration steps X then Z for the predictor, and again for the
        # corrector; the seventh call is X's in the second iteration's corrector
        calls.append(None)
        alpha = real(*args)
        return math.nan if len(calls) == 7 else alpha

    monkeypatch.setattr(sdp, "_step_length", nan_step)
    code = main(["solve", "--d", "2", "--n", "2", "--json", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 4
    payload = json.loads(captured.out, parse_constant=reject_constant)
    assert payload["status"] == "numerical_failure"
    assert payload["reason"].startswith("iterates diverge (max |X| nan")
    assert f"solver numerical_failure: {payload['reason']}" in captured.err
    solution = json.loads((tmp_path / "solution.json").read_text(), parse_constant=reject_constant)
    assert solution["reason"] == payload["reason"]
    # an iterate's value is not called the optimum, in the payload or the text line
    assert "optimal_fidelity" not in payload and payload["objective"] == solution["objective"]
    calls.clear()
    assert main(["solve", "--d", "2", "--n", "2"]) == 4
    line = capsys.readouterr().out
    assert line.startswith(f"seq d=2 n=2: objective {payload['objective']:.6f} ") and "optim" not in line


def test_tables_marks_failed_cells(monkeypatch, tmp_path, capsys):
    real = sdp.solve

    def failing(problem, config=None):
        solution = real(problem, config)
        if problem.metadata == {"d": 2, "n": 1, "mode": "seq"}:
            # an iterate far from the reference: a failure that also breaches
            return dataclasses.replace(
                solution, status="numerical_failure", reason="forced", objective_value=0.1
            )
        return solution

    monkeypatch.setattr(sdp, "solve", failing)
    out_dir = tmp_path / "failed"
    code, out = run(
        capsys, "tables", "--d-max", "2", "--n-max", "2", "--modes", "seq", "--out", str(out_dir)
    )
    assert code == 4
    assert "2,FAILED,0.7500" in out.splitlines()
    assert (out_dir / "table_seq.csv").read_text().splitlines()[1] == "2,FAILED,0.7500"
    deviations = (out_dir / "deviations.csv").read_text().splitlines()
    assert deviations[1].startswith("seq,2,1,") and deviations[1].endswith(",numerical_failure")
    assert deviations[2].startswith("seq,2,2,") and deviations[2].endswith(",ok")
    payload = json.loads((out_dir / "tables.json").read_text())
    assert (payload["solver_failures"], payload["breaches"]) == (1, 1)


def test_tables_breach_exit_code(monkeypatch, capsys):
    from unitary_inversion import reference_tables as rt

    cells = rt.reference_cells()
    bogus = dict(cells)
    bogus[("seq", 2, 1)] = rt.ReferenceCell(0.9, 1e-4)
    monkeypatch.setattr("unitary_inversion.cli.reference_tables.reference_cells", lambda: bogus)
    code = main(
        ["tables", "--d-min", "2", "--d-max", "2", "--n-min", "1", "--n-max", "1",
         "--modes", "seq"]
    )
    capsys.readouterr()
    assert code == 2


def test_reference_dataset_tolerances():
    from unitary_inversion import reference_tables as rt

    cells = rt.reference_cells()
    # one rule for every cell: a unit in the table's last printed place
    assert len(cells) == 50 and rt.TOLERANCE == 1e-4
    assert {cell.tolerance for cell in cells.values()} == {rt.TOLERANCE}
    assert cells[("seq", 2, 3)].value == 0.9330
    assert cells[("par", 3, 3)].value == 0.4310
    assert cells[("par", 2, 1)].value == 0.5
    assert ("seq", 9, 1) not in cells


def test_tables_catches_a_scaled_objective(monkeypatch, capsys):
    # an objective scaled by 1 + 2e-4 moves each value by 2e-4 of itself:
    # past the table's 1e-4 at these eight default cells and no other
    from unitary_inversion import comb_sdp

    real = comb_sdp.performance_blocks

    def scaled(d, n):
        comb = real(d, n)
        return dataclasses.replace(
            comb, blocks={key: block * (1 + 2e-4) for key, block in comb.blocks.items()}
        )

    monkeypatch.setattr(comb_sdp, "performance_blocks", scaled)
    code, out = run(capsys, "tables", "--json")
    assert code == 2
    payload = json.loads(out)
    assert (payload["breaches"], payload["solver_failures"]) == (8, 0)
    breached = {
        key for key, cell in payload["cells"].items() if cell["deviation"] > cell["tolerance"]
    }
    assert breached == {
        f"{mode}/d{d}/n{n}"
        for mode in ("seq", "par")
        for d, n in ((2, 2), (2, 3), (2, 4), (3, 3))
    }


def test_manifest_written_for_simulate(tmp_path, capsys):
    out_dir = tmp_path / "sim"
    code, _ = run(
        capsys, "simulate", "--trials", "2", "--seed", "1", "--out", str(out_dir)
    )
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert "simulate.json" in manifest["artifact_hashes"]
    assert manifest["wall_time"] > 0


# SHA-256 of the printed payload of each command, with the files its --out
# writes besides manifest.json; tables runs at its defaults
OUT_RUNS = {
    "simulate": (
        ["--trials", "50", "--seed", "7"],
        SIMULATE_DIGESTS["standard"],
        {"simulate.json"},
    ),
    "solve": (
        ["--d", "2", "--n", "4"],
        "d38d4ea5512727abbaa79dc62e30ce0d0a96c5031b29244cb49a610e8ed580bb",
        {"solve.json", "solution.json", "instance.json"},
    ),
    "tables": (
        [],
        "ce56ca6ead214ffdae7f875eea82b11ced7e9e6707334d5ffba4dbd42718c640",
        {"tables.json", "table_seq.csv", "table_par.csv", "deviations.csv"},
    ),
}


@pytest.mark.parametrize("command", sorted(OUT_RUNS))
def test_out_manifest_hashes_exactly_the_written_files(command, tmp_path, capsys):
    options, digest, artifacts = OUT_RUNS[command]
    argv = [command, *options, "--json"]
    code, out = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert (tmp_path / f"{command}.json").read_text() + "\n" == out
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    written = {path.name for path in tmp_path.iterdir()}
    assert written == artifacts | {"manifest.json"}
    assert manifest["artifact_hashes"] == {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in artifacts
    }
    parameters = vars(cli.build_parser().parse_args(argv))
    del parameters["func"], parameters["out"]
    if command == "solve":
        # solve's parser leaves --svec-cap unset, so that main can refuse a
        # given one under a full mode; main fills in the default it solves with
        assert parameters["svec_cap"] is None
        parameters["svec_cap"] = cli.REDUCED_SVEC_CAP
    assert manifest["parameters"] == parameters
    assert manifest["command"] == command
    assert manifest["seed"] == (7 if command == "simulate" else 0)
    assert manifest["wall_time"] > 0


def test_tables_rejects_modes_outside_seq_and_par(capsys):
    for modes in ("foo", "full-seq", "seq,full-par", ",", "seq,seq", "par,seq,par"):
        with pytest.raises(SystemExit) as exc:
            main(["tables", "--modes", modes])
        assert exc.value.code == 2
        assert "--modes" in capsys.readouterr().err


def test_simulate_rejects_non_positive_trials(capsys):
    for trials in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--trials", trials])
        assert exc.value.code == 2
        assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["solve", "--d", "1", "--n", "1"], "--d"),
        (["solve", "--d", "2", "--n", "0"], "--n"),
        (["solve", "--d", "2", "--n", "1", "--max-iterations", "0"], "--max-iterations"),
        (["solve", "--d", "2", "--n", "1", "--tol-gap", "0"], "--tol-gap"),
        (["solve", "--d", "2", "--n", "1", "--tol-feas", "-1e-8"], "--tol-feas"),
        (["tables", "--d-min", "1"], "--d-min"),
        (["tables", "--d-max", "1"], "--d-max"),
        (["tables", "--n-min", "0"], "--n-min"),
        (["tables", "--n-max", "0"], "--n-max"),
        (["tables", "--tol-gap", "nan"], "--tol-gap"),
        (["tables", "--tol-feas", "0"], "--tol-feas"),
        (["solve", "--d", "2", "--n", "1", "--svec-cap", "0"], "--svec-cap"),
        (["tables", "--svec-cap", "-1"], "--svec-cap"),
        (["tables", "--d-min", "4", "--d-max", "2"], "--d-min"),
        (["tables", "--n-min", "3", "--n-max", "2"], "--n-min"),
        (["solve", "--d", "2", "--n", "2", "--tol-gap", "inf", "--tol-feas", "inf"], "--tol-gap"),
        (["tables", "--tol-feas", "-inf"], "--tol-feas"),
        (["solve", "--d", "abc", "--n", "1"], "--d"),
        (["simulate", "--trials", "1.5"], "--trials"),
        (["tables", "--tol-gap", "x"], "--tol-gap"),
        (["simulate", "--seed", "-1"], "--seed"),
        # --out must name a directory, or a path that can become one, before any work
        (["simulate", "--out", __file__], "--out"),
        (["solve", "--d", "2", "--n", "1", "--out", __file__], "--out"),
        (["tables", "--out", __file__], "--out"),
        (["tables", "--out", str(Path(__file__) / "sub")], "--out"),
        # full programs have their own fixed cap, which --svec-cap never reached
        (["solve", "--mode", "full-seq", "--d", "2", "--n", "1", "--svec-cap", "1"], "--svec-cap"),
        # the default's own value included
        (["solve", "--mode", "full-seq", "--d", "2", "--n", "1", "--svec-cap", "2000"], "--svec-cap"),
    ],
)
def test_invalid_sizes_and_tolerances_are_usage_errors(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err
    # the message is the parser's own, not a traceback or a private helper's name
    assert "Traceback" not in err and not re.search(r"(?<!\w)_[a-z]", err)
