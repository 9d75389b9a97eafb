import dataclasses
import json

import pytest

from unitary_inversion import cli
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


def test_solve_size_cap_exit_code(capsys):
    code = main(["solve", "--d", "6", "--n", "5", "--mode", "seq"])
    capsys.readouterr()
    assert code == 3
    code = main(["solve", "--d", "3", "--n", "3", "--mode", "full-seq"])
    capsys.readouterr()
    assert code == 3
    code = main(["solve", "--d", "2", "--n", "4", "--mode", "full-seq"])
    err = capsys.readouterr().err
    assert code == 3
    assert "full-space dimension 1024 exceeds cap" in err
    assert "matrix_unit" not in err


def test_solve_out_writes_reproducible_instance(tmp_path, capsys):
    from unitary_inversion.comb_sdp import build_sequential_sdp
    from unitary_inversion.sdp import SdpProblem

    dirs = [tmp_path / "first", tmp_path / "second"]
    for out_dir in dirs:
        code, _ = run(capsys, "solve", "--d", "2", "--n", "2", "--mode", "seq", "--out", str(out_dir))
        assert code == 0
    for name in ("instance.json", "solution.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    loaded = SdpProblem.from_json((dirs[0] / "instance.json").read_text())
    built = build_sequential_sdp(2, 2)
    assert loaded.a.shape == built.a.shape
    for key in ("indptr", "indices", "data"):
        assert getattr(loaded.a, key).tobytes() == getattr(built.a, key).tobytes()
    assert loaded.rhs.tobytes() == built.rhs.tobytes()


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
    real = cli.solve

    def failing(problem, config=None):
        return dataclasses.replace(real(problem, config), status="numerical_failure", reason=reason)

    monkeypatch.setattr(cli, "solve", failing)
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


def test_tables_breach_exit_code(monkeypatch, capsys):
    from unitary_inversion import reference_tables as rt

    cells = rt.reference_cells()
    bogus = dict(cells)
    bogus[("seq", 2, 1)] = rt.ReferenceCell("seq", 2, 1, 0.9, 1e-4)
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
    assert cells[("seq", 2, 3)].value == 0.9330
    assert cells[("seq", 2, 3)].tolerance == rt.SOLVER_TOL
    assert cells[("seq", 6, 1)].tolerance == rt.PATTERN_TOL
    assert cells[("par", 5, 5)].tolerance == rt.EDGE_TOL
    assert cells[("par", 3, 3)].value == 0.4310
    assert cells[("par", 2, 1)].value == 0.5
    assert ("seq", 9, 1) not in cells


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
    ],
)
def test_invalid_sizes_and_tolerances_are_usage_errors(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
