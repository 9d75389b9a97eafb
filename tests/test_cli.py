import json

import pytest

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
    assert rt.reference_value("par", 2, 1).value == 0.5
    assert rt.reference_value("seq", 9, 1) is None


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
    for modes in ("foo", "full-seq", "seq,full-par", ","):
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
    ],
)
def test_invalid_sizes_and_tolerances_are_usage_errors(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
