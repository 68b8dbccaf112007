import json
import math

import pytest

from lovotr.bench import DataProfile, emit, summarize_simplex_gradients
from lovotr.cli import main
from lovotr.problem import load_problem


def test_gen_qd_writes_loadable_problems(tmp_path):
    out = tmp_path / "problems"
    assert main(["gen-qd", "--n", "3", "--r", "2", "--seed", "9",
                 "--count", "4", "--out", str(out)]) == 0
    files = sorted(out.glob("*.problem.json"))
    assert len(files) == 4
    problem = load_problem(files[0])
    assert problem.n == 3 and problem.r == 2


def test_full_pipeline(tmp_path, capsys):
    problems = tmp_path / "problems"
    traces = tmp_path / "traces"
    profiles = tmp_path / "profiles"
    main(["gen-qd", "--n", "3", "--r", "2", "--seed", "9",
          "--count", "2", "--out", str(problems)])

    assert main(["bench", "run", "--problems", str(problems),
                 "--budget-rule", "component", "--out", str(traces), "-v"]) == 0
    csvs = sorted(traces.glob("*.csv"))
    manifests = sorted(p for p in traces.glob("*.json"))
    assert len(csvs) == 2 and len(manifests) == 2
    assert csvs[0].read_text().splitlines()[0] == "t,f_best"
    manifest = json.loads(manifests[0].read_text())
    assert {"problem", "n", "r", "budget", "status"} <= set(manifest)

    assert main(["bench", "profile", "--traces", str(traces),
                 "--tau", "1e-1,1e-5", "--out", str(profiles), "--svg"]) == 0
    assert len(sorted(profiles.glob("*.csv"))) == 2
    assert len(sorted(profiles.glob("*.svg"))) == 2

    profile_csv = sorted(profiles.glob("*.csv"))[0]
    assert main(["bench", "table", "--profile", str(profile_csv),
                 "--fractions", "0.5,1.0"]) == 0
    out = capsys.readouterr().out
    assert "fraction,kappa" in out

    table_csv = tmp_path / "table.csv"
    assert main(["bench", "table", "--profile", str(profile_csv),
                 "--fractions", "0.5", "--out", str(table_csv)]) == 0
    assert table_csv.read_text().startswith("fraction,kappa")


def test_config_file_and_sample_dump(tmp_path):
    problems = tmp_path / "problems"
    traces = tmp_path / "traces"
    main(["gen-qd", "--n", "2", "--r", "1", "--seed", "3",
          "--count", "1", "--out", str(problems)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nrhomax": 2, "tau1": 0.4}))
    dump = tmp_path / "samples.jsonl"
    assert main(["bench", "run", "--problems", str(problems),
                 "--config", str(cfg), "--out", str(traces),
                 "--dump-samples", str(dump)]) == 0
    records = [json.loads(line) for line in dump.read_text().splitlines()]
    assert records and {"problem", "k", "points", "values",
                        "model_index", "condition_estimate"} <= set(records[0])


def _table_rows(text):
    lines = text.strip().splitlines()
    assert lines[0] == "fraction,kappa"
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


def test_table_counts_unsolved_problems(tmp_path, capsys):
    # profile CSVs list only the solved problems: 2 of 4 here
    profile = DataProfile(tau=1e-5, n_problems=4,
                          solve_kappas={"a": 1.0, "b": 2.0, "c": None, "d": None})
    fractions = [0.5, 0.75, 1.0]
    expected = summarize_simplex_gradients(profile, fractions)
    assert expected == [(0.5, 2.0), (0.75, math.inf), (1.0, math.inf)]
    path = emit(profile, tmp_path / "profile.csv")
    assert main(["bench", "table", "--profile", path,
                 "--fractions", "0.5,0.75,1.0"]) == 0
    assert _table_rows(capsys.readouterr().out) == expected


def test_table_of_empty_profile_is_unreachable(tmp_path, capsys):
    profile = DataProfile(tau=1e-5, n_problems=3,
                          solve_kappas={"a": None, "b": None, "c": None})
    path = emit(profile, tmp_path / "profile.csv")
    assert main(["bench", "table", "--profile", path,
                 "--fractions", "0.2,1.0"]) == 0
    assert _table_rows(capsys.readouterr().out) == [(0.2, math.inf),
                                                    (1.0, math.inf)]


def test_table_refuses_a_csv_of_several_profiles(tmp_path, capsys):
    # emit writes every profile of a dict into one CSV with no tag column;
    # read as one profile it would mix taus and counts
    loose = DataProfile(tau=0.1, n_problems=4,
                        solve_kappas={"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0})
    tight = DataProfile(tau=1e-5, n_problems=4,
                        solve_kappas={"a": 5.0, "b": None, "c": None, "d": None})
    path = emit({"loose": loose, "tight": tight}, tmp_path / "profiles.csv")
    with pytest.raises(SystemExit) as exc:
        main(["bench", "table", "--profile", path, "--fractions", "0.25,0.5"])
    message = str(exc.value)
    assert "more than one tau" in message and "\n" not in message
    assert capsys.readouterr().out == ""


def _one_problem(tmp_path):
    problems = tmp_path / "problems"
    main(["gen-qd", "--n", "2", "--r", "1", "--seed", "3",
          "--count", "1", "--out", str(problems)])
    return problems


@pytest.mark.parametrize("settings, named", [
    ({"nrhomax": 2, "maxalt": 5}, "maxalt"),
    ({"tau1": 0.9, "tau2": 0.5}, "tau1"),
], ids=["unknown-key", "bad-ordering"])
def test_bad_config_exits_with_one_line(tmp_path, settings, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    with pytest.raises(SystemExit) as exc:
        main(["bench", "run", "--problems", str(_one_problem(tmp_path)),
              "--config", str(cfg), "--out", str(tmp_path / "traces")])
    message = str(exc.value)
    assert named in message and str(cfg) in message and "\n" not in message
    assert not (tmp_path / "traces").exists()


def test_missing_problem_directory_exits_with_one_line(tmp_path):
    missing = tmp_path / "nowhere"
    with pytest.raises(SystemExit) as exc:
        main(["bench", "run", "--problems", str(missing),
              "--out", str(tmp_path / "traces")])
    message = str(exc.value)
    assert str(missing) in message and "\n" not in message
