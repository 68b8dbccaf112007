import json
import math
import shutil

import numpy as np
import pytest

from lovotr import cli
from lovotr.bench import RunTrace, campaign_budget, run_campaign, write_trace
from lovotr.cli import main
from lovotr.problem import EvalLedger, load_problem, problem_to_dict
from lovotr.solver import SolverConfig, solve
from lovotr.testsets import HS_CATALOG, gen_hs


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
    assert len(sorted(profiles.glob("profile_tau*.csv"))) == 2
    assert len(sorted(profiles.glob("profile_tau*.svg"))) == 2
    assert "tau=1e-05: solved fraction" in capsys.readouterr().out
    tables = sorted(profiles.glob("table_tau*.csv"))
    assert [t.name for t in tables] == ["table_tau0.1.csv", "table_tau1e-05.csv"]
    lines = tables[0].read_text().splitlines()
    assert lines[0] == "fraction,kappa"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.2", "0.4", "0.6",
                                                         "0.8", "0.85"]


def test_no_cheap_rho_and_sample_dump(tmp_path):
    problems = tmp_path / "problems"
    traces = tmp_path / "traces"
    main(["gen-qd", "--n", "2", "--r", "3", "--seed", "3",
          "--count", "2", "--out", str(problems)])
    dump = tmp_path / "samples.jsonl"
    assert main(["bench", "run", "--problems", str(problems), "--no-cheap-rho",
                 "--out", str(traces), "--dump-samples", str(dump)]) == 0
    # the flag runs exactly SolverConfig(use_cheap_rho=False), which here
    # writes a different trace from the default
    for config in (SolverConfig(use_cheap_rho=False), SolverConfig()):
        expected = tmp_path / f"expected-{config.use_cheap_rho}"
        expected.mkdir()
        for trace in run_campaign(cli._load_problems(problems), config):
            write_trace(trace, expected)
    for path in traces.iterdir():
        assert path.read_bytes() == (tmp_path / "expected-False" / path.name).read_bytes()
    assert any(path.read_bytes() != (tmp_path / "expected-True" / path.name).read_bytes()
               for path in traces.iterdir())
    records = [json.loads(line) for line in dump.read_text().splitlines()]
    assert records and {"problem", "k", "points", "values",
                        "model_index", "condition_estimate"} <= set(records[0])
    # one record per iteration of each problem's run, in order
    loaded = cli._load_problems(problems)
    assert len(loaded) == 2
    for problem in loaded:
        budget = campaign_budget(problem, 2, "component")
        result = solve(problem, SolverConfig(use_cheap_rho=False),
                       ledger=EvalLedger(problem.r, budget=budget))
        ks = [r["k"] for r in records if r["problem"] == problem.name]
        assert ks == list(range(result.iterations)) and ks
    for record in records:  # the Frobenius condition number of the dumped points
        points = np.asarray(record["points"])
        m = np.hstack([np.ones((len(points), 1)), points - points[0]])
        cond = record["condition_estimate"]
        assert math.isfinite(cond)
        assert cond == pytest.approx(np.linalg.cond(m, "fro"), rel=1e-6)


def _write_traces(directory, kappas):
    """One n=1, r=1 trace per kappa, from f(x0) = 10 down to 0 at that kappa.

    A trace whose kappa is None stays at 10; with the reference value 0 it
    never solves the problem.  Returns the ``--f-l`` file setting f_L = 0.
    """
    directory.mkdir()
    for idx, kappa in enumerate(kappas):
        samples = [(1, 10.0)] + ([] if kappa is None else [(round(2 * kappa), 0.0)])
        write_trace(RunTrace(problem_name=f"p{idx}", n_p=1, r_p=1,
                             metering="component", budget=200, f_x0=10.0,
                             samples=samples, status="success"), directory)
    f_l = directory.parent / "f_l.json"
    f_l.write_text(json.dumps({f"p{idx}": 0.0 for idx in range(len(kappas))}))
    return f_l


def _profile_table(tmp_path, kappas):
    f_l = _write_traces(tmp_path / "traces", kappas)
    profiles = tmp_path / "profiles"
    assert main(["bench", "profile", "--traces", str(tmp_path / "traces"),
                 "--tau", "1e-5", "--f-l", str(f_l), "--out", str(profiles)]) == 0
    return (profiles / "table_tau1e-05.csv").read_text()


def test_table_counts_unsolved_problems(tmp_path):
    # 2 of 4 problems solved: 40% of them need 2 simplex gradients, 60% never
    assert cli.TABLE_FRACTIONS == (0.2, 0.4, 0.6, 0.8, 0.85)
    assert _profile_table(tmp_path, [1.0, 2.0, None, None]) == (
        "fraction,kappa\n0.2,1\n0.4,2\n0.6,inf\n0.8,inf\n0.85,inf\n")


def test_table_of_empty_profile_is_unreachable(tmp_path):
    assert _profile_table(tmp_path, [None, None, None]) == (
        "fraction,kappa\n0.2,inf\n0.4,inf\n0.6,inf\n0.8,inf\n0.85,inf\n")


def test_final_point_keys_are_not_read_back(tmp_path):
    # a profile needs neither x_final nor i_final, so a bad one changes nothing
    (tmp_path / "plain").mkdir()
    expected = _profile_table(tmp_path / "plain", [1.0, None])
    f_l = _write_traces(tmp_path / "traces", [1.0, None])
    manifest_path = tmp_path / "traces" / "p0.json"
    manifest = json.loads(manifest_path.read_text())
    manifest.update(x_final=["a"], i_final="b")
    manifest_path.write_text(json.dumps(manifest))
    assert main(["bench", "profile", "--traces", str(tmp_path / "traces"),
                 "--tau", "1e-5", "--f-l", str(f_l),
                 "--out", str(tmp_path / "profiles")]) == 0
    assert (tmp_path / "profiles" / "table_tau1e-05.csv").read_text() == expected


@pytest.mark.parametrize("tau", ["abc", "", ",", "nan", "-1", "0", "1", "inf",
                                 "1e-3,2"])
def test_bad_tau_exits_with_one_line(tmp_path, capsys, tau):
    f_l = _write_traces(tmp_path / "traces", [1.0])
    with pytest.raises(SystemExit) as exc:
        main(["bench", "profile", "--traces", str(tmp_path / "traces"),
              "--tau", tau, "--f-l", str(f_l), "--out", str(tmp_path / "profiles")])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error:" in line]
    assert len(errors) == 1 and "argument --tau" in errors[0]
    assert not (tmp_path / "profiles").exists()


# A manifest key set to a value of the wrong type, and the value.
MANIFEST_FAULTS = {
    "string-n": ("n", "3"),
    "string-f-x0": ("f_x0", "2.0"),
    "negative-n": ("n", -1),
    "metering-typo": ("metering", "fmn"),
    "int-problem": ("problem", 3),
}


# A CSV row no run writes, appended after (1, 10.0) and (2, 0.0).
TRACE_ROW_FAULTS = {
    "nan-f-best": "3,nan\n",
    "negative-t": "-7,0.0\n",
    "t-decreases": "1,0.0\n",
    "f-best-rises": "3,5.0\n",
}


@pytest.mark.parametrize("fault", ["missing-dir", "empty-dir", "not-json",
                                   "not-a-manifest", "no-csv", "empty-csv",
                                   "short-row", "bad-int", *TRACE_ROW_FAULTS,
                                   "missing-f-l",
                                   "f-l-list", "f-l-string", "f-l-nan",
                                   "out-is-file", "repeated-problem",
                                   *MANIFEST_FAULTS])
def test_bad_trace_input_exits_with_one_line(tmp_path, capsys, fault):
    traces = tmp_path / "traces"
    args = ["bench", "profile", "--traces", str(traces),
            "--out", str(tmp_path / "profiles")]
    named = traces
    if fault != "missing-dir":
        f_l = _write_traces(traces, [1.0])
    if fault == "empty-dir":
        for path in traces.iterdir():
            path.unlink()
    elif fault == "not-json":
        named = traces / "notes.json"
        named.write_text("not json\n")
    elif fault == "not-a-manifest":
        named = traces / "notes.json"
        named.write_text(json.dumps({"author": "someone"}))
    elif fault == "no-csv":
        (traces / "p0.csv").unlink()
        named = traces / "p0.json"
    elif fault == "empty-csv":
        named = traces / "p0.csv"
        named.write_text("")
    elif fault in ("short-row", "bad-int", *TRACE_ROW_FAULTS):
        # header, then the rows (1, 10.0) and (2, 0.0); the bad row is line 4
        named = traces / "p0.csv"
        with open(named, "a") as fh:
            fh.write({"short-row": "5\n", "bad-int": "x,1.0\n",
                      **TRACE_ROW_FAULTS}[fault])
    elif fault == "missing-f-l":
        named = f_l
        f_l.unlink()
        args += ["--f-l", str(f_l)]
    elif fault in MANIFEST_FAULTS:
        named = traces / "p0.json"
        manifest = json.loads(named.read_text())
        key, value = MANIFEST_FAULTS[fault]
        manifest[key] = value
        named.write_text(json.dumps(manifest))
    elif fault.startswith("f-l-"):
        named = f_l
        f_l.write_text({"f-l-list": "[1]", "f-l-string": '{"p0": "x"}',
                        "f-l-nan": '{"p0": NaN}'}[fault])
        args += ["--f-l", str(f_l)]
    elif fault == "out-is-file":
        named = tmp_path / "profiles"
        named.write_text("")
    elif fault == "repeated-problem":
        # a second run of problem p0, never solved, under another file name
        (traces / "p0-again.json").write_text((traces / "p0.json").read_text())
        (traces / "p0-again.csv").write_text("t,f_best\n1,10.0\n")
    with pytest.raises(SystemExit) as exc:
        main(args)
    message = str(exc.value)
    assert str(named) in message and "\n" not in message
    if fault in ("short-row", "bad-int", *TRACE_ROW_FAULTS):
        assert "line 4" in message
    if fault in MANIFEST_FAULTS:
        assert repr(MANIFEST_FAULTS[fault][0]) in message
    if fault == "repeated-problem":
        assert "'p0'" in message
    if fault == "out-is-file":
        assert "--out" in message and named.is_file()
    else:
        assert not (tmp_path / "profiles").exists()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("fault", ["not-json", "unknown-kind", "no-generator",
                                   "one-entry-hs", "wrong-n", "json-list",
                                   "missing-param"])
def test_malformed_problem_file_exits_with_one_line(tmp_path, capsys, fault):
    problems = tmp_path / "problems"
    problems.mkdir()
    doc = problem_to_dict(gen_hs(HS_CATALOG, ["hs5", "hs38"]))
    params = doc["generator"]["params"]
    if fault == "unknown-kind":
        doc["generator"]["kind"] = "nope"
    elif fault == "no-generator":
        del doc["generator"]
    elif fault == "one-entry-hs":
        params["combo"] = params["combo"][:1]
    elif fault == "wrong-n":
        doc["n"] += 1
    elif fault == "missing-param":
        del params["combo"]
    named = problems / "bad.problem.json"
    named.write_text({"not-json": "not json\n", "json-list": "[1, 2]"}.get(
        fault, json.dumps(doc)))
    with pytest.raises(SystemExit) as exc:
        main(["bench", "run", "--problems", str(problems),
              "--out", str(tmp_path / "traces")])
    message = str(exc.value)
    assert str(named) in message and "\n" not in message
    if fault in ("unknown-kind", "missing-param"):
        assert "generator kind" in message
    assert not (tmp_path / "traces").exists()
    assert capsys.readouterr().out == ""


def _one_problem(tmp_path):
    problems = tmp_path / "problems"
    main(["gen-qd", "--n", "2", "--r", "1", "--seed", "3",
          "--count", "1", "--out", str(problems)])
    return problems


# A bad size or output path, by fault: the command line, the option at fault
# and what the message names.
def _bad_argument(tmp_path, fault):
    out = tmp_path / "out"
    gen_qd = ["gen-qd", "--n", "2", "--r", "1", "--seed", "3", "--count", "1"]
    if fault in ("n-zero", "r-zero", "count-negative"):
        option, value = {"n-zero": ("--n", "0"), "r-zero": ("--r", "0"),
                         "count-negative": ("--count", "-1")}[fault]
        return gen_qd + [option, value, "--out", str(out)], option, value
    if fault == "missing-dump-dir":
        dump = str(tmp_path / "nowhere" / "samples.jsonl")
        return (["bench", "run", "--problems", str(_one_problem(tmp_path)),
                 "--dump-samples", dump, "--out", str(out)], "--dump-samples", dump)
    out.write_text("")  # the --out path is a file
    if fault == "gen-qd-out-is-file":
        command = gen_qd
    else:
        command = ["bench", "run", "--problems", str(_one_problem(tmp_path))]
    return command + ["--out", str(out)], "--out", str(out)


# bench profile's --out is a case of test_bad_trace_input_exits_with_one_line
@pytest.mark.parametrize("fault", ["n-zero", "r-zero", "count-negative",
                                   "missing-dump-dir", "gen-qd-out-is-file",
                                   "run-out-is-file"])
def test_bad_size_or_output_path_exits_with_one_line(tmp_path, capsys, fault):
    argv, option, named = _bad_argument(tmp_path, fault)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    if exc.value.code == 2:  # argparse: the usage, then one error line
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1
        message = errors[0]
    else:
        message = str(exc.value)
    assert option in message and named in message and "\n" not in message
    assert not (tmp_path / "out").is_dir()
    assert captured.out == ""


def test_missing_problem_directory_exits_with_one_line(tmp_path):
    missing = tmp_path / "nowhere"
    with pytest.raises(SystemExit) as exc:
        main(["bench", "run", "--problems", str(missing),
              "--out", str(tmp_path / "traces")])
    message = str(exc.value)
    assert str(missing) in message and "\n" not in message


@pytest.mark.parametrize("names", [None, ("qd a", "qd_a")],
                         ids=["copied-file", "same-safe-name"])
def test_problems_sharing_a_trace_file_exit_with_one_line(tmp_path, monkeypatch,
                                                          names):
    problems = tmp_path / "problems"
    main(["gen-qd", "--n", "2", "--r", "1", "--seed", "3",
          "--count", "2", "--out", str(problems)])
    first = sorted(problems.glob("*.problem.json"))[0]
    if names is None:  # the name is rebuilt from the generator, not the file
        shutil.copy(first, problems / "zz-copy.problem.json")
        names = (load_problem(first).name,) * 2
    else:
        renamed = iter(names)

        def load_renamed(path):
            problem = load_problem(path)
            problem.name = next(renamed)
            return problem

        monkeypatch.setattr(cli, "load_problem", load_renamed)
    with pytest.raises(SystemExit) as exc:
        main(["bench", "run", "--problems", str(problems),
              "--out", str(tmp_path / "traces")])
    message = str(exc.value)
    assert all(repr(name) in message for name in names) and "\n" not in message
    assert not (tmp_path / "traces").exists()
