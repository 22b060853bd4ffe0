import json
import subprocess
import sys

import pytest

from hypermis.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def instance(tmp_path, capsys):
    path = tmp_path / "a.hg"
    code, _, _ = run_cli(
        ["gen", "--n", "24", "--kind", "uniform-d", "--dim", "3", "--m", "20",
         "--seed", "11", "--out", str(path)],
        capsys,
    )
    assert code == 0
    return path


class TestGen:
    def test_stdout_mode(self, tmp_path, capsys):
        spec = ["gen", "--n", "6", "--kind", "uniform-d", "--dim", "2", "--m", "3", "--seed", "1"]
        code, out, err = run_cli(spec, capsys)
        assert code == 0
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert lines[0] == "6 3"
        assert "config:" in err
        path = tmp_path / "g.hg"
        assert run_cli([*spec, "--out", str(path)], capsys)[0] == 0
        assert out == path.read_text(encoding="utf-8")

    def test_infeasible_is_exit_1(self, capsys):
        code, _, err = run_cli(
            ["gen", "--n", "4", "--kind", "uniform-d", "--dim", "2", "--m", "7",
             "--seed", "1"],
            capsys,
        )
        assert code == 1 and "error:" in err


class TestSolve:
    @pytest.mark.parametrize("algo, p", [("bl", "2"), ("sbl", "1")])
    def test_bad_config_is_exit_1_before_the_echo(self, instance, capsys, algo, p):
        code, out, err = run_cli(
            ["solve", str(instance), "--algo", algo, "--seed", "5", "--p", p], capsys
        )
        assert code == 1 and out == ""
        assert err.startswith("error: p_override must lie in (0, 1")

    def test_all_algos_verify(self, instance, tmp_path, capsys):
        for algo in ("greedy", "bl", "sbl"):
            code, out, err = run_cli(
                ["solve", str(instance), "--algo", algo, "--seed", "5",
                 "--p", "0.35", "--d-cap", "3"] if algo == "sbl"
                else ["solve", str(instance), "--algo", algo, "--seed", "5"],
                capsys,
            )
            assert code == 0
            doc = json.loads(out)
            assert doc["algo"] == algo and doc["status"] == "ok"
            mis_file = tmp_path / f"{algo}.json"
            mis_file.write_text(out)
            vcode, vout, _ = run_cli(["verify", str(instance), str(mis_file)], capsys)
            assert vcode == 0
            assert "independent: true" in vout and "maximal: true" in vout

    def test_solve_deterministic_bytes(self, instance, tmp_path, capsys):
        outs, traces = [], []
        for run in range(2):
            trace = tmp_path / f"t{run}.jsonl"
            code, out, _ = run_cli(
                ["solve", str(instance), "--algo", "sbl", "--seed", "7",
                 "--p", "0.3", "--d-cap", "2", "--trace", str(trace)],
                capsys,
            )
            assert code == 0
            outs.append(out)
            traces.append(trace.read_bytes())
        assert outs[0] == outs[1]
        assert traces[0] == traces[1]

    def test_config_echo_includes_resolved_params(self, instance, capsys):
        _, _, err = run_cli(
            ["solve", str(instance), "--algo", "sbl", "--seed", "7",
             "--p", "0.3", "--d-cap", "2"],
            capsys,
        )
        cfg = json.loads(err.splitlines()[0].removeprefix("config: "))
        assert cfg["p"] == 0.3 and cfg["d_cap"] == 2
        assert "stop_threshold" in cfg and "within_edge_bound" in cfg

    @pytest.mark.parametrize("n, m", [(3, 2), (300, 600)])
    def test_edge_bound_warning_agrees_with_config(self, n, m, tmp_path, capsys):
        # n = 3 lies below the asymptotic regime, where the bound says
        # nothing; at n = 300, n^beta is about 2.3
        path = tmp_path / "b.hg"
        run_cli(
            ["gen", "--n", str(n), "--kind", "uniform-d", "--dim", "2", "--m", str(m),
             "--seed", "1", "--out", str(path)],
            capsys,
        )
        _, _, err = run_cli(
            ["solve", str(path), "--algo", "sbl", "--seed", "1", "--p", "0.4", "--d-cap", "3"],
            capsys,
        )
        cfg = json.loads(err.splitlines()[0].removeprefix("config: "))
        assert cfg["within_edge_bound"] == (n == 3)
        assert ("warning: m=" in err) == (n != 3)

    def test_fixed_p_flag(self, instance, capsys):
        code, out, _ = run_cli(
            ["solve", str(instance), "--algo", "bl", "--seed", "3", "--fixed-p"],
            capsys,
        )
        assert code == 0 and json.loads(out)["status"] == "ok"


class TestVerify:
    @pytest.mark.parametrize(
        "bad", [99, 0, -7, 99999999999999999999999, 2.0, "3", True]
    )
    def test_non_vertex_ids_fail(self, tmp_path, capsys, bad):
        # H0 = 5 3 / 1 2 3 / 3 4 / 4 5, on which [1, 2, 4] is an MIS
        hg = tmp_path / "h0.hg"
        hg.write_text("5 3\n1 2 3\n3 4\n4 5\n")
        claim = tmp_path / "mis.json"
        claim.write_text(json.dumps({"mis": [1, 2, 4, bad]}))
        code, out, err = run_cli(["verify", str(hg), str(claim)], capsys)
        assert code == 1 and out == ""
        assert "error:" in err and json.dumps(bad) in err

    def test_bad_set_fails(self, instance, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mis": list(range(1, 10))}))
        code, out, _ = run_cli(["verify", str(instance), str(bad)], capsys)
        assert code == 1

    def test_not_maximal_fails(self, instance, tmp_path, capsys):
        nm = tmp_path / "nm.json"
        nm.write_text(json.dumps({"mis": []}))
        code, out, _ = run_cli(["verify", str(instance), str(nm)], capsys)
        assert code == 1
        assert "independent: true" in out and "maximal: false" in out


class TestAnalyze:
    def test_json_document(self, instance, capsys):
        code, out, _ = run_cli(["analyze", str(instance)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 24 and doc["dim"] == 3
        assert "delta" in doc["degree_profile"]
        assert doc["potentials"]["variant"] == "modified-d2"
        assert "k_log2" in doc["bound_constants"]
        table = doc["f_inequality"]["modified-d2"]
        assert all(table.values())
        assert "kelsen-original" in doc["f_inequality"]

    def test_budget_guard(self, instance, capsys):
        code, _, err = run_cli(["analyze", str(instance), "--budget", "10"], capsys)
        assert code == 1 and "budget" in err


class TestExperiment:
    def test_non_vertex_x_fails(self, instance, capsys):
        for x in ("0", "25", "99999999999999999999999"):
            code, out, err = run_cli(
                ["experiment", "lemma1", str(instance), "--seed", "2", "--trials", "50", "--x", x],
                capsys,
            )
            assert code == 1 and out == "" and f"--x id {x} " in err

    def test_lemma1_csv(self, instance, capsys):
        code, out, _ = run_cli(
            ["experiment", "lemma1", str(instance), "--seed", "2",
             "--trials", "500", "--x", "3"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "experiment,params,trials,estimate,wilson_low,wilson_high,paper_bound"
        assert lines[1].startswith("lemma1,")
        assert lines[1].endswith(",0.5")

    def test_lemma2_and_migration(self, instance, capsys):
        code, out, _ = run_cli(
            ["experiment", "lemma2", str(instance), "--seed", "2",
             "--trials", "500", "--x", "1", "--j", "1"],
            capsys,
        )
        if code != 0:  # N_1({1}) can be empty for this seed; pick a real x
            return
        assert "lemma2," in out
        code, out, _ = run_cli(
            ["experiment", "migration", str(instance), "--seed", "2",
             "--trials", "500", "--x", "3", "--j", "1", "--k", "2"],
            capsys,
        )
        assert code in (0, 1)

    def test_tail_runs(self, instance, capsys):
        code, out, _ = run_cli(
            ["experiment", "tail", str(instance), "--seed", "2",
             "--trials", "400", "--x", "3", "--j", "1", "--k", "2",
             "--delta", "20"],
            capsys,
        )
        if code == 0:
            row = out.strip().splitlines()[1]
            assert row.startswith("tail,")


class TestUsageErrors:
    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "x.hg", "--algo", "quantum", "--seed", "1"])
        assert exc.value.code == 2

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hypermis.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "subcommand" in proc.stdout or "usage" in proc.stdout.lower()
