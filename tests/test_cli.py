import json
import subprocess
import sys

import numpy as np
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

    @pytest.mark.parametrize(
        "flags, override",
        [
            (["--p", "1e-300"], "--stop-threshold"),
            (["--p", "1e-160"], "--stop-threshold"),
            (["--p", "5e-324", "--stop-threshold", "3"], "--max-rounds"),
        ],
    )
    def test_tiny_sbl_p_is_exit_1(self, instance, capsys, flags, override):
        code, out, err = run_cli(
            ["solve", str(instance), "--algo", "sbl", "--seed", "5", "--d-cap", "2", *flags],
            capsys,
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and f"supply {override}" in err

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

    def test_config_echo_is_strict_json_at_tiny_p(self, instance, capsys):
        # 2 log2(n) / p and 1 / p overflow to inf, and their ratio is NaN
        code, _, err = run_cli(
            ["solve", str(instance), "--algo", "sbl", "--seed", "5", "--d-cap", "2",
             "--p", "5e-324", "--stop-threshold", "3", "--max-rounds", "2"],
            capsys,
        )

        def reject(name):
            raise ValueError(f"config line holds {name}")

        cfg = json.loads(err.splitlines()[0].removeprefix("config: "), parse_constant=reject)
        assert code == 0 and cfg["d_suggested_by_analysis"] is None

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

    @pytest.mark.parametrize("doc", [[1, 3], {"mis": 5}])
    def test_malformed_mis_file_fails(self, instance, tmp_path, capsys, doc):
        # valid JSON, but not an object whose "mis" is a list
        claim = tmp_path / "mis.json"
        claim.write_text(json.dumps(doc))
        code, out, err = run_cli(["verify", str(instance), str(claim)], capsys)
        assert code == 1 and out == ""
        assert err.splitlines()[-1].startswith("error: ") and '"mis" is a list' in err

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

    def test_nan_delta_fails(self, instance, capsys):
        code, out, err = run_cli(["analyze", str(instance), "--delta", "nan"], capsys)
        assert code == 1 and out == "" and "error: delta_param must be > 1" in err


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

    @pytest.mark.parametrize(
        "which, given, missing",
        [("lemma2", [], "j"), ("tail", ["--k", "2"], "j"), ("tail", ["--j", "1"], "k"),
         ("migration", [], "j"), ("migration", ["--j", "1"], "k")],
    )
    def test_missing_j_or_k_fails_before_any_work(self, tmp_path, capsys, which, given, missing):
        # the input does not exist: the flag is checked before it is read
        code, out, err = run_cli(
            ["experiment", which, str(tmp_path / "absent.hg"), "--seed", "2",
             "--trials", "50", "--x", "3", *given],
            capsys,
        )
        assert code == 1 and out == ""
        assert err == f"error: {which} needs --{missing}\n"

    @pytest.mark.parametrize("which", [["lemma1"], ["lemma2", "--j", "1"]])
    @pytest.mark.parametrize("p", ["nan", "2"])
    def test_lemma_bad_p_fails(self, instance, capsys, which, p):
        code, out, err = run_cli(
            ["experiment", *which, str(instance), "--seed", "1",
             "--trials", "100", "--x", "3", "--p", p],
            capsys,
        )
        assert code == 1 and out == ""
        assert err.splitlines()[-1] == "error: p must lie in (0, 1]"

    def test_tail_nan_delta_fails(self, instance, capsys):
        code, out, err = run_cli(
            ["experiment", "tail", str(instance), "--seed", "2",
             "--trials", "400", "--x", "3", "--j", "1", "--k", "2", "--delta", "nan"],
            capsys,
        )
        assert code == 1 and out == "" and "error: delta_param must be > 1" in err


class TestInputErrors:
    @pytest.mark.parametrize("command", ["solve", "analyze", "verify"])
    def test_n_past_int64_names_the_header(self, tmp_path, capsys, command):
        hg = tmp_path / "wide.hg"
        hg.write_text("18446744073709551617 2\n18446744073709551616 18446744073709551617\n1 2\n")
        mis = tmp_path / "mis.json"
        mis.write_text(json.dumps({"mis": [1]}))
        extra = {"solve": ["--algo", "bl", "--seed", "1"], "analyze": [], "verify": [str(mis)]}
        code, out, err = run_cli([command, str(hg), *extra[command]], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: line 1: vertex count must lie below 2^63")


class TestLargestN:
    """n = 2^63 - 1: verify checks maximality without listing 1..n, and a
    solver that would list them exits 1 with an error naming n."""

    N = 2**63 - 1

    @pytest.fixture()
    def big(self, tmp_path):
        hg = tmp_path / "big.hg"
        hg.write_text(f"{self.N} 2\n1 2\n2 3\n")
        return hg

    def test_verify_empty_set_is_not_maximal(self, big, tmp_path, capsys):
        mis = tmp_path / "empty.json"
        mis.write_text(json.dumps({"mis": []}))
        code, out, _ = run_cli(["verify", str(big), str(mis)], capsys)
        assert code == 1
        assert out == "independent: true\nmaximal: false\n"

    @pytest.mark.parametrize("algo", ["bl", "sbl", "greedy"])
    def test_solve_is_exit_1(self, big, capsys, algo):
        code, out, err = run_cli(["solve", str(big), "--algo", algo, "--seed", "1"], capsys)
        assert code == 1 and out == ""
        want = f"error: cannot list the vertex ids 1..{self.N}: too many for one array"
        assert err.splitlines()[-1] == want

    # 2^62 ids are more than one numpy array can hold, and at 2^63 - 2
    # numpy's range of them comes out empty
    @pytest.mark.parametrize("n", [N - 1, 2**62])
    @pytest.mark.parametrize("algo", ["bl", "sbl", "greedy"])
    def test_solve_past_one_array_is_exit_1(self, tmp_path, capsys, algo, n):
        hg = tmp_path / "big.hg"
        hg.write_text(f"{n} 2\n1 2\n2 3\n")
        code, out, err = run_cli(["solve", str(hg), "--algo", algo, "--seed", "1"], capsys)
        assert code == 1 and out == ""
        want = f"error: cannot list the vertex ids 1..{n}: too many for one array"
        assert err.splitlines()[-1] == want

    @pytest.mark.parametrize("text", ["Unable to allocate 8.00 TiB", ""])
    @pytest.mark.parametrize("algo", ["bl", "greedy"])
    def test_out_of_memory_is_exit_1(self, tmp_path, capsys, monkeypatch, algo, text):
        # listing 1..2^40 fails as if memory ran out; nothing is allocated
        arange = np.arange

        def short_of_memory(*args, **kwargs):
            if len(args) > 1 and args[1] - args[0] > 2**32:
                raise MemoryError(text)
            return arange(*args, **kwargs)

        monkeypatch.setattr(np, "arange", short_of_memory)
        hg = tmp_path / "big.hg"
        hg.write_text(f"{2**40} 2\n1 2\n2 3\n")
        code, out, err = run_cli(["solve", str(hg), "--algo", algo, "--seed", "1"], capsys)
        assert code == 1 and out == ""
        assert err.splitlines()[-1] == f"error: {text or 'MemoryError'}"


class TestWideEdges:
    """An edge too wide for a solver is exit 1 with an error naming its
    size and the limit; the sampling solver holds 63 ids."""

    @staticmethod
    def solve(tmp_path, capsys, width, algo):
        hg = tmp_path / "wide.hg"
        hg.write_text(f"{width} 1\n" + " ".join(map(str, range(1, width + 1))) + "\n")
        argv = ["solve", str(hg), "--algo", algo, "--seed", "1", "--p", "0.3", "--d-cap", "3"]
        return run_cli(argv if algo == "sbl" else argv[:-2], capsys)

    @pytest.mark.parametrize("algo, width, error", [
        ("bl", 62, "an edge of 62 ids is too wide to number its subsets: at most 59 ids"),
        ("bl", 63, "an edge of 63 ids is too wide to number its subsets: at most 59 ids"),
        ("bl", 64, "an edge of 64 ids is too wide for the solvers: at most 63 ids"),
        ("sbl", 64, "an edge of 64 ids is too wide for the solvers: at most 63 ids"),
    ])
    def test_too_wide_is_exit_1(self, tmp_path, capsys, algo, width, error):
        code, out, err = self.solve(tmp_path, capsys, width, algo)
        assert code == 1 and out == ""
        assert err.splitlines()[-1] == f"error: {error}"

    @pytest.mark.parametrize("width", [62, 63])
    def test_sampling_solves_63_ids(self, tmp_path, capsys, width):
        code, out, _ = self.solve(tmp_path, capsys, width, "sbl")
        doc = json.loads(out)
        assert code == 0 and doc["status"] == "ok"
        assert len(doc["mis"]) == width - 1


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
