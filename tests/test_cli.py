"""CLI contract tests: documents, determinism, exit codes."""

import json

import numpy as np
import pytest

from lgm.cli import _build_parser, main
from lgm.loops import linear_loop, loop_to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_loops(path, loops):
    path.write_text(json.dumps([loop_to_json(w) for w in loops]))


@pytest.fixture
def u3_pair_file(tmp_path):
    from lgm.catalog import GroupSpec, build_representation

    rep = build_representation(GroupSpec("u", 3))
    eye = np.eye(3)
    target = tmp_path / "loops.json"
    write_loops(target, [linear_loop(rep, eye), linear_loop(rep, eye, -1)])
    return str(target)


class TestGroupInfo:
    def test_so4_lambda(self, capsys):
        code, out = run(capsys, "group", "info", "--family", "so", "--n", "4", "--out", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["lambda"] == -3.0
        assert doc["dim"] == 4
        assert doc["generators"] == 6
        assert doc["completeness_residual"] <= 1e-12
        assert doc["config"]["family"] == "so"

    def test_json_shorthand_flag(self, capsys):
        code, out = run(capsys, "group", "info", "--family", "su", "--n", "2", "--json")
        assert code == 0
        assert json.loads(out)["lambda"] == pytest.approx(-1.5)

    def test_bad_family_is_usage_error(self, capsys):
        code, out = run(capsys, "group", "info", "--family", "e8", "--out", "json")
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "usage"


class TestMoment:
    def test_g2_second_moment_entries(self, capsys):
        code, out = run(capsys, "moment", "--family", "g2", "--tensor", "2,0",
                        "--measure", "haar", "--out", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["rank"] == 1
        entries = doc["tensor"]["entries"]
        assert entries, "projector must have nonzero entries"
        for e in entries:
            row, col = e["idx"]
            i1, i2 = divmod(row, 7)
            j1, j2 = divmod(col, 7)
            assert i1 == i2 and j1 == j2
            assert abs(e["re"] - 1.0 / 7.0) <= 1e-9
            assert abs(e["im"]) <= 1e-12

    def test_budget_exceeded_is_guard_error(self, capsys):
        code, out = run(capsys, "moment", "--family", "u", "--n", "4",
                        "--tensor", "4,3", "--measure", "haar", "--out", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["error"]["kind"] == "BudgetError"
        assert "16384" in doc["error"]["detail"]

    def test_json_and_text_carry_the_same_tensor(self, capsys):
        argv = ("moment", "--family", "su", "--n", "2", "--tensor", "1,1", "--measure", "brownian:t=0.5")
        code, out = run(capsys, *argv, "--out", "json")
        assert code == 0
        code, text = run(capsys, *argv)
        assert code == 0
        assert json.loads(text.splitlines()[-1]) == json.loads(out)["tensor"]


class TestWeingarten:
    def test_u3_permutations(self, capsys):
        code, out = run(capsys, "weingarten", "--family", "u", "--n", "3",
                        "--order", "2", "--source", "permutations", "--out", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["labels"]) == 2
        gram = np.array([[complex(re, im) for re, im in row] for row in doc["gram"]])
        assert np.allclose(sorted(gram.real.flatten()), [3, 3, 9, 9])
        wg = np.array([[complex(re, im) for re, im in row] for row in doc["wg"]])
        assert np.max(np.abs(np.sort(wg.real.flatten())
                             - np.sort([1 / 8, -1 / 24, -1 / 24, 1 / 8]))) <= 1e-12

    def test_tol_reaches_pseudoinverse(self, capsys):
        # a cutoff above every Gram eigenvalue ratio zeroes the pseudoinverse
        code, out = run(capsys, "weingarten", "--family", "u", "--n", "3", "--order", "2",
                        "--source", "permutations", "--tol", "0.9", "--out", "json")
        assert code == 0
        wg = np.array([[complex(re, im) for re, im in row] for row in json.loads(out)["wg"]])
        assert wg.shape == (2, 2)
        assert np.linalg.matrix_rank(wg) == 1

    def test_tol_only_on_weingarten(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--family", "u", "--n", "2", "--tol", "1e-6"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err


# the subcommands that read each flag; every other subcommand refuses it
FLAG_READERS = {
    "--seed": {"expect", "verify", "sample", "brownian-path"},
    "--stream": {"sample", "brownian-path"},
    "--budget": {"moment", "weingarten", "expect", "verify"},
}
SUBCOMMAND_ARGV = {
    "group": ["group", "info", "--family", "u", "--n", "2"],
    "moment": ["moment", "--family", "u", "--n", "2", "--tensor", "1,1"],
    "weingarten": ["weingarten", "--family", "u", "--n", "2", "--order", "1"],
    "expect": ["expect", "--loops", "loops.json"],
    "verify": ["verify", "theorem-a", "--loops", "loops.json"],
    "sample": ["sample", "--family", "u", "--n", "2"],
    "brownian-path": ["brownian-path", "--family", "u", "--n", "2", "--t", "1"],
}


@pytest.mark.parametrize("flag", sorted(FLAG_READERS))
def test_flags_only_where_read(capsys, flag):
    parser = _build_parser()
    for command, argv in SUBCOMMAND_ARGV.items():
        if command in FLAG_READERS[flag]:
            assert getattr(parser.parse_args(argv + [flag, "3"]), flag[2:]) == 3
        else:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv + [flag, "3"])
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err


class TestExpect:
    def test_haar_product(self, capsys, u3_pair_file):
        code, out = run(capsys, "expect", "--loops", u3_pair_file, "--out", "json")
        assert code == 0
        value = json.loads(out)["value"]
        assert value[0] == pytest.approx(1.0, abs=1e-10)
        assert value[1] == pytest.approx(0.0, abs=1e-12)

    def test_brownian_measure_string(self, capsys, u3_pair_file):
        code, out = run(capsys, "expect", "--loops", u3_pair_file,
                        "--measure", "brownian:t=0.5", "--out", "json")
        assert code == 0
        # E_t[|tr g|^2] decays from 9 at t=0 toward the Haar value 1
        assert 1.0 < json.loads(out)["value"][0] < 9.0

    def test_wilson_reports_stderr_and_seed(self, capsys, tmp_path, u3_pair_file):
        from lgm.catalog import GroupSpec, build_representation

        rep = build_representation(GroupSpec("u", 3))
        plaq = tmp_path / "plaq.json"
        write_loops(plaq, [linear_loop(rep, 0.5 * np.eye(3)),
                           linear_loop(rep, 0.5 * np.eye(3), -1)])
        code, out = run(capsys, "expect", "--loops", u3_pair_file,
                        "--measure", "wilson:beta=0.1", "--plaquettes", str(plaq),
                        "--samples", "2000", "--seed", "5", "--out", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["samples"] == 2000
        assert doc["seed"] == 5
        assert doc["stderr"] > 0.0

    @pytest.mark.parametrize("family,n,signs,route,value", [
        ("u", 3, (1, -1), "weingarten:permutations", 1.0),
        ("so", 4, (1, 1, -1, -1), "casimir", 4.0),  # epsilon-type invariant
        ("su", 3, (1, 1, -1), "zero", 0.0),
    ], ids=["u3-11", "so4-22", "su3-21"])
    def test_route_reported(self, capsys, tmp_path, family, n, signs, route, value):
        from lgm.catalog import GroupSpec, build_representation

        rep = build_representation(GroupSpec(family, n))
        target = tmp_path / "loops.json"
        write_loops(target, [linear_loop(rep, np.eye(rep.dim), s) for s in signs])
        code, out = run(capsys, "expect", "--loops", str(target), "--out", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["route"] == route
        assert doc["value"][0] == pytest.approx(value, abs=1e-10)
        assert doc["value"][1] == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("measure", ["brownian:t=inf", "wilson:beta=nan"])
    def test_non_finite_measure_exits_2(self, capsys, u3_pair_file, measure):
        code, out = run(capsys, "expect", "--loops", u3_pair_file, "--measure", measure,
                        "--out", "json")
        assert code == 2
        doc = json.loads(out)["error"]
        assert doc["kind"] == "usage" and "finite" in doc["detail"]

    def test_missing_file_exits_2(self, capsys):
        code, out = run(capsys, "expect", "--loops", "missing.json", "--out", "json")
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "usage"


class TestSample:
    def test_jsonl_count_and_unitarity(self, capsys):
        code, out = run(capsys, "sample", "--family", "su", "--n", "2",
                        "--count", "5", "--seed", "7", "--out", "jsonl")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 5
        for line in lines:
            m = np.array([[complex(re, im) for re, im in row] for row in json.loads(line)])
            assert np.linalg.norm(m.conj().T @ m - np.eye(2)) <= 1e-12
            assert abs(np.linalg.det(m) - 1.0) <= 1e-12

    def test_identical_invocations_identical_documents(self, capsys):
        args = ("sample", "--family", "so", "--n", "3", "--count", "3",
                "--seed", "11", "--out", "jsonl")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_brownian_path_endpoints(self, capsys):
        code, out = run(capsys, "brownian-path", "--family", "su", "--n", "2",
                        "--t", "0.5", "--steps", "50", "--count", "2",
                        "--seed", "3", "--out", "jsonl")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 2

    @pytest.mark.parametrize("t", ["inf", "nan"])
    def test_brownian_path_non_finite_time_exits_2(self, capsys, t):
        code, out = run(capsys, "brownian-path", "--family", "su", "--n", "2",
                        "--t", t, "--steps", "2", "--out", "json")
        assert code == 2
        doc = json.loads(out)["error"]  # valid JSON: no bare NaN tokens
        assert doc["kind"] == "usage" and "finite" in doc["detail"]


class TestVerify:
    def test_theorem_a_haar(self, capsys, tmp_path):
        from lgm.catalog import GroupSpec, build_representation
        from lgm.loops import loop

        rep = build_representation(GroupSpec("so", 3))
        rng = np.random.default_rng(0)
        loops = [loop(rep, [rng.standard_normal((3, 3)) for _ in range(2)], [1, -1]),
                 linear_loop(rep, rng.standard_normal((3, 3)))]
        target = tmp_path / "loops.json"
        write_loops(target, loops)
        code, out = run(capsys, "verify", "theorem-a", "--loops", str(target), "--out", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["residual"] <= doc["tolerance"]

    def test_theorem_a_wilson(self, capsys, tmp_path):
        from lgm.catalog import GroupSpec, build_representation
        from lgm.sampling import RngSpec, haar_sample

        rep = build_representation(GroupSpec("u", 2))
        loops_file = tmp_path / "loops.json"
        write_loops(loops_file, [linear_loop(rep, haar_sample(rep, RngSpec(1)))])
        plaq_file = tmp_path / "plaq.json"
        write_loops(plaq_file, [linear_loop(rep, np.eye(2))])
        code, out = run(capsys, "verify", "theorem-a", "--loops", str(loops_file),
                        "--measure", "wilson:beta=0.1", "--plaquettes", str(plaq_file),
                        "--samples", "20000", "--seed", "7", "--out", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["z"] <= 3.0
        assert doc["samples"] == 20000

    def test_theorem_a_brownian_u1_characters_json(self, capsys, tmp_path):
        # mixed U(1) characters take the character-algebra route
        from lgm.catalog import GroupSpec, build_representation

        r2, r1 = (build_representation(GroupSpec("u1power", n)) for n in (2, -1))
        loops_file = tmp_path / "loops.json"
        write_loops(loops_file, [linear_loop(r2, np.array([[0.5 + 0.2j]])),
                                 linear_loop(r1, np.array([[1.0 - 0.3j]]), -1)])
        code, out = run(capsys, "verify", "theorem-a", "--loops", str(loops_file),
                        "--measure", "brownian:t=0.7", "--out", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "brownian"
        assert doc["passed"] is True
        assert doc["residual"] <= doc["tolerance"]
