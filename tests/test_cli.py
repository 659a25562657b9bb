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

    def test_su2_mixed_spectrum(self, capsys):
        code, out = run(capsys, "moment", "--family", "su", "--n", "2", "--tensor", "1,1",
                        "--out", "json")
        assert code == 0
        assert json.loads(out)["spectrum"] == pytest.approx([-4.0, -4.0, -4.0, 0.0], abs=1e-12)

    def test_budget_exceeded_is_guard_error(self, capsys):
        code, out = run(capsys, "moment", "--family", "u", "--n", "4",
                        "--tensor", "4,3", "--measure", "haar", "--out", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["error"]["kind"] == "BudgetError"
        assert "16384" in doc["error"]["detail"]

    def test_label_set_over_budget_is_guard_error(self, capsys):
        # D = 4096 fits the default budget, the 10395 pairings' L**2 does not
        code, out = run(capsys, "weingarten", "--family", "sp", "--n", "1", "--order", "12",
                        "--dual-order", "0", "--source", "pairings", "--out", "json")
        assert code == 1
        doc = json.loads(out)["error"]
        assert doc["kind"] == "BudgetError" and str(10395 ** 2) in doc["detail"]

    def test_repeated_measure_key_is_usage_error(self, capsys):
        code, out = run(capsys, "moment", "--family", "su", "--n", "2", "--tensor", "1,1",
                        "--measure", "brownian:t=1,t=2", "--out", "json")
        assert code == 2
        assert json.loads(out)["error"] == {"kind": "usage", "detail": "measure parameter 't' is given twice"}

    def test_wilson_has_no_exact_moment(self, capsys):
        code, out = run(capsys, "moment", "--family", "su", "--n", "2", "--tensor", "1,1",
                        "--measure", "wilson:beta=0.1", "--out", "json")
        assert code == 2
        assert json.loads(out)["error"] == {"kind": "usage",
                                            "detail": "no exact moment operator for the Wilson action"}

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
    "--family": {"group", "moment", "weingarten", "sample", "brownian-path"},
    "--n": {"group", "moment", "weingarten", "sample", "brownian-path"},
    "--loops": {"expect", "verify"},
    "--measure": {"moment", "expect", "verify"},
    "--plaquettes": {"expect", "verify"},
    "--samples": {"expect", "verify"},
}
STRING_FLAGS = {"--family", "--loops", "--measure", "--plaquettes"}
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
            expected = "3" if flag in STRING_FLAGS else 3  # the int flags must parse as int
            assert getattr(parser.parse_args(argv + [flag, "3"]), flag[2:]) == expected
        else:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv + [flag, "3"])
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err


def test_cached_parser_matches_fresh_parsers(capsys, u3_pair_file):
    argvs = [
        ["group", "info", "--family", "su", "--n", "2", "--json"],
        ["group", "info", "--family", "su", "--n", "2"],  # the --json before must not stick
        ["expect", "--loops", u3_pair_file, "--measure", "brownian:t=0.5", "--out", "json"],
        ["expect", "--loops", u3_pair_file, "--out", "json"],
        ["sample", "--family", "u", "--n", "2", "--count", "2", "--seed", "3", "--out", "jsonl"],
    ]
    assert _build_parser() is _build_parser()  # built once per process
    cached = [run(capsys, *argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        args = _build_parser.__wrapped__().parse_args(argv)
        fresh.append((args.func(args), capsys.readouterr().out))
    assert cached == fresh
    assert cached[0][1] != cached[1][1]


@pytest.mark.parametrize("argv", [
    ("group", "info", "--family", "su", "--n", "2"),
    ("moment", "--family", "su", "--n", "2", "--tensor", "1,1"),
    ("weingarten", "--family", "u", "--n", "2", "--order", "2", "--source", "permutations"),
    ("expect", "--loops", "LOOPS"),
    ("verify", "theorem-a", "--loops", "LOOPS"),
    ("sample", "--family", "su", "--n", "3", "--count", "3"),
    ("brownian-path", "--family", "su", "--n", "2", "--t", "0.5", "--steps", "10", "--count", "3"),
], ids=lambda argv: " ".join(argv[:2]) if argv[0] in ("group", "verify") else argv[0])
def test_jsonl_lines_parse_on_every_subcommand(capsys, u3_pair_file, argv):
    # sample and brownian-path print one matrix per line; the others their json document
    argv = [u3_pair_file if a == "LOOPS" else a for a in argv]
    code, out = run(capsys, *argv, "--out", "jsonl")
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    _, document = run(capsys, *argv, "--out", "json")
    document = json.loads(document)
    if argv[0] in ("sample", "brownian-path"):
        assert docs == document["matrices"] and len(docs) == 3
    else:
        document["config"]["out"] = "jsonl"
        assert docs == [document]


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

    @pytest.mark.parametrize("measure,plaquettes,match", [
        ("brownian:t=0.5,tt=9", False, "no parameter 'tt'"), ("haar:t=3", False, "no parameter 't'"),
        ("brownian:t", False, "parameter 't' needs a number"), ("haar", True, "reads no plaquettes"),
        ("brownian:t=0.5", True, "reads no plaquettes"),
    ])
    def test_measure_string_refuses_what_it_does_not_read(self, capsys, u3_pair_file, measure,
                                                          plaquettes, match):
        extra = ("--plaquettes", u3_pair_file) if plaquettes else ()
        code, out = run(capsys, "expect", "--loops", u3_pair_file, "--measure", measure, *extra,
                        "--out", "json")
        assert code == 2
        doc = json.loads(out)["error"]
        assert doc["kind"] == "usage" and match in doc["detail"]

    def test_non_finite_loop_coefficient_exits_2(self, capsys, tmp_path, u3_pair_file):
        # a NaN coefficient would reach the document as bare NaN tokens, which are not JSON
        doc = json.loads(open(u3_pair_file).read())
        doc[0]["factors"][0]["coeff"][0][0] = [float("nan"), 0.0]
        bad = tmp_path / "nan_loops.json"
        bad.write_text(json.dumps(doc))
        code, out = run(capsys, "expect", "--loops", str(bad), "--measure", "wilson:beta=0.5",
                        "--plaquettes", u3_pair_file, "--samples", "200", "--out", "json")
        assert code == 2
        doc = json.loads(out)["error"]
        assert doc["kind"] == "usage" and "finite" in doc["detail"]

    def test_missing_file_exits_2(self, capsys):
        code, out = run(capsys, "expect", "--loops", "missing.json", "--out", "json")
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "usage"

    def test_empty_loop_list_exits_2(self, capsys, tmp_path):
        target = tmp_path / "loops.json"
        target.write_text("[]")
        code, out = run(capsys, "expect", "--loops", str(target), "--out", "json")
        assert code == 2
        assert json.loads(out)["error"] == {"kind": "usage", "detail": "need at least one loop"}

    @pytest.mark.parametrize("command,measure", [
        (("verify", "theorem-a"), "haar"), (("expect",), "wilson"), (("verify", "theorem-a"), "wilson"),
    ], ids=["verify-haar", "expect-wilson", "verify-wilson"])
    def test_empty_loop_list_exits_2_under_every_command(self, capsys, tmp_path, command, measure):
        # the plaquettes are not loops of the product
        from lgm.catalog import GroupSpec, build_representation

        target, plaq = tmp_path / "loops.json", tmp_path / "plaq.json"
        target.write_text("[]")
        write_loops(plaq, [linear_loop(build_representation(GroupSpec("u", 2)), np.eye(2))])
        wilson = ("--measure", "wilson:beta=0.5", "--plaquettes", str(plaq), "--samples", "200")
        code, out = run(capsys, *command, "--loops", str(target), *(wilson if measure == "wilson" else ()),
                        "--out", "json")
        assert code == 2
        assert json.loads(out)["error"] == {"kind": "usage", "detail": "need at least one loop"}

    def test_collapsed_wilson_weights_exit_1(self, capsys, tmp_path):
        # 40 SU(3) plaquettes at beta = 6: one draw carries almost all the weight
        from lgm.catalog import GroupSpec, build_representation

        rep = build_representation(GroupSpec("su", 3))
        loops, plaq = tmp_path / "loops.json", tmp_path / "plaq.json"
        write_loops(loops, [linear_loop(rep, np.eye(3))])
        write_loops(plaq, [linear_loop(rep, np.eye(3))] * 40)
        code, out = run(capsys, "expect", "--loops", str(loops), "--measure", "wilson:beta=6",
                        "--plaquettes", str(plaq), "--samples", "5000", "--out", "json")
        assert code == 1
        doc = json.loads(out)["error"]
        assert doc["kind"] == "EffectiveSampleError" and "effective sample size" in doc["detail"]


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

    def test_quiet_silences_text_only(self, capsys, u3_pair_file):
        # text prints nothing under --quiet; jsonl prints the same with or without it
        for argv in (("sample", "--family", "u", "--n", "2", "--count", "2"),
                     ("expect", "--loops", u3_pair_file),
                     ("group", "info", "--family", "su", "--n", "2")):
            _, text = run(capsys, *argv)
            assert text and run(capsys, *argv, "--quiet") == (0, "")
            code, jsonl = run(capsys, *argv, "--out", "jsonl")
            assert code == 0 and jsonl
            assert run(capsys, *argv, "--out", "jsonl", "--quiet") == (0, jsonl)

    @pytest.mark.parametrize("command", [("sample", "--family", "so", "--n", "3"),
                                         ("brownian-path", "--family", "su", "--n", "2", "--t", "1")],
                             ids=["sample", "brownian-path"])
    def test_negative_count_exits_2_by_name(self, capsys, command):
        code, out = run(capsys, *command, "--count", "-2", "--out", "json")
        assert code == 2
        doc = json.loads(out)["error"]
        assert doc == {"kind": "usage", "detail": "sample count must be non-negative, got count=-2"}

    @pytest.mark.parametrize("command", [("sample", "--family", "g2"),
                                         ("brownian-path", "--family", "sp", "--n", "2", "--t", "1")],
                             ids=["sample", "brownian-path"])
    def test_zero_count_is_an_empty_document(self, capsys, command):
        code, out = run(capsys, *command, "--count", "0", "--out", "json")
        assert code == 0 and json.loads(out)["matrices"] == []

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

    def test_theorem_a_wilson_needs_plaquettes(self, capsys, tmp_path):
        from lgm.catalog import GroupSpec, build_representation

        loops_file = tmp_path / "loops.json"
        write_loops(loops_file, [linear_loop(build_representation(GroupSpec("u", 2)), np.eye(2))])
        code, out = run(capsys, "verify", "theorem-a", "--loops", str(loops_file),
                        "--measure", "wilson:beta=0.5", "--samples", "2000", "--out", "json")
        assert code == 2
        doc = json.loads(out)["error"]
        assert doc["kind"] == "usage" and "plaquette" in doc["detail"]

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
