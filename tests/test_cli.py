import hashlib
import json
import subprocess
import sys
import time

import pytest

from circlecount import cli
from circlecount.errors import ToleranceNotMetError

CLI = [sys.executable, "-m", "circlecount.cli"]


@pytest.fixture
def quad4_file(tmp_path):
    path = tmp_path / "quad4.json"
    path.write_text('{"k": 2, "lambda": [1, 1, -1, -1]}')
    return str(path)


@pytest.fixture
def quad6_file(tmp_path):
    path = tmp_path / "quad6.json"
    path.write_text('{"k": 2, "lambda": [1, 1, 1, -1, -1, -1]}')
    return str(path)


@pytest.fixture
def full16_file(tmp_path):
    path = tmp_path / "full16.txt"
    path.write_text("N 16\n" + "\n".join(str(x) for x in range(1, 17)) + "\n")
    return str(path)


def run_cli(*args):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=300
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)["result"]


def test_validate(quad4_file):
    res = result_of(run_cli("validate", "--system", quad4_file))
    assert res == {"valid": True, "k": 2, "s": 4, "lambda": [1, 1, -1, -1]}


def test_validate_bad_system_exit3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"k": 2, "lambda": [1, 1, -1]}')
    proc = run_cli("validate", "--system", str(bad))
    assert proc.returncode == 3


def test_usage_errors_exit3(quad4_file):
    # exit 2 is a budget refusal; a bad choice, a bad value or a missing flag
    # is a usage error, reported with argparse's usage text
    for args in (
        ["series", "--system", quad4_file, "--qmax", "3", "--method", "direct"],
        ["count", "--system", quad4_file, "--n", "notanint"],
        ["count", "--n", "3"],
        ["--output", "xml", "validate", "--system", quad4_file],
    ):
        proc = run_cli(*args)
        assert proc.returncode == 3, args
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: circlecount")
        assert "error: " in proc.stderr
    proc = run_cli("series", "--help")
    assert proc.returncode == 0 and proc.stdout.startswith("usage: circlecount series")


@pytest.mark.parametrize(
    "args",
    [
        ["arcs", "--n", "100", "--k", "2", "--alpha", "1/0,0.5"],
        ["arcs", "--n", "100", "--k", "2", "--alpha", "abc,0.5"],
        ["expsum", "g", "--n", "9", "--alpha", "nan,0.5"],
        ["expsum", "g", "--n", "9", "--alpha", "inf"],
        ["expsum", "g", "--n", "9", "--alpha", "1e400,0"],
        ["lift", "--system", "QUAD6", "-p", "5", "-t", "2", "--seed", "1,x,1,2,3,2"],
        ["lift", "--system", "QUAD6", "-p", "5", "-t", "2", "--seed", "1,0,1,2,3,2",
         "--free", "1,x"],
        ["increment", "--delta", "1/0", "--loglogn", "50", "--y", "3", "--k", "2"],
        ["increment", "--delta", "abc", "--loglogn", "50", "--y", "3", "--k", "2"],
        ["increment", "--delta", "1/2", "--loglogn", "nan", "--y", "3", "--k", "2"],
        ["arcs", "--n", "100", "--k", "2", "--alpha", "0,0", "--arc-exponent", "nan"],
        ["constants", "--k", "2", "--cs", "nan"],
        ["predict", "--system", "QUAD6", "--n", "32", "--delta", "nan"],
        ["gen-set", "--kind", "random_density", "--n", "10", "--density", "inf"],
    ],
)
def test_bad_numbers_exit3(args, quad6_file):
    # a malformed or non-finite number is a usage or parse error: no
    # traceback, and never a NaN in the JSON on stdout
    proc = run_cli(*[quad6_file if a == "QUAD6" else a for a in args])
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr and "error: " in proc.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (["expsum", "g", "--n", "0", "--alpha", "0.1"], "n must be >= 1"),
        (["expsum", "E", "--n", "0", "--alpha", "0.1"], "window length must be >= 1"),
        (["count", "--system", "QUAD4", "--n", "0"], "window length must be >= 1"),
    ],
)
def test_n_zero_reports_its_bound(args, message, quad4_file):
    # --n 0 is given, not missing: the error names the bound it breaks
    proc = run_cli(*[quad4_file if a == "QUAD4" else a for a in args])
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert f"error: {message}" in proc.stderr


def test_count_json(quad4_file):
    proc = run_cli("count", "--system", quad4_file, "--n", "3")
    res = result_of(proc)
    assert res == {"total": "15", "trivial": "15", "nontrivial": "0"}


def test_count_budget_exit2(quad6_file):
    proc = run_cli("--budget", "10", "count", "--system", quad6_file, "--n", "7")
    assert proc.returncode == 2
    assert "budget refused: mitm count" in proc.stderr


def test_count_above_arity_12(tmp_path):
    # every engine answers: the trivial count has no arity cap
    system = tmp_path / "s14.json"
    system.write_text('{"k": 1, "lambda": [3, 1, 1, 1, 1, 1, '
                      '-1, -1, -1, -1, -1, -1, -1, -1]}')
    window = tmp_path / "a.txt"
    window.write_text("N 5\n2\n5\n")
    args = ("count", "--system", str(system), "--set", str(window))
    expected = {"total": "2574", "trivial": "2574", "nontrivial": "0"}
    assert result_of(run_cli(*args, "--method", "naive")) == expected
    assert result_of(run_cli(*args, "--method", "mitm")) == expected
    assert result_of(run_cli(*args)) == expected


def test_set_file_keyword_prefix_exit3(tmp_path):
    path = tmp_path / "prefix.txt"
    path.write_text("Nonsense 5\n1\n3\n")
    proc = run_cli("gowers", "--set", str(path), "--degree", "2")
    assert proc.returncode == 3
    assert "header line" in proc.stderr


def test_stream(quad6_file):
    res = result_of(
        run_cli("stream", "--system", quad6_file, "--n", "7", "--filter", "nontrivial")
    )
    assert [1, 5, 6, 2, 3, 7] in res["solutions"]


def test_moment():
    res = result_of(run_cli("moment", "--n", "10", "--k", "2", "--t", "2"))
    assert res["value"] == "190"


def test_gowers_full_interval(full16_file):
    res = result_of(
        run_cli("gowers", "--set", full16_file, "--degree", "2", "--naive-check")
    )
    assert res["parameter"] == "0"
    assert res["n"] == 16
    assert res["naive_matches"] is True


def test_expsum_g():
    res = result_of(run_cli("expsum", "g", "--alpha", "0,0", "--n", "9"))
    assert res["re"] == pytest.approx(9.0)
    assert res["abs"] == pytest.approx(9.0)


def test_arcs_minor_and_major():
    minor = result_of(
        run_cli("arcs", "--n", "1000000", "--k", "2", "--alpha", "0.4142135,0.1415926")
    )
    assert minor == {"member": False}
    major = result_of(run_cli("arcs", "--n", "1000000", "--k", "2", "--alpha", "0,0"))
    assert major["member"] is True and major["q"] == 1


def test_arcs_budget_exit2():
    # 2 * floor(10^(9 * 0.9)) tests of the box, refused before the first block
    proc = run_cli("--budget", "1000000", "arcs", "--n", "1000000000", "--k", "2",
                   "--alpha", "0.1,0.2", "--arc-exponent", "0.9")
    assert proc.returncode == 2
    assert "budget refused: arc classification" in proc.stderr


def test_arcs_overflowing_height_exit2():
    # N^delta = 10^2400 overflows a float: refused before qmax is formed
    start = time.perf_counter()
    proc = run_cli("arcs", "--n", "1000000", "--k", "2", "--alpha", "0.1,0.2",
                   "--arc-exponent", "400")
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 2
    assert "budget refused: arc classification" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_series_csv(quad4_file):
    proc = run_cli("--output", "csv", "series", "--system", quad4_file, "--qmax", "3")
    assert proc.returncode == 0
    lines = [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")]
    assert lines[0] == "q,S_q,method,residual"
    assert lines[1].startswith("1,1,")
    assert lines[2].startswith("2,1,")
    assert lines[3].startswith("3,2/3,")


def test_series_json_cumulative(quad4_file):
    res = result_of(run_cli("series", "--system", quad4_file, "--qmax", "3"))
    assert res["partial_sum"] == "8/3"
    assert res["partial_sum_float"] == pytest.approx(8 / 3, abs=1e-9)


def test_local_congruence(quad4_file):
    res = result_of(run_cli("local", "--system", quad4_file, "--q", "3"))
    assert res == {"q": 3, "count": "15"}


def test_lift(quad6_file):
    res = result_of(
        run_cli(
            "lift",
            "--system",
            quad6_file,
            "-p",
            "5",
            "-t",
            "2",
            "--seed",
            "1,0,1,2,3,2",
        )
    )
    assert res["modulus"] == "25"
    assert res["certified"] is True


LIFT = ["lift", "-p", "5", "-t", "2", "--seed", "1,0,1,2,3,2"]


def test_lift_in_process_prints_the_subprocess_stdout(quad6_file, capsys):
    for free in ([], ["--free", "1,2"]):
        args = LIFT + ["--system", quad6_file] + free
        assert cli.main(args) == 0
        out, _ = capsys.readouterr()
        proc = run_cli(*args)
        assert proc.returncode == 0 and out == proc.stdout
        assert json.loads(out)["result"]["free_indices"] == [1, 2]


@pytest.mark.parametrize(
    "args, code, message",
    [
        (["--free", "1,1"], 3, "error: indices must be a k-subset of 1..6, got (1, 1)"),
        (["--free", "1"], 3, "error: indices must be a k-subset of 1..6, got (1,)"),
        (["-p", "4"], 3, "error: 4 is not prime"),
        (["-t", "0"], 3, "error: target level must be >= 1"),
        (["--seed", "1,2,3,3,3,3"], 4, "hypothesis violation: seed does not satisfy "
         "the congruences mod p^1 (u = 1 + 2 v_p(J))"),
    ],
    ids=["free_repeated", "free_short", "p_composite", "t_zero", "seed_not_a_solution"],
)
def test_lift_in_process_errors(args, code, message, quad6_file, capsys):
    # a later flag overrides the valid one in LIFT
    assert cli.main(LIFT + ["--system", quad6_file] + args) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[0] == message


def test_lift_singular_exit4(quad4_file):
    proc = run_cli(
        "lift", "--system", quad4_file, "-p", "5", "-t", "2", "--seed", "3,3,3,3"
    )
    assert proc.returncode == 4


def test_constants():
    res = result_of(run_cli("constants", "--k", "3"))
    assert res["s0"] == 114
    res2 = result_of(run_cli("constants", "--k", "2", "--cs", "4"))
    assert res2["c"]["log2_magnitude"] == "-2048.0"
    assert res2["K_const"]["log2_magnitude"] == "0.0"


INCREMENT_TINY_D = ["increment", "--delta", "1/2", "--loglogn", "100", "--y", "3"]


@pytest.mark.parametrize(
    "args, digest",
    [
        (["constants", "--k", "2"],
         "6263b5f4c41fb2dbd46ae535105391f44222b9d81e6cf3ceb3785e5147ea0fdb"),
        (["constants", "--k", "2", "--cs", "4"],
         "3527a4edc6a9e937c1415ab2457c8ac63af216785edb9064ed264afb8109f025"),
        (["constants", "--k", "2", "--cs", "0.5"],
         "d7eb307f059799faa51632897e6dd37de753dc7f9873b131a7330a92bb7805eb"),
        (["constants", "--k", "2", "--bracket", "trunc"],
         "6ddec6e125048395d2747f823287a2d47484d438b56227e4246fc71cc79bd552"),
        (["constants", "--k", "3"],
         "d3d1ff17f3975660f94d20388d2589ac5e532f10acc3ffc74db248fc824400a3"),
        (["constants", "--k", "3", "--cs", "4"],
         "2a36f397d618d3a17dcef34f87d267bb9169e8f8ffab54132791f0f64ee3c50c"),
        (["constants", "--k", "3", "--cs", "0.5"],
         "2bb4a9f7664b6da1211827d9475fd035862acf1a15b9641f6d82b1149ff22465"),
        (["constants", "--k", "3", "--bracket", "trunc"],
         "903cf6c576dd3c5ee8e5dbdd867ac330ad61e73b2d5fd2f5878869b2cadc6732"),
        (["constants", "--k", "4"],
         "10a29ac96e3f09fff1d62cf07d711ef76f24893ef827895c422e19e7e4c239a0"),
        (["constants", "--k", "4", "--cs", "4"],
         "0d3c7de0532c5dc4da84de789bd0c1af288a8afa62261c70a682662a3f9c1523"),
        (["constants", "--k", "4", "--cs", "0.5"],
         "8af29bb4c1d6cc468a27d8d7bb83c31e1218a94289a8594f372dadccc5191643"),
        (["constants", "--k", "4", "--bracket", "trunc"],
         "7427061d831966f5159c6dab021905057c000ed3c793aa4abbba7ebac87bbaa5"),
        (INCREMENT_TINY_D + ["--k", "2"],
         "8521b1a3cd542cd0baa052b09df6be4a85af42ee6cfdcb45fdd9b282ea5775e7"),
        (INCREMENT_TINY_D + ["--k", "3"],
         "5512cea73f553dfb8c4b1477ba912293db5ab10b0347df2ffd0c4abff18175b6"),
    ],
    ids=["k2", "k2_cs4", "k2_cs0.5", "k2_trunc", "k3", "k3_cs4", "k3_cs0.5",
         "k3_trunc", "k4", "k4_cs4", "k4_cs0.5", "k4_trunc", "increment_k2",
         "increment_k3"],
)
def test_constant_sheet_stdout_is_pinned(args, digest, capsys):
    # sha256 of the whole envelope: every field of gamma, C, c and K_const,
    # including the level-2 log2_of_abs_log2 of K_const at --cs 0.5
    assert cli.main(args) == 0
    out, _ = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest


DP_SYSTEMS = {
    "quad6.json": '{"k": 2, "lambda": [1, 1, 1, -1, -1, -1]}',
    "cubic8.json": '{"k": 3, "lambda": [1, 1, 1, 1, -1, -1, -1, -1]}',
    "odd5.json": '{"k": 2, "lambda": [2, 1, -1, -1, -1]}',
}


@pytest.mark.parametrize(
    "args, digest",
    [
        (["local", "--system", "quad6.json", "--q", "360"],
         "a6bdb5ad840a4dde5c8dadfbb0c5c7a9fc5ea817f61bcd04b59d895d2ea609d3"),
        (["local", "--system", "quad6.json", "--prime", "2", "--hmax", "5"],
         "5134c3fc81f90771b2c3726443b45ff66f3a6690c88db1fdba29e0777fb2db98"),
        (["series", "--system", "quad6.json", "--qmax", "60"],
         "30487fb67b88a48b48d7bc95c1d9f4e00ebaaf9cd3a0a255ea08961032d12a66"),
        (["predict", "--system", "quad6.json", "--n", "1000"],
         "0ce8ce9fc109ec2e2c1aaff6b7168df4c2e094a50cb51ceb039c66288db9584e"),
        (["local", "--system", "cubic8.json", "--q", "360"],
         "eea22d116d6644b2d95409cce77bf47e0e025956bdafc9270f712286abc68984"),
        (["local", "--system", "cubic8.json", "--prime", "2", "--hmax", "5"],
         "e76b08465a6890f01c72fd3f25d73eb32ada5d8a2e6fe31d0ed4fe9d5f9b2f3e"),
        (["series", "--system", "cubic8.json", "--qmax", "60"],
         "bde6a6a0533edd4582103766f343a835bd1d4156727055c0c2b8f1fe99474ebe"),
        (["predict", "--system", "cubic8.json", "--n", "1000"],
         "b88d18c8c0cfee8640f00b104f906b877b0b08308a31066541e7d45304a9b4d8"),
        (["local", "--system", "odd5.json", "--q", "360"],
         "1979456d606b098e54e8448eb6d5f7110993ddb8d43415896395c19efac9b5bc"),
        (["local", "--system", "odd5.json", "--prime", "2", "--hmax", "5"],
         "2efcd40871879c4e48c393569dbcd5d27c31f74ac53520f410a87320f0bf2d8a"),
        (["series", "--system", "odd5.json", "--qmax", "60"],
         "42e34b00cb7679fcc60baa63b7e6a2c5dcbb470f0c666ef64d760713459bd26c"),
    ],
    ids=["quad6_local_q", "quad6_local_prime", "quad6_series", "quad6_predict",
         "cubic8_local_q", "cubic8_local_prime", "cubic8_series", "cubic8_predict",
         "odd5_local_q", "odd5_local_prime", "odd5_series"],
)
def test_dp_command_stdout_is_pinned(args, digest, tmp_path, monkeypatch, capsys):
    # sha256 of the whole envelope of each command that reads congruence
    # counts, recorded before the counts used the system's symmetry; the
    # system path is relative, so the envelope's config names it alike
    monkeypatch.chdir(tmp_path)
    for name, text in DP_SYSTEMS.items():
        (tmp_path / name).write_text(text)
    assert cli.main(args) == 0
    out, _ = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_increment():
    res = result_of(
        run_cli(
            "increment", "--delta", "1/2", "--loglogn", "100", "--y", "3", "--k", "2"
        )
    )
    assert res["outcome"] == "ambient_below_Y"


def test_concentrate(tmp_path):
    path = tmp_path / "evens.txt"
    path.write_text("N 20\n" + "\n".join(str(x) for x in range(2, 21, 2)) + "\n")
    res = result_of(run_cli("concentrate", "--set", str(path), "--min-len", "5"))
    assert res["density"] == "1"
    assert res["step"] == 2


def test_gen_set_squares():
    proc = run_cli("gen-set", "--kind", "squares", "--n", "10")
    assert proc.returncode == 0
    assert proc.stdout == "N 10\n1\n4\n9\n"


def test_gen_set_progression():
    proc = run_cli(
        "gen-set", "--kind", "progression", "--n", "11", "--start", "2", "--step", "3"
    )
    assert proc.stdout == "N 11\n2\n5\n8\n11\n"


def test_gen_set_random_deterministic():
    a = run_cli(
        "--seed", "7", "gen-set", "--kind", "random_density", "--n", "100",
        "--density", "0.5",
    )
    b = run_cli(
        "--seed", "7", "gen-set", "--kind", "random_density", "--n", "100",
        "--density", "0.5",
    )
    assert a.stdout == b.stdout and a.returncode == 0


def test_count_rerun_is_byte_identical(quad6_file):
    a = run_cli("count", "--system", quad6_file, "--n", "7")
    b = run_cli("count", "--system", quad6_file, "--n", "7")
    assert a.returncode == 0
    assert a.stdout == b.stdout


@pytest.mark.parametrize(
    "args",
    [
        ["--output", "csv", "validate", "--system", "{quad4}"],
        ["--output", "csv", "stream", "--system", "{quad4}", "--n", "3"],
        ["--output", "csv", "series", "--system", "{quad4}", "--qmax", "3"],
        ["gen-set", "--kind", "squares", "--n", "30"],
        ["gen-set", "--kind", "squares", "--n", "30", "--form", "mask"],
        ["--seed", "7", "gen-set", "--kind", "random_density", "--n", "40",
         "--density", "0.5"],
        ["gen-set", "--kind", "progression", "--n", "20", "--start", "3", "--step", "4"],
        ["gen-set", "--kind", "greedy_free", "--n", "20", "--system", "{quad4}"],
        ["gowers", "--set", "{full16}", "--degree", "2", "--naive-check"],
        ["local", "--system", "{quad4}", "--q", "12"],
        ["local", "--system", "{quad4}", "--prime", "3", "--hmax", "2"],
        ["arcs", "--n", "1000000", "--k", "2", "--alpha", "0,0"],
        ["arcs", "--n", "1000000", "--k", "2", "--alpha", "0.4142135,0.1415926"],
        ["expsum", "f", "--alpha", "0.25,0.125", "--set", "{full16}"],
        ["expsum", "g", "--alpha", "0.25,0.125", "--n", "16"],
        ["expsum", "E", "--alpha", "0.25,0.125", "--n", "16"],
        ["count", "--system", "{quad4}", "--n", "6"],
        ["moment", "--n", "12", "--k", "2", "--t", "2"],
        ["concentrate", "--set", "{full16}", "--min-len", "5"],
        ["predict", "--system", "{quad4}", "--n", "32", "--qmax", "20"],
    ],
    ids=["csv_key_value", "csv_rows", "csv_footer", "squares", "squares_mask",
         "random_density", "progression", "greedy_free", "gowers_naive_check",
         "local_q", "local_prime", "arcs_member", "arcs_minor", "expsum_f",
         "expsum_g", "expsum_E", "count", "moment", "concentrate", "predict"],
)
def test_in_process_stdout_equals_the_subprocess_stdout(args, quad4_file, full16_file,
                                                        capsys):
    args = [a.format(quad4=quad4_file, full16=full16_file) for a in args]
    assert cli.main(args) == 0
    out, _ = capsys.readouterr()
    proc = run_cli(*args)
    assert proc.returncode == 0 and out == proc.stdout


@pytest.mark.parametrize(
    "args, message",
    [
        (["--kind", "random_density"], "error: random_density needs --density"),
        (["--kind", "progression", "--start", "2"],
         "error: progression needs --start and --step"),
        (["--kind", "greedy_free"], "error: greedy_free needs --system"),
    ],
    ids=["no_density", "no_step", "no_system"],
)
def test_gen_set_in_process_errors(args, message, capsys):
    assert cli.main(["gen-set", "--n", "10"] + args) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[0] == message


@pytest.mark.parametrize(
    "args, code, message",
    [
        (["arcs", "--n", "100", "--k", "2", "--alpha", "inf,0.5"], 3,
         "error: cannot parse 'inf': inf is not finite"),
        (["arcs", "--n", "100", "--k", "2", "--alpha", "abc,0.5"], 3,
         "error: cannot parse 'abc': could not convert string to float: 'abc'"),
        (["expsum", "f", "--alpha", "0.1"], 3, "error: provide --set FILE or --n N"),
        (["expsum", "g", "--alpha", "0.1"], 3, "error: expsum g needs --n"),
        (["local", "--system", "{quad4}"], 3, "error: local needs --q or --prime"),
        (["--budget", "10", "count", "--system", "{quad4}", "--n", "5"], 2,
         "budget refused: mitm count: estimated 30 elementary operations exceeds "
         "budget of 10"),
        (["count", "--n", "3"], 3, "usage: circlecount count [-h] --system SYSTEM "
         "[--set SET] [--n N]"),
    ],
    ids=["non_finite_float", "malformed_float", "no_window", "expsum_g_no_n",
         "local_no_modulus", "budget_refusal", "usage_error"],
)
def test_in_process_errors(args, code, message, quad4_file, capsys):
    # the first line of stderr names the error; stdout stays empty
    assert cli.main([a.format(quad4=quad4_file) for a in args]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[0] == message


def test_in_process_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    out, _ = capsys.readouterr()
    assert out.startswith("usage: circlecount")


def test_other_library_errors_exit_1(monkeypatch, capsys):
    # a CircleCountError that is neither a validation, a budget nor a
    # hypothesis error: the handler's error stands in for one
    def fail(n, alpha):
        raise ToleranceNotMetError("tolerance not met")

    monkeypatch.setattr(cli, "eval_g", fail)
    assert cli.main(["expsum", "g", "--n", "9", "--alpha", "0.1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[0] == "error: tolerance not met"
