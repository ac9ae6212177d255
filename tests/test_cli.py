import json
import subprocess
import sys
import time

import pytest

from circlecount import cli

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
    ],
    ids=["csv_key_value", "csv_rows", "csv_footer", "squares", "squares_mask",
         "random_density", "progression", "greedy_free"],
)
def test_in_process_stdout_equals_the_subprocess_stdout(args, quad4_file, capsys):
    args = [a.format(quad4=quad4_file) for a in args]
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
