"""End-to-end command line checks, including the documented exit codes:
0 success, 2 parse error, 3 search exhaustion, 4 resource cap, 64 usage."""

import json
import os
import subprocess
import sys

from dalg import Context, equation_to_ade

from test_acceptance import EQ_MATHIEU

WEIER = "diff(y1(x),x)^2 = 4*y1(x)^3 - g2*y1(x) - g3"


def run_cli(*args, infile=None):
    cmd = [sys.executable, "-m", "dalg.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300)


def test_unary_text():
    r = run_cli("unary", "--ade", "diff(y(x),x) = y(x)", "--spec", "z = y^2")
    assert r.returncode == 0
    assert r.stdout.strip() == "diff(z(x),x) - 2*z(x) = 0"


def test_arith_json():
    r = run_cli("arith",
                "--ade", "diff(y1(x),x) = y1(x)",
                "--ade", "diff(y2(x),x) = 2*y2(x)",
                "--spec", "z = y1*y2", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["schema"] == "dalg/1"
    assert doc["dep"] == "z"
    assert doc["order"] == 1


def test_compose_inverse_diff_ddfinite():
    r = run_cli("compose", "--ade", WEIER, "--ade", "diff(y2(x),x) = 2")
    assert r.returncode == 0
    assert "24*z(x)^2" in r.stdout
    r = run_cli("inverse", "--ade", "diff(y(x),x) = y(x)")
    assert r.returncode == 0
    assert r.stdout.strip() == "diff(z(x),x)*x - 1 = 0"
    r = run_cli("diff", "--ade", "diff(y(x),x) = y(x)", "--j", "1")
    assert r.returncode == 0
    assert r.stdout.strip() == "diff(z(x),x) - z(x) = 0"
    r = run_cli("ddfinite",
                "--ade", "diff(y(x),x) = C(x)*y(x)",
                "--ade", "diff(C(x),x,x) + C(x) = 0")
    assert r.returncode == 0
    assert "y(x)" in r.stdout


def test_ddfinite_mathieu_matches_criterion_6():
    r = run_cli("ddfinite",
                "--ade", "diff(y(x),x,x) + (a - 2*q*C)*y(x)",
                "--ade", "diff(C(x),x,x) + 4*C(x)")
    assert r.returncode == 0
    ctx = Context()
    out = equation_to_ade(r.stdout.strip(), ctx, dep="y")
    assert out.poly == equation_to_ade(EQ_MATHIEU, ctx, dep="y").poly


def test_ansatz_subcommand():
    r = run_cli("ansatz", "--ade", "diff(y(x),x) = y(x)",
                "--spec", "z = y^2", "--degree-de", "1")
    assert r.returncode == 0
    assert r.stdout.strip() == "diff(z(x),x) - 2*z(x) = 0"


def test_input_file_and_out(tmp_path):
    eqs = tmp_path / "eqs.txt"
    eqs.write_text("# comment line\ndiff(y(x),x) = y(x)\n\n")
    out = tmp_path / "result.txt"
    r = run_cli("unary", "--in", str(eqs), "--spec", "z = y^2",
                "--out", str(out))
    assert r.returncode == 0
    assert out.read_text().strip() == "diff(z(x),x) - 2*z(x) = 0"


def test_parse_error_exit_2():
    r = run_cli("unary", "--ade", "diff(y(x),x = y(x)", "--spec", "z = y")
    assert r.returncode == 2
    assert "parse error" in r.stderr
    r = run_cli("unary", "--spec", "z = y")
    assert r.returncode == 2


def test_search_exhaustion_exit_3():
    r = run_cli("ansatz", "--ade", WEIER, "--spec", "z = y1",
                "--degree-de", "1", "--order-cap", "0")
    assert r.returncode == 3
    assert "failed" in r.stderr


def test_resource_cap_exit_4():
    r = run_cli("unary", "--ade", WEIER, "--spec", "z = y1/(x+y1)",
                "--max-degree", "6")
    assert r.returncode == 4
    assert "resource cap" in r.stderr


def test_usage_exit_64():
    r = run_cli()
    assert r.returncode == 64
    r = run_cli("unknown-command")
    assert r.returncode == 64
    r = run_cli("unary", "--ade", "y'=y", "--format", "yaml")
    assert r.returncode == 64
    # out-of-range integer flags are usage errors, not parse errors
    r = run_cli("diff", "--ade", "y'=y", "--j", "0")
    assert r.returncode == 64
    r = run_cli("ansatz", "--ade", "y'=y", "--spec", "z = y", "--degree-de", "0")
    assert r.returncode == 64
    r = run_cli("ansatz", "--ade", "y'=y", "--spec", "z = y", "--order-cap", "-1")
    assert r.returncode == 64
    # an argument error raised inside the library is a usage error too
    r = run_cli("compose", "--ade", "diff(y(x),x) = y(x)", "--ade", "diff(y(x),x) = 2")
    assert r.returncode == 64
    assert "distinct dependents" in r.stderr


def test_closed_stdout_exit_0():
    # the reader is gone before the result is written (as with `| head`)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run([sys.executable, "-m", "dalg.cli", "diff",
                            "--ade", "diff(y(x),x)=y(x)", "--j", "2"],
                           stdout=write_end, stderr=subprocess.PIPE, text=True,
                           timeout=300)
    finally:
        os.close(write_end)
    assert r.returncode == 0
    assert r.stderr == ""


def test_version():
    r = run_cli("--version")
    assert r.returncode == 0
    assert r.stdout.startswith("dalg ")
