"""End-to-end command line checks, including the documented exit codes:
0 success, 2 parse error, 3 elimination failure or search exhaustion,
4 resource cap, 64 usage."""

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dalg import Context, equation_to_ade, render, spec_to_ratfunc
from dalg.cli import main as cli_main

from conftest import certified_by_substitution
from test_acceptance import EQ_MATHIEU

WEIER = "diff(y1(x),x)^2 = 4*y1(x)^3 - g2*y1(x) - g3"


def run_cli(*args, infile=None, timeout=300):
    cmd = [sys.executable, "-m", "dalg.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)


def test_unary_text():
    r = run_cli("unary", "--ade", "diff(y(x),x) = y(x)", "--spec", "z = y^2")
    assert r.returncode == 0
    assert r.stdout.strip() == "diff(z(x),x) - 2*z(x) = 0"


@pytest.mark.parametrize("argv, expected", [
    (["unary", "--ade", "diff(y(x),x) = y(x)/3", "--spec", "z = y/2 + 1/3"],
     "9*diff(z(x),x) - 3*z(x) + 1 = 0"),
    (["arith", "--ade", "diff(y1(x),x) = y1(x)/2", "--ade", "diff(y2(x),x) = 2/3*y2(x)",
      "--spec", "z = y1/2 + 2/3*y2"],
     "6*diff(z(x),x,x) - 7*diff(z(x),x) + 2*z(x) = 0"),
    (["ansatz", "--ade", "diff(y(x),x) = y(x)/2 + 2/3", "--spec", "z = y^2/2 + 2/3",
      "--degree-de", "2"],
     "27*diff(z(x),x)^2 - 54*diff(z(x),x)*z(x) + 27*z(x)^2 + 36*diff(z(x),x)"
     " - 60*z(x) + 28 = 0"),
    (["ansatz", "--ade", "diff(y(x),x)^2 = y(x)^3/2 - 2/3", "--spec", "z = y/2 + 1/3",
      "--degree-de", "2"],
     "9*z(x)^2 - 6*diff(z(x),x,x) - 6*z(x) + 1 = 0"),
])
def test_rational_coefficients(capsys, argv, expected):
    # inputs and maps with non-integral coefficients go through the exact
    # rational path and print primitive integer equations
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == expected + "\n"


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


@pytest.mark.parametrize("k", [2, 3, 4])
def test_ansatz_riccati_order_cap_4(k):
    # the closure to order 4 reduces against (x+y)^5; under the
    # primitive-PRS gcd this search never returned
    ade_text, spec = "diff(y(x),x) = y(x)^2 + x", "z = y^2/(x+y)"
    r = run_cli("ansatz", "--ade", ade_text, "--spec", spec,
                "--degree-de", str(k), "--order-cap", "4", timeout=60)
    assert r.returncode == 0
    ctx = Context()
    ade = equation_to_ade(ade_text, ctx)
    _, R = spec_to_ratfunc(spec, ctx, ["y"])
    out = equation_to_ade(r.stdout.strip(), ctx, dep="z")
    assert certified_by_substitution(out, ade, R)


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


@pytest.mark.parametrize("argv, message", [
    (["inverse", "--ade", "y' = y", "--ade", "w' = w"], "inverse takes exactly one equation"),
    (["ddfinite", "--ade", "y'' + y = 0"],
     "ddfinite needs the main equation plus at least one coefficient equation"),
    (["compose", "--ade", "y' = y"], "compose needs exactly two equations (outer, inner)"),
    (["diff", "--ade", "y' = y", "--ade", "w' = w"], "diff takes exactly one equation"),
    (["unary", "--ade", "y' = y", "--ade", "w' = w", "--spec", "z = y"],
     "unary takes exactly one equation"),
    (["arith", "--ade", "y' = y", "--spec", "z = y"], "arith needs at least two equations"),
    (["unary", "--ade", "y' = y"], "this operation needs --spec, e.g. --spec 'z=y/(x+y)'"),
    (["arith", "--ade", "y' = y", "--ade", "w' = w"],
     "this operation needs --spec, e.g. --spec 'z=y/(x+y)'"),
    (["ansatz", "--ade", "y' = y"], "this operation needs --spec, e.g. --spec 'z=y/(x+y)'"),
    (["unary", "--spec", "z = y"], "no input equations (use --ade or --in)"),
    (["unary", "--ade", "y' = y )", "--spec", "z = y"],
     "unexpected trailing input ')' (line 1, column 8)"),
])
def test_input_count_and_spec_errors_exit_2(capsys, argv, message):
    # these parse errors have no source position, and print none; a syntax
    # error prints its own
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == f"parse error: {message}\n"


def test_non_ascii_digit_exit_2(capsys):
    # str.isdigit takes the superscript two, int() does not
    argv = ["unary", "--ade", "diff(y(x),x) = y(x)^\u00b2", "--spec", "z = y"]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and err.count("\n") == 1


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


def test_basis_cap_exit_4(capsys):
    # criterion 1 needs a basis of more than 10 elements, also with both
    # saturation factors certified away
    argv = ["unary", "--ade", WEIER, "--spec", "z = y1/(x+y1)"]
    assert cli_main(argv + ["--max-basis", "10"]) == 4
    assert "resource cap" in capsys.readouterr().err
    assert cli_main(argv + ["--max-basis", "20"]) == 0


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
    r = run_cli("diff", "--ade", "diff(y(x),x) = y(x)", "--max-degree", "-3")
    assert r.returncode == 64
    r = run_cli("unary", "--ade", "y'=y", "--spec", "z = y", "--max-basis", "0")
    assert r.returncode == 64
    # inverse and ansatz run no elimination, so they take no Groebner cap flags
    r = run_cli("inverse", "--ade", "diff(y(x),x) = y(x)", "--max-degree", "5")
    assert r.returncode == 64
    r = run_cli("ansatz", "--ade", "diff(y(x),x) = y(x)", "--spec", "z = y^2",
                "--max-basis", "100")
    assert r.returncode == 64
    # an argument error raised inside the library is a usage error too
    r = run_cli("compose", "--ade", "diff(y(x),x) = y(x)", "--ade", "diff(y(x),x) = 2")
    assert r.returncode == 64
    assert "distinct dependents" in r.stderr
    # two ansatz inputs for the same dependent
    r = run_cli("ansatz", "--ade", "diff(y(x),x) = y(x)", "--ade",
                "diff(y(x),x) = 2*y(x)", "--spec", "z = y", "--degree-de", "1")
    assert r.returncode == 64
    assert "distinct dependents" in r.stderr


@pytest.mark.parametrize("argv", [
    ["diff", "--ade", "diff(z(x),x) = z(x)^2"],
    ["unary", "--ade", "diff(y(x),x) = y(x)", "--spec", "y = y^2"],
    ["arith", "--ade", "diff(y1(x),x) = y1(x)", "--ade", "diff(y2(x),x) = 2*y2(x)",
     "--spec", "y1 = y1*y2"],
    ["compose", "--ade", "diff(y(x),x) = y(x)", "--ade", "diff(z(x),x) = 2"],
    ["ansatz", "--ade", "diff(y(x),x) = y(x)", "--spec", "y = y^2", "--degree-de", "2"],
])
def test_output_named_like_an_input_exit_64(capsys, argv):
    # the output would be the input function itself, so no equation is printed
    assert cli_main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is the dependent of an input" in captured.err


@pytest.mark.parametrize("argv", [
    ["unary", "--ade", "y' = w(x)*y", "--spec", "z = y^2"],
    ["arith", "--ade", "y1' = w(x)*y1", "--ade", "y2' = y2", "--spec", "z = y1 + y2"],
    ["compose", "--ade", "y' = w(x)*y", "--ade", "u' = 1"],
    ["diff", "--ade", "y' = w(x)*y"],
    ["inverse", "--ade", "y' = w(x)*y"],
    ["ddfinite", "--ade", "y'' + C*y", "--ade", "C' = w(x)*C"],
    ["ansatz", "--ade", "y' = w(x)*y", "--spec", "z = y^2", "--degree-de", "1"],
])
def test_free_function_exit_64(capsys, argv):
    # w has no equation of its own, so no operation can eliminate it or, for
    # inverse, move it from x to z; the error names it
    assert cli_main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "involves w(x), which is not an input's dependent" in captured.err


@pytest.mark.parametrize("outer, inner", [
    ("diff(y1(x),x) = y1(x)*y2(x)", "y2' = 1"),
    ("y1' = y1", "diff(y2(x),x) = y1(x)"),
])
def test_compose_cross_reference_exit_64(capsys, outer, inner):
    # the outer equation holds at g(x) and the inner one at x, so they are
    # two separate systems and neither may name the other's dependent
    assert cli_main(["compose", "--ade", outer, "--ade", inner]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not an input's dependent" in captured.err


def test_coupled_inputs_in_prime_notation(capsys):
    # y2 is applied only in the second equation; the first may still name
    # it bare, as it may any input's dependent
    argv = ["--ade", "y1'=y1*y2", "--ade", "y2'=y1+x", "--spec", "z = y1"]
    expected = "z(x)^3 + z(x)^2*x + diff(z(x),x)^2 - diff(z(x),x,x)*z(x) = 0\n"
    assert cli_main(["arith", *argv]) == 0
    assert capsys.readouterr().out == expected
    assert cli_main(["ansatz", *argv, "--degree-de", "3"]) == 0
    assert capsys.readouterr().out == expected


def test_ddfinite_is_arith_with_z_equal_y(capsys):
    # criterion 6: the conversion prints the elimination of z = y, in y
    argv = ["--ade", "diff(y(x),x,x) + (a - 2*q*C)*y(x)",
            "--ade", "diff(C(x),x,x) + 4*C(x)"]
    assert cli_main(["ddfinite", *argv]) == 0
    ddfinite = capsys.readouterr().out
    assert cli_main(["arith", *argv, "--spec", "z = y"]) == 0
    assert capsys.readouterr().out.replace("z(x)", "y(x)") == ddfinite


def test_file_errors_exit_64(tmp_path, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("diff(y(x),x) = y(x)  # \xe9\n".encode("latin-1"))
    missing = tmp_path / "missing.txt"
    unwritable = tmp_path / "no-such-dir" / "out.txt"
    for argv, path in [(["--in", str(missing)], missing),
                       (["--in", str(bad)], bad),
                       (["--ade", "diff(y(x),x) = y(x)", "--out", str(unwritable)],
                        unwritable)]:
        assert cli_main(["unary", "--spec", "z = y^2", *argv]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err
    assert not unwritable.parent.exists()


def test_in_process_calls_do_not_share_arguments(capsys):
    # the parser is built once per process; each call still parses only
    # its own --ade flags and prints what a fresh process prints
    for ade in ["diff(y(x),x) = y(x)", "diff(y(x),x) = 2*y(x)"]:
        argv = ["diff", "--ade", ade]
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == run_cli(*argv).stdout


@pytest.mark.parametrize("eq", ["diff({y}(x),x,x) = {y}(x)*diff({y}(x),x)",
                                "diff({y}(x),x,x) = {y}(x)*diff({y}(x),x) + x"])
def test_inverse_input_named_like_the_output(capsys, eq):
    # x -> z, y -> x and y^(i) -> D_i are simultaneous, so an input
    # already in z gives what the same input in y gives (with an x in
    # the input, one binding at a time would send x -> z -> x)
    outs = []
    for y in ("y", "z"):
        assert cli_main(["inverse", "--ade", eq.format(y=y)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("eq", ["x*y' = 0", "(x+y)*y'^2 = 0", "y' = 0"])
def test_inverse_of_constant_solutions_exit_64(capsys, eq):
    # off the initial these inputs leave only y' = 0, which has no inverse;
    # no equation (such as z = 0 for x*y' = 0) is printed
    assert cli_main(["inverse", "--ade", eq]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the input's generic solutions are constant, "
                            "so they have no functional inverse\n")


def test_inverse_of_logarithm(capsys):
    # [DERIVED] x*y' = 1 holds for y = log(x) + c, whose inverse e^(x - c)
    # satisfies z' = z
    assert cli_main(["inverse", "--ade", "x*y' - 1 = 0"]) == 0
    assert capsys.readouterr().out == "diff(z(x),x) - z(x) = 0\n"


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


def test_json_output_is_what_json_dumps_writes(capsys, monkeypatch):
    # the direct JSON writer against json.dumps(doc, indent=2), byte for
    # byte, on every output of the benchmark's elim, ansatz and cli-mix
    # seed-1 argvs, on a non-ASCII parameter, and on a Fraction coefficient
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from cases import ansatz_cases, cli_mix_cases, elim_cases

    argvs = [case.argv for case in elim_cases() + ansatz_cases() + cli_mix_cases(1)]
    argvs.append(["unary", "--ade", "y' = \u03b1*y^2 + x", "--spec", "z = y/(x+y)"])
    texts = []
    for argv in argvs:
        code = cli_main([*argv, "--format", "json"])
        out = capsys.readouterr().out
        assert code in (0, 3), argv
        if code == 0:
            texts.append(out.removesuffix("\n"))
    ade = equation_to_ade("y'' = 2*y + 1", Context())
    texts.append(render(dataclasses.replace(ade, poly=ade.poly.scale(Fraction(1, 2))), "json"))
    factors = []
    for text in texts:
        assert json.dumps(json.loads(text), indent=2) == text
        factors += [f for t in json.loads(text)["terms"] for f in t["monomial"]]
    # a constant term, derivatives of order 0 and above, an x factor
    # without "order", the escaped parameter and the Fraction
    monomials = [t["monomial"] for text in texts for t in json.loads(text)["terms"]]
    assert [] in monomials
    assert {0, 1, 2} <= {f["order"] for f in factors if "order" in f}
    assert any(f["var"] == "x" and "order" not in f for f in factors)
    assert '"var": "\\u03b1"' in texts[-2] and "\u03b1" in {f["var"] for f in factors}
    assert '"coeff": "1/2"' in texts[-1]
