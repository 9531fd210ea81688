"""Record, or compare, what the ``dalg`` command line prints for the
benchmark's argvs and for a fixed list of error paths.

    python tools/cli_parity.py <checkout> <out.json>
    python tools/cli_parity.py --compare a.json b.json

The first form runs every distinct argv of the ``elim`` and ``ansatz``
workloads and of ``cli-mix`` seeds 1-10 (hard set included), taken from this
repository's ``perfbench/cases.py``, then the fixed argvs of ``ERROR_ARGVS``
(error paths, since none of the benchmark's argvs fails, among them each
subcommand's equation-count error and a missing ``--spec``, primes after
an applied name, inputs at the edge of the input class, eliminations that
reach far past an input's order, eliminations whose solved variables are
substituted away
before Buchberger runs, and ansatz searches whose miss certificate meets
an initial in y, a denominator q, a parameter, coupled inputs, a constant
initial that it makes monic, an initial that vanishes mod 2^31 - 1, or
an input of degree 70, exact passes cut to the support of the
certificate's first dependency (after an initial lift, on coupled inputs,
and without the constant slot), a hit after confirmed dependencies on
coupled inputs, searches whose certificate declines, as an initial
vanishes mod both primes (a rank-deficient Riccati hit at k = 3, the same
input at k = 4, and a Weierstrass input at k = 3 and 4), and
inputs that the parser lowers through a quotient, with Fraction
coefficients or a non-ASCII parameter name), in-process through the
checkout's ``dalg.cli.main(argv + ["--format", "json"])`` (an argv that
names its own ``--format`` runs as it is), and writes
for each argv the exit code and the sha256 of stdout and of stderr.  An
exception that escapes ``main`` is recorded as exit code 1 with its type
and message as stderr.
The process runs under PYTHONHASHSEED=0, as the benchmark's workers do.

The second form lists the argvs whose records differ, or that only one file
has, and exits 1 if there are any.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI_MIX_SEEDS = range(1, 11)

WEIER = "diff(y1(x),x)^2 = 4*y1(x)^3 - g2*y1(x) - g3"
ERROR_ARGVS = [
    # exit 2: parse errors
    ("unary", "--ade", "diff(y(x),x = y(x)", "--spec", "z = y"),
    ("unary", "--spec", "z = y"),
    ("unary", "--ade", "diff(y(x),x) = y(x)^\u00b2", "--spec", "z = y"),
    ("unary", "--ade", "y' = y )", "--spec", "z = y"),
    # exit 2 with no source position: each subcommand's equation count and
    # a missing --spec
    ("inverse", "--ade", "y' = y", "--ade", "w' = w"),
    ("ddfinite", "--ade", "y'' + y = 0"),
    ("compose", "--ade", "y' = y"),
    ("diff", "--ade", "y' = y", "--ade", "w' = w"),
    ("unary", "--ade", "y' = y", "--ade", "w' = w", "--spec", "z = y"),
    ("arith", "--ade", "y' = y", "--spec", "z = y"),
    ("unary", "--ade", "y' = y"),
    ("arith", "--ade", "y' = y", "--ade", "w' = w"),
    ("ansatz", "--ade", "y' = y"),
    # primes after an applied name, exit 0
    ("unary", "--ade", "y(x)' = y(x)", "--spec", "z = y^2"),
    ("diff", "--ade", "y(x)'' + y(x)"),
    # exit 3: search exhaustion, and compositions whose inner function has
    # g' = 0 on its generic solution
    ("ansatz", "--ade", WEIER, "--spec", "z = y1", "--degree-de", "1", "--order-cap", "0"),
    ("compose", "--ade", "diff(y(x),x,x) + y(x) = 0", "--ade", "u' = 0"),
    ("compose", "--ade", "diff(y(x),x,x) + y(x) = 0", "--ade", "u'^2 = 0"),
    # exit 4: resource caps, on degree and on basis size (a basis of 20
    # suffices once both factors are certified, 10 does not)
    ("unary", "--ade", WEIER, "--spec", "z = y1/(x+y1)", "--max-degree", "6"),
    ("unary", "--ade", WEIER, "--spec", "z = y1/(x+y1)", "--max-basis", "20"),
    ("unary", "--ade", WEIER, "--spec", "z = y1/(x+y1)", "--max-basis", "10"),
    # exit 64: usage errors
    (),
    ("unknown-command",),
    ("unary", "--ade", "y'=y", "--format", "yaml"),
    ("diff", "--ade", "y'=y", "--j", "0"),
    ("ansatz", "--ade", "y'=y", "--spec", "z = y", "--degree-de", "0"),
    ("ansatz", "--ade", "y'=y", "--spec", "z = y", "--order-cap", "-1"),
    ("diff", "--ade", "diff(y(x),x) = y(x)", "--max-degree", "-3"),
    ("unary", "--ade", "y'=y", "--spec", "z = y", "--max-basis", "0"),
    ("inverse", "--ade", "diff(y(x),x) = y(x)", "--max-degree", "5"),
    ("ansatz", "--ade", "diff(y(x),x) = y(x)", "--spec", "z = y^2", "--max-basis", "100"),
    ("compose", "--ade", "diff(y(x),x) = y(x)", "--ade", "diff(y(x),x) = 2"),
    ("ansatz", "--ade", "diff(y(x),x) = y(x)", "--ade", "diff(y(x),x) = 2*y(x)",
     "--spec", "z = y", "--degree-de", "1"),
    ("diff", "--ade", "diff(z(x),x) = z(x)^2"),
    ("unary", "--ade", "diff(y(x),x) = y(x)", "--spec", "y = y^2"),
    ("arith", "--ade", "diff(y1(x),x) = y1(x)", "--ade", "diff(y2(x),x) = 2*y2(x)",
     "--spec", "y1 = y1*y2"),
    ("compose", "--ade", "diff(y(x),x) = y(x)", "--ade", "diff(z(x),x) = 2"),
    ("ansatz", "--ade", "diff(y(x),x) = y(x)", "--spec", "y = y^2", "--degree-de", "2"),
    ("unary", "--spec", "z = y^2", "--in", "no-such-dir/equations.txt"),
    ("unary", "--spec", "z = y^2", "--ade", "diff(y(x),x) = y(x)",
     "--out", "no-such-dir/out.txt"),
    # inputs whose generic solutions are constant have no inverse (exit 64);
    # the last one has an inverse
    ("inverse", "--ade", "y' = 0"),
    ("inverse", "--ade", "x*y' = 0"),
    ("inverse", "--ade", "(x+y)*y'^2 = 0"),
    ("inverse", "--ade", "x*y' - 1 = 0"),
    # the input class: a function with no equation of its own (w), and a
    # compose side naming the other side's dependent, exit 64; a nonlinear
    # ddfinite input and coupled inputs in prime notation, exit 0
    ("unary", "--ade", "y' = w(x)*y", "--spec", "z = y^2"),
    ("diff", "--ade", "y' = w(x)*y"),
    ("inverse", "--ade", "y' = w(x)*y"),
    ("ansatz", "--ade", "y' = w(x)*y", "--spec", "z = y^2", "--degree-de", "1"),
    ("compose", "--ade", "diff(y1(x),x) = y1(x)*y2(x)", "--ade", "y2' = 1"),
    ("compose", "--ade", "y1' = y1", "--ade", "diff(y2(x),x) = y1(x)"),
    ("ddfinite", "--ade", "y' = C*y^2", "--ade", "C' = C"),
    ("arith", "--ade", "y1'=y1*y2", "--ade", "y2'=y1+x", "--spec", "z = y1"),
    # eliminations that reach far past an input's order: coupled three-input
    # maps (y2'' occurs only through y1'' at bound 3), a third derivative of
    # a first-order input, a second-order inner and two coefficient functions
    ("arith", "--ade", "y1'=y1*y2", "--ade", "y2'=y1+x", "--ade", "y3'=y3",
     "--spec", "z = y1+y3"),
    ("arith", "--ade", "y1'=y2^2", "--ade", "y2'=y1*y2+x", "--ade", "y3'=2*y3",
     "--spec", "z = y1*y3"),
    ("diff", "--ade", "y' = y^2 + x", "--j", "3"),
    ("compose", "--ade", "y' = y", "--ade", "u'' + u = 0"),
    ("ddfinite", "--ade", "y'' + C*y' + D*y = 0", "--ade", "C' = C", "--ade", "D' = 2*D"),
    # eliminations that substitute solved variables away before Buchberger:
    # every eliminated variable, a non-unit constant coefficient, and the
    # link z - y' of a derivative
    ("unary", "--ade", "y' = y^2 + x", "--spec", "z = y + x"),
    ("arith", "--ade", "y1' = y1^2 + 1", "--ade", "y2' = y2^2 - 1", "--spec", "z = 2*y1 - 3*y2"),
    ("diff", "--ade", "y'' + y = 0", "--j", "1"),
    # ansatz searches whose miss certificate meets an initial that depends
    # on y, a coefficient denominator q = 2^31 - 1, a parameter, and coupled
    # inputs (a hit at order 2 and an exhausting search)
    ("ansatz", "--ade", "y*y' = x", "--spec", "z = y/(x+y)", "--degree-de", "2"),
    ("ansatz", "--ade", "y' = y/2147483647 + 1", "--spec", "z = y/(x+y)", "--degree-de", "2"),
    ("ansatz", "--ade", "y' = a*y", "--spec", "z = y/(x+y)", "--degree-de", "2"),
    ("ansatz", "--ade", "y1'=y1*y2", "--ade", "y2'=y1+x", "--spec", "z = y1", "--degree-de", "3"),
    ("ansatz", "--ade", "y1'=y1*y2", "--ade", "y2'=y1+x", "--spec", "z = y1+y2",
     "--degree-de", "2"),
    ("ansatz", "--ade", "y*y' = x", "--spec", "z = y^2/(x+y)", "--degree-de", "3"),
    # miss certificates that make a constant initial monic mod q, move to
    # the second prime when the initial vanishes mod 2^31 - 1, and need
    # fields wider than the exact pass's for an input of degree 70
    ("ansatz", "--ade", "3*y' = y", "--spec", "z = y^2", "--degree-de", "1"),
    ("ansatz", "--ade", "2147483647*y' = y + x", "--spec", "z = y^2", "--degree-de", "2"),
    ("ansatz", "--ade", "y' = y^70 + x", "--spec", "z = y^2", "--degree-de", "4"),
    # exact passes whose equation takes two gcds to strip, whose columns
    # reduce by two inputs with initials y1 and y2, and whose rows carry
    # Fraction coefficients until each is scaled by its lcm
    ("ansatz", "--ade", "y' = a*y^2 + b*y", "--spec", "z = 1/(y+a)", "--degree-de", "2"),
    ("ansatz", "--ade", "y1*y1' = x", "--ade", "y2*y2' = x", "--spec", "z = y1*y2",
     "--degree-de", "2"),
    ("ansatz", "--ade", "y' = y^2 + x", "--spec", "z = y/(2*x+2*y)", "--degree-de", "2"),
    # exact passes cut to the support of the miss certificate's first
    # dependency: after an initial lift, on coupled inputs (with and
    # without a lift), and on a support without the constant slot
    ("ansatz", "--ade", "y^2*y' = x", "--spec", "z = y + 1", "--degree-de", "3"),
    ("ansatz", "--ade", "y1' = y1*y2", "--ade", "y2' = 1", "--spec", "z = y1*y2",
     "--degree-de", "2"),
    ("ansatz", "--ade", "y1' = y1*y2", "--ade", "y2*y2' = x", "--spec", "z = y1",
     "--degree-de", "3"),
    ("ansatz", "--ade", "y' = y^2 + y", "--spec", "z = y/(x+y)", "--degree-de", "2"),
    # a hit after confirmed dependencies on coupled inputs (z' - 1 = 0,
    # read at z^2*z' from its confirmed lead z'), and a rank-deficient hit
    # whose certificate declines, as the initial vanishes mod both primes:
    # the full pass of z^3, then the leads z and z^2
    ("ansatz", "--ade", "y1' = y1 + y2", "--ade", "y2' = y2", "--spec", "z = y1/y2",
     "--degree-de", "3"),
    ("ansatz", "--ade", "4611685975477714963*y' = y^2 + x", "--spec", "z = y/(x+y)",
     "--degree-de", "3"),
    # the same declined path at k = 4, and on a Weierstrass input at k = 3
    # and 4
    ("ansatz", "--ade", "4611685975477714963*y' = y^2 + x", "--spec", "z = y/(x+y)",
     "--degree-de", "4"),
    ("ansatz", "--ade", "4611685975477714963*diff(y(x),x)^2 = 4*y(x)^3 - g2*y(x) - g3",
     "--spec", "z = y/(x+y)", "--degree-de", "3"),
    ("ansatz", "--ade", "4611685975477714963*diff(y(x),x)^2 = 4*y(x)^3 - g2*y(x) - g3",
     "--spec", "z = y/(x+y)", "--degree-de", "4"),
    # what the parser lowers: a rational right side, Fraction coefficients,
    # a spec whose quotient cancels, and a non-ASCII parameter, which JSON
    # escapes, in text and in json
    ("unary", "--ade", "y' = (y^2 - 1)/(y - 1)", "--spec", "z = y^2"),
    ("unary", "--ade", "y' = y/2 + x/3", "--spec", "z = y^2"),
    ("unary", "--ade", "y' = y^2 + x", "--spec", "z = (y^2-1)/(y-1)"),
    ("unary", "--ade", "y' = \u03b1*y^2 + x", "--spec", "z = y/(x+y)", "--format", "text"),
    ("unary", "--ade", "y' = \u03b1*y^2 + x", "--spec", "z = y/(x+y)"),
]


def distinct_argvs():
    sys.path.insert(0, str(ROOT / "perfbench"))
    from cases import ansatz_cases, cli_mix_cases, elim_cases

    cases = elim_cases() + ansatz_cases()
    for seed in CLI_MIX_SEEDS:
        cases += cli_mix_cases(seed)
    return list(dict.fromkeys([*(tuple(case.argv) for case in cases), *ERROR_ARGVS]))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record(checkout: Path, out: Path) -> int:
    argvs = distinct_argvs()
    sys.path.insert(0, str(checkout.resolve() / "src"))
    from dalg.cli import main

    results = []
    for argv in argvs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main([*argv] if "--format" in argv else [*argv, "--format", "json"])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # recorded, so that a crash is compared too
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                code = 1
        results.append({"argv": list(argv), "exit": code,
                        "stdout": sha256(stdout.getvalue()),
                        "stderr": sha256(stderr.getvalue())})
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    n_ansatz = sum(argv[:1] == ("ansatz",) for argv in argvs)
    print(f"{len(argvs)} distinct argvs ({n_ansatz} ansatz, {len(ERROR_ARGVS)} error "
          f"paths) -> {out}")
    return 0


def compare(a: Path, b: Path) -> int:
    def load(path):
        return {tuple(r["argv"]): r for r in json.loads(path.read_text(encoding="utf-8"))}

    left, right = load(a), load(b)
    differ = [argv for argv in dict.fromkeys([*left, *right])
              if left.get(argv) != right.get(argv)]
    for argv in differ:
        print(" ".join(argv))
    print(f"{len(differ)} of {len(set(left) | set(right))} argvs differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", action="store_true",
                        help="compare two record files instead of recording")
    parser.add_argument("first", type=Path, help="checkout, or the first record file")
    parser.add_argument("second", type=Path, help="output file, or the second record file")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args.first, args.second)
    return record(args.first, args.second)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
