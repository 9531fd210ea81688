"""Workload case lists and the problem each case describes.

Every case is an argv for the ``dalg`` command line (without ``--format``),
so a row of the report can be rerun by hand.  ``elim`` and ``ansatz`` run
the same problem through the library functions, with the inputs parsed
before the timer starts; ``cli-mix`` hands the argv to ``dalg.cli.main``.

This module imports nothing from dalg at import time: the orchestrator
uses it only for workload names, and the worker imports dalg from the
checkout's ``src`` before it builds a problem.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("elim", "ansatz", "cli-mix")

# Per-case deadlines in seconds.  elim and ansatz finish every case in
# under 8 s on a 2-core machine, so theirs only stops a runaway.  The
# cli-mix deadline sits in the gap between its slowest drawn case (about
# 0.3 s on that machine) and the hard set, which runs for minutes.
DEADLINE_S = {"elim": 40.0, "ansatz": 40.0, "cli-mix": 2.0}

# A case shorter than this runs again within a pass (at most ten times) to
# give the median more samples.  cli-mix has over a hundred small cases, so
# it stops sooner; one second there would leave room for a single pass.
REPEAT_S = {"elim": 1.0, "ansatz": 1.0, "cli-mix": 0.25}

WP = "diff({y}(x),x)^2 = 4*{y}(x)^3 - g2*{y}(x) - g3"


def wp(y="y"):
    return WP.format(y=y)


@dataclass
class Case:
    id: str
    argv: list
    # "equation": a certified equation is expected; "exhausted": the ansatz
    # search must try every candidate and raise AnsatzNotFoundError
    expect: str = "equation"
    # reference equation (acceptance criteria 1-7) and whether it must match
    # term for term instead of up to a rational factor
    reference: str | None = None
    exact: bool = False
    # exact z-degree required of an ansatz output (criterion 7, k = 2 and 3)
    z_degree: int | None = None
    hard: bool = False


# -- fixed workloads --------------------------------------------------------

# reference equations, copied from the acceptance criteria
EQ_RATMAP = (
    "z(x)^4*(4*x^3 - g2*x + g3 + 1) + z(x)^3*(-4*x^3 + 3*g2*x - 4*g3 - 2)"
    " - 2*z(x)^2*diff(z(x),x)*x + z(x)^2*(-3*g2*x + 6*g3 + 1)"
    " + 2*x*z(x)*diff(z(x),x) + z(x)*(g2*x - 4*g3)"
    " + diff(z(x),x)^2*x^2 + g3"
)
EQ_BERNOULLI = (
    "(-t^2*x + t*x - 2*t + 1)*z(x)^2 + (2*t*x - x + 2)*diff(z(x),x)*z(x)"
    " - 2*x*diff(z(x),x)^2 + x*diff(z(x),x,x)*z(x)"
)
EQ_DOUBLED = "diff(z(x),x,x) - 24*z(x)^2 + 2*g2"
EQ_WP_D1 = (
    "-1728*z(x)^4 + 64*g2^3 - 192*g2*diff(z(x),x)^2 - 3456*g3*z(x)^2"
    " + 128*diff(z(x),x)^3 - 1728*g3^2"
)
EQ_WP_D2 = (
    "16*g2^5 + 64*g2^4*z(x) + 16*g2^3*z(x)^2 - 160*g2^2*z(x)^3"
    " - 64*g2*z(x)^4 + 128*z(x)^5 - 432*g2^2*g3^2 - 1728*g2*g3^2*z(x)"
    " - 72*g2*g3*diff(z(x),x)^2 - 1728*g3^2*z(x)^2"
    " - 144*g3*z(x)*diff(z(x),x)^2 - 3*diff(z(x),x)^4"
)
EQ_WP_INV = "1 + (-4*x^3 + g2*x + g3)*diff(z(x),x)^2"
EQ_MATHIEU = (
    "4*a*y(x)^3 + 4*y(x)^2*diff(y(x),x,x) + y(x)^2*diff(y(x),x,x,x,x)"
    " - 2*diff(y(x),x,x,x)*y(x)*diff(y(x),x) - diff(y(x),x,x)^2*y(x)"
    " + 2*diff(y(x),x)^2*diff(y(x),x,x)"
)

RICCATI = "diff(y(x),x) = y(x)^2 + x"


def elim_cases():
    """Acceptance criteria 1-6 plus elimination variants that finish.  The
    variants of about a second put the median case among the Buchberger
    runs this workload is about.  Unary x*y/(x+y) (6 s) is left out: it
    alone took a third of a pass and left room for too few passes."""
    return [
        Case("c1_unary_wp", ["unary", "--ade", wp(), "--spec", "z = y/(x+y)"],
             reference=EQ_RATMAP, exact=True),
        Case("c2_arith_bernoulli",
             ["arith", "--ade", "x*diff(y1(x),x) - (t*x + 1)*y1(x)",
              "--ade", "diff(y2(x),x) - y2(x) - 1", "--spec", "z = y1/y2"],
             reference=EQ_BERNOULLI),
        Case("c3_compose_doubling",
             ["compose", "--ade", wp("y1"), "--ade", "diff(y2(x),x) = 2"],
             reference=EQ_DOUBLED),
        Case("c4_diff_j1", ["diff", "--ade", wp("y1"), "--j", "1"],
             reference=EQ_WP_D1),
        Case("c4_diff_j2", ["diff", "--ade", wp("y1"), "--j", "2"],
             reference=EQ_WP_D2),
        Case("c5_inverse", ["inverse", "--ade", wp("y1")], reference=EQ_WP_INV),
        Case("c6_mathieu",
             ["ddfinite", "--ade", "diff(y(x),x,x) + (a - 2*q*C)*y(x)",
              "--ade", "diff(C(x),x,x) + 4*C(x)"],
             reference=EQ_MATHIEU, exact=True),
        Case("v_unary_wp_x2", ["unary", "--ade", wp(), "--spec", "z = y/(x^2+y)"]),
        Case("v_arith_wp_exp",
             ["arith", "--ade", wp("y1"), "--ade", "diff(y2(x),x) = y2(x)",
              "--spec", "z = y1/y2"]),
        Case("v_arith_riccati_prod",
             ["arith", "--ade", "diff(y1(x),x) = y1(x)^2 + x",
              "--ade", "diff(y2(x),x) = y2(x)^2 - x", "--spec", "z = y1*y2"]),
        Case("v_arith_logistic_ratio",
             ["arith", "--ade", "diff(y1(x),x) = 2*y1(x)^2 - 3*y1(x)",
              "--ade", "diff(y2(x),x) = x*y2(x) + 1", "--spec", "z = y1/y2"]),
        Case("v_arith_riccati_ratio",
             ["arith", "--ade", "diff(y1(x),x) = y1(x)^2 + 1",
              "--ade", "diff(y2(x),x) = 2*x*y2(x) + 1", "--spec", "z = y1/y2"]),
        Case("v_arith_riccati_x_ratio",
             ["arith", "--ade", "diff(y1(x),x) = y1(x)^2 - 3*x + 4",
              "--ade", "diff(y2(x),x) = 3*y2(x) + 2", "--spec", "z = y1/y2"]),
    ]


def ansatz_cases():
    """Criterion 7, Riccati and numeric-Weierstrass variants, and one search
    that must exhaust."""
    def ans(ade, spec, k):
        return ["ansatz", "--ade", ade, "--spec", spec, "--degree-de", str(k)]

    return [
        Case("c7_k2", ans(wp(), "z = y/(x+y)", 2), z_degree=2),
        Case("c7_k3", ans(wp(), "z = y/(x+y)", 3), z_degree=3),
        Case("c7_k4", ans(wp(), "z = y/(x+y)", 4), reference=EQ_RATMAP),
        Case("riccati_k2", ans(RICCATI, "z = y/(x+y)", 2)),
        Case("riccati_k3", ans(RICCATI, "z = y/(x+y)", 3)),
        Case("riccati_k4", ans(RICCATI, "z = y/(x+y)", 4)),
        Case("riccati_y2_k4", ans(RICCATI, "z = y^2/(x+y)", 4)),
        Case("wp_numeric_k4",
             ans("diff(y(x),x)^2 = 4*y(x)^3 - 2*y(x) + 1", "z = y/(x+y)", 4)),
        Case("wp_y2_k2_exhausts", ans(wp(), "z = y^2/(x+y)", 2),
             expect="exhausted"),
    ]


def hard_cases():
    """The hard set: small variants of the paper examples that run for
    minutes at the seed commit.  They stay in cli-mix as timeouts."""
    return [
        Case("hard_unary_wp_y2", ["unary", "--ade", wp(), "--spec", "z = y^2/(x+y)"],
             hard=True),
        Case("hard_unary_wp_mobius",
             ["unary", "--ade", wp(), "--spec", "z = (y+x)/(x*y+1)"], hard=True),
        Case("hard_arith_wp_sum",
             ["arith", "--ade", "diff(y1(x),x)^2 = 4*y1(x)^3 - a*y1(x) - b",
              "--ade", "diff(y2(x),x)^2 = 4*y2(x)^3 - c*y2(x) - d",
              "--spec", "z = y1+y2"], hard=True),
        Case("hard_ansatz_wp_y2_k3",
             ["ansatz", "--ade", wp(), "--spec", "z = y^2/(x+y)", "--degree-de", "3"],
             hard=True),
    ]


# -- cli-mix generator ------------------------------------------------------

# Every subcommand has a fixed list of templates (input family x map or
# option).  A seed draws the coefficients and the order of the cases; it
# does not change how many cases of each template run, so the cost of a
# pass moves little from seed to seed.
CLI_MIX_REPEATS = 2


def _n(rng, lo=1, hi=4):
    """A nonzero integer in [-hi, -lo] or [lo, hi]."""
    return rng.choice((-1, 1)) * rng.randint(lo, hi)


# explicit first-order families y' = F(x, y): irreducible and linear in y'
def _linear(rng, y):
    return f"diff({y}(x),x) = {_n(rng)}*{y}(x) + {_n(rng)}"


def _linear_x(rng, y):
    return f"diff({y}(x),x) = {_n(rng)}*x*{y}(x) + {_n(rng)}"


def _riccati(rng, y):
    return f"diff({y}(x),x) = {y}(x)^2 + {_n(rng)}"


def _riccati_x(rng, y):
    return f"diff({y}(x),x) = {y}(x)^2 + {_n(rng)}*x + {_n(rng)}"


def _logistic(rng, y):
    return f"diff({y}(x),x) = {_n(rng)}*{y}(x)^2 + {_n(rng)}*{y}(x)"


FIRST_ORDER = (_linear, _linear_x, _riccati_x, _logistic)


def _second_order(rng, y):
    return f"diff({y}(x),x,x) + {_n(rng)}*diff({y}(x),x) + {_n(rng)}*{y}(x)"


def _weierstrass(rng, y):
    return f"diff({y}(x),x)^2 = 4*{y}(x)^3 + {_n(rng)}*{y}(x) + {_n(rng)}"


UNARY_MAPS = (
    lambda r: f"z = {_n(r)}*y + {_n(r)}*x",
    lambda r: f"z = y^2 + {_n(r)}*x",
    lambda r: f"z = 1/(y + {_n(r)})",
    lambda r: (lambda a: f"z = (y + {a})/(y + {a + 1})")(_n(r)),
    lambda r: f"z = x*y + {_n(r)}",
    lambda r: f"z = y/(x + {_n(r)})",
)
ARITH_MAPS = (
    lambda r: "z = y1 + y2",
    lambda r: "z = y1*y2",
    lambda r: f"z = y1 + {_n(r)}*y2",
    lambda r: "z = y1/y2",
)
ANSATZ_MAPS = (
    lambda r: (lambda a: f"z = (y + {a})/(y + {a + r.choice((-2, -1, 1, 2))})")(_n(r)),
    lambda r: f"z = 1/(y + {_n(r)})",
    lambda r: f"z = {_n(r)}*y + {_n(r)}",
)
INNER = (
    lambda r: f"diff(y2(x),x) = {_n(r)}",
    lambda r: _linear(r, "y2"),
)
DDFINITE_MAIN = (
    lambda r: f"diff(y(x),x,x) + ({_n(r)} + {_n(r)}*C)*y(x)",
    lambda r: f"diff(y(x),x) - ({_n(r)} + C)*y(x)",
)
DDFINITE_COEFF = (
    lambda r: f"diff(C(x),x) - {_n(r)}*C(x)",
    lambda r: f"diff(C(x),x,x) + {r.randint(1, 4)}*C(x)",
)


def cli_mix_templates():
    """(subcommand, template) pairs; a template maps an rng to an argv."""
    t = []
    for fam in FIRST_ORDER:
        for spec in UNARY_MAPS:
            t.append(("unary", lambda r, f=fam, s=spec:
                      ["unary", "--ade", f(r, "y"), "--spec", s(r)]))
    # A nonlinear input next to one with x in its coefficients makes the
    # product and the ratio take a second or more (the v_arith_* cases of
    # elim); here the inputs have constant coefficients, so every drawn
    # case stays small and the tail is left to the hard set.
    for fam in (_linear, _riccati, _logistic):
        for spec in ARITH_MAPS:
            t.append(("arith", lambda r, f=fam, s=spec:
                      ["arith", "--ade", f(r, "y1"), "--ade", _linear(r, "y2"),
                       "--spec", s(r)]))
    for fam in FIRST_ORDER:
        for inner in INNER:
            t.append(("compose", lambda r, f=fam, g=inner:
                      ["compose", "--ade", f(r, "y1"), "--ade", g(r)]))
    for fam in FIRST_ORDER + (_second_order, _weierstrass):
        for j in ("1", "2"):
            t.append(("diff", lambda r, f=fam, j=j:
                      ["diff", "--ade", f(r, "y"), "--j", j]))
    for fam in FIRST_ORDER:
        t.append(("inverse", lambda r, f=fam: ["inverse", "--ade", f(r, "y")]))
    for main in DDFINITE_MAIN:
        for coeff in DDFINITE_COEFF:
            t.append(("ddfinite", lambda r, m=main, c=coeff:
                      ["ddfinite", "--ade", m(r), "--ade", c(r)]))
    for fam in FIRST_ORDER:
        for spec in ANSATZ_MAPS:
            t.append(("ansatz", lambda r, f=fam, s=spec:
                      ["ansatz", "--ade", f(r, "y"), "--spec", s(r),
                       "--degree-de", "2"]))
    return t


def cli_mix_cases(seed):
    """Every template CLI_MIX_REPEATS times with seeded coefficients, in a
    seeded order, then the hard set."""
    rng = random.Random(seed)
    cases = [Case(f"t{i:02d}{chr(97 + rep)}_{command}", template(rng))
             for rep in range(CLI_MIX_REPEATS)
             for i, (command, template) in enumerate(cli_mix_templates())]
    rng.shuffle(cases)
    return cases + hard_cases()


def workload_cases(workload, seed):
    """The case list of one workload for one seed.  For the fixed workloads
    the seed only sets the order in which the cases run."""
    if workload == "cli-mix":
        return cli_mix_cases(seed)
    cases = elim_cases() if workload == "elim" else ansatz_cases()
    random.Random(seed).shuffle(cases)
    return cases
