"""Checks of the benchmark's own parts.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from fractions import Fraction
from pathlib import Path
from time import process_time

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import dalg  # noqa: E402

import certify  # noqa: E402
from cases import Case, cli_mix_cases, elim_cases, workload_cases  # noqa: E402
from problem import parse_problem, solve  # noqa: E402


def _perturbed(ade):
    """The same equation with one coefficient changed."""
    terms = dict(ade.poly.terms)
    mono = next(iter(terms))
    terms[mono] += Fraction(1)
    return dalg.normalize_ade(dalg.Poly(ade.ctx, terms), dep=ade.dep)


def test_certifier_rejects_perturbed_equation_by_substitution():
    case = Case("riccati", ["unary", "--ade", "diff(y(x),x) = y(x)^2 + x",
                            "--spec", "z = y/(x+y)"])
    p = parse_problem(case.argv)
    out = solve(p)
    assert certify.check(case, p, out) is None
    assert "does not reduce to zero" in certify.check(case, p, _perturbed(out))


def test_certifier_rejects_perturbed_equation_by_reference():
    case = next(c for c in elim_cases() if c.id == "c4_diff_j1")
    p = parse_problem(case.argv)
    out = solve(p)
    assert certify.check(case, p, out) is None
    assert "differs from the reference" in certify.check(case, p, _perturbed(out))


def test_certifier_checks_command_line_json_of_every_subcommand():
    for argv in (
        ["compose", "--ade", "diff(y1(x),x) = y1(x)^2 + x", "--ade", "diff(y2(x),x) = 3"],
        ["inverse", "--ade", "diff(y(x),x) = 2*x*y(x) + 1"],
        ["diff", "--ade", "diff(y(x),x)^2 = 4*y(x)^3 - 2*y(x) + 1", "--j", "2"],
        ["ddfinite", "--ade", "diff(y(x),x,x) + (1 + 2*C)*y(x)",
         "--ade", "diff(C(x),x,x) + 4*C(x)"],
        ["arith", "--ade", "diff(y1(x),x) = y1(x)^2 + 1",
         "--ade", "diff(y2(x),x) = -y2(x) + 2", "--spec", "z = y1/y2"],
        ["ansatz", "--ade", "diff(y(x),x) = 3*y(x)^2 - y(x)",
         "--spec", "z = (y + 1)/(y + 2)", "--degree-de", "2"],
    ):
        case = Case(argv[0], argv)
        p = parse_problem(argv)
        text = dalg.render(solve(p), "json")
        assert certify.check_json(case, text) is None, argv
        doc = json.loads(text)
        doc["terms"][0]["coeff"] = str(Fraction(doc["terms"][0]["coeff"]) + 1)
        assert certify.check_json(case, json.dumps(doc)) is not None, argv


def test_cli_mix_draw_depends_only_on_the_seed():
    a, b, c = cli_mix_cases(7), cli_mix_cases(7), cli_mix_cases(8)
    assert [x.argv for x in a] == [x.argv for x in b]
    assert [x.argv for x in a] != [x.argv for x in c]
    assert sorted(x.id for x in a) == sorted(x.id for x in c)
    assert [x.id for x in a[-4:]] == [x.id for x in c[-4:]]
    assert all(x.hard for x in a[-4:])


def test_fixed_workloads_only_reorder_with_the_seed():
    for workload in ("elim", "ansatz"):
        one, two = workload_cases(workload, 1), workload_cases(workload, 2)
        assert sorted(c.id for c in one) == sorted(c.id for c in two)


def test_self_time_is_span_minus_children():
    import tracing

    tracer = tracing.Tracer()

    def spin(seconds):
        # spans are timed in CPU seconds, so spin on that clock
        end = process_time() + seconds
        while process_time() < end:
            pass

    inner = tracer.wrap(lambda: spin(0.05), "poly.inner", "poly")
    outer = tracer.wrap(lambda: (spin(0.01), inner()), "closure.outer", "closure")
    tracer.begin_case(0)
    tracer.on = True
    outer()
    tracer.on = False
    tracer.end_case()
    metrics, unattributed = tracer.metrics(1.0, 1.0)
    # without subtracting the child, closure's self time would be >= 0.06 s
    assert metrics["poly.self_s"] >= 0.05
    assert 0.01 <= metrics["closure.self_s"] < 0.04
    assert unattributed < 0.01


def test_metric_names_and_units_match_benchmark_json():
    import run
    import tracing

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    names, _ = tracing.Tracer().metrics(1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in names}
