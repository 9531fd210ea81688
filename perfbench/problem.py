"""Turn a case argv into parsed dalg inputs, and run it through the library.

The parsing mirrors what ``dalg.cli`` does for each subcommand, using only
public parser functions, so that ``elim`` and ``ansatz`` time the library
call alone and the certifier can rebuild any case from its argv.
"""

from __future__ import annotations

from dataclasses import dataclass

import dalg
from dalg.parser import applied_names, parse_equation


@dataclass
class Problem:
    command: str
    ctx: object
    ades: list
    R: object = None        # rational map (unary, arith, ansatz)
    z_name: str = "z"
    j: int = 1              # diff
    k: int = 2              # ansatz degree bound


def _options(argv):
    opts = {"--ade": []}
    it = iter(argv[1:])
    for flag in it:
        value = next(it)
        if flag == "--ade":
            opts["--ade"].append(value)
        else:
            opts[flag] = value
    return opts


def parse_problem(argv) -> Problem:
    """Parse one case argv into a fresh context."""
    command, opts = argv[0], _options(argv)
    texts = opts["--ade"]
    ctx = dalg.Context()
    if command == "ddfinite":
        # The main equation is lowered first, as acceptance criterion 6 does.
        # The command line registers the coefficient names first; that
        # variable order makes the Mathieu elimination about 20x slower.
        coeff_nodes = [parse_equation(t) for t in texts[1:]]
        names = [n for node in coeff_nodes for n in applied_names(node)]
        main = dalg.equation_to_ade(texts[0], ctx, extra_deps=names)
        coeffs = [dalg.equation_to_ade(node, ctx) for node in coeff_nodes]
        return Problem(command, ctx, [main] + coeffs, z_name=main.dep_name)
    nodes = [parse_equation(t) for t in texts]
    for node in nodes:
        for name in applied_names(node):
            ctx.indeterminate(name)
    ades = [dalg.equation_to_ade(node, ctx) for node in nodes]
    problem = Problem(command, ctx, ades)
    if "--spec" in opts:
        problem.z_name, problem.R = dalg.spec_to_ratfunc(
            opts["--spec"], ctx, [a.dep_name for a in ades])
    problem.j = int(opts.get("--j", 1))
    problem.k = int(opts.get("--degree-de", 2))
    return problem


def solve(p: Problem):
    """Run the library operation of the problem; returns the output ADE."""
    a = p.ades
    if p.command == "unary":
        return dalg.unary_dalg(a[0], p.R, z_name=p.z_name).ade
    if p.command == "arith":
        return dalg.arithmetic_dalg(a, p.R, z_name=p.z_name).ade
    if p.command == "compose":
        return dalg.compose_dalg(a[0], a[1]).ade
    if p.command == "diff":
        return dalg.diff_dalg(a[0], p.j).ade
    if p.command == "inverse":
        return dalg.inv_dalg(a[0]).ade
    if p.command == "ddfinite":
        return dalg.ddfinite_to_dalg(a[0], a[1:]).ade
    if p.command == "ansatz":
        return dalg.ansatz_search(a, p.R, k=p.k, z_name=p.z_name)
    raise ValueError(f"unknown command {p.command!r}")
