"""Command-line interface.

Subcommands mirror the library operations: unary, arith, compose, diff,
inverse, ddfinite, and ansatz.  Equations are given with repeatable --ade
flags or an input file (--in, one equation per line, '#' comments); the
rational map with --spec.  Exit codes: 0 success, 2 parse error,
3 elimination failure or search exhaustion, 4 resource-cap abort,
64 usage error.  A reader that closes stdout early (``dalg ... | head``)
is not an error: the output is dropped and the exit code stays 0.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .ansatz import ansatz_search
from .closure import (arithmetic_dalg, compose_dalg, ddfinite_to_dalg,
                      diff_dalg, inv_dalg, unary_dalg)
from .context import Context
from .errors import (AnsatzNotFoundError, ArgumentError, DalgError,
                     EliminationFailedError, ParseError, ResourceCapError)
from .groebner import GBConfig
from .parser import applied_names, equation_to_ade, parse_equation, spec_to_ratfunc
from .render import render

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ELIMINATION = 3
EXIT_RESOURCE = 4
EXIT_USAGE = 64


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _int_at_least(low: int):
    """argparse type: an integer >= low, so a bad value is a usage error."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse reports a ValueError as "invalid int value"
    return parse


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="dalg",
                             description="differential equations for rational "
                                         "operations on D-algebraic functions")
    parser.add_argument("--version", action="version", version=f"dalg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    def common(p, spec=False):
        p.add_argument("--ade", action="append", default=[],
                       help="input equation (repeatable)")
        p.add_argument("--in", dest="infile", help="file with one equation per line")
        if spec:
            p.add_argument("--spec", required=False,
                           help="rational map, e.g. 'z=y/(x+y)'")
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--out", help="write the result here instead of stdout")
        p.add_argument("--max-degree", type=int, default=60,
                       help="abort when intermediate degrees exceed this cap "
                            "(elimination only; ansatz ignores it)")
        p.add_argument("--max-basis", type=int, default=5000,
                       help="abort when the basis/pair count exceeds this cap "
                            "(elimination only; ansatz ignores it)")

    common(sub.add_parser("unary", help="equation for R(x, f(x))"), spec=True)
    common(sub.add_parser("arith", help="equation for R(x, f1, ..., fN)"), spec=True)
    common(sub.add_parser("compose", help="equation for f(g(x)); outer first"))
    p = sub.add_parser("diff", help="equation for the j-th derivative")
    common(p)
    p.add_argument("--j", type=_int_at_least(1), default=1, help="derivative count")
    common(sub.add_parser("inverse", help="equation for the functional inverse"))
    common(sub.add_parser("ddfinite",
                          help="main linear equation first, then one equation "
                               "per coefficient function"))
    p = sub.add_parser("ansatz", help="degree-bounded search for R(x, f1, ..., fN)")
    common(p, spec=True)
    p.add_argument("--degree-de", type=_int_at_least(1), default=2,
                   help="degree bound")
    p.add_argument("--order-cap", type=_int_at_least(0), default=None,
                   help="max derivative order of the output")
    return parser


def _read_equations(args) -> list:
    texts = list(args.ade)
    if args.infile:
        with open(args.infile, encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line:
                    texts.append(line)
    if not texts:
        raise ParseError("no input equations (use --ade or --in)")
    return texts


def _parse_all(texts, ctx, extra_deps=()):
    nodes = [parse_equation(t) for t in texts]
    # register every applied name before lowering so shared parameters and
    # dependents resolve consistently across equations
    for node in nodes:
        for name in applied_names(node):
            ctx.indeterminate(name)
    return [equation_to_ade(node, ctx, extra_deps=extra_deps) for node in nodes]


def _spec(args, ctx, dep_names):
    if not getattr(args, "spec", None):
        raise ParseError("this operation needs --spec, e.g. --spec 'z=y/(x+y)'")
    return spec_to_ratfunc(args.spec, ctx, dep_names)


def run(args) -> str:
    ctx = Context()
    config = GBConfig(max_degree=args.max_degree, max_basis=args.max_basis)
    texts = _read_equations(args)

    if args.command == "ddfinite":
        if len(texts) < 2:
            raise ParseError("ddfinite needs the main equation plus at least "
                             "one coefficient equation")
        # Lower the main equation first, as the library callers do: its
        # dependent then ranks above the coefficients, and its eliminated
        # high derivatives above theirs in the elimination order (the
        # other way round, Mathieu takes about four times as long).
        coeff_nodes = [parse_equation(t) for t in texts[1:]]
        coeff_names = [n for node in coeff_nodes for n in applied_names(node)]
        main = equation_to_ade(texts[0], ctx, extra_deps=coeff_names)
        coeffs = [equation_to_ade(node, ctx) for node in coeff_nodes]
        result = ddfinite_to_dalg(main, coeffs, config=config).ade
    elif args.command == "compose":
        ades = _parse_all(texts, ctx)
        if len(ades) != 2:
            raise ParseError("compose needs exactly two equations (outer, inner)")
        result = compose_dalg(ades[0], ades[1], config=config).ade
    elif args.command == "diff":
        if len(texts) != 1:
            raise ParseError("diff takes exactly one equation")
        (ade,) = _parse_all(texts, ctx)
        result = diff_dalg(ade, args.j, config=config).ade
    elif args.command == "inverse":
        if len(texts) != 1:
            raise ParseError("inverse takes exactly one equation")
        (ade,) = _parse_all(texts, ctx)
        result = inv_dalg(ade).ade
    else:
        ades = _parse_all(texts, ctx)
        dep_names = [a.dep_name for a in ades]
        z_name, ratmap = _spec(args, ctx, dep_names)
        if args.command == "unary":
            if len(ades) != 1:
                raise ParseError("unary takes exactly one equation")
            result = unary_dalg(ades[0], ratmap, z_name=z_name, config=config).ade
        elif args.command == "arith":
            if len(ades) < 2:
                raise ParseError("arith needs at least two equations")
            result = arithmetic_dalg(ades, ratmap, z_name=z_name, config=config).ade
        elif args.command == "ansatz":
            result = ansatz_search(ades, ratmap, k=args.degree_de,
                                   order_cap=args.order_cap, z_name=z_name)
        else:  # pragma: no cover - argparse restricts the choices
            raise ParseError(f"unknown command {args.command!r}")

    return render(result, args.format)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = run(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (EliminationFailedError, AnsatzNotFoundError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_ELIMINATION
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # point fd 1 at devnull so the flush at interpreter exit stays quiet
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
