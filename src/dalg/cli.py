"""Command-line interface.

Subcommands mirror the library operations: unary, arith, compose, diff,
inverse, ddfinite, and ansatz.  Equations are given with repeatable --ade
flags or an input file (--in, one equation per line, '#' comments); the
rational map with --spec.  Exit codes: 0 success, 2 parse error,
3 elimination failure or search exhaustion, 4 resource-cap abort,
64 usage error (also an --in file that cannot be read as UTF-8 text, or
an --out file that cannot be written).  A reader that closes stdout early
(``dalg ... | head``) is not an error: the output is dropped and the exit
code stays 0.
"""

from __future__ import annotations

import argparse
import functools
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


@functools.cache
def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="dalg",
                             description="differential equations for rational "
                                         "operations on D-algebraic functions")
    parser.add_argument("--version", action="version", version=f"dalg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    def common(p, spec=False, caps=True):
        p.add_argument("--ade", action="append", default=[],
                       help="input equation (repeatable)")
        p.add_argument("--in", dest="infile", help="file with one equation per line")
        if spec:
            p.add_argument("--spec", required=False,
                           help="rational map, e.g. 'z=y/(x+y)'")
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--out", help="write the result here instead of stdout")
        if caps:
            p.add_argument("--max-degree", type=_int_at_least(1), default=60,
                           help="abort when intermediate degrees exceed this cap, "
                                "at least 1")
            p.add_argument("--max-basis", type=_int_at_least(1), default=5000,
                           help="abort when the basis/pair count exceeds this cap, "
                                "at least 1")

    common(sub.add_parser("unary", help="equation for R(x, f(x))"), spec=True)
    common(sub.add_parser("arith", help="equation for R(x, f1, ..., fN)"), spec=True)
    common(sub.add_parser("compose", help="equation for f(g(x)); outer first"))
    p = sub.add_parser("diff", help="equation for the j-th derivative")
    common(p)
    p.add_argument("--j", type=_int_at_least(1), default=1, help="derivative count")
    common(sub.add_parser("inverse", help="equation for the functional inverse "
                                           "(explicit, no elimination)"), caps=False)
    common(sub.add_parser("ddfinite",
                          help="equation in the main function alone: main "
                               "equation first, then one equation per "
                               "coefficient function"))
    p = sub.add_parser("ansatz", help="degree-bounded search for R(x, f1, ..., fN) "
                                      "(no elimination)")
    common(p, spec=True, caps=False)
    p.add_argument("--degree-de", type=_int_at_least(1), default=2,
                   help="degree bound")
    p.add_argument("--order-cap", type=_int_at_least(0), default=None,
                   help="max derivative order of the output")
    return parser


def _read_equations(args) -> list:
    texts = list(args.ade)
    if args.infile:
        try:
            with open(args.infile, encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeError) as exc:
            raise _file_error("read", args.infile, exc) from exc
        for line in lines:
            line = line.split("#", 1)[0].strip()
            if line:
                texts.append(line)
    if not texts:
        raise ParseError("no input equations (use --ade or --in)")
    return texts


def _file_error(verb, path, exc) -> ArgumentError:
    reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
    return ArgumentError(f"cannot {verb} {path}: {reason}")


def _parse_all(texts, ctx):
    """Lower every equation with the applied names of all equations as
    dependents, so a coupled input may name another's dependent bare
    (``y1' = y1*y2``).  The names register in input order, so the first
    equation's rank highest."""
    nodes = [parse_equation(t) for t in texts]
    names = list(dict.fromkeys(n for node in nodes for n in applied_names(node)))
    for name in names:
        ctx.indeterminate(name)
    return [equation_to_ade(node, ctx, extra_deps=names) for node in nodes]


def _spec(args, ctx, dep_names):
    if not getattr(args, "spec", None):
        raise ParseError("this operation needs --spec, e.g. --spec 'z=y/(x+y)'")
    return spec_to_ratfunc(args.spec, ctx, dep_names)


def run(args) -> str:
    ctx = Context()
    ades = _parse_all(_read_equations(args), ctx)
    if args.command == "inverse":
        if len(ades) != 1:
            raise ParseError("inverse takes exactly one equation")
        return render(inv_dalg(ades[0]).ade, args.format)
    if args.command == "ansatz":
        z_name, ratmap = _spec(args, ctx, [a.dep_name for a in ades])
        return render(ansatz_search(ades, ratmap, k=args.degree_de,
                                    order_cap=args.order_cap, z_name=z_name),
                      args.format)

    config = GBConfig(max_degree=args.max_degree, max_basis=args.max_basis)
    if args.command == "ddfinite":
        if len(ades) < 2:
            raise ParseError("ddfinite needs the main equation plus at least "
                             "one coefficient equation")
        result = ddfinite_to_dalg(ades[0], ades[1:], config=config).ade
    elif args.command == "compose":
        if len(ades) != 2:
            raise ParseError("compose needs exactly two equations (outer, inner)")
        result = compose_dalg(ades[0], ades[1], config=config).ade
    elif args.command == "diff":
        if len(ades) != 1:
            raise ParseError("diff takes exactly one equation")
        result = diff_dalg(ades[0], args.j, config=config).ade
    else:
        z_name, ratmap = _spec(args, ctx, [a.dep_name for a in ades])
        if args.command == "unary":
            if len(ades) != 1:
                raise ParseError("unary takes exactly one equation")
            result = unary_dalg(ades[0], ratmap, z_name=z_name, config=config).ade
        else:  # arith
            if len(ades) < 2:
                raise ParseError("arith needs at least two equations")
            result = arithmetic_dalg(ades, ratmap, z_name=z_name, config=config).ade

    return render(result, args.format)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = run(args)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                raise _file_error("write", args.out, exc) from exc
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
    if not args.out:
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
