"""Canonical text and JSON output for polynomials and equations.

The text form round-trips through the parser: derivative variables print as
``diff(y(x),x,...)``, dependents as ``y(x)``, and terms appear in a fixed
graded, derivatives-first order so identical equations render identically.
"""

from __future__ import annotations

import json

from .context import DIFF, INDEP


def _factor_text(ctx, var, exp: int) -> str:
    if var.kind == INDEP:
        base = var.name
    elif var.kind == DIFF:
        applied = f"{var.name}({ctx.indep.name})"
        if var.order == 0:
            base = applied
        else:
            base = f"diff({applied}{(',' + ctx.indep.name) * var.order})"
    else:
        base = var.name
    return base if exp == 1 else f"{base}^{exp}"


def _ranked(ctx, mono) -> list:
    """The (variable index, exponent) pairs of a monomial in canonical rank."""
    return sorted(mono, key=lambda t: ctx.rank_key(ctx.var_by_index(t[0])))


def poly_to_text(p) -> str:
    """Canonical text of a polynomial (no '= 0' suffix)."""
    if p.is_zero():
        return "0"
    ctx = p.ctx
    pieces = []
    for mono, coeff in p.sorted_terms():
        mag = abs(coeff)
        factors = [_factor_text(ctx, ctx.var_by_index(idx), e)
                   for idx, e in _ranked(ctx, mono)]
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not pieces:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f"{' - ' if coeff < 0 else ' + '}{body}")
    return "".join(pieces)


def render(ade, fmt: str = "text") -> str:
    """Render an equation as canonical text or versioned JSON.

    The JSON text is written directly, byte for byte what
    ``json.dumps(doc, indent=2)`` gives for the document
    ``{"schema": "dalg/1", "dep", "order", "degree", "terms"}``: a term is
    ``{"coeff": str(c), "monomial": [...]}`` in :meth:`Poly.sorted_terms`
    order, and a factor is ``{"var", "exp"}`` plus ``"order"`` when it is a
    derivative variable, in canonical rank.  Strings go through
    ``json.dumps``, so a non-ASCII name is written as ``\\uXXXX``."""
    if fmt == "text":
        return f"{poly_to_text(ade.poly)} = 0"
    if fmt == "json":
        return _json_text(ade)
    raise ValueError(f"unknown format {fmt!r}")


def _json_text(ade) -> str:
    ctx = ade.ctx
    objects: dict = {}      # (variable index, exponent) -> its factor object

    def factor(idx, e):
        text = objects.get((idx, e))
        if text is None:
            var = ctx.var_by_index(idx)
            text = f'{{\n          "var": {json.dumps(var.name)},\n          "exp": {e}'
            if var.kind == DIFF:
                text += f',\n          "order": {var.order}'
            text = objects[idx, e] = text + "\n        }"
        return text

    terms = []
    for mono, coeff in ade.poly.sorted_terms():
        monomial = ",\n        ".join(factor(idx, e) for idx, e in _ranked(ctx, mono))
        monomial = f"[\n        {monomial}\n      ]" if mono else "[]"
        # str() of an int or a Fraction needs no JSON escape
        terms.append(f'{{\n      "coeff": "{coeff}",\n      "monomial": {monomial}\n    }}')
    terms = "[\n    " + ",\n    ".join(terms) + "\n  ]" if terms else "[]"
    return (f'{{\n  "schema": "dalg/1",\n  "dep": {json.dumps(ade.dep_name)},\n'
            f'  "order": {ade.order},\n  "degree": {ade.degree},\n  "terms": {terms}\n}}')
