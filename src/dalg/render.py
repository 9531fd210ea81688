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


def poly_to_text(p) -> str:
    """Canonical text of a polynomial (no '= 0' suffix)."""
    if p.is_zero():
        return "0"
    ctx = p.ctx
    pieces = []
    for mono, coeff in p.sorted_terms():
        mag = abs(coeff)
        factors = [_factor_text(ctx, ctx.var_by_index(idx), e) for idx, e in
                   sorted(mono, key=lambda t: ctx.rank_key(ctx.var_by_index(t[0])))]
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not pieces:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f"{' - ' if coeff < 0 else ' + '}{body}")
    return "".join(pieces)


def render(ade, fmt: str = "text") -> str:
    """Render an equation as canonical text or versioned JSON."""
    if fmt == "text":
        return f"{poly_to_text(ade.poly)} = 0"
    if fmt == "json":
        ctx = ade.ctx
        terms = []
        for mono, coeff in ade.poly.sorted_terms():
            factors = []
            for idx, e in sorted(mono, key=lambda t: ctx.rank_key(ctx.var_by_index(t[0]))):
                var = ctx.var_by_index(idx)
                entry = {"var": var.name, "exp": e}
                if var.kind == DIFF:
                    entry["order"] = var.order
                factors.append(entry)
            terms.append({"coeff": str(coeff), "monomial": factors})
        return json.dumps(
            {
                "schema": "dalg/1",
                "dep": ade.dep_name,
                "order": ade.order,
                "degree": ade.degree,
                "terms": terms,
            },
            indent=2,
        )
    raise ValueError(f"unknown format {fmt!r}")
