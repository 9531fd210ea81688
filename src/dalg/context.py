"""Variable registry shared by every polynomial of one computation.

A :class:`Context` owns the single independent variable ``x``, any number of
constant parameters (``g2``, ``t``, ...), and derivative variables
``y_j^(k)`` indexed by (indeterminate id, derivative order).  Variables are
registered lazily and never removed, so the integer index assigned at
registration is stable for the lifetime of the context.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ArgumentError, ContextError

INDEP = "indep"
PARAM = "param"
DIFF = "diff"


@dataclass(frozen=True)
class Var:
    """A single variable: the independent x, a parameter, or y_j^(k)."""

    kind: str
    name: str              # display name: "x", "g2", or the indeterminate name
    indet: int = -1        # indeterminate id for DIFF vars
    order: int = -1        # derivative order for DIFF vars
    index: int = -1        # registration index within the owning context

    def __repr__(self):
        if self.kind == DIFF:
            return f"{self.name}^({self.order})" if self.order else self.name
        return self.name


class Context:
    """Registry of all variables of one computation (the VarTable)."""

    def __init__(self, indep_name="x"):
        self._vars: list[Var] = []
        self._params: dict[str, Var] = {}
        self._diffs: dict[tuple[int, int], Var] = {}
        self._indets: list[str] = []
        self._indep = self._register(Var(INDEP, indep_name))

    def _register(self, var: Var) -> Var:
        var = Var(var.kind, var.name, var.indet, var.order, len(self._vars))
        self._vars.append(var)
        return var

    @property
    def indep(self) -> Var:
        return self._indep

    @property
    def variables(self) -> tuple[Var, ...]:
        return tuple(self._vars)

    def var_by_index(self, index: int) -> Var:
        return self._vars[index]

    def param(self, name: str) -> Var:
        """Return the parameter with this name, registering it if new."""
        if name == self._indep.name or name in self._indets:
            raise ArgumentError(f"name {name!r} is already a non-parameter variable")
        var = self._params.get(name)
        if var is None:
            var = self._params[name] = self._register(Var(PARAM, name))
        return var

    def indeterminate(self, name: str) -> int:
        """Return the id of the differential indeterminate, registering it if new."""
        if name == self._indep.name or name in self._params:
            raise ArgumentError(f"name {name!r} is already a non-dependent variable")
        try:
            return self._indets.index(name)
        except ValueError:
            self._indets.append(name)
            return len(self._indets) - 1

    def indet_name(self, indet: int) -> str:
        return self._indets[indet]

    def indet_id(self, name: str):
        """Id of an existing indeterminate, or None."""
        try:
            return self._indets.index(name)
        except ValueError:
            return None

    def diff_var(self, indet: int, order: int) -> Var:
        """Return y_indet^(order), registering it if new."""
        if not 0 <= indet < len(self._indets):
            raise ArgumentError(f"unknown indeterminate id {indet}")
        if order < 0:
            raise ArgumentError("derivative order must be non-negative")
        var = self._diffs.get((indet, order))
        if var is None:
            var = self._register(Var(DIFF, self._indets[indet], indet, order))
            self._diffs[(indet, order)] = var
        return var

    def rank_key(self, var: Var):
        """Canonical ranking for display and default orders.

        Smaller key = larger variable: derivative variables first (higher
        orders larger, earlier indeterminates larger), then x, then
        parameters alphabetically.
        """
        if var.kind == DIFF:
            return (0, var.indet, -var.order)
        if var.kind == INDEP:
            return (1, 0, 0)
        return (2, var.name, 0)

    def ranked_vars(self) -> list[Var]:
        """All variables, largest first under the canonical ranking."""
        return sorted(self._vars, key=self.rank_key)


def same_context(*objs):
    """Assert all arguments share one context and return it."""
    ctx = objs[0].ctx
    for obj in objs[1:]:
        if obj.ctx is not ctx:
            raise ContextError("values belong to different contexts")
    return ctx
