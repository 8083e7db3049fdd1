"""AST for the source language: expressions, commands, declarations,
programs, and the table of draw family names and arities.

Values of all basic types (bool, int, double) are embedded in the reals:
booleans are stored as 1.0 / 0.0, with a static type tag kept on constants
for diagnostics only.

`Assign`, `Draw` and `Weight` are the only statement classes.  They are the
commands of the AST, the edge labels of the control-flow graph and the
steps of straight-line programs, and each prints as its concrete syntax.
Sharp conditioning has no class of its own: `observe(phi)` is
`Weight(Indicator(phi))`, and prints back as `observe(phi)`.
"""
from __future__ import annotations

import operator
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, Optional, Union

if TYPE_CHECKING:  # dists loads numpy; a draw only holds a reference
    from .dists import RestrictedDist


class ProbError(Exception):
    """Base class for all language-level errors."""


class StaticError(ProbError):
    """Undeclared variable, type mismatch, or other static violation."""


class ParamError(ProbError):
    """Distribution parameters outside the family's legal range."""


# canonical family name -> number of parameters
ARITY = {"uniform": 2, "normal": 2, "bernoulli": 1, "poisson": 1, "beta": 2,
         "gamma": 2}
ALIASES = {"unif": "uniform", "bern": "bernoulli", "pois": "poisson"}


def family_name(name: str) -> str:
    """The canonical name of a draw family, resolving case and aliases."""
    key = name.lower()
    key = ALIASES.get(key, key)
    if key not in ARITY:
        raise ParamError(f"unknown distribution family '{name}'")
    return key


class Node:
    """Base of every value class of the package: the syntax nodes, tokens
    and intervals, the graph, edges, flows and straight-line programs of
    `pcfg`, and the predicates, distributions, ops, plans, run settings and
    ground truths of the sampling modules.  It gives each subclass what a
    frozen dataclass would, without generating code for it, so importing
    them stays cheap.

    A subclass writes its own `__init__`, which may check and normalise its
    parameters and then stores each one, under the parameter's name, in
    `self.__dict__`; the parameter names, in order, are the class's fields.
    The class then has
    - the repr `Name(field=value, ...)`;
    - equality of the field tuples between objects of the same class, and
      `NotImplemented` against any other class, so a `cached_property`
      value in `__dict__` takes no part, nor does anything else that
      `__init__` precomputes there under another name;
    - the hash of the field tuple, so `Const(0.0)` and `Const(-0.0)` are
      equal and hash alike, unless the class body defines `__hash__`;
    - immutability: setting or deleting an attribute raises AttributeError.
    """

    def __init_subclass__(cls):
        super().__init_subclass__()
        code = getattr(cls.__dict__.get("__init__"), "__code__", None)
        names = code.co_varnames[1:code.co_argcount] if code else ()
        if len(names) == 1:
            one = operator.attrgetter(*names)

            def key(self):
                return (one(self),)
        elif names:
            key = operator.attrgetter(*names)
        else:
            def key(self):
                return ()
        fmt = f"{cls.__qualname__}({', '.join(f'{n}={{!r}}' for n in names)})"

        def __repr__(self):
            return fmt.format(*key(self))

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        cls.__repr__ = __repr__
        cls.__eq__ = __eq__
        if "__hash__" not in cls.__dict__:
            cls.__hash__ = __hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# --------------------------------------------------------------------------
# expressions


class Var(Node):
    def __init__(self, name: str):
        self.__dict__["name"] = name


class Const(Node):
    def __init__(self, value: float, type: str = "double"):
        # type: "bool" | "int" | "double"
        d = self.__dict__
        d["value"], d["type"] = value, type


class UnaryOp(Node):
    def __init__(self, op: str, operand: Expr):
        # op: "-" | "!"
        d = self.__dict__
        d["op"], d["operand"] = op, operand


class BinaryOp(Node):
    def __init__(self, op: str, left: Expr, right: Expr):
        # op: + - * / < <= = != >= > && ||
        d = self.__dict__
        d["op"], d["left"], d["right"] = op, left, right


class Indicator(Node):
    """The indicator predicate of a sharp boolean formula: 1 if it holds, else 0.

    Keeping the formula intact (instead of erasing it into an opaque function)
    lets the symbolic propagation pass recover the sharp condition later.
    """

    def __init__(self, formula: Expr):
        self.__dict__["formula"] = formula


Expr = Union[Var, Const, UnaryOp, BinaryOp, Indicator]

COMPARISONS = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
               "!=": operator.ne, ">=": operator.ge, ">": operator.gt}
ARITH = ("+", "-", "*", "/")
LOGICAL = ("&&", "||")


def free_vars(e: Expr) -> frozenset:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, UnaryOp):
        return free_vars(e.operand)
    if isinstance(e, BinaryOp):
        return free_vars(e.left) | free_vars(e.right)
    if isinstance(e, Indicator):
        return free_vars(e.formula)
    raise TypeError(f"not an expression: {e!r}")


def substitute_expr(e: Expr, var: str, repl: Expr) -> Expr:
    """Capture-free textual substitution of `repl` for every occurrence of `var`."""
    if isinstance(e, Var):
        return repl if e.name == var else e
    if isinstance(e, Const):
        return e
    if isinstance(e, UnaryOp):
        return UnaryOp(e.op, substitute_expr(e.operand, var, repl))
    if isinstance(e, BinaryOp):
        return BinaryOp(e.op, substitute_expr(e.left, var, repl),
                        substitute_expr(e.right, var, repl))
    if isinstance(e, Indicator):
        return Indicator(substitute_expr(e.formula, var, repl))
    raise TypeError(f"not an expression: {e!r}")


def fold_expr(e: Expr, env: Mapping[str, float]) -> Expr:
    """Partially evaluate `e` under known constant variable values.

    Division by zero is left unfolded so the runtime error behaviour of the
    original program is preserved.
    """
    if isinstance(e, Var):
        if e.name in env:
            return Const(float(env[e.name]))
        return e
    if isinstance(e, Const):
        return e
    if isinstance(e, UnaryOp):
        sub = fold_expr(e.operand, env)
        if isinstance(sub, Const):
            if e.op == "-":
                return Const(-sub.value, sub.type if sub.type != "bool" else "double")
            if e.op == "!":
                return Const(0.0 if sub.value != 0.0 else 1.0, "bool")
        return UnaryOp(e.op, sub)
    if isinstance(e, BinaryOp):
        lhs = fold_expr(e.left, env)
        rhs = fold_expr(e.right, env)
        if isinstance(lhs, Const) and isinstance(rhs, Const):
            a, b = lhs.value, rhs.value
            if e.op == "+":
                return Const(a + b)
            if e.op == "-":
                return Const(a - b)
            if e.op == "*":
                return Const(a * b)
            if e.op == "/" and b != 0.0:
                return Const(a / b)
            if e.op in COMPARISONS:
                return Const(1.0 if COMPARISONS[e.op](a, b) else 0.0, "bool")
            if e.op == "&&":
                return Const(1.0 if (a != 0.0 and b != 0.0) else 0.0, "bool")
            if e.op == "||":
                return Const(1.0 if (a != 0.0 or b != 0.0) else 0.0, "bool")
        return BinaryOp(e.op, lhs, rhs)
    if isinstance(e, Indicator):
        sub = fold_expr(e.formula, env)
        if isinstance(sub, Const):
            return Const(1.0 if sub.value != 0.0 else 0.0, "double")
        return Indicator(sub)
    raise TypeError(f"not an expression: {e!r}")


def expr_type(e: Expr, types: Mapping[str, str]) -> str:
    """Static type of `e` given declared variable types; raises StaticError."""
    if isinstance(e, Var):
        if e.name not in types:
            raise StaticError(f"undeclared variable '{e.name}'")
        return types[e.name]
    if isinstance(e, Const):
        return e.type
    if isinstance(e, Indicator):
        expr_type(e.formula, types)
        return "double"
    if isinstance(e, UnaryOp):
        t = expr_type(e.operand, types)
        if e.op == "-":
            if t == "bool":
                raise StaticError("unary '-' applied to a boolean")
            return t
        if e.op == "!":
            if t != "bool":
                raise StaticError("'!' applied to a non-boolean")
            return "bool"
        raise StaticError(f"unknown unary operator '{e.op}'")
    if isinstance(e, BinaryOp):
        lt = expr_type(e.left, types)
        rt = expr_type(e.right, types)
        if e.op in ARITH:
            if "bool" in (lt, rt):
                raise StaticError(f"arithmetic '{e.op}' applied to a boolean")
            if e.op == "/":
                return "double"
            return "int" if lt == rt == "int" else "double"
        if e.op in ("=", "!="):
            if (lt == "bool") != (rt == "bool"):
                raise StaticError(f"'{e.op}' compares a boolean with a number")
            return "bool"
        if e.op in COMPARISONS:
            if "bool" in (lt, rt):
                raise StaticError(f"ordering '{e.op}' applied to a boolean")
            return "bool"
        if e.op in LOGICAL:
            if lt != "bool" or rt != "bool":
                raise StaticError(f"'{e.op}' applied to a non-boolean")
            return "bool"
        raise StaticError(f"unknown binary operator '{e.op}'")
    raise TypeError(f"not an expression: {e!r}")


# --------------------------------------------------------------------------
# printing

_PRECEDENCE = {
    "||": 1, "&&": 2,
    "<": 3, "<=": 3, "=": 3, "!=": 3, ">=": 3, ">": 3,
    "+": 4, "-": 4, "*": 5, "/": 5,
}


def _integral(v: float) -> bool:
    # the magnitude first: int() of inf or nan raises
    return abs(v) < 1e16 and v == int(v)


def format_number(v: float) -> str:
    return str(int(v)) if _integral(v) else repr(v)


def pretty_expr(e: Expr, parent_prec: int = 0) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Const):
        if e.type == "bool":
            return "true" if e.value != 0.0 else "false"
        if e.type == "double" and _integral(e.value):
            return f"{e.value:.1f}"
        return format_number(e.value)
    if isinstance(e, UnaryOp):
        return f"{e.op}{pretty_expr(e.operand, 6)}"
    if isinstance(e, Indicator):
        return f"[{pretty_expr(e.formula)}]"
    if isinstance(e, BinaryOp):
        prec = _PRECEDENCE[e.op]
        body = (f"{pretty_expr(e.left, prec)} {e.op} "
                f"{pretty_expr(e.right, prec + 1)}")
        return f"({body})" if prec < parent_prec else body
    raise TypeError(f"not an expression: {e!r}")


# --------------------------------------------------------------------------
# commands


class Skip(Node):
    pass


class Assign(Node):
    def __init__(self, var: str, expr: Expr):
        d = self.__dict__
        d["var"], d["expr"] = var, expr

    @cached_property
    def reads(self) -> frozenset:
        return free_vars(self.expr)

    def __str__(self):
        return f"{self.var} := {pretty_expr(self.expr)}"


class Draw(Node):
    """Probabilistic assignment: var is sampled from family(params)."""

    def __init__(self, var: str, family: str, params: tuple,
                 restriction: Optional[RestrictedDist] = None):
        # None for a plain draw; for a restricted one, the
        # `dists.RestrictedDist` that `condprop` built: its base holds the
        # constant params, and its mass is the compensation weight emitted
        # before the draw
        d = self.__dict__
        d["var"], d["family"], d["params"] = var, family, params
        d["restriction"] = restriction

    @cached_property
    def reads(self) -> frozenset:
        return frozenset().union(*(free_vars(p) for p in self.params))

    def __str__(self):
        args = ", ".join(pretty_expr(p) for p in self.params)
        s = f"{self.var} ~ {self.family}({args})"
        r = self.restriction
        if r is not None:
            s += f" | {r.admitted_text()} mass {r.mass!r}"
        return s


class Weight(Node):
    def __init__(self, pred: Expr):
        # fuzzy predicate (nonnegative-valued expression)
        self.__dict__["pred"] = pred

    @cached_property
    def reads(self) -> frozenset:
        return free_vars(self.pred)

    def __str__(self):
        if isinstance(self.pred, Indicator):
            return f"observe({pretty_expr(self.pred.formula)})"
        return f"weight({pretty_expr(self.pred)})"


class Seq(Node):
    def __init__(self, commands: tuple):
        self.__dict__["commands"] = commands


class If(Node):
    def __init__(self, guard: Expr, then_branch: Command,
                 else_branch: Command):
        d = self.__dict__
        d["guard"] = guard
        d["then_branch"], d["else_branch"] = then_branch, else_branch


class IfP(Node):
    """Probabilistic branching; sugar for a fresh Bernoulli draw plus If."""

    def __init__(self, prob: float, then_branch: Command,
                 else_branch: Command):
        d = self.__dict__
        d["prob"] = prob
        d["then_branch"], d["else_branch"] = then_branch, else_branch


class While(Node):
    def __init__(self, guard: Expr, body: Command):
        d = self.__dict__
        d["guard"], d["body"] = guard, body


Command = Union[Skip, Assign, Draw, Weight, Seq, If, IfP, While]


class Decl(Node):
    def __init__(self, name: str, type: str, init: Const):
        d = self.__dict__
        d["name"], d["type"], d["init"] = name, type, init


class Program(Node):
    def __init__(self, decls: tuple, body: Command, result: Expr):
        d = self.__dict__
        d["decls"], d["body"], d["result"] = decls, body, result

    @property
    def var_types(self) -> dict:
        return {d.name: d.type for d in self.decls}

    @property
    def initial_state(self) -> dict:
        return {d.name: float(d.init.value) for d in self.decls}


def command_list(c: Command) -> list:
    """Flatten nested Seq nodes into a statement list."""
    if isinstance(c, Seq):
        out = []
        for sub in c.commands:
            out.extend(command_list(sub))
        return out
    if isinstance(c, Skip):
        return []
    return [c]


def seq_of(commands) -> Command:
    flat = []
    for c in commands:
        flat.extend(command_list(c))
    if not flat:
        return Skip()
    if len(flat) == 1:
        return flat[0]
    return Seq(tuple(flat))
