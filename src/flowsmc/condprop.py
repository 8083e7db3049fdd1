"""Backward observation propagation over straight-line programs.

The pass folds every soft-conditioning step into a symbolic continuation
predicate and moves that predicate toward the start of the program:
deterministic assignments substitute into it, and a probabilistic assignment
whose variable occurs in it forces the predicate to be emitted there, after
which only a consequence not mentioning the drawn variable travels further up.
Where the predicate pins the drawn variable to an interval with known
constant bounds, less the points that a discrete draw's disequalities
exclude, the draw itself is restricted to that set and compensated by a
constant weight equal to the admitted mass; the pinned conjuncts then
disappear from the emitted observation.  The restricted `syntax.Draw` carries
the `dists.RestrictedDist` built here, so the kernel samples under the very
mass that the weight states.

A predicate is a product of three kinds of factors:

  * a nonnegative constant coefficient,
  * sharp atoms, each a linear form compared against zero (a conjunction of
    indicator factors), and
  * opaque fuzzy factors kept as expressions and evaluated at run time.

Anything outside the linear fragment degrades soundly into an opaque factor.
Constant propagation runs before the walk: a forward sweep specialises each
label to the variables that hold statically-known values before it, so
counters driven by deterministic updates fold away and decide feasibility
symbolically.  A draw restricted to a set of zero mass makes the predicate
before it zero, so a flow is logically blacklisted exactly when its
propagated program contains a zero weight: every run of the original program
has total weight zero.

Two rules keep the output minimal, so the pass is linear in the flow length.
Among one-variable `>`/`>=` atoms only the tightest lower and the tightest
upper bound on each variable survive normalization (the strict atom wins a
tie), so a counter loop does not pile up one stale bound per iteration.  And
the walk tracks the variables that later steps read (the return expression,
the weights emitted so far and the draw parameters): an assignment to any
other variable still substitutes into the predicate but is dropped from the
output.  Draws always stay, as they consume random numbers.  The SMC kernel
skips an unread draw instead: it moves the generator past the draw's
random numbers when their count is fixed and the draw cannot change a
weight (`smc.compile_plan`).

Specialisation (`specialise`) folds every known constant into the label
that reads it: an assignment or draw has its expression or parameters
folded (`x := x + n` at n = 2 becomes `x := x + 2.0`, and a value that folds
completely becomes a constant), and a weight label becomes its symbolic
predicate under the constants.  `fold_expr` computes the same IEEE double as
the kernel and leaves a division by zero unfolded, so a specialised program
runs bit for bit like the original.  A store of a constant reads nothing, so
a counter's earlier stores become dead and the rule above drops them: a loop
flow keeps one `n := K` instead of K increments.

So no specialised label reads a variable with a known value, and neither
does any predicate of the walk: a variable known before step i and not
assigned up to step j is still known at j, so every read of it in between
was folded.  The walk therefore treats the specialised program as closed and
takes no constants.  Each step is `backward_step`, a pure function of the
specialised label, the predicate after it and whether a later step reads the
variable it assigns.  A step is skipped outright when it cannot change the
predicate: an assignment or draw to a variable the predicate does not
mention, or a guard that the predicate subsumes (`_subsumes`): the guard is
the constant 1 times one finite one-variable bound, and the predicate's
first atom is its bound on the same side, at least as tight by
`_normalize`'s own rank.  Only then does the product return the predicate
with the same atoms in the same order.  On a flow that halves a threshold
per iteration nearly every guard is such a step, as the last iteration's
bound is tighter than every earlier one.

There is one walk, and it looks both pure functions, `specialise` and
`backward_step`, up in a `StepMemo`: a cache that changes no output.  A
sampler run shares one memo across its flows, as on loop flows flow k+1
repeats the forward and backward steps of flow k; `cdpg` makes a fresh one
when given none.  The memo holds three tables.  The specialisation table
maps (the label's identity, the known constants of the variables it reads)
to the specialised label, so every flow, step entry and compiled plan of the
run shares one object for it, and each guard is parsed into a predicate once
per context instead of once per flow.  A trie of forward sweeps, keyed by
the initial store and then by each label's identity, holds the specialised
label and the known constants after every prefix swept so far, so a new flow
specialises only the steps past its longest swept prefix.  The step table's
key is the specialised label's identity, the predicate, `repr` of its opaque
factors and the live bit; every step computed is stored.  Signed zeros stay
apart wherever they could reach the output, since 0.0 == -0.0: the
specialisation key and the trie's root key hold each constant with its sign,
so labels specialised to 0.0 and -0.0 are distinct objects, and the step key
holds the opaque factors' `repr`.  Sharp atoms carry no signed zero into the
output, as every bound they yield is normalized.  A hit replays the stored
labels through the live-variable update.
"""
from __future__ import annotations

import math
from functools import cached_property
from typing import Optional

from . import dists
from .dists import FULL_LINE, DistInstance, Interval
from .pcfg import StraightLineProgram
from .syntax import (
    Assign, BinaryOp, Const, Draw, Expr, Indicator, Node, ParamError, UnaryOp,
    Var, Weight, fold_expr, free_vars, substitute_expr,
)

INF = float("inf")


# --------------------------------------------------------------------------
# linear forms


class LinTerm(Node):
    """Sum of coeff * var plus a constant; coeffs sorted, nonzero."""

    def __init__(self, coeffs: tuple, const: float):
        # coeffs: ((name, coeff), ...)
        d = self.__dict__
        d["coeffs"], d["const"] = coeffs, const

    @staticmethod
    def make(coeffs: dict, const: float) -> "LinTerm":
        kept = tuple(sorted((v, c) for v, c in coeffs.items() if c != 0.0))
        return LinTerm(kept, float(const))

    @staticmethod
    def constant(c: float) -> "LinTerm":
        return LinTerm((), float(c))

    @property
    def is_const(self) -> bool:
        return not self.coeffs

    @property
    def vars(self) -> frozenset:
        return frozenset(v for v, _ in self.coeffs)

    def coeff(self, var: str) -> float:
        for v, c in self.coeffs:
            if v == var:
                return c
        return 0.0

    def add(self, other: "LinTerm") -> "LinTerm":
        d = dict(self.coeffs)
        for v, c in other.coeffs:
            d[v] = d.get(v, 0.0) + c
        return LinTerm.make(d, self.const + other.const)

    def scale(self, k: float) -> "LinTerm":
        return LinTerm.make({v: c * k for v, c in self.coeffs}, self.const * k)

    def sub(self, other: "LinTerm") -> "LinTerm":
        return self.add(other.scale(-1.0))

    def drop(self, var: str) -> "LinTerm":
        return LinTerm.make({v: c for v, c in self.coeffs if v != var}, self.const)

    def subst(self, var: str, repl: "LinTerm") -> "LinTerm":
        a = self.coeff(var)
        if a == 0.0:
            return self
        return self.drop(var).add(repl.scale(a))

    def to_expr(self) -> Expr:
        e: Optional[Expr] = None
        for v, c in self.coeffs:
            term: Expr = Var(v) if c == 1.0 else BinaryOp("*", Const(c), Var(v))
            e = term if e is None else BinaryOp("+", e, term)
        if e is None:
            return Const(self.const)
        if self.const != 0.0:
            e = BinaryOp("+", e, Const(self.const))
        return e


def linterm_of_expr(e: Expr) -> Optional[LinTerm]:
    """Linear normal form of `e`, or None outside the linear fragment."""
    if isinstance(e, Var):
        return LinTerm.make({e.name: 1.0}, 0.0)
    if isinstance(e, Const):
        return LinTerm.constant(e.value)
    if isinstance(e, UnaryOp) and e.op == "-":
        sub = linterm_of_expr(e.operand)
        return None if sub is None else sub.scale(-1.0)
    if isinstance(e, BinaryOp):
        if e.op in ("+", "-"):
            lhs = linterm_of_expr(e.left)
            rhs = linterm_of_expr(e.right)
            if lhs is None or rhs is None:
                return None
            return lhs.add(rhs) if e.op == "+" else lhs.sub(rhs)
        if e.op == "*":
            lhs = linterm_of_expr(e.left)
            rhs = linterm_of_expr(e.right)
            if lhs is None or rhs is None:
                return None
            if lhs.is_const:
                return rhs.scale(lhs.const)
            if rhs.is_const:
                return lhs.scale(rhs.const)
            return None
        if e.op == "/":
            lhs = linterm_of_expr(e.left)
            rhs = linterm_of_expr(e.right)
            if lhs is None or rhs is None or not rhs.is_const \
                    or not _power_of_two(rhs.const):
                return None
            # dividing by 2^k and multiplying by 2^-k round alike
            return lhs.scale(1.0 / rhs.const)
    return None


def _power_of_two(c: float) -> bool:
    """Whether c is +-2^k with 1.0 / c exact."""
    return abs(math.frexp(c)[0]) == 0.5 and abs(1.0 / c) < INF


# --------------------------------------------------------------------------
# atoms: lin OP 0 with OP in {">", ">=", "==", "!="}

_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
_NEGATE = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "=": "!=", "!=": "="}


class Atom(Node):
    def __init__(self, lin: LinTerm, op: str):
        # op: ">" | ">=" | "==" | "!="
        d = self.__dict__
        d["lin"], d["op"] = lin, op

    @property
    def vars(self) -> frozenset:
        return self.lin.vars

    def decide(self) -> Optional[bool]:
        if not self.lin.is_const:
            return None
        c = self.lin.const
        if self.op == ">":
            return c > 0.0
        if self.op == ">=":
            return c >= 0.0
        if self.op == "==":
            return c == 0.0
        return c != 0.0

    def subst(self, var: str, repl: LinTerm) -> "Atom":
        return Atom(self.lin.subst(var, repl), self.op)

    def to_expr(self) -> Expr:
        # split positive and negative parts so a - b >= 0 renders as a >= b
        pos = {v: c for v, c in self.lin.coeffs if c > 0.0}
        neg = {v: -c for v, c in self.lin.coeffs if c < 0.0}
        lhs = LinTerm.make(pos, self.lin.const if self.lin.const > 0.0 else 0.0)
        rhs = LinTerm.make(neg, -self.lin.const if self.lin.const < 0.0 else 0.0)
        op = "=" if self.op == "==" else self.op
        if lhs.is_const and not rhs.is_const:
            return BinaryOp(_FLIP[op], rhs.to_expr(), lhs.to_expr())
        return BinaryOp(op, lhs.to_expr(), rhs.to_expr())


def _comparison_atom(op: str, lhs: LinTerm, rhs: LinTerm) -> Atom:
    if op in ("<", "<="):
        return Atom(rhs.sub(lhs), _FLIP[op])
    if op not in _FLIP:
        raise ValueError(op)
    return Atom(lhs.sub(rhs), "==" if op == "=" else op)


def formula_to_atoms(phi: Expr, negate=False) -> Optional[list]:
    """Conjunction of atoms equivalent to `phi`, or None outside the sharp
    linear fragment (disjunctions, nonlinear comparisons, ...)."""
    if isinstance(phi, UnaryOp) and phi.op == "!":
        return formula_to_atoms(phi.operand, not negate)
    if isinstance(phi, Const):
        truth = (phi.value != 0.0) ^ negate
        return [] if truth else [Atom(LinTerm.constant(-1.0), ">")]
    if isinstance(phi, Var):
        # boolean variable embedded in the reals: v holds iff v != 0
        lin = linterm_of_expr(phi)
        return [Atom(lin, "==" if negate else "!=")]
    if isinstance(phi, BinaryOp):
        if phi.op == "&&" and not negate:
            lhs = formula_to_atoms(phi.left, False)
            rhs = formula_to_atoms(phi.right, False)
            if lhs is None or rhs is None:
                return None
            return lhs + rhs
        if phi.op == "||" and negate:
            lhs = formula_to_atoms(phi.left, True)
            rhs = formula_to_atoms(phi.right, True)
            if lhs is None or rhs is None:
                return None
            return lhs + rhs
        if phi.op in ("<", "<=", "=", "!=", ">=", ">"):
            lhs = linterm_of_expr(phi.left)
            rhs = linterm_of_expr(phi.right)
            if lhs is None or rhs is None:
                return None
            op = _NEGATE[phi.op] if negate else phi.op
            return [_comparison_atom(op, lhs, rhs)]
    return None


# --------------------------------------------------------------------------
# symbolic predicates


class SymbolicPredicate(Node):
    """Product of a nonnegative constant, sharp atoms, and opaque factors."""

    def __init__(self, const: float = 1.0, atoms: tuple = (),
                 fuzzy: tuple = ()):
        d = self.__dict__
        d["const"], d["atoms"], d["fuzzy"] = const, atoms, fuzzy

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # the fields that __eq__ compares, hashed once per predicate
        return hash((self.const, self.atoms, self.fuzzy))

    @property
    def is_false(self) -> bool:
        return self.const == 0.0

    @property
    def is_one(self) -> bool:
        return self.const == 1.0 and not self.atoms and not self.fuzzy

    @cached_property
    def vars(self) -> frozenset:
        out = frozenset()
        for a in self.atoms:
            out |= a.vars
        for f in self.fuzzy:
            out |= free_vars(f)
        return out

    @cached_property
    def bounds(self) -> dict:
        """Side -> (index, rank) of each finite one-variable bound, as
        `_normalize` ranks it; a normalized predicate has one per side."""
        out = {}
        for i, a in enumerate(self.atoms):
            bound = _side_rank(a)
            if bound is not None:
                out.setdefault(bound[0], (i, bound[1]))
        return out

    def to_expr(self) -> Expr:
        if self.is_false:
            return Const(0.0)
        factors = []
        if self.atoms:
            conj = None
            for a in self.atoms:
                e = a.to_expr()
                conj = e if conj is None else BinaryOp("&&", conj, e)
            factors.append(Indicator(conj))
        factors.extend(self.fuzzy)
        if self.const != 1.0 or not factors:
            factors.insert(0, Const(self.const))
        out = factors[0]
        for f in factors[1:]:
            out = BinaryOp("*", out, f)
        return out


ONE = SymbolicPredicate()
ZERO = SymbolicPredicate(const=0.0)


def _side_rank(a: Atom) -> Optional[tuple]:
    """(side, rank) of a one-variable `>`/`>=` atom with a finite bound, or
    None.  The side is (variable, is lower bound); a higher rank is tighter,
    and at an equal bound the strict atom ranks higher."""
    if len(a.lin.coeffs) != 1 or a.op not in (">", ">="):
        return None
    ((v, c),) = a.lin.coeffs
    bound = -a.lin.const / c + 0.0  # as derive_xi computes it
    if not -INF < bound < INF:
        return None
    return (v, c > 0.0), (bound if c > 0.0 else -bound, a.op == ">")


def _normalize(const: float, atoms, fuzzy) -> SymbolicPredicate:
    """Drop decided and repeated atoms, and keep only the tightest
    one-variable lower and upper bound on each variable."""
    if const == 0.0:
        return ZERO
    kept = []
    seen = set()
    tightest = {}  # (var, is lower bound) -> (index in kept, rank)
    for a in atoms:
        truth = a.decide()
        if truth is False:
            return ZERO
        if truth is True or a in seen:
            continue
        seen.add(a)
        bound = _side_rank(a)
        if bound is not None:
            side, rank = bound
            best = tightest.get(side)
            if best is not None:
                if rank > best[1]:
                    kept[best[0]] = a
                    tightest[side] = (best[0], rank)
                continue
            tightest[side] = (len(kept), rank)
        kept.append(a)
    return SymbolicPredicate(const, tuple(kept), tuple(fuzzy))


def predicate_of_expr(pred: Expr) -> SymbolicPredicate:
    """Interpret a fuzzy-predicate expression, already folded by
    `fold_expr`, as a symbolic predicate."""
    if isinstance(pred, Const):
        if pred.value == 0.0:
            return ZERO
        if pred.value < 0.0:
            # negative weights are runtime errors; keep them runtime
            return SymbolicPredicate(1.0, (), (pred,))
        return SymbolicPredicate(pred.value, (), ())
    if isinstance(pred, Indicator):
        atoms = formula_to_atoms(pred.formula)
        if atoms is not None:
            return _normalize(1.0, atoms, ())
        return SymbolicPredicate(1.0, (), (pred,))
    if isinstance(pred, BinaryOp) and pred.op == "*":
        return multiply(predicate_of_expr(pred.left),
                        predicate_of_expr(pred.right))
    return SymbolicPredicate(1.0, (), (pred,))


def multiply(p: SymbolicPredicate, q: SymbolicPredicate) -> SymbolicPredicate:
    if p.is_false or q.is_false:
        return ZERO
    return _normalize(p.const * q.const, p.atoms + q.atoms, p.fuzzy + q.fuzzy)


def _subsumes(f: SymbolicPredicate, guard: SymbolicPredicate) -> bool:
    """Whether `multiply(guard, f)` returns `f`, atoms in the same order,
    for `f` as `_normalize` returns it: `guard` is the constant 1 times one
    finite one-variable bound, and `f` holds its first atom on that side at
    least as tight (`ZERO` holds none).  `_normalize` keeps the survivor in
    the guard's slot, first, and at an equal rank it keeps the guard's own
    atom, so there the two atoms must be equal down to the sign of a zero
    constant, the one field in which equal ranked atoms can differ."""
    if guard.const != 1.0 or guard.fuzzy or len(guard.atoms) != 1 \
            or not guard.bounds:
        return False
    ((side, (_, rank)),) = guard.bounds.items()
    held = f.bounds.get(side)
    if held is None or held[0] != 0:
        return False
    a, b = f.atoms[0], guard.atoms[0]
    return held[1] > rank or (
        a == b and _signed(a.lin.const) == _signed(b.lin.const))


def substitute(p: SymbolicPredicate, var: str, e: Expr) -> SymbolicPredicate:
    """Replace every free occurrence of `var` with `e` and simplify."""
    if p.is_false:
        return p
    repl_lin = linterm_of_expr(e)
    atoms = []
    fuzzy = list()
    for a in p.atoms:
        if a.lin.coeff(var) == 0.0:
            atoms.append(a)
        elif repl_lin is not None:
            atoms.append(a.subst(var, repl_lin))
        else:
            # nonlinear replacement: degrade the atom to an opaque factor
            fuzzy.append(substitute_expr(Indicator(a.to_expr()), var, e))
    for f in p.fuzzy:
        fuzzy.append(substitute_expr(f, var, e))
    return _refold(p.const, atoms, fuzzy)


def _refold(const: float, atoms, fuzzy) -> SymbolicPredicate:
    out_fuzzy = []
    for f in fuzzy:
        if isinstance(f, Indicator):
            sub = formula_to_atoms(f.formula)
            if sub is not None:
                atoms = list(atoms) + sub
                continue
        out_fuzzy.append(f)
    return _normalize(const, atoms, out_fuzzy)


def remove_atoms(p: SymbolicPredicate, captured) -> SymbolicPredicate:
    caught = set(captured)
    return SymbolicPredicate(p.const,
                             tuple(a for a in p.atoms if a not in caught),
                             p.fuzzy)


# --------------------------------------------------------------------------
# support reasoning at probabilistic assignments


def _bounds_for(p: SymbolicPredicate, x: str):
    """Split atoms into lower/upper bounds on x and the rest.

    A bound is (LinTerm not mentioning x, strict).  Equalities contribute to
    both sides; disequations are dropped, which only weakens consequences.
    """
    lowers, uppers, others = [], [], []
    for a in p.atoms:
        c = a.lin.coeff(x)
        if c == 0.0:
            others.append(a)
            continue
        rest = a.lin.drop(x).scale(-1.0 / c)  # x OP rest after normalization
        if a.op == "!=":
            continue
        if a.op == "==":
            lowers.append((rest, False))
            uppers.append((rest, False))
            continue
        strict = a.op == ">"
        if c > 0.0:
            lowers.append((rest, strict))
        else:
            uppers.append((rest, strict))
    return lowers, uppers, others


def derive_psi(p: SymbolicPredicate, x: str,
               dist: Optional[DistInstance]) -> SymbolicPredicate:
    """A sharp consequence of "some value of x in the support makes p positive",
    not mentioning x.

    One-variable elimination over the linear atoms: every lower bound on x
    (including the support's lower end) must sit below every upper bound
    (including the support's upper end).  Atoms not mentioning x survive
    unchanged; opaque factors and disequations are dropped, which only
    weakens the consequence.
    """
    if p.is_false:
        return ZERO
    lowers, uppers, others = _bounds_for(p, x)
    if dist is not None:
        sup = dists.support(dist)
        if sup.lo != -INF:
            lowers.append((LinTerm.constant(sup.lo), sup.lo_open))
        if sup.hi != INF:
            uppers.append((LinTerm.constant(sup.hi), sup.hi_open))
    derived = []
    for lo, lo_strict in lowers:
        for hi, hi_strict in uppers:
            gap = Atom(hi.sub(lo), ">" if (lo_strict or hi_strict) else ">=")
            truth = gap.decide()
            if truth is False:
                return ZERO
            if truth is None:
                derived.append(gap)
    return _normalize(1.0, others + derived, ())


def derive_xi(p: SymbolicPredicate, x: str,
              dist: DistInstance) -> Optional[tuple]:
    """The interval and excluded points on x implied by p with constant,
    x-free sides.

    Returns (admitted Interval or None where the bounds leave nothing,
    excluded points, captured atoms), or None when no atom pins x against a
    constant.  Half-lines and the points of equality atoms intersect into
    the interval, and each disequality atom adds its point to the excluded
    ones.  Equality and disequality atoms participate only for discrete
    families; a measure-zero equality over a continuous variable stays a
    runtime observation.  A discrete draw is pinned only by atoms whose
    coefficient on x is +-2^k: dividing by any other coefficient can round
    the bound onto a value that the atom rejects.
    """
    discrete = dist.discrete
    admitted = FULL_LINE
    excluded = []
    captured = []
    for a in p.atoms:
        c = a.lin.coeff(x)
        if c == 0.0 or (discrete and not _power_of_two(c)):
            continue
        rest = a.lin.drop(x)
        if rest.vars:
            continue  # bound involves another variable
        bound = -rest.const / c + 0.0  # normalize -0.0
        if a.op in ("==", "!=") and not discrete:
            continue
        if a.op == "!=":
            excluded.append(bound)
        else:
            if a.op == "==":
                iv = Interval(bound, bound)
            elif c > 0.0:
                iv = Interval(bound, INF, lo_open=a.op == ">", hi_open=True)
            else:
                iv = Interval(-INF, bound, lo_open=True, hi_open=a.op == ">")
            if admitted is not None:
                admitted = admitted.intersect(iv)
        captured.append(a)
    if not captured:
        return None
    return admitted, tuple(excluded), captured


# --------------------------------------------------------------------------
# the propagation pass


def specialise(lab, env):
    """`lab` specialised to `env`, the constants known before it: a weight
    label becomes its symbolic predicate, and an assignment or draw that
    reads a known variable has its expression or parameters folded, so a
    value that folds completely becomes a constant.  Any other label comes
    back as it is.  The result reads no variable of `env`, and depends only
    on `lab` and the known constants of the variables it reads.
    """
    if isinstance(lab, Weight):
        return predicate_of_expr(fold_expr(lab.pred, env))
    if lab.reads.isdisjoint(env):
        return lab
    if isinstance(lab, Assign):
        return Assign(lab.var, fold_expr(lab.expr, env))
    return Draw(lab.var, lab.family,
                     tuple(fold_expr(p, env) for p in lab.params))


def _env_after(lab, out, env: dict) -> dict:
    """The known constants after `lab`, which `specialise` turned into `out`
    under `env`: a store of a constant makes its variable known, any other
    assignment or draw makes it unknown.  `env` itself where nothing changes,
    else a new dict."""
    if isinstance(out, Assign) and isinstance(out.expr, Const):
        return {**env, out.var: out.expr.value}
    if not isinstance(lab, Weight) and lab.var in env:
        env = dict(env)
        del env[lab.var]
    return env


def _const_dist(lab: Draw) -> Optional[DistInstance]:
    if not all(isinstance(p, Const) for p in lab.params):
        return None
    try:
        return DistInstance(lab.family, tuple(p.value for p in lab.params))
    except ParamError:
        return None


def _weight_labels(pred: SymbolicPredicate) -> tuple:
    """The labels that emit `pred` as a weight: none for the constant 1."""
    if pred.is_false:
        return (Weight(Const(0.0)),)
    if pred.is_one:
        return ()
    return (Weight(pred.to_expr()),)


def backward_step(lab, f: SymbolicPredicate, live: bool) -> tuple:
    """One step of the backward walk over label `lab`, as `specialise`
    returns it: a weight step is its symbolic predicate.

    `f` is the predicate after `lab`, and `live` says whether a later step
    reads the variable `lab` assigns.
    Returns the predicate before `lab` and the labels to emit in its place,
    last label first.  The result depends on nothing else.  A draw that no
    value admitted by `f` can pass returns ZERO.
    """
    if isinstance(lab, SymbolicPredicate):
        return multiply(lab, f), ()
    if isinstance(lab, Assign):
        return substitute(f, lab.var, lab.expr), (lab,) if live else ()
    # probabilistic assignment: always kept, since it consumes RNG draws
    if lab.var not in f.vars:
        return f, (lab,)
    dist = _const_dist(lab)
    pinned = None if dist is None else derive_xi(f, lab.var, dist)
    if pinned is not None:
        admitted, excluded, captured = pinned
        if admitted is None:
            return ZERO, (lab,)
        rd = dists.restrict(dist, admitted, excluded)
        if rd.mass == 0.0:
            return ZERO, (lab,)
        if rd.mass < 1.0:
            const_params = tuple(Const(v) for v in dist.params)
            out = _weight_labels(remove_atoms(f, captured)) + (
                Weight(Const(rd.mass)),
                Draw(lab.var, lab.family, const_params, rd))
            return derive_psi(f, lab.var, dist), out
    return derive_psi(f, lab.var, dist), _weight_labels(f) + (lab,)


def _signed(v: float):
    """A key for `v` that keeps 0.0 and -0.0 apart."""
    return v if v else repr(v)


class _Prefix:
    """A node of `StepMemo`'s sweep trie: the flow prefix that ends in
    `lab`, its specialised label `out` and the known constants after it."""

    __slots__ = ("lab", "out", "env", "children")

    def __init__(self, lab, out, env: dict):
        self.lab, self.out, self.env = lab, out, env
        self.children: dict = {}  # id of the next label -> _Prefix


class StepMemo:
    """Specialised labels and backward steps, shared by the `cdpg` calls of
    one run.  Every `cdpg` call walks through a memo.  It caches the pure
    functions `specialise` and `backward_step`, and each answer, a hit
    included, is `repr`-equal to theirs for the same inputs.

    `labels` maps (label identity, the known constants it reads, with signed
    zeros apart) to the label specialised to them, so every flow of the run
    emits one shared object for it.  `roots` holds a trie of forward sweeps,
    one root per initial store (signed zeros apart) and one child per next
    label's identity; each node holds the specialised label and the known
    constants after it, so a flow that extends a swept prefix specialises
    only its new steps, and only those go through `labels`.  `table` maps a
    step key, (specialised label identity, predicate, `repr` of its opaque
    factors or None, live bit), to the step's label and result; every
    computed step is stored.  A specialised label reads no known variable,
    and neither does the predicate, so the key holds no constants.  An entry
    of any table holds the label it keys by identity, so that id is not
    reused while the entry lives.  The counters add up over calls: steps
    walked, steps answered from the table, and no-op steps that skipped it.
    """

    def __init__(self):
        self.labels: dict = {}
        self.roots: dict = {}
        self.table: dict = {}
        self.steps = self.hits = self.noops = 0

    def specialise(self, lab, env):
        """specialise(lab, env), one object per label and known constants."""
        key = (id(lab), frozenset((v, _signed(env[v]))
                                  for v in lab.reads if v in env))
        entry = self.labels.get(key)
        if entry is None:
            entry = self.labels[key] = (lab, specialise(lab, env))
        return entry[1]

    def specialise_forward(self, s: StraightLineProgram) -> list:
        """The labels of `s`, each one `self.specialise(label, env)` with
        `env` the known constants before it (`_env_after` carries them
        from step to step).  Walks the trie and sweeps only the steps past
        the longest prefix swept before."""
        key = frozenset((v, _signed(c)) for v, c in s.sigma_init.items())
        node = self.roots.get(key)
        if node is None:
            node = self.roots[key] = _Prefix(None, None, dict(s.sigma_init))
        labels = []
        for lab in s.steps:
            child = node.children.get(id(lab))
            if child is None:
                out = self.specialise(lab, node.env)
                child = node.children[id(lab)] = _Prefix(
                    lab, out, _env_after(lab, out, node.env))
            labels.append(child.out)
            node = child
        return labels

    def step(self, lab, f: SymbolicPredicate, live: bool) -> tuple:
        """backward_step(lab, f, live), answered from the table where the
        same inputs were seen before."""
        key = (id(lab), f, repr(f.fuzzy) if f.fuzzy else None, live)
        entry = self.table.get(key)
        if entry is not None:
            self.hits += 1
            return entry[1]
        result = backward_step(lab, f, live)
        self.table[key] = (lab, result)
        return result


def cdpg(s: StraightLineProgram,
         memo: Optional[StepMemo] = None) -> StraightLineProgram:
    """Propagate conditioning backward through a straight-line program.

    The output is semantically equivalent: weighted runs of the input and the
    output induce the same distribution over (total weight, return value).
    Labels are specialised, and steps looked up, in `memo`, a fresh
    `StepMemo` when none is given; the output is the same either way.
    A weight step that `_subsumes` says cannot change the predicate is a
    no-op, like an assignment or draw to a variable the predicate does not
    mention; neither reaches `backward_step` or the memo.
    """
    if memo is None:
        memo = StepMemo()
    labels = memo.specialise_forward(s)
    f = ONE
    rev: list = []
    live = set(free_vars(s.e_final))  # variables read after the current step
    noops = 0

    for i in range(len(s.steps) - 1, -1, -1):
        lab = labels[i]
        is_weight = isinstance(lab, SymbolicPredicate)
        is_assign = isinstance(lab, Assign)
        var_live = is_assign and lab.var in live
        if is_weight and _subsumes(f, lab):
            # multiply(lab, f) would return f
            noops += 1
            out = ()
        elif not is_weight and lab.var not in f.vars:
            # backward_step would return f unchanged
            noops += 1
            out = (lab,) if var_live or not is_assign else ()
        else:
            f, out = memo.step(lab, f, var_live)
        for emitted in out:
            if not isinstance(emitted, Weight):
                live.discard(emitted.var)
            live.update(emitted.reads)
            rev.append(emitted)

    memo.steps += len(s.steps)
    memo.noops += noops
    rev.extend(_weight_labels(f))
    return StraightLineProgram(
        variables=s.variables,
        sigma_init=dict(s.sigma_init),
        steps=tuple(reversed(rev)),
        e_final=s.e_final,
        flow_id=s.flow_id,
    )


def is_blacklisted(s: StraightLineProgram) -> bool:
    """A propagated program is statically dead if it carries a constant-zero
    weight."""
    return any(isinstance(lab, Weight) and isinstance(lab.pred, Const)
               and lab.pred.value == 0.0 for lab in s.steps)
