"""Execution of straight-line programs under the weighted semantics.

`run_smc` advances a population of particles through the program, one
transition at a time, multiplying weights at conditioning steps.  When the
effective sample size falls below half the population after a conditioning
step, particles are resampled systematically and every weight is reset to the
population mean, so the running weights always stay on the scale of the
weighted semantics and the evidence estimate is simply the mean final weight
(with no resampling it reduces to the plain average).  A pull whose every
weight is 0 after a conditioning step is dead.  When the rest of its plan
consumes a fixed count of random doubles (`Op.doubles`), the pull consumes
that count and stops there with every value 0.0, so the generator is left
as a full run would leave it and every later pull draws the same numbers.

A pull also skips work that cannot change its output: a draw that nothing
reads (`compile_plan`) and an ESS check that would repeat the one before it
(`run_smc`).  Every weight, value, `ess_log` entry, resample, anomaly count
and the generator state stay as a run of every op and check leaves them.
Skips jump PCG64 ahead (`_skip_doubles`), so `rng` must come from
`np.random.default_rng`, as every generator of the package does.

All particles advance in lockstep, so the state is a dict of arrays and every
transition is one vectorized operation.  The per-label kernel (`compile_step`,
`apply_step`, `ess_resample`, `finish_step`) is the only code that executes
labels, the `syntax.Assign`, `Draw` and `Weight` statements: the whole-program
baselines run it on each group of particles that share a graph location.
With `resample=False`, `run_smc` makes J independent single-particle runs,
whose mean final weight is an unbiased evidence estimate: the brute-force
oracle that the symbolic pass is checked against.

`compile_step` decides at compile time what does not depend on the state,
so `apply_step` does only the numpy work an op needs.  An op (see `Op`) is
an assignment, a draw, a restricted draw, or one of three weight kinds: a
finite nonnegative constant weight is a scalar multiply ("scale"), an
indicator weight a 0/1 multiply ("observe"), neither with a fault check,
and every other weight is checked ("weight").  Every weight op is followed
by the ESS check, constant ones included, so the resampling decisions are
those of an unspecialised run; `run_smc` leaves out only the checks that
would repeat the one before them.  A restricted draw samples the
`dists.RestrictedDist` that its label carries: `cdpg` built it once, and
its mass is the compensation weight `cdpg` emitted, so the kernel restricts
nothing itself.

`compile_expr` relies on one typing invariant: every state value is a float
or a float64 array.  Then comparisons, `&&`, `||` and `!` evaluate to bools
and every other expression to floats (`_is_bool`), and an operand is
converted only where its type differs from the one its operator needs.

A program is compiled once per run.  `compile_plan` takes a table from
its caller that maps the id of each compiled object (a program, a label, a
return expression) to that object and its compiled form, so every later
pull of the same arm reuses its plan, and a long loop flow made of a few
label objects holds only that many ops.  Labels are found by identity
alone: within a run, `cdpg` returns one object per memoised step, so flows
that share steps share their ops.  An entry holds its object, so no id is
reused while the table lives.  `sampler.run` keeps one table for the run,
and `run_smc` makes a fresh one when it gets none.

Evaluation faults kill the affected particle and are counted in diagnostics
rather than raised: invalid distribution parameters, negative or non-finite
weights, and a non-finite return value.  Division follows IEEE arithmetic, so
a zero denominator gives +-inf or nan, a fault once it reaches a weight or
the return value.
"""
from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from . import dists
from .pcfg import StraightLineProgram
from .syntax import (
    Assign, BinaryOp, Const, Draw, Expr, Indicator, Node, ProbError, UnaryOp, Var,
    Weight, free_vars,
)


class EvalError(ProbError):
    pass


# --------------------------------------------------------------------------
# expression compilation


def _num(v):
    if isinstance(v, np.ndarray):
        return v if v.dtype == np.float64 else v.astype(np.float64)
    if isinstance(v, (bool, np.bool_)):
        return float(v)
    return v


def _vec(v, n: int):
    v = _num(v)
    if isinstance(v, np.ndarray):
        return v
    return np.full(n, float(v))


_BOOL_OPERATORS = frozenset(("<", "<=", "=", "!=", ">=", ">", "&&", "||"))


def _is_bool(e: Expr) -> bool:
    """Whether `e` evaluates to bools: comparisons, `&&`, `||` and `!`.  On
    a float state every other expression evaluates to floats."""
    if isinstance(e, BinaryOp):
        return e.op in _BOOL_OPERATORS
    return isinstance(e, UnaryOp) and e.op == "!"


def _float_operand(e: Expr) -> Callable:
    f = compile_expr(e)
    return (lambda st: _num(f(st))) if _is_bool(e) else f


def _bool_operand(e: Expr) -> Callable:
    f = compile_expr(e)
    return f if _is_bool(e) else (lambda st: np.not_equal(f(st), 0.0))


def compile_expr(e: Expr) -> Callable:
    """Closure evaluating `e` on a state dict whose values are floats or
    same-length float64 arrays.  Each closure returns floats or bools as
    `_is_bool` says, so an operand is converted only where its type differs
    from the one its operator needs."""
    if isinstance(e, Var):
        name = e.name

        def _var(st):
            try:
                return st[name]
            except KeyError:
                raise EvalError(f"unbound variable '{name}'") from None

        return _var
    if isinstance(e, Const):
        value = float(e.value)
        return lambda st: value
    if isinstance(e, Indicator):
        f = _bool_operand(e.formula)
        return lambda st: _num(f(st))
    if isinstance(e, UnaryOp):
        if e.op == "-":
            f = _float_operand(e.operand)
            return lambda st: -f(st)
        if e.op == "!":
            f = _bool_operand(e.operand)
            return lambda st: np.logical_not(f(st))
        raise EvalError(f"unknown unary operator '{e.op}'")
    if isinstance(e, BinaryOp):
        op = e.op
        if op in ("&&", "||"):
            lb, rb = _bool_operand(e.left), _bool_operand(e.right)
            if op == "&&":
                return lambda st: np.logical_and(lb(st), rb(st))
            return lambda st: np.logical_or(lb(st), rb(st))
        lf, rf = _float_operand(e.left), _float_operand(e.right)
        if op == "+":
            return lambda st: lf(st) + rf(st)
        if op == "-":
            return lambda st: lf(st) - rf(st)
        if op == "*":
            return lambda st: lf(st) * rf(st)
        if op == "/":
            return lambda st: np.divide(lf(st), rf(st))
        if op == "<":
            return lambda st: np.less(lf(st), rf(st))
        if op == "<=":
            return lambda st: np.less_equal(lf(st), rf(st))
        if op == "=":
            return lambda st: np.equal(lf(st), rf(st))
        if op == "!=":
            return lambda st: np.not_equal(lf(st), rf(st))
        if op == ">=":
            return lambda st: np.greater_equal(lf(st), rf(st))
        if op == ">":
            return lambda st: np.greater(lf(st), rf(st))
        raise EvalError(f"unknown binary operator '{op}'")
    raise TypeError(f"not an expression: {e!r}")


# --------------------------------------------------------------------------
# vectorized runs


class SmcResult:
    def __init__(self, weights: np.ndarray, values: np.ndarray,
                 evidence: float):
        self.weights, self.values, self.evidence = weights, values, evidence
        self.ess_log: list = []
        self.resample_count = self.anomalies = 0
        # every weight became 0 at an ESS check, so the pull cannot contribute
        self.dead = False


# Resample once the effective sample size falls below this share of the
# population.
ESS_RATIO = 0.5


_WEIGHT_KINDS = frozenset(("weight", "scale", "observe"))


class Op(Node):
    """One compiled label for `apply_step`: its kind, the variable it writes
    (None for a weight) and the payload of that kind.

    - "assign": the closure of the assigned expression;
    - "draw": (family, parameter closures, exponent memo): the memo is a
      one-item list for a beta(a, 1) draw whose a is a constant, where
      `dists.Beta.sample` keeps the largest exponent array it has built,
      and None for any other draw;
    - "rdraw": the `dists.RestrictedDist` that a restricted draw's label
      carries;
    - "scale": a finite nonnegative constant weight, as a float;
    - "observe": the closure of an indicator weight's formula, evaluated
      to bools (True multiplies a weight by 1.0, False by 0.0);
    - "weight": the closure of any other weight, checked for negative and
      non-finite values;
    - "skip": the op of a draw whose value nothing reads, which
      `compile_plan` puts in its place: it consumes the draw's doubles and
      does nothing else.

    `weighs` is true for the weight kinds, the ones after which `run_smc`
    and the whole-program sweep check the ESS.

    `doubles` is the count of random doubles the op consumes per particle,
    whatever the state: 0 for an assignment and a weight, 1 for a
    restricted draw of positive mass, a uniform or Bernoulli draw and a
    beta draw whose b is the constant 1.  It is None where the count varies
    (any other draw) or the op raises (a restricted draw of zero mass).  A
    draw with invalid parameters falls back to its family's safe
    parameters, which consume the same count.

    `reweights` says whether `apply_step` can change the weights: true for
    every weight kind and for a draw whose parameters may be invalid, as
    its flagged particles' weights become 0.  A draw whose parameters are
    all constants that its family accepts, a restricted draw, an
    assignment and a skip never change a weight.
    """

    def __init__(self, kind: str, var: Optional[str], payload: object,
                 doubles: Optional[int] = 0, reweights: bool = False):
        d = self.__dict__
        d["kind"], d["var"], d["payload"] = kind, var, payload
        d["doubles"], d["reweights"] = doubles, reweights

    @property
    def weighs(self) -> bool:
        return self.kind in _WEIGHT_KINDS


def compile_step(lab) -> Op:
    """Compile one straight-line label (an `Assign`, `Draw` or `Weight`).  A
    restricted draw samples the `dists.RestrictedDist` it carries; sampling
    one with zero admitted mass raises `dists.InfeasibleRestriction`."""
    if isinstance(lab, Assign):
        return Op("assign", lab.var, compile_expr(lab.expr))
    if isinstance(lab, Draw):
        rd = lab.restriction
        if rd is not None:
            return Op("rdraw", lab.var, rd, 1 if rd.mass > 0.0 else None)
        fns = tuple(compile_expr(q) for q in lab.params)
        constant_a = (_draw_doubles(lab) == 1
                      and dists.lookup_family(lab.family).name == "beta"
                      and isinstance(lab.params[0], Const))
        return Op("draw", lab.var,
                  (lab.family, fns, [None] if constant_a else None),
                  _draw_doubles(lab), not _valid_constants(lab))
    if isinstance(lab, Weight):
        pred = lab.pred
        if isinstance(pred, Const):
            c = float(pred.value)
            if math.isfinite(c) and c >= 0.0:
                return Op("scale", None, c, reweights=True)
        if isinstance(pred, Indicator):
            return Op("observe", None, _bool_operand(pred.formula),
                      reweights=True)
        return Op("weight", None, compile_expr(pred), reweights=True)
    raise TypeError(f"not a straight-line label: {lab!r}")


def _valid_constants(lab: Draw) -> bool:
    """Whether every parameter of an unrestricted draw is a constant that
    its family accepts, so no particle falls back to safe parameters."""
    if not all(isinstance(q, Const) for q in lab.params):
        return False
    params = [np.asarray(float(q.value)) for q in lab.params]
    return bool(dists.lookup_family(lab.family).param_ok(params))


def _draw_doubles(lab: Draw) -> Optional[int]:
    """Random doubles per particle of an unrestricted draw, when fixed:
    uniform, Bernoulli and beta(a, 1) each take one (`dists.Beta.sample`
    draws beta(a, 1) by inversion)."""
    family = dists.lookup_family(lab.family).name
    if family in ("uniform", "bernoulli"):
        return 1
    b = lab.params[-1]
    if family == "beta" and isinstance(b, Const) and float(b.value) == 1.0:
        return 1
    return None


class Plan(Node):
    """A compiled straight-line program: its ops, its return expression,
    after each op the random doubles per particle that the ops after it
    consume (None when that count is not fixed), and the variables that it
    reads before it writes them, the only ones a run starts with."""

    def __init__(self, ops: tuple, final: Callable, doubles_after: tuple,
                 inputs: tuple):
        d = self.__dict__
        d["ops"], d["final"] = ops, final
        d["doubles_after"], d["inputs"] = doubles_after, inputs


def _compiled(ops: dict, node, compile_fn):
    """The compiled form of `node` in `ops`.  The entry holds `node`, so
    its id is not reused while `ops` lives."""
    seen = ops.get(id(node))
    if seen is None:
        seen = ops[id(node)] = (node, compile_fn(node))
    return seen[1]


def _doubles_after(plan_ops: tuple) -> tuple:
    after, count = [], 0
    for op in reversed(plan_ops):
        after.append(count)
        if count is not None:
            count = None if op.doubles is None else count + op.doubles
    return tuple(reversed(after))


def _skip_op(op: Op) -> Op:
    return Op("skip", op.var, op, op.doubles)


def compile_plan(s: StraightLineProgram, ops: dict) -> Plan:
    """The plan of `s`, compiled on first use and found in `ops` by later
    calls.  `ops` maps id(obj) to (obj, compiled form) for the program, its
    labels, its return expression and the skips that stand for its draws,
    so programs that share a label object share its op.

    A draw becomes a skip of its doubles when its count is fixed, it cannot
    change a weight (`Op.reweights`), and neither a later op nor the return
    expression reads its variable before the next write: its value cannot
    reach the output, and the generator moves on as the draw would move
    it.  The plan keeps, for each position, the random doubles per particle
    that the rest of it consumes, so `run_smc` can skip the rest of a dead
    pull."""
    def build(prog):
        plan_ops = [_compiled(ops, lab, compile_step) for lab in prog.steps]
        live = set(free_vars(prog.e_final))
        for i in reversed(range(len(plan_ops))):
            op = plan_ops[i]
            if op.var is not None:
                if (op.var not in live and op.kind in ("draw", "rdraw")
                        and op.doubles is not None and not op.reweights):
                    plan_ops[i] = _compiled(ops, op, _skip_op)
                    continue
                live.discard(op.var)
            live |= prog.steps[i].reads
        plan_ops = tuple(plan_ops)
        return Plan(plan_ops, _compiled(ops, prog.e_final, compile_expr),
                    _doubles_after(plan_ops),
                    tuple(v for v in prog.variables if v in live))

    return _compiled(ops, s, build)


def apply_step(op: Op, state: dict, w: np.ndarray, rng, n: int) -> int:
    """Advance n particles by one compiled op, updating `state` and `w` in
    place; `w` may be None for an op that cannot change a weight
    (`Op.reweights`).  Returns the number of live particles an evaluation
    fault killed (invalid draw parameters, a negative or non-finite
    weight)."""
    kind, var, payload = op.kind, op.var, op.payload
    if kind == "assign":
        state[var] = _vec(payload(state), n)
    elif kind == "rdraw":
        state[var] = payload.sample(rng, n)
    elif kind == "skip":
        _skip_doubles(rng, op.doubles * n)
    elif kind == "scale":
        w *= payload
    elif kind == "observe":
        w *= payload(state)
    elif kind == "draw":
        family, fns, exponents = payload
        params = [fn(state) for fn in fns]
        values, bad = dists.draw_batch(family, params, rng, n, exponents)
        state[var] = values
        if bad is not None:
            killed = int(np.count_nonzero(bad & (w > 0)))
            w[bad] = 0.0
            return killed
    else:  # weight
        val = _vec(payload(state), n)
        ok = np.isfinite(val) & (val >= 0.0)
        if not ok.all():
            killed = int(np.count_nonzero(~ok & (w > 0)))
            w *= np.where(ok, val, 0.0)
            return killed
        w *= val
    return 0


def finish_step(final: Callable, state: dict, w: np.ndarray, n: int):
    """Evaluate the compiled return expression; particles whose value is not
    finite get value and weight 0.  Returns (weights, values, live particles
    killed)."""
    values = _vec(final(state), n)
    bad = ~np.isfinite(values)
    if not bad.any():
        return w, values, 0
    killed = int(np.count_nonzero(bad & (w > 0)))
    return np.where(bad, 0.0, w), np.where(bad, 0.0, values), killed


def _systematic_resample(w: np.ndarray, rng) -> np.ndarray:
    n = len(w)
    positions = (rng.random() + np.arange(n)) / n
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, positions)


def ess_resample(state: dict, w: np.ndarray, rng, ess_log: list):
    """Systematic resampling once the ESS of `w` falls below ESS_RATIO of the
    population.  Returns (weights, ancestor indices, total weight before
    resampling): after resampling every array in `state` is reindexed in
    place and every weight is the old mean weight; otherwise `w` and None.
    A population whose total weight is not positive draws nothing.  The
    ESS of a population with positive total weight is appended to
    `ess_log`."""
    n = len(w)
    total = w.sum()
    if not total > 0.0:
        return w, None, total
    ess = total * total / float(w @ w)
    ess_log.append(float(ess))
    if not ess < n * ESS_RATIO:
        return w, None, total
    idx = _systematic_resample(w, rng)
    for name in state:
        state[name] = state[name][idx]
    return np.full(n, total / n), idx, total


def _skip_doubles(rng, count: int) -> None:
    """Move `rng` past `count` doubles, as drawing them would, in O(log
    count) steps.  A double takes one whole 64-bit output of PCG64 and
    leaves the 32-bit half-word that `Generator.integers` may have
    buffered; `PCG64.advance` drops that half-word, so it is put back."""
    bg = rng.bit_generator
    before = bg.state
    bg.advance(count)
    if before["has_uint32"]:
        after = bg.state
        after["has_uint32"], after["uinteger"] = 1, before["uinteger"]
        bg.state = after


def run_smc(s: StraightLineProgram, J: int, rng, resample: bool = True,
            ops: Optional[dict] = None) -> SmcResult:
    """Draw J weighted samples of the return expression; the evidence estimate
    is the mean final weight.  `ops` is a `compile_plan` table to reuse
    across calls; a fresh one is used when it is None.

    With resampling on, an observe that holds for every particle repeats
    the last ESS check when that check kept the weights (total > 0 and no
    resample) and no op since can change them (`Op.reweights`): the
    multiply by 1.0 and the check are skipped, and that check's ESS is
    appended to `ess_log` again.

    With resampling on, a pull whose total weight is 0 at an ESS check is
    dead: no later op can give it weight, and `ess_resample` draws nothing
    for it.  When the rest of the plan consumes a fixed count of random
    doubles, the pull consumes exactly that count and stops, so every later
    draw of `rng` is the one a full run would make.  Its weights stay as
    they stand, -0.0 included, and every value becomes 0.0.  A dead pull
    whose rest has no fixed count runs on."""
    if J < 1:
        raise ValueError("need at least one particle")
    plan = compile_plan(s, {} if ops is None else ops)
    state = {v: np.full(J, float(s.sigma_init[v])) for v in plan.inputs}
    w = np.ones(J)
    res = SmcResult(weights=w, values=np.zeros(J), evidence=0.0)
    kept = None  # the last check's ESS while the weights stand as it saw them

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for op, rest in zip(plan.ops, plan.doubles_after):
            if kept is not None and op.kind == "observe":
                holds = op.payload(state)
                if holds.all():
                    res.ess_log.append(kept)
                    continue
                w *= holds
            else:
                res.anomalies += apply_step(op, state, w, rng, J)
            if not resample:
                continue
            if op.weighs:
                w, idx, total = ess_resample(state, w, rng, res.ess_log)
                if idx is not None:
                    res.resample_count += 1
                kept = res.ess_log[-1] if idx is None and total > 0.0 else None
                if total == 0.0:
                    res.dead = True
                    if rest is not None:
                        _skip_doubles(rng, rest * J)
                        break
            elif op.reweights:
                kept = None
        else:
            w, res.values, killed = finish_step(plan.final, state, w, J)
            res.anomalies += killed
    res.weights = w
    res.evidence = float(w.mean())
    return res
