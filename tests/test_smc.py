import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from flowsmc import benchmarks, dists, smc
from flowsmc.condprop import cdpg, is_blacklisted
from flowsmc.dists import (
    DistInstance, InfeasibleRestriction, Interval, restrict,
)
from flowsmc.frontend import parse_source
from flowsmc.pcfg import StraightLineProgram, build_pcfg, straight_line
from flowsmc.smc import (
    EvalError, _skip_doubles, apply_step, compile_expr, compile_plan,
    compile_step, ess_resample, finish_step, run_smc,
)
from flowsmc.syntax import (
    Assign, BinaryOp, Const, Draw, Indicator, UnaryOp, Var, Weight,
)

from conftest import (
    SWEEP_PROGRAMS, evidence_se, first_flows, flow_program, nth_flow,
    sweep_graph,
)


def coin_flow(idx, optimized=False):
    return flow_program("coin", (0.36,), idx, optimized=optimized)


def one_label(lab, init, ret=Var("x")):
    """Straight-line program of the single label `lab`, returning `ret`."""
    return StraightLineProgram(tuple(init), dict(init), (lab,), ret)


# ---------------------------------------------------------------------------
# expression evaluation

def test_eval_variable():
    assert compile_expr(Var("n"))({"n": 5.0}) == 5.0


def test_eval_negated_equality():
    e = compile_expr(UnaryOp("!", BinaryOp("=", Var("c1"), Var("c2"))))
    assert bool(e({"c1": 1.0, "c2": 1.0})) is False
    assert bool(e({"c1": 1.0, "c2": 0.0})) is True


def test_eval_arithmetic():
    e = BinaryOp("+", Var("x"), Var("y"))
    assert compile_expr(e)({"x": 8.2, "y": 0.9}) == pytest.approx(9.1)


def test_eval_division_by_zero_is_ieee():
    # a scalar zero denominator takes the same IEEE path as an array one
    div = compile_expr(BinaryOp("/", Var("y"), Var("x")))
    with np.errstate(divide="ignore", invalid="ignore"):
        assert div({"x": 0.0, "y": 1.0}) == math.inf
        assert div({"x": 0.0, "y": -1.0}) == -math.inf
        assert math.isnan(div({"x": 0.0, "y": 0.0}))
        assert np.array_equal(div({"x": np.zeros(2), "y": np.array([1.0, -1.0])}),
                              [math.inf, -math.inf])


def test_eval_unbound_variable_raises():
    with pytest.raises(EvalError):
        compile_expr(Var("nope"))({"x": 1.0})


def test_eval_indicator():
    e = compile_expr(Indicator(BinaryOp("<", Var("x"), Const(3.0))))
    assert e({"x": 1.0}) == 1.0
    assert e({"x": 5.0}) == 0.0


# ---------------------------------------------------------------------------
# single transitions: run_smc on one-label programs

def test_step_observation_kills_weight(rng):
    lab = Weight(Indicator(UnaryOp("!", BinaryOp("=", Var("c1"), Var("c2")))))
    res = run_smc(one_label(lab, {"c1": 1.0, "c2": 1.0}, Var("c1")), 10, rng)
    assert (res.weights == 0.0).all()


def test_step_constant_weight(rng):
    res = run_smc(one_label(Weight(Const(3 / 20)), {"x": 0.0}), 10, rng)
    assert res.weights == pytest.approx(np.full(10, 0.15))


def test_step_assignment(rng):
    lab = Assign("x", BinaryOp("+", Var("x"), Var("y")))
    init = {"x": 0.0, "y": 1.5}
    assert (run_smc(one_label(lab, init), 10, rng).values == 1.5).all()
    assert (run_smc(one_label(lab, init, Var("y")), 10, rng).values == 1.5).all()


def test_step_draw_and_restricted_draw(rng):
    lab = Draw("x", "uniform", (Const(0.0), Const(20.0)))
    x = run_smc(one_label(lab, {"x": 0.0}), 1_000, rng).values
    assert ((0.0 <= x) & (x <= 20.0)).all()
    restr = restrict(DistInstance("uniform", (0.0, 20.0)),
                     Interval(7.0, 10.0, True, True))
    assert restr.mass == 0.15
    lab = Draw("x", "uniform", (Const(0.0), Const(20.0)), restr)
    x = run_smc(one_label(lab, {"x": 0.0}), 1_000, rng).values
    assert ((7.0 < x) & (x < 10.0)).all()


def test_zero_mass_restriction_raises(rng):
    # cdpg never emits one: a draw that no admitted value passes makes the
    # predicate before it zero
    restr = restrict(DistInstance("uniform", (0.0, 20.0)), Interval(30.0, 40.0))
    assert restr.mass == 0.0
    lab = Draw("x", "uniform", (Const(0.0), Const(20.0)), restr)
    with pytest.raises(InfeasibleRestriction):
        run_smc(one_label(lab, {"x": 0.0}), 10, rng)


def test_step_bad_parameters_kill_particle(rng):
    lab = Draw("x", "beta", (Var("n"), Const(1.0)))
    res = run_smc(one_label(lab, {"x": 0.0, "n": 0.0}), 1, rng)
    assert res.weights[0] == 0.0 and res.anomalies == 1


def test_step_observe_never_increases_weight(rng):
    lab = Weight(Indicator(BinaryOp("<", Var("x"), Const(0.5))))
    for _ in range(100):
        s = one_label(lab, {"x": float(rng.uniform(0, 1))})
        assert run_smc(s, 1, rng).weights[0] <= 1.0
    boost = one_label(Weight(Const(2.5)), {"x": 0.0})
    assert run_smc(boost, 1, rng).weights[0] > 1.0  # general weights may grow


# ---------------------------------------------------------------------------
# population runs

def test_coin_live_flow_evidence_exact_after_propagation(rng):
    res = run_smc(coin_flow(1, optimized=True), 10_000, rng)
    assert res.evidence == pytest.approx(0.36 * 0.64, abs=1e-15)
    assert (res.values == 1.0).all()


def test_coin_live_flow_evidence_stochastic(rng):
    res = run_smc(coin_flow(1), 10_000, rng, resample=False)
    se = evidence_se(res)
    assert abs(res.evidence - 0.2304) < 3 * se
    assert set(np.unique(res.values)) == {1.0}


def test_coin_dead_flow_evidence_zero(rng):
    res = run_smc(coin_flow(0), 2_000, rng)
    assert res.evidence == 0.0


def test_deterministic_program(rng):
    g = build_pcfg(parse_source("return 7;"))
    s = straight_line(g, nth_flow(g, 0))
    res = run_smc(s, 50, rng)
    assert res.evidence == 1.0
    assert (res.weights == 1.0).all() and (res.values == 7.0).all()


@pytest.mark.parametrize("r", [0.1, 0.5])
def test_geom_flow_evidence_unbiased(rng, r):
    # closed form: flow with n iterations has likelihood r^n (1 - r)
    reps = 100
    for n in (0, 2, 4, 6):
        plain = flow_program("geomIt", (r, 0), n)
        truth = (r ** n) * (1.0 - r)
        # particle count sized so the experiment sees enough live runs
        J = max(100, int(25.0 / (truth * reps)) + 1)
        estimates = np.array([run_smc(plain, J, rng).evidence
                              for _ in range(reps)])
        se = estimates.std(ddof=1) / math.sqrt(reps)
        assert se > 0.0
        assert abs(estimates.mean() - truth) < 3 * se
        opt = cdpg(plain)
        assert run_smc(opt, 100, rng).evidence == pytest.approx(truth, abs=1e-12)


def test_coin_posterior_assembled_from_all_flows(rng):
    # summing the per-flow weighted runs recovers the fair posterior
    from flowsmc import benchmarks
    from flowsmc.pcfg import FlowEnumerator, straight_line

    g = benchmarks.build("coin", 0.36)
    cursor = FlowEnumerator(g)
    weights, values = [], []
    while True:
        flow = cursor.next_complete()
        if flow is None:
            break
        res = run_smc(straight_line(g, flow), 100_000, rng, resample=False)
        weights.append(res.weights)
        values.append(res.values)
    w = np.concatenate(weights)
    x = np.concatenate(values)
    p_true = w[x == 1.0].sum() / w.sum()
    se = 1.0 / math.sqrt(np.count_nonzero(w))  # conservative binomial scale
    assert abs(p_true - 0.5) < 3 * se


def test_mc_oracle_matches_smc(rng):
    plain = flow_program("obsLoop", (3, 2), 3)
    oracle = run_smc(plain, 100_000, rng, resample=False)
    smc = run_smc(plain, 100_000, rng)
    tol = 3 * math.hypot(evidence_se(oracle), max(evidence_se(smc), 1e-6))
    assert abs(oracle.evidence - smc.evidence) < max(tol, 0.2 * oracle.evidence)


def test_resampling_preserves_posterior(rng):
    # continuous return value; the sharp guards make weights 0/1, so the
    # surviving particles in each run are identically weighted and the two
    # populations are comparable sample-to-sample
    plain = flow_program("condDemo", (), 2)
    on = run_smc(plain, 10_000, rng)
    off = run_smc(plain, 10_000, rng, resample=False)
    assert on.resample_count > 0
    res = stats.ks_2samp(on.values[on.weights > 0], off.values[off.weights > 0])
    assert res.pvalue > 0.01


def test_stage_means_fold_into_weights(rng):
    plain = flow_program("obsLoop", (3, 2), 3)
    res = run_smc(plain, 5_000, rng)
    assert res.resample_count >= 1
    # weights stay on the weighted-semantics scale: mean final weight is the
    # evidence, comparable to the no-resampling estimate
    other = run_smc(plain, 5_000, rng, resample=False)
    assert res.evidence == pytest.approx(other.evidence, rel=0.5)


def test_run_smc_deterministic():
    plain = flow_program("obsLoop", (3, 2), 3)
    a = run_smc(plain, 1_000, np.random.default_rng(99))
    b = run_smc(plain, 1_000, np.random.default_rng(99))
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.values, b.values)
    assert a.evidence == b.evidence


def test_underflowing_weights_skip_resampling(rng):
    # the squared weights underflow to zero while the total stays positive:
    # the ESS is then NaN, which is logged and never triggers resampling
    s = one_label(Weight(Const(1e-170)), {"x": 2.0})
    res = run_smc(s, 100, rng)
    assert res.resample_count == 0
    assert len(res.ess_log) == 1 and math.isnan(res.ess_log[0])
    assert np.array_equal(res.weights, np.full(100, 1e-170))
    assert res.evidence == pytest.approx(1e-170)


def test_anomaly_counting(rng):
    src = "double x := 0.0;\ndouble y := 1.0;\nx ~ normal(0, 1);\n" \
          "y := 1 / x;\nweight(y);\nreturn x;"
    g = build_pcfg(parse_source(src))
    s = straight_line(g, nth_flow(g, 0))
    res = run_smc(s, 10_000, rng)
    # negative 1/x values produce dead particles, counted not raised
    assert res.anomalies > 0
    assert np.isfinite(res.evidence)


@pytest.mark.parametrize("optimized", [False, True])
def test_division_by_constant_zero_kills_particles(rng, optimized):
    g = build_pcfg(parse_source("double x := 0.0;\nx := 1 / 0;\nreturn x;"))
    s = straight_line(g, nth_flow(g, 0))
    res = run_smc(cdpg(s) if optimized else s, 50, rng)
    assert not res.weights.any() and res.anomalies == 50


def test_invalid_parameters_become_dead_particles(rng):
    # first-iteration shape n = 0 is invalid for the beta family
    src = ("int n := 0;\ndouble y := 0.0;\ny ~ beta(n, 1);\nn := n + 1;\n"
           "return y;")
    g = build_pcfg(parse_source(src))
    s = straight_line(g, nth_flow(g, 0))
    opt = cdpg(s)  # propagation folds the shape to the constant 0
    assert all(isinstance(p, Const) for p in opt.steps[0].params)
    for program in (s, opt):
        res = run_smc(program, 100, rng)
        assert res.evidence == 0.0 and res.anomalies == 100


# ---------------------------------------------------------------------------
# compiled plans: once per program per table, ops shared by label object

def _loop_program(optimized):
    # a fresh graph each call: equal labels, but distinct objects
    return flow_program("obsLoop", (3, 2), 3, optimized=optimized)


@pytest.mark.parametrize("optimized", [False, True])
def test_plan_cache_is_invisible(optimized):
    s = _loop_program(optimized)
    cold = run_smc(s, 500, np.random.default_rng(7))
    ops = {}
    first = run_smc(s, 500, np.random.default_rng(7), ops=ops)
    warm = run_smc(s, 500, np.random.default_rng(7), ops=ops)
    twin = run_smc(_loop_program(optimized), 500, np.random.default_rng(7),
                   ops=ops)
    for res in (first, warm, twin):
        assert np.array_equal(res.weights, cold.weights)
        assert np.array_equal(res.values, cold.values)
        assert res.evidence == cold.evidence
        assert res.resample_count == cold.resample_count


def test_plans_share_ops_by_label():
    # the plain loop flow repeats the label objects of the loop body
    s = _loop_program(False)
    ops = {}
    plan = compile_plan(s, ops)
    assert compile_plan(s, ops) is plan
    assert len({id(op) for op in plan.ops}) \
        == len({id(lab) for lab in s.steps}) < len(s.steps)
    assert len({id(op) for op in plan.ops if op.kind == "draw"}) == 1
    # another program made of the same labels finds their ops
    twin = compile_plan(
        StraightLineProgram(s.variables, s.sigma_init, s.steps, s.e_final), ops)
    assert twin is not plan
    assert all(x is y for x, y in zip(twin.ops, plan.ops))
    assert twin.final is plan.final
    # another table compiles its own
    other = compile_plan(s, {})
    assert not any(x is y for x, y in zip(other.ops, plan.ops))
    assert other.final is not plan.final


def test_plans_sample_the_restrictions_that_cdpg_built(monkeypatch):
    g = benchmarks.build("unifCd", 5)
    opt = [cdpg(straight_line(g, f)) for f in first_flows(g, 12)]
    live = [p for p in opt if not is_blacklisted(p)]
    programs = [flow_program("condDemo", (), 3, optimized=True)] + live
    assert len(programs) == 8
    calls = []
    monkeypatch.setattr(dists, "restrict",
                        lambda *a: calls.append(a) or restrict(*a))
    ops = {}
    plans = [compile_plan(p, ops) for p in programs]
    assert calls == []
    for p, plan in zip(programs, plans):
        rdraws = [(lab, op) for lab, op in zip(p.steps, plan.ops)
                  if op.kind == "rdraw"]
        assert len(rdraws) == 1
        ((lab, op),) = rdraws
        assert op.payload is lab.restriction


def test_plans_keep_the_sign_of_zero(rng):
    pos = one_label(Assign("x", Const(0.0)), {"x": 1.0})
    neg = one_label(Assign("x", Const(-0.0)), {"x": 1.0})
    assert pos.steps[0] == neg.steps[0]  # == alone would merge them
    ops = {}
    x_pos = run_smc(pos, 4, rng, ops=ops).values
    x_neg = run_smc(neg, 4, rng, ops=ops).values
    assert not np.signbit(x_pos).any()
    assert np.signbit(x_neg).all()
    assert compile_plan(pos, ops).ops[0] is not compile_plan(neg, ops).ops[0]


@pytest.mark.parametrize("admitted", [
    Interval(0.5, float(np.nextafter(0.5, 1.0)), lo_open=True),
    Interval(float(np.nextafter(0.5, 0.0)), 0.5, hi_open=True),
])
def test_restricted_draw_never_returns_open_endpoint(rng, admitted):
    # an interval one float wide: the inverse transform lands on 0.5 about
    # half the time, and the open end must be nudged off it
    restr = restrict(DistInstance("uniform", (0.0, 1.0)), admitted)
    assert restr.mass > 0.0
    lab = Draw("x", "uniform", (Const(0.0), Const(1.0)), restr)
    s = one_label(lab, {"x": 0.0})
    ops = {}
    for _ in range(2):  # cold and warm plan
        x = run_smc(s, 1_000, rng, ops=ops).values
        assert (x != 0.5).all()
        assert all(admitted.contains(float(v)) for v in x)


# ---------------------------------------------------------------------------
# ops specialised at compile time

# nan, +-inf, both zeros, 0.5 and its neighbours, and ordinary values
_SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -0.0, 0.5,
            float(np.nextafter(0.5, 0.0)), float(np.nextafter(0.5, 1.0)),
            -2.5, 1.0)


def _ref(e, env):
    """Scalar reference semantics: every value is a float, a truth value is
    1.0 or 0.0, and any nonzero value (nan included) is true."""
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Indicator):
        return float(_ref(e.formula, env) != 0.0)
    if isinstance(e, UnaryOp):
        v = _ref(e.operand, env)
        return -v if e.op == "-" else float(v == 0.0)
    a, b = _ref(e.left, env), _ref(e.right, env)
    return {
        "+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
        "/": lambda: float(np.divide(a, b)),
        "<": lambda: float(a < b), "<=": lambda: float(a <= b),
        "=": lambda: float(a == b), "!=": lambda: float(a != b),
        ">=": lambda: float(a >= b), ">": lambda: float(a > b),
        "&&": lambda: float(a != 0.0 and b != 0.0),
        "||": lambda: float(a != 0.0 or b != 0.0),
    }[e.op]()


def _same_floats(a, b) -> bool:
    """Bitwise equal up to the payload of nan: same sign of zero too."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return bool(np.array_equal(nan, np.isnan(b))
                and np.array_equal(a[~nan], b[~nan])
                and np.array_equal(np.signbit(a[~nan]), np.signbit(b[~nan])))


_GRID_X, _GRID_Y = (v.ravel() for v in np.meshgrid(_SPECIAL, _SPECIAL))
_leaves = st.one_of(st.sampled_from([Var("x"), Var("y")]),
                    st.sampled_from(_SPECIAL).map(Const))
_exprs = st.recursive(_leaves, lambda sub: st.one_of(
    st.builds(BinaryOp, st.sampled_from(["+", "-", "*", "/", "<", "<=", "=",
                                         "!=", ">=", ">", "&&", "||"]),
              sub, sub),
    st.builds(UnaryOp, st.sampled_from(["-", "!"]), sub),
    st.builds(Indicator, sub)), max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(_exprs)
def test_compiled_expression_matches_scalar_semantics(e):
    # operands are converted between floats and bools only where the
    # compiler's types say so; values must not depend on that
    with np.errstate(all="ignore"):
        got = compile_expr(e)({"x": _GRID_X.copy(), "y": _GRID_Y.copy()})
        want = [_ref(e, {"x": x, "y": y}) for x, y in zip(_GRID_X, _GRID_Y)]
    assert _same_floats(np.broadcast_to(np.asarray(got, dtype=float),
                                        _GRID_X.shape), want)


@pytest.mark.parametrize("op", ["&&", "||"])
@pytest.mark.parametrize("operands", ["comparisons", "variables"])
def test_logical_operators_over_comparisons_and_variables(op, operands):
    if operands == "comparisons":
        left, right = (BinaryOp("<", Var("x"), Const(0.5)),
                       BinaryOp(">=", Var("y"), Const(-0.0)))
    else:
        left, right = Var("x"), Var("y")
    for e in (BinaryOp(op, left, right), UnaryOp("!", BinaryOp(op, left, right)),
              BinaryOp(op, UnaryOp("!", left), right)):
        with np.errstate(all="ignore"):
            got = compile_expr(e)({"x": _GRID_X.copy(), "y": _GRID_Y.copy()})
        assert got.dtype == bool
        want = [_ref(e, {"x": x, "y": y}) for x, y in zip(_GRID_X, _GRID_Y)]
        assert np.array_equal(got, np.array(want) != 0.0)


def _checked_weight(w, val):
    """Weights and kill count of a weight checked for negative and
    non-finite values, the path every weight took before specialisation."""
    val = np.broadcast_to(np.asarray(val, dtype=float), w.shape)
    ok = np.isfinite(val) & (val >= 0.0)
    return w * np.where(ok, val, 0.0), int(np.count_nonzero(~ok & (w > 0)))


@pytest.mark.parametrize("c", [0.0, -0.0, 0.15, -1.0, math.inf, math.nan])
def test_constant_weight_matches_checked_weight(rng, c):
    lab = Weight(Const(c))
    op = compile_step(lab)
    assert op.weighs
    assert op.kind == ("scale" if math.isfinite(c) and c >= 0.0 else "weight")
    w = np.array([1.0, 0.5, 0.0, 2.0, 3e-300])
    want, killed = _checked_weight(w, c)
    with np.errstate(all="ignore"):
        assert apply_step(op, {}, w, rng, len(w)) == killed
    assert _same_floats(w, want)
    # through run_smc: every particle killed and counted, or none
    res = run_smc(one_label(lab, {"x": 0.0}), 8, rng)
    want, killed = _checked_weight(np.ones(8), c)
    assert _same_floats(res.weights, want) and res.anomalies == killed


@pytest.mark.parametrize("formula", [
    BinaryOp("<", Var("x"), Const(0.5)),
    BinaryOp("<=", Var("x"), Const(0.5)),
    BinaryOp("&&", BinaryOp(">=", Var("x"), Const(-2.5)),
             BinaryOp("!=", Var("x"), Const(0.5))),
    UnaryOp("!", BinaryOp(">", Var("x"), Const(0.5))),
    Var("x"),
    BinaryOp("-", Var("x"), Const(0.5)),
], ids=["lt", "le", "and", "not", "var", "difference"])
def test_indicator_weight_kills_exactly_failing_particles(rng, formula):
    op = compile_step(Weight(Indicator(formula)))
    assert op.kind == "observe" and op.weighs
    x = np.array(_SPECIAL)
    holds = np.array([_ref(formula, {"x": v}) != 0.0 for v in x])
    assert holds.any() and not holds.all()
    w = np.full(len(x), 0.75)
    with np.errstate(all="ignore"):
        assert apply_step(op, {"x": x}, w, rng, len(x)) == 0
    assert np.array_equal(w, np.where(holds, 0.75, 0.0))


def test_ess_checked_after_every_kind_of_weight(rng):
    steps = (Weight(Const(0.5)),  # scale
             Weight(Indicator(BinaryOp(">", Var("x"), Const(0.0)))),
             Weight(Var("x")))  # checked
    s = StraightLineProgram(("x",), {"x": 2.0}, steps, Var("x"))
    assert [compile_step(lab).kind for lab in steps] == ["scale", "observe",
                                                        "weight"]
    assert len(run_smc(s, 10, rng).ess_log) == 3


def _inverse_transform_sample(rd, rng, size):
    """The inverse transform that `RestrictedDist.sample` computes, written
    out from the restriction's base and admitted interval through the
    family's CDF and its inverse."""
    fam, params, iv = rd.base.fam, rd.base.params, rd.admitted
    c_lo = float(fam.cdf(params, iv.lo))
    u = rng.random(size) * float(fam.cdf(params, iv.hi) - fam.cdf(params, iv.lo))
    out = fam.ppf(params, np.clip(c_lo + u, 0.0, 1.0))
    out = np.clip(out, iv.lo, iv.hi)
    if iv.lo_open:
        out = np.where(out == iv.lo, np.nextafter(iv.lo, math.inf), out)
    if iv.hi_open:
        out = np.where(out == iv.hi, np.nextafter(iv.hi, -math.inf), out)
    return out


@pytest.mark.parametrize("family,params,admitted", [
    ("normal", (1.0, 1.0), Interval(0.0, 2.0)),
    ("normal", (0.0, 1.0), Interval(-math.inf, 0.3, True, True)),
    ("gamma", (2.0, 1.5), Interval(0.5, 4.0, True, False)),
    ("beta", (2.0, 3.0), Interval(0.25, 0.75, True, True)),
    ("uniform", (0.0, 1.0),
     Interval(0.5, float(np.nextafter(0.5, 1.0)), True, False)),
    ("uniform", (0.0, 1.0),
     Interval(float(np.nextafter(0.5, 0.0)), 0.5, False, True)),
], ids=["normal-closed", "normal-open-hi", "gamma-open-lo", "beta-open",
        "uniform-one-float-open-lo", "uniform-one-float-open-hi"])
def test_one_segment_restriction_matches_general_formula(family, params,
                                                         admitted):
    rd = restrict(DistInstance(family, params), admitted)
    assert rd.admitted == admitted and rd.mass > 0.0
    got = rd.sample(np.random.default_rng(11), 2_000)
    want = _inverse_transform_sample(rd, np.random.default_rng(11), 2_000)
    assert _same_floats(got, want)
    assert all(admitted.contains(float(v)) for v in got)
    if admitted.lo_open:
        assert (got != admitted.lo).all()
    if admitted.hi_open:
        assert (got != admitted.hi).all()


# ---------------------------------------------------------------------------
# dead pulls: the random doubles each op consumes, and the stop

_MIXED = {  # per-particle parameters, valid and invalid side by side
    "lo": np.array([0.0, 1.0, -1e308, -math.inf, math.nan, 0.0]),
    "p": np.array([0.3, 1.5, -0.1, math.nan, 1.0, 0.0]),
    "a": np.array([2.0, 0.0, -1.0, math.inf, math.nan, 0.5]),
}


@pytest.mark.parametrize("family,params,doubles", [
    ("uniform", (Const(0.0), Const(1.0)), 1),
    ("uniform", (Const(1.0), Const(0.0)), 1),
    ("uniform", (Const(-1e308), Const(1e308)), 1),  # hi - lo overflows
    ("uniform", (Var("lo"), Const(1.0)), 1),
    ("bernoulli", (Const(0.3),), 1),
    ("bernoulli", (Const(1.5),), 1),
    ("bernoulli", (Var("p"),), 1),
    ("beta", (Const(2.0), Const(1.0)), 1),
    ("beta", (Const(0.0), Const(1.0)), 1),
    ("beta", (Var("a"), Const(1.0)), 1),
    ("beta", (Const(2.0), Const(3.0)), None),
    ("beta", (Const(2.0), Var("a")), None),  # b is 1 only at run time
    ("normal", (Const(0.0), Const(1.0)), None),
    ("normal", (Const(0.0), Const(-1.0)), None),
    ("poisson", (Const(3.0),), None),
    ("gamma", (Const(2.0), Const(1.0)), None),
])
def test_op_doubles_are_what_the_draw_consumes(family, params, doubles):
    op = compile_step(Draw("x", family, params))
    assert op.doubles == doubles
    if doubles is None:
        return
    n = len(_MIXED["lo"])
    rng, twin = np.random.default_rng(31), np.random.default_rng(31)
    with np.errstate(all="ignore"):
        apply_step(op, dict(_MIXED), np.ones(n), rng, n)
    twin.random(doubles * n)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_op_doubles_of_restricted_draws_and_other_ops():
    base = DistInstance("normal", (0.0, 1.0))
    live = restrict(base, Interval(-1.0, 2.0))
    empty = restrict(DistInstance("uniform", (0.0, 1.0)), Interval(2.0, 3.0))
    assert empty.mass == 0.0
    params = (Const(0.0), Const(1.0))
    op = compile_step(Draw("x", "normal", params, live))
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    apply_step(op, {}, np.ones(9), rng, 9)
    twin.random(op.doubles * 9)
    assert op.doubles == 1
    assert rng.bit_generator.state == twin.bit_generator.state
    # sampling it raises, so no count stands for it
    assert compile_step(Draw("x", "uniform", params, empty)).doubles is None
    assert compile_step(Assign("x", Const(1.0))).doubles == 0
    for pred in (Const(0.5), Indicator(Var("x")), Var("x")):
        assert compile_step(Weight(pred)).doubles == 0


def _never():
    return Weight(Indicator(BinaryOp(">", Var("x"), Const(2.0))))


def _program(*steps, ret=Var("x")):
    names = ("x", "y", "z")
    return StraightLineProgram(names, dict.fromkeys(names, 0.5), steps, ret)


def _dead_program():
    """x dies at the observation; only fixed-count draws follow it."""
    unit = (Const(0.0), Const(1.0))
    return _program(
        Draw("x", "normal", unit),  # before the death: any count
        Weight(Indicator(BinaryOp(">", Var("x"), Const(-1.0)))),
        Draw("x", "uniform", unit),
        _never(),
        Draw("y", "bernoulli", (Const(0.5),)),
        Draw("z", "beta", (Const(3.0), Const(1.0))),
        Weight(Const(0.5)),
        Draw("y", "gamma", (Const(1.0), Const(1.0)),
                  restrict(DistInstance("gamma", (1.0, 1.0)),
                           Interval(0.5, 2.0))),
        Draw("z", "uniform", (Var("y"), Const(1.0))),  # y > 1: invalid
        ret=BinaryOp("+", Var("x"), Var("y")))


def _reference_pull(s, J, rng) -> dict:
    """One pull of `s` with nothing skipped: each label compiled on its
    own, every op applied and the ESS checked after every weight op.  A pull
    whose total weight is 0 at a check, with a fixed count of doubles after
    it, keeps the weights it has there and values 0.0, as `run_smc` stops
    it; the reference still runs on, so `rng` moves as a full run moves
    it."""
    ops = [compile_step(lab) for lab in s.steps]
    state = {v: np.full(J, float(s.sigma_init[v])) for v in s.variables}
    w = np.ones(J)
    out = {"ess_log": [], "resample_count": 0, "anomalies": 0, "dead": False}
    stopped = None
    with np.errstate(all="ignore"):
        for i, op in enumerate(ops):
            out["anomalies"] += apply_step(op, state, w, rng, J)
            if op.weighs:
                w, idx, total = ess_resample(state, w, rng, out["ess_log"])
                out["resample_count"] += idx is not None
                if total == 0.0 and not out["dead"]:
                    out["dead"] = True
                    if all(o.doubles is not None for o in ops[i + 1:]):
                        stopped = w.copy()
        w, values, killed = finish_step(compile_expr(s.e_final), state, w, J)
    if stopped is None:
        out["weights"], out["values"] = w, values
        out["anomalies"] += killed
    else:
        out["weights"], out["values"] = stopped, np.zeros(J)
    return out


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _assert_same_pull(res, ref, rng, ref_rng):
    """`res` is the reference pull `ref` bit for bit, and both generators
    stand at the same state."""
    for name in ("weights", "values", "ess_log"):
        got, want = _bits(getattr(res, name)), _bits(ref[name])
        assert got.shape == want.shape and (got == want).all(), name
    assert res.resample_count == ref["resample_count"]
    assert res.anomalies == ref["anomalies"]
    assert res.dead == ref["dead"]
    assert res.evidence == float(ref["weights"].mean())
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _pulls_match(s, J, seed=8, buffered=False, pulls=2, ops=None):
    """Run `pulls` pulls of `s` and of the reference from one seed, with a
    half-word buffered before each when `buffered`; returns the results."""
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    results = []
    for _ in range(pulls):
        # the scheduler's pick can leave a 32-bit half-word
        while buffered and not rng.bit_generator.state["has_uint32"]:
            rng.integers(3)
            ref.integers(3)
        res = run_smc(s, J, rng, ops=ops)
        _assert_same_pull(res, _reference_pull(s, J, ref), rng, ref)
        results.append(res)
    return results


def test_plan_keeps_the_doubles_after_each_op():
    plan = compile_plan(_dead_program(), {})
    assert [op.doubles for op in plan.ops] == [None, 0, 1, 0, 1, 1, 0, 1, 1]
    assert plan.doubles_after == (5, 5, 4, 4, 3, 2, 2, 1, 0)


@pytest.mark.parametrize("J", [7, 40_000])  # 40,000 skips 160,000 doubles
@pytest.mark.parametrize("buffered", [False, True])
def test_dead_pull_leaves_the_generator_as_a_full_run_would(J, buffered):
    s = _dead_program()
    # the beta draw of z is read by nothing: a skip even in a live pull
    assert [op.kind for op in compile_plan(s, {}).ops][5] == "skip"
    first, second = _pulls_match(s, J, buffered=buffered)
    assert first.dead and first.anomalies == 0
    assert not first.weights.any() and not first.values.any()
    assert first.evidence == 0.0
    assert second.dead  # the next pull draws what a full run leaves it


def test_dead_pull_runs_on_through_a_draw_of_no_fixed_count():
    unit = (Const(0.0), Const(1.0))
    s = _program(Draw("x", "uniform", unit), _never(),
                 Draw("y", "normal", unit),
                 Draw("z", "uniform", unit),
                 ret=BinaryOp("+", Var("y"), Var("z")))
    assert compile_plan(s, {}).doubles_after == (None, None, 1, 0)
    (res,) = _pulls_match(s, 50, seed=9, pulls=1)
    assert res.dead and res.values.all()


def test_zero_mass_restricted_draw_after_a_dead_pull_raises(rng):
    empty = restrict(DistInstance("uniform", (0.0, 1.0)), Interval(2.0, 3.0))
    s = _program(Draw("x", "uniform", (Const(0.0), Const(1.0))),
                 _never(),
                 Draw("y", "uniform", (Const(0.0), Const(1.0)), empty))
    with pytest.raises(InfeasibleRestriction):
        run_smc(s, 10, rng)


def test_dead_pulls_are_found_only_with_resampling_on(rng):
    s = _dead_program()
    assert run_smc(s, 20, rng).dead
    res = run_smc(s, 20, rng, resample=False)
    assert not res.dead and not res.weights.any() and res.values.all()


# ---------------------------------------------------------------------------
# skipped work: dead draws, repeated ESS checks and the generator's jump


@pytest.mark.parametrize("count", [0, 1, (1 << 16) + 1, 40_000 * 7])
@pytest.mark.parametrize("buffered", [False, True])
def test_skip_doubles_moves_the_generator_as_drawing_would(count, buffered):
    rng, twin = np.random.default_rng(12), np.random.default_rng(12)
    if buffered:  # `integers` leaves a 32-bit half-word that doubles keep
        rng.integers(3)
        twin.integers(3)
        assert rng.bit_generator.state["has_uint32"] == 1
    _skip_doubles(rng, count)
    twin.random(count)
    assert rng.bit_generator.state == twin.bit_generator.state
    assert rng.integers(1 << 30, size=3).tolist() \
        == twin.integers(1 << 30, size=3).tolist()


@pytest.mark.parametrize("name", sorted(benchmarks.SOURCES))
@pytest.mark.parametrize("buffered", [False, True])
def test_corpus_pulls_are_the_reference_pulls(name, buffered):
    g = benchmarks.build(name)
    plain = [straight_line(g, f) for f in first_flows(g, 40)]
    live = [p for p in map(cdpg, plain) if not is_blacklisted(p)][:4]
    assert live
    plain = plain[:4]
    ops = {}  # one table for the pulls, as a run keeps one
    for seed, s in enumerate(plain + live):
        _pulls_match(s, 300, seed=seed, buffered=buffered, pulls=1, ops=ops)


def test_corpus_flows_skip_draws_and_repeat_checks(monkeypatch):
    # geomIt2 draws c on every iteration and never reads it, and observes
    # bounds that every particle passes
    g = benchmarks.build("geomIt2")
    programs = [cdpg(straight_line(g, f)) for f in first_flows(g, 10)]
    programs = [p for p in programs if not is_blacklisted(p)]
    ops = {}
    skips = sum(op.kind == "skip" for p in programs
                for op in compile_plan(p, ops).ops)
    checks = []
    monkeypatch.setattr(smc, "ess_resample",
                        lambda *a: checks.append(1) or ess_resample(*a))
    logged = sum(len(run_smc(p, 100, np.random.default_rng(3), ops=ops).ess_log)
                 for p in programs)
    assert skips > 0 and logged > len(checks) > 0


_UNIT = (Const(0.0), Const(1.0))
_LIVE_RESTRICTION = restrict(DistInstance("uniform", (0.0, 1.0)),
                             Interval(0.25, 0.5))


def _tail(*steps, init=0.5):
    """x ~ uniform(0, 1), an observation that keeps the weights 0 or 1,
    then `steps`, returning x."""
    head = (Draw("x", "uniform", _UNIT),
            Weight(Indicator(BinaryOp("<", Var("x"), Const(0.7)))))
    names = ("x", "y", "z")
    return StraightLineProgram(names, dict.fromkeys(names, init),
                               head + steps, Var("x"))


def _holds():
    """An observation that every x in [0, 1) passes."""
    return Weight(Indicator(BinaryOp("<", Var("x"), Const(2.0))))


@pytest.mark.parametrize("draw,kind", [
    (Draw("y", "uniform", _UNIT), "skip"),
    (Draw("y", "bernoulli", (Const(0.3),)), "skip"),
    (Draw("y", "beta", (Const(math.inf), Const(1.0))), "skip"),
    (Draw("y", "uniform", _UNIT, _LIVE_RESTRICTION), "skip"),
    # may fault, so it is kept: weights zeroed and anomalies counted
    (Draw("y", "uniform", (Const(1.0), Const(0.0))), "fault"),
    (Draw("y", "bernoulli", (Const(math.nan),)), "fault"),
    (Draw("y", "uniform", (Var("x"), Const(1.0))), "draw"),  # state-dependent
    (Draw("y", "normal", _UNIT), "draw"),  # no fixed count
    (Draw("y", "poisson", (Const(3.0),)), "draw"),
], ids=["uniform", "bernoulli", "beta-inf-1", "restricted", "uniform-1-0",
        "bernoulli-nan", "state-dependent", "normal", "poisson"])
@pytest.mark.parametrize("J", [7, 2_000])
@pytest.mark.parametrize("buffered", [False, True])
def test_dead_draw_is_skipped_only_where_it_changes_nothing(draw, kind, J,
                                                            buffered):
    s = _tail(draw, _holds(), Draw("z", "uniform", _UNIT), _holds())
    plan = compile_plan(s, {})
    assert [op.kind for op in plan.ops] == [
        "draw", "observe", "draw" if kind == "fault" else kind, "observe",
        "skip", "observe"]
    (res,) = _pulls_match(s, J, buffered=buffered, pulls=1)
    assert (res.dead and res.anomalies > 0) == (kind == "fault")


def test_dead_restricted_draw_of_zero_mass_still_raises(rng):
    empty = restrict(DistInstance("uniform", (0.0, 1.0)), Interval(2.0, 3.0))
    s = _tail(Draw("y", "uniform", _UNIT, empty))
    assert [op.kind for op in compile_plan(s, {}).ops][-1] == "rdraw"
    with pytest.raises(InfeasibleRestriction):
        run_smc(s, 10, rng)


@pytest.mark.parametrize("buffered", [False, True])
def test_check_right_after_a_resample_is_not_repeated(buffered):
    # The smallest mean weight a resample can leave: the ESS needs
    # total * total > 0, so total > 1e-162 and the mean cannot be subnormal
    # or 0.  With every weight near 5e-162 the check after the resample
    # squares them into subnormals and logs an ESS of its own.
    s = _tail(Weight(Const(1e-160)),
              Weight(Indicator(BinaryOp("<", Var("x"), Const(0.05)))),
              _holds(), _holds())
    (res,) = _pulls_match(s, 64, seed=2, buffered=buffered, pulls=1)
    assert res.resample_count == 1
    after = res.ess_log[3:]
    assert len(after) == 2 and after[0] == after[1] != res.ess_log[2]


@pytest.mark.parametrize("p,dead", [
    (BinaryOp("*", Var("x"), Const(2.0)), False),
    (BinaryOp("+", Var("x"), Const(1.5)), True),
], ids=["some", "all"])
@pytest.mark.parametrize("buffered", [False, True])
def test_check_after_a_faulting_draw_is_not_repeated(p, dead, buffered):
    # p > 1 zeroes the weights of some or all particles
    s = _tail(Draw("y", "bernoulli", (p,)), _holds(), _holds())
    assert compile_plan(s, {}).ops[2].reweights
    (res,) = _pulls_match(s, 500, buffered=buffered, pulls=1)
    assert res.anomalies > 0 and res.dead == dead
    if not dead:
        assert len(res.ess_log) == 3 and res.ess_log[1] != res.ess_log[0]


@pytest.mark.parametrize("formula,dead", [
    (Var("z"), False),  # nan is nonzero: true for every particle
    (BinaryOp("<", Var("z"), Const(1.0)), True),  # nan compares false
], ids=["nan-is-true", "nan-compares-false"])
def test_observe_over_nan(formula, dead):
    s = _tail(Weight(Indicator(formula)), _holds(), init=math.nan)
    (res,) = _pulls_match(s, 200, pulls=1)
    assert res.dead == dead


@pytest.mark.parametrize("buffered", [False, True])
def test_negative_zero_weights_survive_skipped_checks(buffered):
    # b * (b - 0.5) with b = (x > 0.05) is 0.5 or -0.0: weights that the
    # check keeps without resampling
    b = BinaryOp(">", Var("x"), Const(0.05))
    s = _tail(Weight(BinaryOp("*", b, BinaryOp("-", b, Const(0.5)))),
              _holds(), _holds())
    (res,) = _pulls_match(s, 300, buffered=buffered, pulls=1)
    assert np.signbit(res.weights[res.weights == 0.0]).any()
    assert res.ess_log[-1] == res.ess_log[-2] == res.ess_log[-3]
    # every weight -0.0: dead at the first check
    (res,) = _pulls_match(_tail(Weight(Const(-0.0)), _holds()), 50, pulls=1)
    assert res.dead and np.signbit(res.weights).all()


@pytest.mark.parametrize("name", sorted(benchmarks.SOURCES)
                         + sorted(SWEEP_PROGRAMS))
def test_label_reads_are_exactly_what_its_closures_read(name):
    # the whole-program sweep hands each location's op or guard a state that
    # holds only the label's `reads`; without any one of them it fails
    g = (benchmarks.build(name) if name in benchmarks.SOURCES
         else sweep_graph(name))
    rng = np.random.default_rng(0)

    def run(kind, lab, names):
        state = {v: np.full(4, 0.5) for v in names}
        if kind == "det":
            compile_expr(lab.pred.formula)(state)
        else:
            apply_step(compile_step(lab), state, np.ones(4), rng, 4)

    with np.errstate(all="ignore"):
        for kind, edges in zip(g.kinds, g.out):
            for e in edges:
                run(kind, e.label, e.label.reads)
                for v in e.label.reads:
                    with pytest.raises(EvalError, match=f"unbound variable '{v}'"):
                        run(kind, e.label, e.label.reads - {v})


# nan, infinities, negative and huge values, and ordinary ones, rotated so
# that each variable meets each of them beside every other
_HOSTILE = np.array([math.nan, math.inf, -math.inf, -3.0, -1e308, 1e308,
                     0.5, 0.0])


@pytest.mark.parametrize("name", sorted(benchmarks.SOURCES)
                         + sorted(SWEEP_PROGRAMS))
def test_an_op_that_cannot_reweight_leaves_every_weight(name):
    # `run_smc` repeats an ESS check across every op that says it cannot
    # change a weight, and skips a dead draw only if it cannot
    if name in benchmarks.SOURCES:
        g = benchmarks.build(name)
        labels = [lab for f in first_flows(g, 12)
                  for lab in cdpg(straight_line(g, f)).steps]
    else:
        g, labels = sweep_graph(name), []
    labels += [e.label for edges in g.out for e in edges]
    names = sorted({v for lab in labels for v in lab.reads})
    n = len(_HOSTILE)
    w0 = np.array([1.0, -0.0, 0.0, 2.5, 1e-310, 3.0, 0.25, 7.0])
    rng = np.random.default_rng(0)
    claims = 0
    with np.errstate(all="ignore"):
        for lab in labels:
            op = compile_step(lab)
            assert op.reweights or not op.weighs
            if op.reweights:
                continue
            claims += 1
            for shift in range(n):
                state = {v: np.roll(_HOSTILE, shift + k)
                         for k, v in enumerate(names)}
                w = w0.copy()
                assert apply_step(op, state, w, rng, n) == 0
                assert (_bits(w) == _bits(w0)).all(), str(lab)
    assert claims > 0 or not labels


@pytest.mark.parametrize("a", [3.0, 0.25, math.inf])
def test_beta_draw_with_a_constant_a_keeps_its_largest_exponent(a):
    # the op keeps one exponent array, rebuilt only when a larger draw comes,
    # and every draw is the one `dists.draw_batch` makes with that a
    # broadcast to each particle
    op = compile_step(Draw("y", "beta", (Const(a), Const(1.0))))
    exponents = op.payload[2]
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    kept = []
    for n in (5, 7, 3, 7, 6):
        state = {}
        assert apply_step(op, state, np.ones(n), rng, n) == 0
        values, bad = dists.draw_batch("beta", [np.full(n, a), np.ones(n)],
                                       ref, n)
        assert bad is None
        assert np.array_equal(state["y"], values, equal_nan=True)
        kept.append(exponents[0])
    assert len(exponents) == 1 and len(exponents[0]) == 7
    assert kept[0] is not kept[1] and all(e is kept[1] for e in kept[1:])
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("lab", [
    Draw("y", "beta", (Var("x"), Const(1.0))),  # a read from the state
    Draw("y", "beta", (Const(3.0), Const(2.0))),  # b other than 1
    Draw("y", "beta", (Const(3.0), Var("x"))),
    Draw("y", "uniform", (Const(0.0), Const(1.0))),
])
def test_other_draws_keep_no_exponent(lab):
    assert compile_step(lab).payload[2] is None
