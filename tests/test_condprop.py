import collections
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from flowsmc import benchmarks, condprop
from flowsmc.condprop import (
    INF, ZERO, Atom, LinTerm, StepMemo, SymbolicPredicate, _normalize,
    _env_after, backward_step, cdpg, derive_psi, derive_xi,
    is_blacklisted, predicate_of_expr, specialise, substitute,
)
from flowsmc.dists import DistInstance, Interval, restrict
from flowsmc.frontend import desugar, parse_source
from flowsmc.pcfg import (
    FlowEnumerator, StraightLineProgram, build_pcfg, straight_line,
)
from flowsmc.smc import compile_expr, run_smc
from flowsmc.syntax import (
    Assign, BinaryOp, Const, Draw, Indicator, UnaryOp, Var, Weight, fold_expr,
)

from conftest import evidence_se, flow_program, nth_flow


def _rebuilt(s: StraightLineProgram, **changes) -> StraightLineProgram:
    """A new program with the fields of `s`, some of them changed."""
    fields = dict(variables=s.variables, sigma_init=s.sigma_init,
                  steps=s.steps, e_final=s.e_final, flow_id=s.flow_id)
    return StraightLineProgram(**{**fields, **changes})


def pred(src: str, env=None) -> SymbolicPredicate:
    """Parse a formula over x, y, z, n, t into an indicator predicate."""
    program = parse_source(
        "double x := 0.0; double y := 0.0; double z := 0.0;\n"
        "double n := 0.0; double t := 0.0;\n"
        f"observe({src});\nreturn x;")
    from flowsmc.syntax import command_list
    observe = command_list(program.body)[0]  # Weight(Indicator(formula))
    return predicate_of_expr(fold_expr(observe.pred, env or {}))


def atom_set(p: SymbolicPredicate):
    return set(p.atoms)


Step = collections.namedtuple("Step", "index label after before")


def traced_cdpg(s, memo=None):
    """`cdpg(s, memo)`, a fresh memo when none is given, and every step of
    its walk, last step first: the step's index in `s.steps`, its
    specialised label and the predicates after and before it.

    `cdpg` hands a step to `memo.step` exactly when it can change the
    predicate.  Whether it can depends only on the label and the predicate,
    and a skipped step leaves the predicate as it is.  So the step of each
    `memo.step` call, a hit included, is the first step before the previous
    call's whose label is the call's label, and each step in between was
    skipped under the call's predicate."""
    memo = StepMemo() if memo is None else memo
    calls = []
    step = memo.step

    def recording(lab, f, live):
        before, out = step(lab, f, live)
        calls.append((lab, f, before))
        return before, out

    memo.step = recording
    try:
        opt = cdpg(s, memo=memo)
    finally:
        memo.step = step
    labels = memo.specialise_forward(s)
    trace, f, i = [], condprop.ONE, len(labels)
    for lab, after, before in calls:
        assert after is f
        at = next(j for j in range(i - 1, -1, -1) if labels[j] is lab)
        trace.extend(Step(j, labels[j], f, f) for j in range(i - 1, at, -1))
        trace.append(Step(at, lab, f, before))
        f, i = before, at
    trace.extend(Step(j, labels[j], f, f) for j in range(i - 1, -1, -1))
    return opt, trace


def _checked_memo():
    """A `StepMemo` that checks each answer, a hit included, against the
    pure function it caches: `step` against `backward_step` and
    `specialise` against `specialise`.  `repr` tells 0.0 from -0.0."""
    memo = StepMemo()
    step, spec = memo.step, memo.specialise

    def checked_step(lab, f, live):
        answer = step(lab, f, live)
        assert repr(answer) == repr(backward_step(lab, f, live))
        return answer

    def checked_specialise(lab, env):
        answer = spec(lab, env)
        assert repr(answer) == repr(specialise(lab, env))
        return answer

    memo.step, memo.specialise = checked_step, checked_specialise
    return memo


# ---------------------------------------------------------------------------
# substitution

def test_substitute_into_lower_bound():
    # (10 <= x)[x + y / x]  ->  10 <= x + y
    p = substitute(pred("10 <= x"), "x", BinaryOp("+", Var("x"), Var("y")))
    assert atom_set(p) == atom_set(pred("10 <= x + y"))


def test_substitute_no_occurrence():
    p = pred("z >= -1")
    q = substitute(p, "x", BinaryOp("+", Var("x"), Var("y")))
    assert atom_set(q) == atom_set(p)


def test_substitute_two_sided():
    p = substitute(pred("x < 10 && x >= 8"), "x", BinaryOp("+", Var("x"), Var("y")))
    assert atom_set(p) == atom_set(pred("x + y < 10 && x + y >= 8"))


def test_substitute_folds_constants():
    p = substitute(pred("t >= 3"), "t", BinaryOp("+", Var("t"), Const(1.0)))
    assert atom_set(p) == atom_set(pred("t >= 2"))
    q = substitute(p, "t", Const(5.0))
    assert q.is_one and not q.is_false
    q0 = substitute(p, "t", Const(1.0))
    assert q0.is_false


def test_substitute_agrees_with_evaluation(rng):
    # substituting e for x and evaluating equals evaluating after assigning
    # x := e, on sharp and opaque predicates alike
    from flowsmc.smc import compile_expr as cc

    cases = [
        (pred("x + y > 3 && x < 9"), BinaryOp("+", Var("x"), Var("y"))),
        (pred("2 <= x && x <= 4"), Const(3.0)),
        (pred("x > 1 || y > 1"), BinaryOp("*", Var("y"), Var("y"))),
    ]
    for p, repl in cases:
        q = substitute(p, "x", repl)
        p_fn, q_fn, e_fn = cc(p.to_expr()), cc(q.to_expr()), cc(repl)
        for _ in range(200):
            st = {v: float(rng.uniform(-6, 6)) for v in ("x", "y", "z")}
            after = dict(st)
            after["x"] = float(e_fn(st))
            assert float(q_fn(st)) == pytest.approx(float(p_fn(after)), abs=1e-12)


def test_substitute_nonlinear_replacement_degrades_soundly():
    p = pred("x >= 4")
    q = substitute(p, "x", BinaryOp("*", Var("y"), Var("y")))
    assert not q.atoms and len(q.fuzzy) == 1
    fn = compile_expr(q.to_expr())
    assert fn({"y": 3.0}) == 1.0 and fn({"y": 1.0}) == 0.0


# ---------------------------------------------------------------------------
# conjunction

def conjoin(weight, cont):
    """The predicate before the step `weight(weight)` of the walk, given the
    predicate `cont` after it."""
    return backward_step(specialise(Weight(weight), {}), cont, False)[0]


def test_conjoin_sharp_parts_merge():
    p = conjoin(Indicator(BinaryOp("<", Var("x"), Const(10.0))), pred("x > 7"))
    assert atom_set(p) == atom_set(pred("x > 7 && x < 10"))


def test_conjoin_with_true_is_identity():
    p = pred("x > 7")
    assert conjoin(Indicator(Const(1.0, "bool")), p) == p


def test_conjoin_with_false_annihilates():
    assert conjoin(Indicator(Const(0.0, "bool")), pred("x > 7")).is_false
    assert conjoin(Const(0.0), pred("x > 7")).is_false


def test_conjoin_constants_multiply():
    p = conjoin(Const(0.5), conjoin(Const(0.3), pred("x > 7")))
    assert p.const == pytest.approx(0.15)
    assert atom_set(p) == atom_set(pred("x > 7"))


def test_conjoin_product_semantics_randomized(rng):
    p = pred("x > 2 && y <= 5")
    f = BinaryOp("*", Const(0.25), Indicator(BinaryOp(">", Var("z"), Const(0.0))))
    combined = conjoin(f, p)
    f_fn = compile_expr(f)
    p_fn = compile_expr(p.to_expr())
    c_fn = compile_expr(combined.to_expr())
    for _ in range(200):
        st = {v: float(rng.uniform(-10, 10)) for v in ("x", "y", "z")}
        assert c_fn(st) == pytest.approx(f_fn(st) * p_fn(st), abs=1e-12)


def test_boolean_literal_propagation():
    # !(c1 = c2) folds to false once both are the same constant
    p = pred("!(x = y)")
    p = substitute(p, "x", Const(1.0))
    p = substitute(p, "y", Const(1.0))
    assert p.is_false


def test_disjunction_stays_opaque():
    p = pred("x > 1 || y > 1")
    assert not p.atoms and len(p.fuzzy) == 1


# ---------------------------------------------------------------------------
# consequence derivation at probabilistic assignments

def test_psi_single_bound_against_beta_support():
    p = pred("x + z >= 0")
    psi = derive_psi(p, "x", DistInstance("beta", (1, 1)))
    # exact elimination over supp = [0, 1): strictly tighter than the weak
    # substitution z >= -1, and sound for it
    assert atom_set(psi) == atom_set(pred("z > -1"))


def test_psi_without_occurrence_keeps_sharp_residual():
    p = pred("z >= 3 && z <= 9")
    psi = derive_psi(p, "x", DistInstance("uniform", (0, 1)))
    assert atom_set(psi) == atom_set(p)


def test_psi_unsatisfiable_bounds_give_false():
    p = pred("x >= 25")
    psi = derive_psi(p, "x", DistInstance("uniform", (0, 20)))
    assert psi.is_false


def test_psi_two_sided_bounds():
    p = pred("x + y > 9 && x + y < 10")
    psi = derive_psi(p, "y", DistInstance("beta", (1, 1)))
    assert atom_set(psi) == atom_set(pred("x > 8 && x < 10"))


def test_psi_without_support_information():
    p = pred("x >= 25 && z > 1")
    psi = derive_psi(p, "x", None)
    assert atom_set(psi) == atom_set(pred("z > 1"))


def test_psi_equality_atom_is_two_bounds():
    p = pred("x = 3 && x >= 4")
    psi = derive_psi(p, "x", DistInstance("uniform", (0, 20)))
    assert psi.is_false  # 3 >= 4 fails in the bound pairing


def test_xi_open_window():
    p = pred("x > 7 && x < 10")
    admitted, excluded, captured = derive_xi(
        p, "x", DistInstance("uniform", (0, 20)))
    assert admitted == Interval(7.0, 10.0, True, True) and excluded == ()
    assert set(captured) == atom_set(p)


def test_xi_closed_window():
    p = pred("2 <= x && x <= 4")
    admitted, _, captured = derive_xi(p, "x", DistInstance("uniform", (1, 5)))
    assert admitted == Interval(2.0, 4.0)
    assert len(captured) == 2


def test_xi_absent_for_symbolic_bound():
    p = pred("x + y < 10")
    assert derive_xi(p, "x", DistInstance("uniform", (0, 20))) is None


def test_xi_partial_capture():
    p = pred("x > 7 && x + y < 10")
    admitted, _, captured = derive_xi(p, "x", DistInstance("uniform", (0, 20)))
    assert admitted == Interval(7.0, float("inf"), True, True)
    assert len(captured) == 1


def test_xi_discrete_point_and_puncture():
    d = DistInstance("bernoulli", (0.36,))
    assert derive_xi(pred("x = 0"), "x", d)[:2] == (Interval(0.0, 0.0), ())
    adm, excluded, _ = derive_xi(pred("!(x = 0)"), "x", d)
    assert excluded == (0.0,)
    rd = restrict(d, adm, excluded)
    assert rd.admitted == Interval(0.0, 1.0, lo_open=True)
    assert rd.excluded == () and rd.mass == 0.36


def test_xi_skips_continuous_equality():
    d = DistInstance("normal", (0, 1))
    assert derive_xi(pred("x = 3"), "x", d) is None


@pytest.mark.parametrize("rate,observation,rejected,restricted", [
    (100, "x / 93 > 1", 93, False),  # 1 / 93 is inexact
    (30, "x * 1.1 > 33", 30, False),  # 30 * 1.1 == 33.0, 33 / 1.1 < 30
    (100, "x / 2 > 46.5", 93, True),  # halving is exact
])
def test_restricted_discrete_draw_admits_no_rejected_value(
        rng, rate, observation, rejected, restricted):
    s = _single_flow(f"int x := 0; x ~ poisson({rate});\n"
                     f"observe({observation});\nreturn x;")
    opt = cdpg(s)
    assert restricted == any(isinstance(lab, Draw) and lab.restriction
                             for lab in opt.steps)
    res = run_smc(opt, 20_000, rng, resample=False)
    assert not (res.values[res.weights > 0] == rejected).any()
    exact = stats.poisson.sf(rejected, rate)  # P(x > rejected)
    assert abs(res.evidence - exact) <= 4 * evidence_se(res) + 1e-12


_XI_OPS = ("<", "<=", ">", ">=", "=", "!=")
_XI_HOLDS = {"<": float.__lt__, "<=": float.__le__, ">": float.__gt__,
             ">=": float.__ge__, "=": float.__eq__, "!=": float.__ne__}


@st.composite
def _xi_case(draw):
    """A bernoulli or poisson draw and a conjunction of 1-4 atoms x OP c,
    each c an integer or half-integer around the support, its ends
    included."""
    family, params, top = draw(st.sampled_from(
        [("bernoulli", (0.36,), 1), ("poisson", (3.0,), 8)]))
    consts = [k / 2 for k in range(-2, 2 * top + 3)]
    atoms = draw(st.lists(st.tuples(st.sampled_from(_XI_OPS),
                                    st.sampled_from(consts)),
                          min_size=1, max_size=4))
    return DistInstance(family, params), atoms


@given(_xi_case())
@example(case=(DistInstance("poisson", (3.0,)),
               [("!=", 3.0), ("!=", 5.0), (">", 0.0), ("!=", 9.0)]))
@example(case=(DistInstance("bernoulli", (0.36,)), [("!=", 0.0)]))
@example(case=(DistInstance("poisson", (3.0,)), [("=", 2.0), ("!=", 2.0)]))
@settings(max_examples=200, deadline=None)
def test_discrete_restriction_admits_exactly_the_values_its_atoms_pass(case):
    # the restriction that derive_xi and restrict build from the atoms
    # draws only values that pass them all, gives every passing value of the
    # support positive probability, and has their pmf sum as its mass
    d, atoms = case
    fam = d.fam
    p = pred(" && ".join(f"x {op} {c}" for op, c in atoms))
    ks = [float(k) for k in range(0, int(fam._tail_cutoff(d.params)) + 1)]
    passing = [k for k in ks if all(_XI_HOLDS[op](k, c) for op, c in atoms)]
    xi = derive_xi(p, "x", d)
    if xi is None:  # normalization found the atoms contradictory
        assert p.is_false and passing == []
        return
    admitted, excluded, captured = xi
    assert set(captured) == atom_set(p)
    if admitted is None:
        assert passing == []
        return
    rd = restrict(d, admitted, excluded)
    drawable = [k for k in ks if rd.admitted is not None
                and rd.admitted.contains(k) and k not in rd.excluded]
    assert drawable == passing
    assert all(fam.pdf(d.params, k) > 0.0 for k in passing)
    assert rd.mass == pytest.approx(
        sum(float(fam.pdf(d.params, k)) for k in passing), rel=1e-12, abs=0.0)
    if rd.mass > 0.0:
        xs = rd.sample(np.random.default_rng(5), 200)
        assert all(x in passing for x in xs.tolist())


def test_zero_mass_draw_makes_the_predicate_zero():
    # no integer lies in (2.25, 2.75), so no draw can pass
    lab = Draw("x", "poisson", (Const(3.0),))
    assert backward_step(lab, pred("x > 2.25 && x < 2.75"), False) == (
        ZERO, (lab,))


# ---------------------------------------------------------------------------
# the full pass

def fig_demo_optimized():
    return flow_program("condDemo", (), 3, optimized=True)


def test_cdpg_demo_flow_head_restriction():
    opt = fig_demo_optimized()
    head = opt.steps[0]
    assert isinstance(head, Draw)
    assert head.restriction is not None
    assert head.restriction.mass == 3 / 20
    assert head.restriction.admitted == Interval(7.0, 10.0, True, True)
    mass_weight = opt.steps[1]
    assert isinstance(mass_weight, Weight)
    assert mass_weight.pred == Const(3 / 20)


def test_cdpg_demo_flow_structure():
    opt = fig_demo_optimized()
    shape = []
    for lab in opt.steps:
        if isinstance(lab, Draw):
            shape.append(f"draw:{lab.var}{'|r' if lab.restriction else ''}")
        elif isinstance(lab, Weight):
            shape.append("obs" if isinstance(lab.pred, Indicator) else "weight")
        else:
            shape.append(f"assign:{lab.var}")
    assert shape == [
        "draw:x|r", "weight",
        "draw:y", "obs", "assign:x",
        "draw:y", "obs", "assign:x",
        "draw:y", "obs", "assign:x",
    ]
    # propagated windows per iteration: (8,10), (9,10), [10, inf)
    observations = [lab.pred for lab in opt.steps
                    if isinstance(lab, Weight) and isinstance(lab.pred, Indicator)]
    sums = [predicate_of_expr(o) for o in observations]
    assert atom_set(sums[0]) == atom_set(pred("x + y > 8 && x + y < 10"))
    assert atom_set(sums[1]) == atom_set(pred("x + y > 9 && x + y < 10"))
    assert atom_set(sums[2]) == atom_set(pred("x + y >= 10"))


def test_cdpg_without_conditioning_is_identity():
    src = "double x := 0.0;\nx ~ normal(0, 1);\nx := x + 1;\nreturn x;"
    g = build_pcfg(parse_source(src))
    s = straight_line(g, nth_flow(g, 0))
    assert cdpg(s).steps == s.steps


def test_cdpg_unifcd_counter_folds_to_false():
    for iters in (0, 3, 9):
        opt = flow_program("unifCd", (10,), iters, optimized=True)
        assert is_blacklisted(opt)
    for iters in (10, 11):
        opt = flow_program("unifCd", (10,), iters, optimized=True)
        assert not is_blacklisted(opt)


def test_blacklist_coin_agreeing_flows():
    g = benchmarks.build("coin", 0.36)
    verdicts = {}
    cursor = FlowEnumerator(g)
    while True:
        f = cursor.next_complete()
        if f is None:
            break
        verdicts[f.flow_id] = is_blacklisted(cdpg(straight_line(g, f)))
    assert sorted(verdicts.values()) == [False, False, True, True]


def test_demo_flow_not_blacklisted():
    assert not is_blacklisted(fig_demo_optimized())


def test_blacklisted_flows_have_zero_weight_runs(rng):
    # every forward run of the original program along a dead flow carries
    # weight zero
    for name, params, iters in [("unifCd", (10,), 3), ("coin", (0.36,), 0),
                                ("poisCd2", (), 1)]:
        plain = flow_program(name, params, iters)
        assert is_blacklisted(cdpg(plain))
        res = run_smc(plain, 10_000, rng, resample=False)
        assert res.evidence == 0.0 and (res.weights == 0.0).all()


def test_weight_emission_counts_per_blocked_draw():
    # a restricted draw carries one constant compensation weight and at most
    # one residual observation; an unrestricted blocked draw carries one
    for name, params, iters in [("condDemo", (), 3), ("obsLoop", (3, 5), 6),
                                ("unifCd", (4,), 4), ("geomIt", (0.5, 2), 3)]:
        opt = flow_program(name, params, iters, optimized=True)
        steps = list(opt.steps)
        for i, lab in enumerate(steps):
            if not isinstance(lab, Draw):
                continue
            trailing = []
            for nxt in steps[i + 1:]:
                if not isinstance(nxt, Weight):
                    break
                trailing.append(nxt)
            consts = sum(isinstance(t.pred, Const) for t in trailing)
            if lab.restriction is not None:
                assert consts >= 1
            assert len(trailing) - consts <= 1


def test_psi_soundness_randomized(rng):
    # wherever the pass emitted at a draw: if the predicate holds for some
    # sampled value, the consequence passed upstream must hold already
    cases = []
    for name, params, iters in [("condDemo", (), 3), ("obsLoop", (3, 5), 6),
                                ("geomIt", (0.5, 2), 4), ("coin", (0.36,), 1),
                                ("poisCd", (3, 2), 3)]:
        _, trace = traced_cdpg(flow_program(name, params, iters))
        cases.extend(step for step in trace
                     if isinstance(step.label, Draw)
                     and step.label.var in step.after.vars)
    assert cases
    checked = 0
    for step in cases:
        dist, x = condprop._const_dist(step.label), step.label.var
        if dist is None or step.after.is_false:
            continue
        f_fn = compile_expr(step.after.to_expr())
        psi_fn = compile_expr(step.before.to_expr())
        names = sorted(step.after.vars | step.before.vars | {x})
        for _ in range(300):
            st = {v: float(rng.uniform(-5, 15)) for v in names}
            st[x] = float(dist.fam.sample(dist.params, rng, 1)[0])
            if float(f_fn(st)) > 0.0:
                assert float(psi_fn(st)) == 1.0
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("name,params,iters", [
    ("condDemo", (), 2),
    ("obsLoop", (3, 2), 3),
    ("geomIt", (0.5, 2), 2),
    ("unifCd", (2,), 3),
    ("poisCd", (3, 2), 3),
])
def test_cdpg_preserves_evidence_and_posterior(rng, name, params, iters):
    plain = flow_program(name, params, iters)
    opt = cdpg(plain)
    n = 60_000
    a = run_smc(plain, n, rng, resample=False)
    b = run_smc(opt, n, rng, resample=False)
    tol = 4 * math.hypot(evidence_se(a), evidence_se(b))
    assert abs(a.evidence - b.evidence) <= tol + 1e-12
    if a.evidence > 0:
        wa, wb = a.weights.sum(), b.weights.sum()
        lo = min(a.values[a.weights > 0].min(), b.values[b.weights > 0].min())
        hi = max(a.values[a.weights > 0].max(), b.values[b.weights > 0].max())
        edges = np.linspace(lo, hi + 1e-9, 17)
        for k in range(16):
            ina = (a.values >= edges[k]) & (a.values < edges[k + 1])
            inb = (b.values >= edges[k]) & (b.values < edges[k + 1])
            pa = a.weights[ina].sum() / wa
            pb = b.weights[inb].sum() / wb
            sea = np.sqrt(np.sum((a.weights * (ina - pa)) ** 2)) / wa
            seb = np.sqrt(np.sum((b.weights * (inb - pb)) ** 2)) / wb
            assert abs(pa - pb) <= 4 * math.hypot(sea, seb) + 1e-9


# ---------------------------------------------------------------------------
# bound subsumption

# Powers of two keep every product and bound exact, so the runtime
# comparisons of an atom and of its subsuming atom agree even on the bound.
_COEFFS = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
_atoms = st.builds(
    lambda coeffs, const, op: Atom(LinTerm.make(coeffs, const), op),
    st.dictionaries(st.sampled_from("xy"), st.sampled_from(_COEFFS),
                    min_size=1, max_size=2),
    st.integers(-4, 4).map(float),
    st.sampled_from((">", ">=", "==", "!=")))


@settings(max_examples=300, deadline=None)
@given(st.lists(_atoms, max_size=8))
@example([Atom(LinTerm.make({"x": 1.0}, -1.0), ">="),
          Atom(LinTerm.make({"x": 2.0}, -2.0), ">"),
          Atom(LinTerm.make({"x": -1.0}, 3.0), ">"),
          Atom(LinTerm.make({"x": -0.5}, 1.5), ">=")])
def test_normalize_subsumption_preserves_truth(atoms):
    raw = SymbolicPredicate(1.0, tuple(atoms))
    norm = _normalize(1.0, atoms, ())
    # at most one lower and one upper one-variable bound per variable
    sides = [(a.lin.coeffs[0][0], a.lin.coeffs[0][1] > 0.0) for a in norm.atoms
             if len(a.lin.coeffs) == 1 and a.op in (">", ">=")]
    assert len(sides) == len(set(sides))
    # every bound of a one-variable atom, plus a grid around them
    points = {k / 2 for k in range(-20, 21)}
    points |= {-a.lin.const / a.lin.coeffs[0][1] for a in atoms
               if len(a.lin.coeffs) == 1}
    grid = np.array(sorted(points))
    xs, ys = np.meshgrid(grid, grid)
    state = {"x": xs.ravel(), "y": ys.ravel()}
    want = np.broadcast_to(compile_expr(raw.to_expr())(state), xs.size)
    got = np.broadcast_to(compile_expr(norm.to_expr())(state), xs.size)
    assert np.array_equal(want, got)


def test_normalize_keeps_tightest_bounds_strict_at_ties():
    p = pred("x >= 1 && 2 * x > 2 && x > 0 && x <= 3 && x < 3 && x + y > 1 "
             "&& x != 2")
    assert atom_set(p) == atom_set(
        pred("2 * x > 2 && x < 3 && x + y > 1 && x != 2"))


def _bound(coeff, const, op=">"):
    return Atom(LinTerm.make({"x": coeff}, const), op)


def _guard(atom):
    return SymbolicPredicate(1.0, (atom,))


# (f, guard) pairs where `_subsumes` must not fire, as multiply(guard, f)
# does not return f atom for atom
_NOT_SUBSUMED = {
    # equal rank, different atom: _normalize keeps the guard's 2x > 1
    "equal rank": (pred("x > 0.5 && y < 2"), _guard(_bound(2.0, -1.0))),
    # a non-strict bound is looser than the strict guard at the same bound
    "non-strict": (pred("x >= 1 && y < 2"), _guard(_bound(1.0, -1.0))),
    # f's bound on the guard's side is second, and would move first
    "not first": (pred("y < 2 && x > 3"), _guard(_bound(1.0, -1.0))),
    # an infinite bound ranks on no side
    "infinite guard": (pred("x > 3"), _guard(_bound(1.0, INF))),
    "infinite held": (_normalize(1.0, [_bound(1.0, -INF)], ()),
                      _guard(_bound(1.0, -1.0))),
    # equal atoms whose constants are zeros of opposite sign
    "signed zero": (_normalize(1.0, [_bound(1.0, 0.0)], ()),
                    _guard(_bound(1.0, -0.0))),
    # a guard of more than one atom, or of another factor
    "second atom": (pred("x > 1 && y < 2"), pred("x > 0 && x + y > 1")),
    "constant factor": (pred("x > 1"),
                        SymbolicPredicate(0.5, (_bound(1.0, 0.0),))),
    "opaque factor": (pred("x > 1"), SymbolicPredicate(
        1.0, (_bound(1.0, 0.0),), (Var("y"),))),
}


@pytest.mark.parametrize("case", sorted(_NOT_SUBSUMED))
def test_subsumption_fast_path_stays_off_at_its_boundaries(case):
    f, guard = _NOT_SUBSUMED[case]
    assert not condprop._subsumes(f, guard)
    assert repr(condprop.multiply(guard, f)) != repr(f)


def test_subsumption_fast_path_fires_on_a_tighter_or_equal_bound():
    f = pred("x > 1 && y < 2")
    for guard in (pred("x >= 1"), pred("x > 0.5"), pred("2 * x > 1"),
                  pred("x > 1")):
        assert condprop._subsumes(f, guard)
        assert repr(condprop.multiply(guard, f)) == repr(f)
    assert not condprop._subsumes(ZERO, pred("x > 1"))


_consts = st.sampled_from((-INF, -2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0,
                           INF))
_one_var_bounds = st.builds(
    lambda v, c, k, op: Atom(LinTerm.make({v: c}, k), op),
    st.sampled_from("xy"), st.sampled_from(_COEFFS + (3.0,)), _consts,
    st.sampled_from((">", ">=")))


_opaque = (Indicator(Var("y")),)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(_one_var_bounds, _atoms), max_size=6),
       st.sampled_from((1.0, 0.25)), st.booleans(), _one_var_bounds,
       st.sampled_from((1.0, 0.5)), st.booleans())
@example([_bound(2.0, -1.0)], 1.0, False, _bound(1.0, -0.5), 1.0, False)
@example([_bound(1.0, -0.5)], 1.0, False, _bound(2.0, -1.0), 1.0, False)
@example([_bound(1.0, -1.0, ">=")], 1.0, False, _bound(1.0, -1.0), 1.0, False)
@example([_bound(1.0, -1.0)], 1.0, False, _bound(1.0, -1.0, ">="), 1.0, False)
@example([Atom(LinTerm.make({"y": 1.0}, 0.0), ">"), _bound(1.0, -3.0)],
         1.0, False, _bound(1.0, -1.0), 1.0, False)
@example([_bound(1.0, -INF)], 1.0, False, _bound(1.0, -1.0), 1.0, False)
@example([_bound(1.0, -3.0)], 1.0, False, _bound(1.0, INF), 1.0, False)
@example([_bound(1.0, 0.0)], 1.0, True, _bound(1.0, -0.0), 1.0, False)
@example([_bound(1.0, -3.0)], 1.0, False, _bound(1.0, -1.0), 0.5, False)
@example([_bound(1.0, -3.0)], 1.0, False, _bound(1.0, -1.0), 1.0, True)
def test_subsumed_guard_leaves_the_predicate_as_it_is(
        atoms, const, fuzzy, guard, guard_const, guard_fuzzy):
    f = _normalize(const, atoms, _opaque if fuzzy else ())
    g = SymbolicPredicate(guard_const, (guard,),
                          _opaque if guard_fuzzy else ())
    if condprop._subsumes(f, g):
        out = condprop.multiply(g, f)
        assert out == f and repr(out) == repr(f)


def test_deepest_unifcd_flow_multiplies_a_constant_number_of_times():
    # each of its 133 iterations passes a guard p <= q, and the bound of the
    # last iteration subsumes every earlier one
    s = _deepest_flow("unifCd", (20,))
    calls = []
    multiply = condprop.multiply
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(condprop, "multiply",
                   lambda p, q: calls.append(p) or multiply(p, q))
        cdpg(s)
        assert len(calls) <= 4
        cdpg(s, memo=StepMemo())
        assert len(calls) <= 8


def _deepest_flow(name, params, max_len=400):
    g = benchmarks.build(name, *params)
    cursor = FlowEnumerator(g, max_len=max_len)
    deepest = None
    while (flow := cursor.next_complete()) is not None:
        deepest = flow
    return straight_line(g, deepest)


@pytest.mark.parametrize("t0", [5, 10, 20])
def test_unifcd_deepest_flow_stays_small(t0):
    # one p <= 2^-k atom per unrolled iteration would reach 133 atoms; the
    # dead counter updates would leave hundreds of steps
    s = _deepest_flow("unifCd", (t0,))
    assert len(s.steps) == 399
    opt, trace = traced_cdpg(s)
    assert all(len(step.after.atoms) <= 2 for step in trace)
    assert len(opt.steps) == 2
    draw, mass = opt.steps
    assert isinstance(draw, Draw) and draw.restriction is not None
    assert mass == Weight(Const(draw.restriction.mass))


# ---------------------------------------------------------------------------
# dead assignments

def _single_flow(src):
    g = build_pcfg(desugar(parse_source(src)))
    return straight_line(g, nth_flow(g, 0))


def test_cdpg_keeps_assignments_that_are_read_later():
    s = _single_flow(
        "double x := 0.0; double y := 0.0; double z := 0.0;\n"
        "double u := 0.0; double v := 0.0; double w := 0.0;\n"
        "y ~ normal(0, 1);\n"
        "z := y * 2;\n"      # read only by the observation emitted after u
        "x := y + 1;\n"      # read only by the return expression
        "w := y + 3;\n"      # never read
        "v ~ normal(0, 1);\n"  # never read, but a draw
        "u ~ normal(0, 1);\n"
        "observe(u + z > 0);\n"
        "return x;")
    opt = cdpg(s)
    kept = {lab.var for lab in opt.steps if not isinstance(lab, Weight)}
    assert kept == {"y", "z", "x", "v", "u"}
    assert "w" in {lab.var for lab in s.steps if isinstance(lab, Assign)}


@pytest.mark.parametrize("fault", ["x := 1 / 0;", "x := 1 / (2 - 2);"])
def test_cdpg_drops_dead_division_by_zero(fault):
    # x is never read, so its non-finite value never reaches a weight or the
    # return value: each program runs exactly as its twin without the fault
    src = ("double x := 0.0; double y := 0.0; double t := 1.0;\n"
           "y ~ normal(0, 1);\n{}\nobserve(y > 0);\nreturn y;")
    s, twin = _single_flow(src.format(fault)), _single_flow(src.format(""))
    assert len(s.steps) == len(twin.steps) + 1
    opt = cdpg(s)
    assert repr(opt.steps) == repr(cdpg(twin).steps)
    for a, b in ((s, twin), (opt, cdpg(twin))):
        ra, rb = (run_smc(p, 100, np.random.default_rng(5)) for p in (a, b))
        assert np.array_equal(ra.weights, rb.weights)
        assert np.array_equal(ra.values, rb.values)
        assert ra.evidence == rb.evidence and ra.anomalies == rb.anomalies == 0


# ---------------------------------------------------------------------------
# the per-run step memo

@pytest.mark.parametrize("name", sorted(benchmarks.SOURCES))
def test_step_memo_output_matches_the_plain_walk(name):
    # the plain walk is the pure step functions: each answer of a memo that
    # 60 flows share is theirs, and each flow gets the program that a fresh
    # memo gives it
    g = benchmarks.build(name)
    cursor = FlowEnumerator(g, max_len=200)
    flows = []
    while len(flows) < 60 and (flow := cursor.next_complete()) is not None:
        flows.append(flow)
    memo = _checked_memo()
    shared = [repr(cdpg(straight_line(g, f), memo=memo).steps) for f in flows]
    fresh = [repr(cdpg(straight_line(g, f)).steps) for f in flows]
    assert shared == fresh
    assert memo.steps == sum(len(straight_line(g, f).steps) for f in flows)
    assert memo.hits + memo.noops <= memo.steps


@pytest.mark.parametrize("name", sorted(benchmarks.SOURCES))
def test_prefix_sweep_returns_the_labels_of_the_plain_sweep(name):
    # the plain sweep specialises every step, carrying the known constants
    # from one step to the next
    g = benchmarks.build(name)
    cursor = FlowEnumerator(g, max_len=200)
    memo = _checked_memo()
    for _ in range(60):
        flow = cursor.next_complete()
        if flow is None:
            break
        s = straight_line(g, flow)
        swept = memo.specialise_forward(s)
        env, plain = dict(s.sigma_init), []
        for lab in s.steps:
            plain.append(memo.specialise(lab, env))
            env = _env_after(lab, plain[-1], env)
        assert len(swept) == len(plain) == len(s.steps)
        assert all(a is b for a, b in zip(swept, plain)), flow.flow_id


def _counting_specialise(memo):
    """Record the label of every call of `memo.specialise`."""
    calls = []
    spec = memo.specialise

    def counting(lab, env):
        calls.append(lab)
        return spec(lab, env)

    memo.specialise = counting
    return calls


def test_prefix_sweep_specialises_only_the_steps_past_a_swept_prefix():
    g = benchmarks.build("unifCd", 5)
    first, second = (straight_line(g, nth_flow(g, k)) for k in (6, 7))
    shared = 0
    while first.steps[shared] is second.steps[shared]:
        shared += 1
    assert 0 < shared < len(second.steps)
    memo = StepMemo()
    calls = _counting_specialise(memo)
    cdpg(first, memo=memo)
    assert len(calls) == len(first.steps)
    del calls[:]
    cdpg(second, memo=memo)
    assert calls == list(second.steps[shared:])
    del calls[:]
    cdpg(second, memo=memo)
    assert calls == []


def test_prefix_sweep_keeps_signed_zero_initial_stores_apart():
    s = _single_flow("double x := 1.0; double z := 0.0;\nx := -z;\n"
                     "return x;")
    twin = _rebuilt(s, sigma_init={**s.sigma_init, "z": -0.0})
    memo = StepMemo()
    (neg,), (pos,) = (memo.specialise_forward(p) for p in (s, twin))
    assert len(memo.roots) == 2
    assert repr(neg.expr) == repr(Const(-0.0))
    assert repr(pos.expr) == repr(Const(0.0))
    assert memo.specialise_forward(s)[0] is neg


def _known_before(program):
    """The variables with statically-known values before each step of
    `program`, plus one set for the return position."""
    env = dict(program.sigma_init)
    known = []
    for lab in program.steps:
        known.append(set(env))
        if isinstance(lab, Assign) and \
                isinstance(value := fold_expr(lab.expr, env), Const):
            env[lab.var] = value.value
        elif not isinstance(lab, Weight):
            env.pop(lab.var, None)
    known.append(set(env))
    return known


@pytest.mark.parametrize("name", sorted(benchmarks.SOURCES))
def test_no_label_or_traced_predicate_reads_a_known_value(name):
    g = benchmarks.build(name)
    cursor = FlowEnumerator(g, max_len=200)
    memo = StepMemo()
    for _ in range(60):
        flow = cursor.next_complete()
        if flow is None:
            break
        s = straight_line(g, flow)
        shared, trace = traced_cdpg(s, memo)
        for opt in (cdpg(s), shared):
            for lab, known in zip(opt.steps, _known_before(opt)):
                assert lab.reads.isdisjoint(known), (flow.flow_id, str(lab))
        known = _known_before(s)
        for step in trace:
            assert step.after.vars.isdisjoint(known[step.index + 1])
            assert step.before.vars.isdisjoint(known[step.index])


def _propagate_twins(s, twin):
    """Propagate s and twin through one checked memo, each twice in a row
    and then once more, so that every call after the first of each is
    answered from the memo; each program must come out as with a fresh
    memo."""
    order = (s, s, twin, twin, s, twin)
    memo = _checked_memo()
    shared = [repr(cdpg(p, memo=memo).steps) for p in order]
    assert memo.hits > 0
    assert shared == [repr(cdpg(p).steps) for p in order]
    assert shared[0] != shared[2]


def test_step_memo_keeps_live_and_dead_assignments_apart():
    # y := x + 1 meets the same predicate and constants in both programs,
    # but only the first reads y later
    s = _single_flow("double x := 0.0; double y := 0.0;\n"
                     "x ~ normal(0, 1);\ny := x + 1;\nobserve(y > 1);\n"
                     "return y;")
    _propagate_twins(s, _rebuilt(s, e_final=Var("x")))


def test_step_memo_keeps_signed_zero_env_values_apart():
    # 1 / z does not fold at z = 0, so the sign of z reaches the observation
    s = _single_flow("double x := 0.0; double z := 0.0;\n"
                     "x ~ normal(0, 1);\nobserve(x > 1 / z);\nreturn x;")
    twin = _rebuilt(s, sigma_init={**s.sigma_init, "z": -0.0})
    _propagate_twins(s, twin)


def test_step_memo_keeps_signed_zeros_in_fuzzy_factors_apart():
    # the predicates entering `y := x` compare equal, since 0.0 == -0.0
    s = _single_flow("double x := 0.0; double y := 0.0;\n"
                     "x ~ normal(0, 1);\ny := x;\nweight(1);\nreturn x;")
    weights = [Weight(BinaryOp("/", Const(1.0),
                                    BinaryOp("*", Var("y"), Const(zero))))
               for zero in (0.0, -0.0)]
    s, twin = (_rebuilt(s, steps=s.steps[:-1] + (w,))
               for w in weights)
    _propagate_twins(s, twin)


# ---------------------------------------------------------------------------
# labels specialised to known constants

def _stores(program, var):
    return [lab for lab in program.steps
            if isinstance(lab, Assign) and lab.var == var]


@pytest.mark.parametrize("shared", [False, True])
def test_obsloop_flow_keeps_one_store_of_its_counter(shared):
    g = benchmarks.build("obsLoop", 3, 10)
    s = straight_line(g, nth_flow(g, 12))
    iterations = len(_stores(s, "n"))
    assert iterations > 10
    opt = cdpg(s, memo=StepMemo() if shared else None)
    (store,) = _stores(opt, "n")
    assert store.expr == Const(float(iterations))


def test_geomit2_draws_take_constant_parameters():
    g = benchmarks.build("geomIt2", 0.5, 5)
    memo = StepMemo()
    flows = [cdpg(straight_line(g, nth_flow(g, k)), memo=memo) for k in (7, 8)]
    for k, opt in zip((7, 8), flows):
        betas = [lab for lab in opt.steps
                 if isinstance(lab, Draw) and lab.family == "beta"]
        assert all(isinstance(p, Const) for lab in betas for p in lab.params)
        assert [lab.params[0].value for lab in betas] == \
            [float(i) for i in range(1, k + 1)]
    # one object per label and constants, shared by the flows of a run
    first = [lab for lab in flows[0].steps if isinstance(lab, Draw)]
    again = [lab for lab in flows[1].steps if isinstance(lab, Draw)]
    assert any(lab.family == "beta" for lab in first)
    assert all(a is b for a, b in zip(first, again) if a.family == "beta")


def test_partly_known_values_fold_and_division_by_known_zero_stays():
    env = {"n": 2.0, "z": 0.0}
    cases = [
        (Assign("x", BinaryOp("+", Var("x"), Var("n"))),
         Assign("x", BinaryOp("+", Var("x"), Const(2.0)))),
        (Draw("y", "normal", (Var("x"), Var("n"))),
         Draw("y", "normal", (Var("x"), Const(2.0)))),
        # a division by a known zero stays a division, not inf
        (Assign("x", BinaryOp("/", Const(1.0), Var("z"))),
         Assign("x", BinaryOp("/", Const(1.0), Const(0.0)))),
        (Assign("x", BinaryOp("+", Var("n"), Const(1.0))),
         Assign("x", Const(3.0))),
    ]
    for lab, folded in cases:
        assert specialise(lab, env) == folded
        assert StepMemo().specialise(lab, env) == folded
    unread = Assign("x", BinaryOp("+", Var("x"), Var("y")))
    assert specialise(unread, env) is unread
    # through the walk: both assignments are folded in part, and the division
    # leaves z unknown, so the observation after it is not decided
    s = _single_flow("double x := 0.0; double y := 0.0; double z := 0.0;\n"
                     "int n := 2;\ny ~ normal(0, 1);\nx := y + n;\n"
                     "z := 1 / (n - 2);\nobserve(x > z);\nreturn x + z;")
    opt = cdpg(s)
    stores = {lab.var: lab.expr for lab in opt.steps
              if isinstance(lab, Assign)}
    assert stores["x"] == BinaryOp("+", Var("y"), Const(2.0))
    assert stores["z"] == BinaryOp("/", Const(1.0, "int"), Const(0.0))
    assert any(isinstance(lab, Weight) for lab in opt.steps)


def test_known_comparisons_fold_to_their_truth():
    # x OP 1 at x = 0, 1 and 2
    truths = {"<": (1, 0, 0), "<=": (1, 1, 0), "=": (0, 1, 0),
              "!=": (1, 0, 1), ">=": (0, 1, 1), ">": (0, 0, 1)}
    for op, row in truths.items():
        for x, truth in zip((0.0, 1.0, 2.0), row):
            folded = fold_expr(BinaryOp(op, Var("x"), Const(1.0)), {"x": x})
            assert folded == Const(float(truth), "bool"), (op, x)


def test_partial_fold_keeps_the_sign_of_a_known_zero():
    # x := y / z at z = -0.0 becomes x := y / -0.0, so x is -inf; 1 / x
    # returns that sign as -0.0
    s = _single_flow("double x := 0.0; double y := 0.0; double z := 0.0;\n"
                     "y ~ uniform(1, 2);\nx := y / z;\nreturn 1 / x;")
    twin = _rebuilt(s, sigma_init={**s.sigma_init, "z": -0.0})
    memo = StepMemo()
    for program, negative in ((s, False), (twin, True), (s, False)):
        for opt in (cdpg(program), cdpg(program, memo=memo)):
            (store,) = _stores(opt, "x")
            assert store.expr.right == Const(0.0)
            assert math.copysign(1.0, store.expr.right.value) == \
                (-1.0 if negative else 1.0)
            res = run_smc(opt, 8, np.random.default_rng(0))
            assert (res.values == 0.0).all() and res.anomalies == 0
            assert np.signbit(res.values).all() == negative
            assert np.signbit(res.values).any() == negative


def test_specialised_stores_keep_the_sign_of_zero():
    lab = Assign("x", UnaryOp("-", Var("z")))
    memo = StepMemo()
    neg, pos = (memo.specialise(lab, {"z": z}) for z in (0.0, -0.0))
    assert repr(neg.expr) == repr(Const(-0.0))
    assert repr(pos.expr) == repr(Const(0.0))
    assert math.copysign(1.0, neg.expr.value) < 0 < math.copysign(1.0, pos.expr.value)
    assert memo.specialise(lab, {"z": 0.0}) is neg
    assert memo.specialise(lab, {"z": -0.0}) is pos
    # the sign reaches the values of a run through one shared memo
    s = _single_flow("double x := 1.0; double z := 0.0;\nx := -z;\n"
                     "return x;")
    twin = _rebuilt(s, sigma_init={**s.sigma_init, "z": -0.0})
    for program, negative in ((s, True), (twin, False), (s, True)):
        values = run_smc(cdpg(program, memo=memo), 4,
                         np.random.default_rng(0)).values
        assert np.signbit(values).all() == negative
        assert np.signbit(values).any() == negative


def test_predicate_hash_is_cached_and_agrees_with_equality():
    p, q = pred("x > 1 && y <= 2"), pred("x > 1 && y <= 2")
    assert p == q and p is not q and hash(p) == hash(q)
    assert hash(p) == hash((p.const, p.atoms, p.fuzzy))
    assert "_hash" in vars(p)
