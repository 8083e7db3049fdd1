import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, stats

from flowsmc.dists import (
    FAMILIES, DistInstance, InfeasibleRestriction, Interval, IntervalUnion,
    cdf, draw_batch, restrict, support,
)
from flowsmc.syntax import ParamError

INF = float("inf")


# ---------------------------------------------------------------------------
# interval algebra

_points = st.sampled_from([-3.0, -1.0, -0.5, 0.0, 0.25, 1.0, 2.0, 5.0])


def _intervals():
    return st.tuples(_points, _points, st.booleans(), st.booleans()).map(
        lambda t: Interval(min(t[0], t[1]), max(t[0], t[1]), t[2], t[3]))


@given(st.lists(_intervals(), max_size=4), _points)
@settings(max_examples=150, deadline=None)
def test_union_membership_matches_parts(ivs, x):
    u = IntervalUnion(ivs)
    assert u.contains(x) == any(iv.contains(x) for iv in ivs)


@given(st.lists(_intervals(), max_size=4), _points)
@example(ivs=[Interval(-3.0, -1.0, False, True), Interval(-1.0, -0.5, True, False)],
         x=-1.0)  # a single-point gap between two open ends
@settings(max_examples=150, deadline=None)
def test_complement_membership(ivs, x):
    u = IntervalUnion(ivs)
    assert u.complement().contains(x) == (not u.contains(x))
    assert u.complement().complement() == u


@given(st.lists(_intervals(), max_size=3), st.lists(_intervals(), max_size=3), _points)
@settings(max_examples=150, deadline=None)
def test_intersection_membership(a, b, x):
    ua, ub = IntervalUnion(a), IntervalUnion(b)
    assert ua.intersect(ub).contains(x) == (ua.contains(x) and ub.contains(x))


def test_excluded_intervals_form():
    adm = IntervalUnion([Interval(1.0, 2.0, True, False),
                         Interval(4.0, 5.0, True, False)]).complement()
    assert adm.contains(1.0) and not adm.contains(1.5) and not adm.contains(2.0)
    assert adm.contains(3.0) and adm.contains(5.5)


# ---------------------------------------------------------------------------
# CDFs, inverse CDFs, point probabilities, supports

def test_density_bernoulli():
    d = DistInstance("bernoulli", (0.36,))
    assert d.fam.pdf(d.params, 1.0) == 0.36


def test_cdf_examples():
    assert cdf(DistInstance("uniform", (1, 5)), 3.0) == 0.5
    d = DistInstance("uniform", (7, 10))
    assert d.fam.ppf(d.params, 0.5) == 8.5
    assert cdf(DistInstance("normal", (0, 1)), 0.0) == 0.5


def test_support_conventions():
    sup = support(DistInstance("beta", (1, 1)))
    assert (sup.lo, sup.hi, sup.lo_open, sup.hi_open) == (0.0, 1.0, False, True)
    sup = support(DistInstance("uniform", (0, 20)))
    assert (sup.lo, sup.hi, sup.lo_open, sup.hi_open) == (0.0, 20.0, False, False)
    sup = support(DistInstance("normal", (1, 1)))
    assert (sup.lo, sup.hi) == (-INF, INF)
    assert DistInstance("poisson", (6,)).discrete
    assert not DistInstance("gamma", (3, 3)).discrete


@pytest.mark.parametrize("family,params", [
    ("uniform", (0, 20)), ("uniform", (-2, 3)), ("uniform", (0, 1)),
    ("normal", (0, 1)), ("normal", (1, 1)), ("normal", (-3, 0.5)),
    ("beta", (1, 1)), ("beta", (2, 5)), ("beta", (0.5, 0.5)),
    ("gamma", (3, 3)), ("gamma", (1, 2)), ("gamma", (2.5, 0.5)),
])
def test_density_normalizes(family, params):
    # the CDF is the integral of the reference density and reaches 1 on the
    # support
    d = DistInstance(family, params)
    a, b = d.params
    ref = {"uniform": stats.uniform(a, b - a), "normal": stats.norm(a, b),
           "beta": stats.beta(a, b), "gamma": stats.gamma(a, scale=1.0 / b)}[family]
    sup = support(d)
    lo = sup.lo if math.isfinite(sup.lo) else -60.0
    hi = sup.hi if math.isfinite(sup.hi) else 120.0
    assert float(cdf(d, hi) - cdf(d, lo)) == pytest.approx(1.0, abs=1e-12)
    for x in ref.ppf(np.linspace(0.05, 0.95, 7)):
        part, _ = integrate.quad(ref.pdf, lo, x, limit=300)
        assert float(cdf(d, x)) == pytest.approx(part, abs=1e-6)


@pytest.mark.parametrize("family,params", [
    ("bernoulli", (0.36,)), ("poisson", (3,)), ("poisson", (6,)),
])
def test_pmf_sums_to_one(family, params):
    d = DistInstance(family, params)
    ks = np.arange(0, 200)
    assert float(d.fam.pdf(d.params, ks).sum()) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("family,params", [
    ("uniform", (0, 20)), ("normal", (1, 1)), ("beta", (2, 5)),
    ("gamma", (3, 3)),
])
def test_inv_cdf_round_trip(family, params):
    d = DistInstance(family, params)
    ppf = d.fam.ppf
    for u in np.linspace(0.01, 0.99, 23):
        x = float(ppf(d.params, u))
        assert float(cdf(d, x)) == pytest.approx(u, abs=1e-10)
        assert float(ppf(d.params, float(cdf(d, x)))) == pytest.approx(
            x, rel=1e-8, abs=1e-8)


_RULES = {"uniform": "needs lo < hi and a finite hi - lo",
          "normal": "needs sd > 0", "bernoulli": "needs p in [0, 1]",
          "poisson": "needs rate > 0",
          "beta": "needs a > 0 and b > 0",
          "gamma": "needs shape > 0 and rate > 0"}


@pytest.mark.parametrize("family,params", [
    ("uniform", (5, 3)), ("normal", (0, 0)), ("bernoulli", (1.2,)),
    ("poisson", (0,)), ("beta", (0, 1)), ("gamma", (1, 0)),
    ("uniform", (0, math.nan)), ("normal", (0, math.nan)),
])
def test_bad_parameters_rejected(family, params):
    message = f"{family}{params}: {_RULES[family]}"
    with pytest.raises(ParamError, match=re.escape(message)):
        DistInstance(family, params)


@pytest.mark.parametrize("lo,hi", [(-1e308, 1e308), (-math.inf, 1.0),
                                   (0.0, math.inf), (-math.inf, math.inf)])
def test_uniform_range_must_be_finite(lo, hi):
    # numpy's uniform sampler raises on such a range; the rule rejects it
    # without an overflow warning
    uniform = FAMILIES["uniform"]
    with np.errstate(all="raise"):
        assert not uniform.param_ok((lo, hi))
        ok = uniform.param_ok((np.array([lo, 0.0]), np.array([hi, 1.0])))
    assert ok.tolist() == [False, True]
    with pytest.raises(ParamError, match=re.escape(_RULES["uniform"])):
        DistInstance("uniform", (lo, hi))


def test_unknown_family_rejected():
    with pytest.raises(ParamError):
        DistInstance("cauchy", (0, 1))


# ---------------------------------------------------------------------------
# restriction

def test_restrict_uniform_half():
    r = restrict(DistInstance("uniform", (1, 5)), Interval(2.0, 4.0))
    assert r.mass == 0.5


def test_restrict_uniform_three_twentieths_exact():
    r = restrict(DistInstance("uniform", (0, 20)), Interval(7.0, 10.0, True, True))
    assert r.mass == 3 / 20


def test_restrict_full_support_is_identity_mass():
    d = DistInstance("uniform", (0, 20))
    assert restrict(d, Interval(-INF, INF, True, True)).mass == 1.0


def test_restrict_zero_mass_is_data_not_error():
    d = DistInstance("uniform", (0, 20))
    r = restrict(d, Interval(25.0, 30.0))
    assert r.mass == 0.0
    with pytest.raises(InfeasibleRestriction):
        r.sample(np.random.default_rng(0), 1)


def test_restriction_is_a_value_of_its_base_and_admitted_set():
    d = DistInstance("uniform", (0, 20))
    r = restrict(d, Interval(7.0, 10.0, True, True))
    twin = restrict(DistInstance("uniform", (0, 20)),
                    IntervalUnion((Interval(7.0, 10.0, True, True),)))
    assert r is not twin and r == twin and hash(r) == hash(twin)
    assert hash(r) == hash((r.base, r.admitted))  # the precomputed arrays
    assert repr(r) == repr(twin) == (              # take no part
        "RestrictedDist(base=DistInstance(family='uniform', "
        "params=(0.0, 20.0)), admitted=IntervalUnion(intervals=(Interval("
        "lo=7.0, hi=10.0, lo_open=True, hi_open=True),)))")
    with pytest.raises(AttributeError):
        r.mass = 0.0
    assert r != restrict(d, Interval(7.0, 10.0))
    assert r != restrict(DistInstance("uniform", (0, 40)),
                         Interval(7.0, 10.0, True, True))
    # == merges signed zeros, as labels do; repr keeps them apart
    neg = restrict(DistInstance("uniform", (-0.0, 1.0)), Interval(0.5, 1.0))
    pos = restrict(DistInstance("uniform", (0.0, 1.0)), Interval(0.5, 1.0))
    assert neg == pos and repr(neg) != repr(pos)


def test_restrict_mass_additive_over_disjoint_parts():
    d = DistInstance("normal", (1, 1))
    a = Interval(-1.0, 0.5)
    b = Interval(2.0, 3.5)
    both = restrict(d, IntervalUnion((a, b))).mass
    assert both == pytest.approx(restrict(d, a).mass + restrict(d, b).mass,
                                 abs=1e-9)


def test_restrict_discrete_honours_openness():
    d = DistInstance("poisson", (3,))
    closed = restrict(d, Interval(1.0, 3.0))
    open_ = restrict(d, Interval(1.0, 3.0, True, True))
    pmf = lambda k: float(d.fam.pdf(d.params, k))
    assert closed.mass == pytest.approx(pmf(1) + pmf(2) + pmf(3), abs=1e-12)
    assert open_.mass == pytest.approx(pmf(2), abs=1e-12)


def test_sample_restricted_stays_inside(rng):
    r = restrict(DistInstance("uniform", (0, 20)), Interval(7.0, 10.0, True, True))
    xs = r.sample(rng, size=100_000)
    assert ((xs > 7.0) & (xs < 10.0)).all()


def test_sample_restricted_union_of_segments(rng):
    d = DistInstance("uniform", (0, 10))
    adm = IntervalUnion((Interval(0.0, 1.0), Interval(8.0, 10.0)))
    r = restrict(d, adm)
    assert r.mass == pytest.approx(0.3)
    xs = r.sample(rng, size=50_000)
    assert all(adm.contains(float(x)) for x in xs[:500])
    low = (xs <= 1.0).mean()
    assert low == pytest.approx(1 / 3, abs=0.02)


def test_half_normal_mean_matches_quadrature(rng):
    d = DistInstance("normal", (0, 1))
    r = restrict(d, Interval(0.0, INF, False, True))
    n = 1_000_000
    xs = r.sample(rng, size=n)
    target, _ = integrate.quad(
        lambda x: x * stats.norm.pdf(x) / r.mass, 0.0, 40.0)
    assert target == pytest.approx(math.sqrt(2 / math.pi), abs=1e-9)
    se = xs.std(ddof=1) / math.sqrt(n)
    assert abs(xs.mean() - target) < 3 * se + 1e-4


def test_identity_restriction_matches_plain_sampling(rng):
    d = DistInstance("normal", (1, 1))
    r = restrict(d, Interval(-INF, INF, True, True))
    a = r.sample(rng, size=100_000)
    b = d.fam.sample(d.params, rng, size=100_000)
    ks = stats.ks_2samp(a, b)
    assert ks.pvalue > 0.01


@pytest.mark.parametrize("family,params,admitted", [
    ("uniform", (0, 20), Interval(7.0, 10.0, True, True)),
    ("normal", (1, 1), Interval(0.0, 2.0)),
    ("beta", (2, 5), Interval(0.25, 0.75)),
    ("gamma", (3, 3), Interval(0.5, 2.0)),
])
def test_restricted_sampler_matches_renormalized_density(rng, family, params, admitted):
    d = DistInstance(family, params)
    r = restrict(d, admitted)
    n = 100_000
    xs = r.sample(rng, size=n)
    edges = np.linspace(admitted.lo, admitted.hi, 21)
    expected = np.diff([float(cdf(d, e)) for e in edges]) / r.mass
    observed = np.histogram(xs, bins=edges)[0]
    res = stats.chisquare(observed, expected * n)
    assert res.pvalue > 0.01


def test_restricted_poisson_tail(rng):
    d = DistInstance("poisson", (6,))
    r = restrict(d, Interval(20.0, INF, False, True))
    xs = r.sample(rng, size=20_000)
    assert (xs >= 20).all()
    frac20 = (xs == 20.0).mean()
    expected = stats.poisson.pmf(20, 6) / r.mass
    assert frac20 == pytest.approx(expected, abs=0.02)


def test_scalar_sampling_api(rng):
    # a single draw is a batch of one
    d = DistInstance("uniform", (3, 4))
    v = d.fam.sample(d.params, rng, 1)[0]
    assert isinstance(v, float) and 3.0 <= v <= 4.0
    r = restrict(d, Interval(3.25, 3.5))
    v = r.sample(rng, 1)[0]
    assert isinstance(v, float) and 3.25 <= v <= 3.5


@pytest.mark.parametrize("family,params", [
    ("uniform", (0, 1)), ("normal", (0, 1)), ("bernoulli", (0.4,)),
    ("poisson", (3,)), ("beta", (2, 2)), ("gamma", (2, 1)),
])
def test_scalar_sampling_all_families(rng, family, params):
    d = DistInstance(family, params)
    sup = support(d)
    for xs in (d.fam.sample(d.params, rng, 20),
               restrict(d, sup).sample(rng, 20)):
        assert isinstance(xs, np.ndarray) and xs.dtype == np.float64
        assert xs.shape == (20,)
        assert all(sup.contains(v) for v in xs.tolist())


def test_draw_batch_flags_invalid_parameters(rng):
    a = np.array([0.0, 1.0, 2.0])  # beta shape 0 invalid
    values, bad = draw_batch("beta", (a, np.ones(3)), rng, 3)
    assert bad is not None and bad.tolist() == [True, False, False]
    values, bad = draw_batch("beta", (np.ones(3), np.ones(3)), rng, 3)
    assert bad is None


@pytest.mark.parametrize("family,params", [
    ("uniform", (-1.0, 2.5)), ("uniform", (1.0, 1.0)),
    ("normal", (1.0, 2.0)), ("normal", (0.0, -1.0)),
    ("bernoulli", (0.3,)), ("bernoulli", (1.5,)),
    ("poisson", (3.5,)), ("poisson", (-1.0,)),
    ("beta", (7.0, 1.0)), ("beta", (0.0, 1.0)),
    ("gamma", (2.0, 3.0)), ("gamma", (2.0, math.nan)),
])
def test_draw_batch_constant_parameters_match_broadcast_ones(family, params):
    # a draw whose parameters fold to constants gets Python floats; the
    # same values broadcast to arrays must draw the same numbers, flag the
    # same particles and leave the generator in the same state
    n = 1_000
    rng0, rng1 = np.random.default_rng(11), np.random.default_rng(11)
    v0, bad0 = draw_batch(family, params, rng0, n)
    v1, bad1 = draw_batch(family, [np.full(n, p) for p in params], rng1, n)
    assert v0.dtype == v1.dtype == np.float64
    assert v0.tobytes() == v1.tobytes()
    assert (bad0 is None) == (bad1 is None)
    if bad0 is not None:
        assert bad0.all() and np.array_equal(bad0, bad1)
    assert rng0.bit_generator.state == rng1.bit_generator.state


# ---------------------------------------------------------------------------
# beta(a, 1): inversion and closed forms

_BETA = DistInstance("beta", (1, 1)).fam


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 3.0, 8.0])
def test_beta_a_1_draws_follow_x_to_the_a(a):
    # the Kolmogorov-Smirnov test against the CDF x ** a; at this size the
    # same uniforms raised to a instead of 1 / a are rejected for a != 1
    n = 20_000
    draws = []
    for params in ((a, 1.0), (np.full(n, a), np.ones(n))):
        rng, clone = np.random.default_rng(31), np.random.default_rng(31)
        values, bad = draw_batch("beta", params, rng, n)
        assert bad is None
        assert stats.kstest(values, lambda x: _BETA.cdf((a, 1.0), x)).pvalue > 0.01
        # one uniform per draw
        u = clone.random(n)
        assert rng.bit_generator.state == clone.bit_generator.state
        draws.append(values)
    # numpy squares or takes the sqrt for a scalar power 2 or 0.5; a
    # constant a still draws the same numbers as a broadcast one
    assert draws[0].tobytes() == draws[1].tobytes()
    if a != 1.0:
        assert stats.kstest(u ** a, lambda x: _BETA.cdf((a, 1.0), x)).pvalue < 1e-6


@pytest.mark.parametrize("b", [
    5.0, np.where(np.arange(500) % 3 == 0, 1.0, 2.5),
], ids=["b=5", "b-mixes-1"])
def test_beta_with_b_other_than_1_draws_numpys_beta(b):
    n = 500
    a = np.full(n, 2.0)
    rng, clone = np.random.default_rng(8), np.random.default_rng(8)
    values, bad = draw_batch("beta", (a, b), rng, n)
    assert bad is None
    assert values.tobytes() == clone.beta(a, b, size=n).tobytes()
    assert rng.bit_generator.state == clone.bit_generator.state


@pytest.mark.parametrize("a", [
    0.5, 1.0, 2.0, 3.0, 8.0, np.array([[0.5], [2.0], [7.0], [40.0]]),
], ids=["0.5", "1", "2", "3", "8", "array"])
def test_beta_a_1_closed_forms_match_scipy(a):
    from scipy import special

    x = np.array([-0.5, 0.0, 1e-9, 0.01, 0.3, 0.5, 0.77, 0.999, 1.0, 1.5])
    np.testing.assert_allclose(_BETA.cdf((a, 1.0), x),
                               special.betainc(a, 1.0, np.clip(x, 0.0, 1.0)),
                               rtol=1e-12, atol=0.0)
    u = np.array([0.0, 1e-12, 0.001, 0.2, 0.5, 0.9, 0.999999, 1.0])
    np.testing.assert_allclose(_BETA.ppf((a, 1.0), u),
                               special.betaincinv(a, 1.0, u),
                               rtol=1e-12, atol=0.0)


def test_beta_inf_1_draws_nan_not_the_excluded_endpoint(rng):
    # numpy's beta draws nan at a = inf; U ** (1 / inf) would be 1.0, which
    # the half-open support [0, 1) excludes
    values, bad = draw_batch("beta", (INF, 1.0), rng, 4)
    assert bad is None and np.isnan(values).all()
    values, bad = draw_batch("beta", (np.array([INF, 2.0]), np.ones(2)), rng, 2)
    assert bad is None
    assert np.isnan(values[0]) and 0.0 <= values[1] < 1.0
