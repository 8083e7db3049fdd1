"""Distribution families: parameter validity, CDF, support, batched sampling,
and batched sampling restricted to one interval less finitely many points.

Every draw is a batch: the particles of a run advance together, so both
`Family.sample` and `RestrictedDist.sample` take a size and return a float
array.  No draw is scored by a density; weights come only from observations
and restriction masses.

Restricted sampling works by inverse transform.  For a continuous family the
CDF image of the admitted interval is one segment of [0, 1]; a uniform draw
is rescaled into it and pushed through the family's `ppf`.  For a discrete
family the admitted values and their probabilities (`pdf`) form a table
that a uniform draw indexes; the points a disequality excludes are left out
of it.  Admitted mass is the base measure of the admitted set; zero mass is
a legal result and signals an infeasible restriction.

Intervals live here; the table of family names and arities is `syntax`'s,
which parsing reads without loading numpy.  The standard transcendental
functions come from scipy.special, loaded on first use: a run whose draws
are all uniform, Bernoulli or beta(a, 1) never imports scipy.  All
stochastic entry points take an explicit numpy Generator.
"""
from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .syntax import ARITY, Node, ParamError, ProbError, family_name

INF = float("inf")


class InfeasibleRestriction(ProbError):
    """Attempt to sample from a restriction with zero admitted mass."""


# --------------------------------------------------------------------------
# intervals


class Interval(Node):
    def __init__(self, lo: float, hi: float, lo_open: bool = False,
                 hi_open: bool = False):
        d = self.__dict__
        d["lo"], d["hi"], d["lo_open"], d["hi_open"] = lo, hi, lo_open, hi_open
        if lo > hi:
            raise ValueError(f"interval with lo > hi: {self}")

    @property
    def empty(self) -> bool:
        return self.lo == self.hi and (self.lo_open or self.hi_open)

    def contains(self, x: float) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and self.lo_open:
            return False
        if x == self.hi and self.hi_open:
            return False
        return True

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        if self.lo > other.lo or (self.lo == other.lo and self.lo_open):
            lo, lo_open = self.lo, self.lo_open
        else:
            lo, lo_open = other.lo, other.lo_open
        if self.hi < other.hi or (self.hi == other.hi and self.hi_open):
            hi, hi_open = self.hi, self.hi_open
        else:
            hi, hi_open = other.hi, other.hi_open
        if lo > hi or (lo == hi and (lo_open or hi_open)):
            return None
        return Interval(lo, hi, lo_open, hi_open)

    def __str__(self):
        lb = "(" if self.lo_open or self.lo == -INF else "["
        rb = ")" if self.hi_open or self.hi == INF else "]"
        return f"{lb}{self.lo}, {self.hi}{rb}"


FULL_LINE = Interval(-INF, INF, True, True)


# --------------------------------------------------------------------------
# families


class Family:
    """A parametric family.  `param_ok` is its one validity rule, elementwise
    over (possibly array-valued) parameters, and `param_rule` states it.
    A continuous family also has `cdf` and its inverse `ppf`; a discrete one
    has `pdf`, its point probabilities."""

    name = ""
    discrete = False
    param_rule = ""
    safe_params: tuple = ()

    @property
    def n_params(self) -> int:
        return ARITY[self.name]

    def param_ok(self, params):
        raise NotImplementedError

    def support(self, params) -> Interval:
        raise NotImplementedError

    def sample(self, params, rng, size: int) -> np.ndarray:
        raise NotImplementedError

    def interval_mass(self, params, cut: Interval) -> float:
        """P(X in cut) for a continuous family and a nonempty `cut` inside
        its support; endpoints count as closed."""
        return float(self.cdf(params, cut.hi) - self.cdf(params, cut.lo))

    def _ints_in(self, params, cut: Interval) -> range:
        """The integers of `cut`, a nonempty interval inside the support,
        up to the family's tail cutoff."""
        lo = math.ceil(cut.lo)
        if cut.lo_open and lo == cut.lo:
            lo += 1
        hi = math.floor(min(cut.hi, self._tail_cutoff(params)))
        if cut.hi_open and hi == cut.hi:
            hi -= 1
        return range(lo, hi + 1)

    def _tail_cutoff(self, params) -> float:
        return 1.0


class Uniform(Family):
    name = "uniform"
    param_rule = "needs lo < hi and a finite hi - lo"
    safe_params = (0.0, 1.0)

    def param_ok(self, params):
        # numpy's sampler rejects a range that overflows, such as that of
        # (-1e308, 1e308) or (-inf, 1)
        lo, hi = np.asarray(params[0]), np.asarray(params[1])
        with np.errstate(over="ignore", invalid="ignore"):
            return (lo < hi) & np.isfinite(hi - lo)

    def cdf(self, params, x):
        lo, hi = params
        return np.clip((np.asarray(x, dtype=float) - lo) / (hi - lo), 0.0, 1.0)

    def ppf(self, params, u):
        lo, hi = params
        return lo + np.asarray(u, dtype=float) * (hi - lo)

    def support(self, params):
        lo, hi = params
        return Interval(float(lo), float(hi))

    def sample(self, params, rng, size):
        lo, hi = params
        return rng.uniform(lo, hi, size=size)

    def interval_mass(self, params, iv):
        # direct length ratio keeps dyadic-exact masses exact, e.g. 3/20
        lo, hi = params
        a = max(float(iv.lo), float(lo))
        b = min(float(iv.hi), float(hi))
        if b <= a:
            return 0.0
        return (b - a) / (hi - lo)


class Normal(Family):
    name = "normal"
    param_rule = "needs sd > 0"
    safe_params = (0.0, 1.0)

    def param_ok(self, params):
        _, sd = params
        return np.asarray(sd) > 0

    def cdf(self, params, x):
        from scipy import special

        mu, sd = params
        return special.ndtr((np.asarray(x, dtype=float) - mu) / sd)

    def ppf(self, params, u):
        from scipy import special

        mu, sd = params
        return mu + sd * special.ndtri(np.asarray(u, dtype=float))

    def support(self, params):
        return FULL_LINE

    def sample(self, params, rng, size):
        mu, sd = params
        return rng.normal(mu, sd, size=size)


class Bernoulli(Family):
    name = "bernoulli"
    discrete = True
    param_rule = "needs p in [0, 1]"
    safe_params = (0.5,)

    def param_ok(self, params):
        (p,) = params
        pa = np.asarray(p)
        return (pa >= 0.0) & (pa <= 1.0)

    def pdf(self, params, x):
        (p,) = params
        xa = np.asarray(x, dtype=float)
        return np.where(xa == 1.0, p, np.where(xa == 0.0, 1.0 - p, 0.0))

    def support(self, params):
        return Interval(0.0, 1.0)

    def sample(self, params, rng, size):
        (p,) = params
        return (rng.random(size) < p).astype(float)


class Poisson(Family):
    name = "poisson"
    discrete = True
    param_rule = "needs rate > 0"
    safe_params = (1.0,)

    def param_ok(self, params):
        (rate,) = params
        return np.asarray(rate) > 0

    def pdf(self, params, x):
        from scipy import special

        (rate,) = params
        xa = np.asarray(x, dtype=float)
        ok = (xa >= 0) & (xa == np.floor(xa))
        k = np.where(ok, xa, 0.0)
        logp = k * math.log(rate) - rate - special.gammaln(k + 1.0)
        return np.where(ok, np.exp(logp), 0.0)

    def support(self, params):
        return Interval(0.0, INF, hi_open=True)

    def sample(self, params, rng, size):
        (rate,) = params
        return rng.poisson(rate, size=size).astype(float)

    def _tail_cutoff(self, params):
        (rate,) = params
        # beyond this the remaining tail mass is < ~1e-12 for moderate rates
        return math.ceil(rate + 40.0 * math.sqrt(rate) + 50.0)


class Beta(Family):
    """beta(a, b).  With b = 1 the CDF is x ** a, so `cdf`, `ppf` and
    `sample` use that closed form and its inverse (the inversion method,
    Devroye, Non-Uniform Random Variate Generation, 1986, II.2) and never
    load scipy; `sample` then takes one uniform per draw.  Any other b
    goes through scipy.special and numpy's beta sampler."""

    name = "beta"
    param_rule = "needs a > 0 and b > 0"
    safe_params = (1.0, 1.0)

    def param_ok(self, params):
        a, b = params
        return (np.asarray(a) > 0) & (np.asarray(b) > 0)

    def cdf(self, params, x):
        a, b = params
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        if _all_ones(b):
            return x ** a
        from scipy import special

        return special.betainc(a, b, x)

    def ppf(self, params, u):
        a, b = params
        u = np.asarray(u, dtype=float)
        if _all_ones(b):
            return u ** (1.0 / a)
        from scipy import special

        return special.betaincinv(a, b, u)

    def support(self, params):
        # half-open on the right by convention
        return Interval(0.0, 1.0, hi_open=True)

    def sample(self, params, rng, size, exponents=None):
        """With b = 1, `exponents` (a one-item list, or None) keeps the
        largest exponent array built so far, for a caller whose a is the
        same constant at every draw; a smaller draw uses its head."""
        a, b = params
        if not _all_ones(b):
            return rng.beta(a, b, size=size)
        inv = None if exponents is None else exponents[0]
        if inv is None or len(inv) < size:
            # The exponent is a full array even for a scalar a: numpy raises
            # to a scalar 2 or 0.5 by squaring or sqrt, which round
            # differently from the elementwise power, and a constant a must
            # draw the same numbers as that a broadcast to every particle.
            inv = np.ones(size) / a
            # a = inf would draw U ** 0 = 1.0, outside the support;
            # rng.beta draws nan there, and so does this
            inv[inv == 0.0] = np.nan
            if exponents is not None:
                exponents[0] = inv
        return rng.random(size) ** inv[:size]


def _all_ones(b) -> bool:
    return bool((np.asarray(b) == 1.0).all())


class Gamma(Family):
    """Shape / rate parameterization: gamma(k, rate) has mean k / rate."""

    name = "gamma"
    param_rule = "needs shape > 0 and rate > 0"
    safe_params = (1.0, 1.0)

    def param_ok(self, params):
        k, rate = params
        return (np.asarray(k) > 0) & (np.asarray(rate) > 0)

    def cdf(self, params, x):
        from scipy import special

        k, rate = params
        return special.gammainc(k, rate * np.maximum(np.asarray(x, dtype=float), 0.0))

    def ppf(self, params, u):
        from scipy import special

        k, rate = params
        return special.gammaincinv(k, np.asarray(u, dtype=float)) / rate

    def support(self, params):
        return Interval(0.0, INF, lo_open=True, hi_open=True)

    def sample(self, params, rng, size):
        k, rate = params
        return rng.gamma(k, 1.0 / rate, size=size)


FAMILIES = {fam.name: fam for fam in
            (Uniform(), Normal(), Bernoulli(), Poisson(), Beta(), Gamma())}


def lookup_family(name: str) -> Family:
    return FAMILIES[family_name(name)]


# --------------------------------------------------------------------------
# instances


class DistInstance(Node):
    def __init__(self, family: str, params: tuple):
        fam = lookup_family(family)
        if len(params) != fam.n_params:
            raise ParamError(
                f"{fam.name} takes {fam.n_params} parameters, got {len(params)}")
        if not fam.param_ok(params):
            raise ParamError(f"{fam.name}{tuple(params)}: {fam.param_rule}")
        d = self.__dict__
        d["family"], d["params"] = fam.name, tuple(float(p) for p in params)

    @property
    def fam(self) -> Family:
        return FAMILIES[self.family]

    @property
    def discrete(self) -> bool:
        return self.fam.discrete

    def __str__(self):
        args = ", ".join(repr(p) for p in self.params)
        return f"{self.family}({args})"


def cdf(d: DistInstance, x):
    return d.fam.cdf(d.params, x)


def support(d: DistInstance) -> Interval:
    return d.fam.support(d.params)


# --------------------------------------------------------------------------
# restriction


class RestrictedDist(Node):
    """A distribution conditioned on one interval less finitely many points.

    The fields are `base`; `admitted`, the given interval cut to the
    support, or None where nothing is left; and `excluded`, the given
    points that lie strictly inside the cut, in ascending order.  An
    excluded point at a closed end of the cut opens that end instead, and
    one outside the cut is dropped, so equal admitted sets give equal
    restrictions.  Only a discrete family takes excluded points; for a
    continuous one they would remove no mass, and ValueError is raised.

    `__init__` also precomputes, outside the fields, everything that
    depends only on the restriction: the mass and, only where it is
    positive (the one case in which `sample` reads them), the admitted
    value table (discrete) or the CDF offset of the cut and its open finite
    ends, which a draw may have to be nudged off (continuous).  The fields
    determine all of it, so the repr, == and the hash read only them.
    """

    def __init__(self, base: DistInstance, admitted: Interval,
                 excluded: Sequence[float] = ()):
        fam = base.fam
        if excluded and not fam.discrete:
            raise ValueError(f"{base} is continuous and excludes no points")
        cut = admitted.intersect(fam.support(base.params))
        points = set(excluded)
        if cut is not None and points:
            cut = Interval(cut.lo, cut.hi, cut.lo_open or cut.lo in points,
                           cut.hi_open or cut.hi in points)
            cut = None if cut.empty else cut
        excluded = () if cut is None else tuple(
            sorted(p for p in points if cut.lo < p < cut.hi))
        d = self.__dict__
        d["base"], d["admitted"], d["excluded"] = base, cut, excluded
        d["_fam"], d["_discrete"] = fam, fam.discrete
        d["mass"] = 0.0
        if cut is None:
            return
        if fam.discrete:
            values = [float(k) for k in fam._ints_in(base.params, cut)
                      if k not in excluded]
            probs = np.asarray([float(fam.pdf(base.params, k)) for k in values],
                               dtype=float)
            d["mass"] = float(probs.sum())
            if self.mass > 0.0:
                d["_values"] = np.asarray(values, dtype=float)
                d["_val_cum"] = np.cumsum(probs)
                d["_total"] = float(self._val_cum[-1])
        else:
            d["mass"] = d["_total"] = fam.interval_mass(base.params, cut)
            if self.mass > 0.0:
                d["_c"] = float(fam.cdf(base.params, cut.lo))
                # (open endpoint, nearest admitted float)
                d["_open_ends"] = tuple(
                    (end, np.nextafter(end, toward))
                    for end, is_open, toward in ((cut.lo, cut.lo_open, INF),
                                                 (cut.hi, cut.hi_open, -INF))
                    if is_open and math.isfinite(end))

    def sample(self, rng, size: int) -> np.ndarray:
        if self.mass <= 0.0:
            raise InfeasibleRestriction(f"restriction of {self.base} to "
                                        f"{self.admitted_text()} has zero mass")
        u = rng.random(size) * self._total
        if self._discrete:
            idx = np.searchsorted(self._val_cum, u, side="left")
            idx = np.minimum(idx, len(self._values) - 1)
            return self._values[idx]
        # ndarray.clip: the same ufunc as np.clip, without its dispatch layer
        out = self._fam.ppf(self.base.params, (self._c + u).clip(0.0, 1.0))
        out = out.clip(self.admitted.lo, self.admitted.hi)
        for end, inside in self._open_ends:
            hit = out == end
            if hit.any():
                out = np.where(hit, inside, out)
        return out

    def admitted_text(self) -> str:
        """The admitted set as the union of the pieces of the cut between
        its excluded points, e.g. `(0.0, 3.0) u (3.0, inf)`; `{}` if empty."""
        iv = self.admitted
        if iv is None:
            return "{}"
        pieces, lo, lo_open = [], iv.lo, iv.lo_open
        for p in self.excluded:
            pieces.append(Interval(lo, p, lo_open, True))
            lo, lo_open = p, True
        pieces.append(Interval(lo, iv.hi, lo_open, iv.hi_open))
        return " u ".join(map(str, pieces))

    def __str__(self):
        return f"{self.base} | {self.admitted_text()}"


def restrict(d: DistInstance, admitted: Interval,
             excluded: Sequence[float] = ()) -> RestrictedDist:
    """Condition `d` on `admitted` less the `excluded` points.  Zero
    admitted mass is returned, not raised."""
    return RestrictedDist(d, admitted, excluded)


def draw_batch(family: str, params, rng, size: int, exponents=None):
    """Draw `size` values with possibly array-valued parameters.

    Entries with invalid parameters are drawn from the family's fallback
    parameters and flagged in the returned bad-mask (None when all valid).
    `exponents` is the memo of `Beta.sample`, for a beta(a, 1) draw whose
    a is a constant; valid parameters draw through it.
    """
    fam = lookup_family(family)
    arrs = [np.asarray(p, dtype=float) for p in params]
    ok = np.asarray(fam.param_ok(arrs))
    if ok.all():
        if exponents is not None:
            return fam.sample(arrs, rng, size, exponents), None
        return fam.sample(arrs, rng, size), None
    safe = [np.where(ok, a, s) for a, s in zip(arrs, fam.safe_params)]
    return fam.sample(safe, rng, size), np.broadcast_to(~ok, (size,)).copy()
