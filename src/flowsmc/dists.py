"""Distribution families: parameter validity, CDF, support, batched sampling,
and batched sampling restricted to a finite union of intervals.

Every draw is a batch: the particles of a run advance together, so both
`Family.sample` and `RestrictedDist.sample` take a size and return a float
array.  No draw is scored by a density; weights come only from observations
and restriction masses.

Restricted sampling works by inverse transform.  For a continuous family the
CDF image of each admitted interval is a segment of [0, 1]; a uniform draw is
rescaled into the union of those segments and pushed through the family's
`ppf`.  For a discrete family the admitted values and their probabilities
(`pdf`) form a table that a uniform draw indexes.  Admitted mass is the base
measure of the admitted set; zero mass is a legal result and signals an
infeasible restriction.

Intervals, their unions and the table of family names and arities live in
the pure-Python `intervals` module and are re-exported here.  The standard
transcendental functions come from scipy.special, loaded on first use: a run
whose draws are all uniform, Bernoulli or beta(a, 1) never imports scipy.
All stochastic entry points take an explicit numpy Generator.
"""
from __future__ import annotations

import math

import numpy as np

# Interval, IntervalUnion, FULL_LINE and ParamError are re-exported
from .intervals import (
    ARITY, FULL_LINE, INF, Interval, IntervalUnion, ParamError, family_name,
)
from .syntax import Node, ProbError


class InfeasibleRestriction(ProbError):
    """Attempt to sample from a restriction with zero admitted mass."""


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

    def interval_mass(self, params, iv: Interval) -> float:
        """P(X in iv) for a continuous family; endpoints count as closed."""
        cut = iv.intersect(self.support(params))
        if cut is None or cut.empty:
            return 0.0
        return float(self.cdf(params, cut.hi) - self.cdf(params, cut.lo))

    def _ints_in(self, params, iv: Interval):
        sup = self.support(params)
        cut = iv.intersect(sup)
        if cut is None:
            return
        lo = math.ceil(cut.lo)
        if cut.lo_open and lo == cut.lo:
            lo += 1
        hi_cap = self._tail_cutoff(params)
        hi = min(cut.hi, hi_cap)
        hi = math.floor(hi)
        if cut.hi_open and hi == cut.hi:
            hi -= 1
        k = lo
        while k <= hi:
            yield k
            k += 1

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


class RestrictedDist:
    """A distribution conditioned on a finite union of intervals.

    Immutable after construction; precomputes everything that depends only on
    the restriction: the CDF segments (continuous) or the admitted value
    table (discrete) used by the inverse transform, their total mass, and the
    open finite endpoints a draw may have to be nudged off.  It is a value:
    `repr`, == and the hash read only the base and the admitted set, from
    which everything else follows.
    """

    __slots__ = ("base", "admitted", "mass", "_fam", "_discrete", "_total",
                 "_seg_lo", "_seg_hi", "_seg_c", "_seg_cum", "_seg_prev",
                 "_open_ends", "_values", "_val_cum")

    def __init__(self, base: DistInstance, admitted: IntervalUnion):
        fam = base.fam
        cut = admitted.intersect(fam.support(base.params))
        self.base = base
        self.admitted = cut
        self._fam = fam
        self._discrete = fam.discrete
        self._total = 0.0
        self._seg_lo = self._seg_hi = self._seg_c = self._seg_cum = None
        self._seg_prev = None
        self._values = self._val_cum = None
        # (segment, open endpoint, nearest admitted float) in interval order
        self._open_ends = ()
        if fam.discrete:
            values = []
            probs = []
            for iv in cut.intervals:
                for k in fam._ints_in(base.params, iv):
                    values.append(float(k))
                    probs.append(float(fam.pdf(base.params, k)))
            self._values = np.asarray(values, dtype=float)
            probs = np.asarray(probs, dtype=float)
            self.mass = float(probs.sum())
            if self.mass > 0.0:
                self._val_cum = np.cumsum(probs)
                self._total = float(self._val_cum[-1])
        else:
            masses = [fam.interval_mass(base.params, iv) for iv in cut.intervals]
            self.mass = float(sum(masses))
            if self.mass > 0.0:
                self._seg_lo = np.asarray([iv.lo for iv in cut.intervals])
                self._seg_hi = np.asarray([iv.hi for iv in cut.intervals])
                self._seg_c = np.asarray(
                    [float(fam.cdf(base.params, iv.lo)) for iv in cut.intervals])
                self._seg_cum = np.cumsum(np.asarray(masses, dtype=float))
                self._seg_prev = np.concatenate(([0.0], self._seg_cum[:-1]))
                self._total = float(self._seg_cum[-1])
                ends = []
                for j, iv in enumerate(cut.intervals):
                    if iv.lo_open and math.isfinite(iv.lo):
                        ends.append((j, iv.lo, np.nextafter(iv.lo, INF)))
                    if iv.hi_open and math.isfinite(iv.hi):
                        ends.append((j, iv.hi, np.nextafter(iv.hi, -INF)))
                self._open_ends = tuple(ends)

    def sample(self, rng, size: int) -> np.ndarray:
        if self.mass <= 0.0:
            raise InfeasibleRestriction(
                f"restriction of {self.base} to {self.admitted} has zero mass")
        u = rng.random(size) * self._total
        if self._discrete:
            idx = np.searchsorted(self._val_cum, u, side="left")
            idx = np.minimum(idx, len(self._values) - 1)
            return self._values[idx]
        if len(self._seg_cum) == 1:
            # every draw lands in the one segment, whose offset is 0.0
            idx = 0
            v = self._seg_c[0] + u
        else:
            idx = np.searchsorted(self._seg_cum, u, side="left")
            idx = np.minimum(idx, len(self._seg_cum) - 1)
            v = self._seg_c[idx] + (u - self._seg_prev[idx])
        # ndarray.clip: the same ufunc as np.clip, without its dispatch layer
        out = self._fam.ppf(self.base.params, v.clip(0.0, 1.0))
        out = out.clip(self._seg_lo[idx], self._seg_hi[idx])
        for j, end, inside in self._open_ends:
            hit = (idx == j) & (out == end)
            if hit.any():
                out = np.where(hit, inside, out)
        return out

    def __str__(self):
        return f"{self.base} | {self.admitted}"

    def __repr__(self):
        return f"RestrictedDist({self.base!r}, {self.admitted!r})"

    def __eq__(self, other):
        return (isinstance(other, RestrictedDist) and self.base == other.base
                and self.admitted == other.admitted)

    def __hash__(self):
        return hash((self.base, self.admitted))


def restrict(d: DistInstance, admitted) -> RestrictedDist:
    """Condition `d` on an admitted set (an IntervalUnion, an Interval, or a
    sequence of intervals).  Zero admitted mass is returned, not raised."""
    if isinstance(admitted, Interval):
        admitted = IntervalUnion((admitted,))
    elif not isinstance(admitted, IntervalUnion):
        admitted = IntervalUnion(tuple(admitted))
    return RestrictedDist(d, admitted)


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
