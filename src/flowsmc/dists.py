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

Numeric kernels lean on scipy.special for the standard transcendental
functions.  All stochastic entry points take an explicit numpy Generator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import special

from .syntax import ProbError

INF = float("inf")


class ParamError(ProbError):
    """Distribution parameters outside the family's legal range."""


class InfeasibleRestriction(ProbError):
    """Attempt to sample from a restriction with zero admitted mass."""


# --------------------------------------------------------------------------
# intervals


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        if self.lo > self.hi:
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


class IntervalUnion:
    """Finite union of disjoint intervals, kept sorted by lower endpoint."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: Sequence[Interval] = ()):
        kept = sorted((iv for iv in intervals if not iv.empty),
                      key=lambda iv: (iv.lo, iv.lo_open))
        merged: list = []
        for iv in kept:
            if merged:
                last = merged[-1]
                touching = (iv.lo < last.hi
                            or (iv.lo == last.hi and not (iv.lo_open and last.hi_open)))
                if touching:
                    if (iv.hi, not iv.hi_open) > (last.hi, not last.hi_open):
                        merged[-1] = Interval(last.lo, iv.hi, last.lo_open, iv.hi_open)
                    continue
            merged.append(iv)
        self.intervals = tuple(merged)

    @classmethod
    def full(cls) -> "IntervalUnion":
        return cls((FULL_LINE,))

    @property
    def empty(self) -> bool:
        return not self.intervals

    def contains(self, x: float) -> bool:
        return any(iv.contains(x) for iv in self.intervals)

    def intersect(self, other) -> "IntervalUnion":
        if isinstance(other, Interval):
            other = IntervalUnion((other,))
        out = []
        for a in self.intervals:
            for b in other.intervals:
                c = a.intersect(b)
                if c is not None and not c.empty:
                    out.append(c)
        return IntervalUnion(out)

    def complement(self) -> "IntervalUnion":
        """Exactly the points of the line that this union does not contain."""
        out = []
        lo, lo_open = -INF, True
        for iv in self.intervals:
            # The gap may be a single point: two intervals that leave a
            # shared endpoint open both exclude it.
            gap = Interval(lo, iv.lo, lo_open, not iv.lo_open)
            if not gap.empty:
                out.append(gap)
            lo, lo_open = iv.hi, not iv.hi_open
        if lo < INF:
            out.append(Interval(lo, INF, lo_open, True))
        return IntervalUnion(out)

    def __eq__(self, other):
        return isinstance(other, IntervalUnion) and self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

    def __str__(self):
        if not self.intervals:
            return "{}"
        return " u ".join(str(iv) for iv in self.intervals)

    def __repr__(self):
        return f"IntervalUnion({list(self.intervals)!r})"


# --------------------------------------------------------------------------
# families


class Family:
    """A parametric family.  `param_ok` is its one validity rule, elementwise
    over (possibly array-valued) parameters, and `param_rule` states it.
    A continuous family also has `cdf` and its inverse `ppf`; a discrete one
    has `pdf`, its point probabilities."""

    name = ""
    n_params = 0
    discrete = False
    param_rule = ""
    safe_params: tuple = ()

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
    n_params = 2
    param_rule = "needs lo < hi"
    safe_params = (0.0, 1.0)

    def param_ok(self, params):
        lo, hi = params
        return np.asarray(lo) < np.asarray(hi)

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
    n_params = 2
    param_rule = "needs sd > 0"
    safe_params = (0.0, 1.0)

    def param_ok(self, params):
        _, sd = params
        return np.asarray(sd) > 0

    def cdf(self, params, x):
        mu, sd = params
        return special.ndtr((np.asarray(x, dtype=float) - mu) / sd)

    def ppf(self, params, u):
        mu, sd = params
        return mu + sd * special.ndtri(np.asarray(u, dtype=float))

    def support(self, params):
        return FULL_LINE

    def sample(self, params, rng, size):
        mu, sd = params
        return rng.normal(mu, sd, size=size)


class Bernoulli(Family):
    name = "bernoulli"
    n_params = 1
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
    n_params = 1
    discrete = True
    param_rule = "needs rate > 0"
    safe_params = (1.0,)

    def param_ok(self, params):
        (rate,) = params
        return np.asarray(rate) > 0

    def pdf(self, params, x):
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
    name = "beta"
    n_params = 2
    param_rule = "needs a > 0 and b > 0"
    safe_params = (1.0, 1.0)

    def param_ok(self, params):
        a, b = params
        return (np.asarray(a) > 0) & (np.asarray(b) > 0)

    def cdf(self, params, x):
        a, b = params
        return special.betainc(a, b, np.clip(np.asarray(x, dtype=float), 0.0, 1.0))

    def ppf(self, params, u):
        a, b = params
        return special.betaincinv(a, b, np.asarray(u, dtype=float))

    def support(self, params):
        # half-open on the right by convention
        return Interval(0.0, 1.0, hi_open=True)

    def sample(self, params, rng, size):
        a, b = params
        return rng.beta(a, b, size=size)


class Gamma(Family):
    """Shape / rate parameterization: gamma(k, rate) has mean k / rate."""

    name = "gamma"
    n_params = 2
    param_rule = "needs shape > 0 and rate > 0"
    safe_params = (1.0, 1.0)

    def param_ok(self, params):
        k, rate = params
        return (np.asarray(k) > 0) & (np.asarray(rate) > 0)

    def cdf(self, params, x):
        k, rate = params
        return special.gammainc(k, rate * np.maximum(np.asarray(x, dtype=float), 0.0))

    def ppf(self, params, u):
        k, rate = params
        return special.gammaincinv(k, np.asarray(u, dtype=float)) / rate

    def support(self, params):
        return Interval(0.0, INF, lo_open=True, hi_open=True)

    def sample(self, params, rng, size):
        k, rate = params
        return rng.gamma(k, 1.0 / rate, size=size)


FAMILIES = {fam.name: fam for fam in
            (Uniform(), Normal(), Bernoulli(), Poisson(), Beta(), Gamma())}
ALIASES = {"unif": "uniform", "bern": "bernoulli", "pois": "poisson"}


def lookup_family(name: str) -> Family:
    key = name.lower()
    key = ALIASES.get(key, key)
    if key not in FAMILIES:
        raise ParamError(f"unknown distribution family '{name}'")
    return FAMILIES[key]


# --------------------------------------------------------------------------
# instances


@dataclass(frozen=True)
class DistInstance:
    family: str
    params: tuple

    def __post_init__(self):
        fam = lookup_family(self.family)
        if len(self.params) != fam.n_params:
            raise ParamError(
                f"{fam.name} takes {fam.n_params} parameters, got {len(self.params)}")
        if not fam.param_ok(self.params):
            raise ParamError(f"{fam.name}{tuple(self.params)}: {fam.param_rule}")
        object.__setattr__(self, "family", fam.name)
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))

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
    open finite endpoints a draw may have to be nudged off.
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


def restrict(d: DistInstance, admitted) -> RestrictedDist:
    """Condition `d` on an admitted set (an IntervalUnion, an Interval, or a
    sequence of intervals).  Zero admitted mass is returned, not raised."""
    if isinstance(admitted, Interval):
        admitted = IntervalUnion((admitted,))
    elif not isinstance(admitted, IntervalUnion):
        admitted = IntervalUnion(tuple(admitted))
    return RestrictedDist(d, admitted)


def draw_batch(family: str, params, rng, size: int):
    """Draw `size` values with possibly array-valued parameters.

    Entries with invalid parameters are drawn from the family's fallback
    parameters and flagged in the returned bad-mask (None when all valid).
    """
    fam = lookup_family(family)
    arrs = [np.asarray(p, dtype=float) for p in params]
    ok = np.broadcast_to(fam.param_ok(arrs), (size,)) if any(a.ndim for a in arrs) \
        else bool(fam.param_ok(arrs))
    if ok is True or (not isinstance(ok, bool) and ok.all()):
        return fam.sample(arrs, rng, size), None
    if ok is False:
        bad = np.ones(size, dtype=bool)
        safe = list(fam.safe_params)
    else:
        bad = ~ok
        safe = [np.where(ok, np.broadcast_to(a, (size,)), s)
                for a, s in zip(arrs, fam.safe_params)]
    return fam.sample(safe, rng, size), bad
