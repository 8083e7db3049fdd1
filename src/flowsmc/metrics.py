"""Evaluation metrics and per-benchmark ground truths.

KL divergence is measured from the ground truth to the weighted empirical
distribution over a shared binning: exact categories for discrete return
domains, 64 equal-width bins spanning the ground truth's 0.1%..99.9% quantile
range for continuous ones.  Weight on values outside a categorical truth's
categories forms one more cell, where the truth has no mass; weight outside
the bins of a continuous truth is dropped.  Empirical bins that are empty
where the ground truth has mass receive an additive floor of 1/(2n) before
renormalization, so the divergence stays finite but large; unsmoothed mode
returns infinity instead.  Weights must be finite and nonnegative, and some
weight must fall where the ground truth has mass.

Ground truths are either closed forms (validated against the brute-force
rejection oracle) or reference sample sets produced by that oracle.
"""
from __future__ import annotations

import inspect
import math
import re
from typing import Callable, Optional

import numpy as np

from .syntax import Node, ProbError


class MetricsError(ProbError):
    pass


def summarize(values, weights):
    """Weighted mean and weighted (population) standard deviation."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if total <= 0.0:
        raise MetricsError("total weight must be positive")
    mean = float((weights * values).sum() / total)
    var = float((weights * (values - mean) ** 2).sum() / total)
    return mean, math.sqrt(max(var, 0.0))


# --------------------------------------------------------------------------
# ground truths


class GroundTruth(Node):
    def __init__(self, kind: str, categories: Optional[dict] = None,
                 cdf: Optional[Callable] = None,
                 quantile: Optional[Callable] = None,
                 samples: Optional[np.ndarray] = None, label: str = ""):
        d = self.__dict__
        d["kind"] = kind  # "categorical" | "density" | "samples"
        d["categories"] = categories  # value -> mass
        d["cdf"], d["quantile"] = cdf, quantile
        d["samples"], d["label"] = samples, label

    def bin_edges(self, bins: int) -> np.ndarray:
        if self.kind == "density":
            lo = float(self.quantile(0.001))
            hi = float(self.quantile(0.999))
        elif self.kind == "samples":
            if not len(self.samples):
                raise MetricsError(f"reference {self.label} has no samples")
            lo = float(np.quantile(self.samples, 0.001))
            hi = float(np.quantile(self.samples, 0.999))
        else:
            raise MetricsError("categorical ground truth has no bin edges")
        if not hi > lo:
            hi = lo + 1.0
        return np.linspace(lo, hi, bins + 1)

    def binned_masses(self, edges: np.ndarray) -> np.ndarray:
        if self.kind == "density":
            cdf_vals = np.array([self.cdf(e) for e in edges], dtype=float)
            masses = np.diff(cdf_vals)
        else:
            masses = _bin_sums(edges, self.samples).astype(float)
        total = masses.sum()
        if total <= 0.0:
            raise MetricsError("ground truth mass vanished on the binning")
        return masses / total


def _bin_sums(edges, values, weights=None):
    """Count, or total weight, of the values in each bin.  A bin holds its
    left edge, the last bin both edges; values outside all bins count nowhere."""
    idx = np.clip(np.searchsorted(edges, values, side="right") - 1,
                  0, len(edges) - 2)
    inside = (values >= edges[0]) & (values <= edges[-1])
    w = None if weights is None else weights[inside]
    return np.bincount(idx[inside], weights=w, minlength=len(edges) - 1)


def _empirical_categorical(categories, values, weights):
    """The share of the total weight on each category, and the share on
    values outside them all."""
    cat = np.asarray(list(categories), dtype=float)
    masses = np.zeros(len(cat))
    total = weights.sum()
    for i, c in enumerate(cat):
        masses[i] = weights[values == c].sum()
    outside = weights[~np.isin(values, cat)].sum()
    return masses / total, outside / total


def kl_divergence(gt: GroundTruth, values, weights,
                  bins: int = 64, smoothing: bool = True) -> float:
    """KL(ground truth || weighted empirical) over the shared binning."""
    if bins < 1:
        raise MetricsError(f"need at least one bin, got {bins}")
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    bad = ~np.isfinite(weights) | (weights < 0.0)
    if bad.any():
        raise MetricsError(f"weight {float(weights[bad][0])!r} is not finite and "
                           "nonnegative")
    if len(values) == 0 or weights.sum() <= 0.0:
        raise MetricsError("need samples with positive total weight")
    outside = 0.0  # a binned truth drops the weight outside its bins
    if gt.kind == "categorical":
        cats = sorted(gt.categories)
        p = np.array([gt.categories[c] for c in cats], dtype=float)
        p = p / p.sum()
        # the weight outside the categories is one more cell, where p is 0
        q, outside = _empirical_categorical(cats, values, weights)
    else:
        edges = gt.bin_edges(bins)
        p = gt.binned_masses(edges)
        q = _bin_sums(edges, values, weights) / weights.sum()
    if not q[p > 0.0].sum() > 0.0:
        raise MetricsError("no sample weight falls where the ground truth "
                           "has mass")
    hungry = (p > 0.0) & (q <= 0.0)
    if hungry.any():
        if not smoothing:
            return float("inf")
        eps = 1.0 / (2.0 * len(values))
        q = np.where(hungry, eps, q)
    q = q / (q.sum() + outside)
    mask = p > 0.0
    kl = float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
    # float summation may dip a hair below zero on exact matches
    return max(kl, 0.0) if kl > -1e-9 else kl


# --------------------------------------------------------------------------
# per-benchmark ground truths


def _coin_truth(bias=0.36) -> GroundTruth:
    # normalization cancels the bias: the two disagreeing outcomes carry
    # equal posterior mass for any bias in (0, 1)
    return GroundTruth("categorical", categories={1.0: 0.5, 0.0: 0.5},
                       label=f"coin({bias})")


def _unif_cd_truth(t0=10) -> GroundTruth:
    # the integer depth t is at least 1, and t >= t0 holds exactly when the
    # draw is at most 2^(1 - max(ceil(t0), 1))
    hi = 2.0 ** (1 - max(math.ceil(t0), 1))
    return GroundTruth(
        "density",
        cdf=lambda x: min(max(x / hi, 0.0), 1.0),
        quantile=lambda u: u * hi,
        label=f"unifCd({t0})",
    )


def _geom_it_truth(r=0.5, x0=5) -> GroundTruth:
    # iteration count is geometric with success probability 1 - r,
    # conditioned on reaching at least x0 iterations
    if not 0.0 <= r < 1.0:
        raise MetricsError(f"geomIt({r},{x0}): needs 0 <= r < 1")
    lo = max(int(math.ceil(x0)), 0)
    cats = {}
    k = lo
    mass = 1.0
    while mass > 1e-13:
        pk = (r ** (k - lo)) * (1.0 - r)  # renormalized tail is again geometric
        cats[float(k)] = pk
        mass -= pk
        k += 1
    return GroundTruth("categorical", categories=cats, label=f"geomIt({r},{x0})")


def _pois_cd_truth(rate=6, x0=20) -> GroundTruth:
    if not 0.0 < rate < math.inf:
        raise MetricsError(f"poisCd({rate},{x0}): needs a finite rate > 0")
    from scipy import special

    lo = max(int(math.ceil(x0)), 0)
    tail = float(special.gammainc(lo, rate)) if lo > 0 else 1.0  # P(M >= lo)
    if not tail > 0.0:
        raise MetricsError("conditioning event has vanishing mass")
    cats = {}
    logp = -rate
    pk = math.exp(logp)
    for k in range(0, lo):
        pk = pk * rate / (k + 1)
    # pk now equals pmf(lo)
    k = lo
    acc = 0.0
    while acc < 1.0 - 1e-13:
        cats[float(k)] = pk / tail
        acc += pk / tail
        k += 1
        pk = pk * rate / k
    return GroundTruth("categorical", categories=cats,
                       label=f"poisCd({rate},{x0})")


def _mixed_truth(p=0) -> GroundTruth:
    from scipy import special

    from . import dists

    w1 = 1.0 - float(special.ndtr(p))  # P(threshold exceeded)
    comp1 = dists.DistInstance("normal", (10.0, 2.0))
    comp2 = dists.DistInstance("gamma", (3.0, 3.0))

    def cdf_(x):
        return w1 * float(dists.cdf(comp1, x)) + (1 - w1) * float(dists.cdf(comp2, x))

    def quantile(u):
        lo, hi = -50.0, 50.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if cdf_(mid) < u:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return GroundTruth("density", cdf=cdf_, quantile=quantile,
                       label=f"mixed({p})")


def _rejection_truth(name, params, n_accept, rng, max_attempts) -> GroundTruth:
    from . import baselines, benchmarks

    g = benchmarks.build(name, *params)
    values = []
    got = 0
    attempts = 0
    batch = max(int(n_accept), 10_000)
    while got < n_accept:
        if attempts >= max_attempts:
            raise MetricsError(
                f"rejection oracle for {name}{tuple(params)} too slow: "
                f"{got}/{n_accept} accepted after {attempts} attempts")
        w, x = baselines.baseline_rejection(g, batch, rng)
        keep = x[w > 0.0]
        values.append(keep)
        got += len(keep)
        attempts += batch
    sample = np.concatenate(values)[: int(n_accept)]
    return GroundTruth("samples", samples=sample,
                       label=f"{name}{tuple(params)} (rejection)")


_CLOSED_FORMS = {
    "coin": _coin_truth,
    "unifCd": _unif_cd_truth,
    "geomIt": _geom_it_truth,
    "poisCd": _pois_cd_truth,
    "mixed": _mixed_truth,
}

_REJECTION_NAMES = ("unifCd2", "poisCd2", "geomIt2", "obsLoop", "condDemo")


def has_closed_form(name: str) -> bool:
    return name in _CLOSED_FORMS


def _check_arity(name: str, fn: Callable, params: tuple) -> None:
    try:
        inspect.signature(fn).bind(*params)
    except TypeError as err:
        raise MetricsError(f"ground truth {name}{params}: {err}") from None


def ground_truth(name: str, *params, rng=None, n_accept: int = 1_000_000,
                 max_attempts: int = 200_000_000) -> GroundTruth:
    if name in _CLOSED_FORMS:
        _check_arity(name, _CLOSED_FORMS[name], params)
        return _CLOSED_FORMS[name](*params)
    if name in _REJECTION_NAMES:
        from . import benchmarks

        _check_arity(name, benchmarks.SOURCES[name], params)
        if rng is None:
            rng = np.random.default_rng(20_2020)
        return _rejection_truth(name, params, n_accept, rng, max_attempts)
    raise MetricsError(f"no ground truth registered for '{name}'")


def parse_gt_spec(spec: str) -> tuple:
    """Parse "name(p1, p2)" into (name, params)."""
    m = re.fullmatch(r"\s*([A-Za-z][A-Za-z0-9]*)\s*(?:\(([^)]*)\))?\s*", spec)
    if not m:
        raise MetricsError(f"cannot parse ground-truth spec {spec!r}")
    name = m.group(1)
    params = ()
    if m.group(2):
        try:
            params = tuple(float(tok) for tok in m.group(2).split(",")
                           if tok.strip())
        except ValueError:
            raise MetricsError(f"cannot parse ground-truth spec {spec!r}") from None
    return name, params
