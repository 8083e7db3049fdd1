"""Intervals, finite unions of intervals, and the table of distribution
family names and arities: the part of the distribution layer that parsing
and graph building need.

Pure Python, so the symbolic level (parse, control-flow graph, flow
enumeration) imports no numeric library.  `dists` re-exports these objects
and builds its families on the same table.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .syntax import Node, ProbError

INF = float("inf")


class ParamError(ProbError):
    """Distribution parameters outside the family's legal range."""


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
# family names


# canonical family name -> number of parameters
ARITY = {"uniform": 2, "normal": 2, "bernoulli": 1, "poisson": 1, "beta": 2,
         "gamma": 2}
ALIASES = {"unif": "uniform", "bern": "bernoulli", "pois": "poisson"}


def family_name(name: str) -> str:
    """The canonical name of a family, resolving case and aliases."""
    key = name.lower()
    key = ALIASES.get(key, key)
    if key not in ARITY:
        raise ParamError(f"unknown distribution family '{name}'")
    return key
