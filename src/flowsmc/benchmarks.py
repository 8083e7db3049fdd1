"""Benchmark program sources, written in the canonical concrete syntax.

`source(name, *params)` renders a program; `build(name, *params)` parses,
desugars, and returns its control-flow graph.  The geometric-iteration
variant with the in-loop beta draw shifts the shape parameter by one so the
first iteration draws from a valid distribution.
"""
from __future__ import annotations

from .frontend import desugar, parse_source
from .pcfg import Pcfg, build_pcfg
from .syntax import Program, format_number


def coin(bias=0.36) -> str:
    b = format_number(bias)
    return f"""// biased-coin pair conditioned on disagreement
bool c1 := true;
bool c2 := true;
ifp ({b}) {{
  c1 := true;
}} else {{
  c1 := false;
}}
ifp ({b}) {{
  c2 := true;
}} else {{
  c2 := false;
}}
observe(!(c1 = c2));
return c1;
"""


def obs_loop(x0=3, n0=5) -> str:
    return f"""// random walk with an in-loop observation
double x := 0.0;
double y := 0.0;
int n := 0;
while (x < {format_number(x0)}) {{
  n := n + 1;
  y ~ normal(1, 1);
  observe(0 <= y && y <= 2);
  x := x + y;
}}
observe(n >= {format_number(n0)});
return n;
"""


def cond_demo() -> str:
    return """// uniform start pushed across a threshold by beta increments
double x := 0.0;
double y := 0.0;
x ~ unif(0, 20);
while (x < 10) {
  y ~ beta(1, 1);
  x := x + y;
}
return x;
"""


def unif_cd(t0=10) -> str:
    return f"""// halving threshold: loop depth measures -log2 of the draw
double p := 0.0;
double q := 1.0;
int t := 0;
p ~ unif(0, 1);
while (p <= q) {{
  q := q / 2;
  t := t + 1;
}}
observe(t >= {format_number(t0)});
return p;
"""


def unif_cd2(t0=10) -> str:
    return f"""double p := 0.0;
double q := 1.0;
double x := 0.0;
double y := 0.0;
int t := 0;
p ~ unif(0, 1);
while (p <= q) {{
  q := q / 2;
  y ~ normal(1, 1);
  x := x + y;
  t := t + 1;
}}
observe(t >= {format_number(t0)});
return x;
"""


def pois_cd(rate=6, x0=20) -> str:
    return f"""// count down a Poisson draw, conditioning on its size
int m := 0;
double x := 0.0;
int n := 0;
m ~ poisson({format_number(rate)});
n := m;
while (0 < n) {{
  x := x + 1;
  n := n - 1;
}}
observe(x >= {format_number(x0)});
return m;
"""


def pois_cd2(rate=6, x0=20) -> str:
    return f"""int m := 0;
double x := 0.0;
int n := 0;
double y := 0.0;
m ~ poisson({format_number(rate)});
n := m;
while (0 < n) {{
  y ~ unif(1, 1.25);
  x := x + y;
  n := n - 1;
}}
observe(x >= {format_number(x0)});
return m;
"""


def geom_it(r=0.5, x0=5) -> str:
    return f"""// geometric iteration count with a lower bound on it
int n := 0;
double c := 0.0;
double x := 0.0;
c ~ unif(0, 1);
while (c <= {format_number(r)}) {{
  n := n + 1;
  x := x + 1;
  c ~ unif(0, 1);
}}
observe(x >= {format_number(x0)});
return n;
"""


def geom_it2(r=0.5, x0=5) -> str:
    return f"""int n := 0;
double c := 0.0;
double x := 0.0;
double y := 0.0;
c ~ unif(0, 1);
while (c <= {format_number(r)}) {{
  y ~ beta(n + 1, 1);
  n := n + 1;
  x := x + y;
  c ~ unif(0, 1);
}}
observe(x >= {format_number(x0)});
return n;
"""


def mixed(p=0) -> str:
    return f"""// two-component mixture selected by a normal threshold
double x := 0.0;
double y := 0.0;
x ~ normal(0, 1);
if (x > {format_number(p)}) {{
  y ~ normal(10, 2);
}} else {{
  y ~ gamma(3, 3);
}}
return y;
"""


SOURCES = {
    "coin": coin,
    "obsLoop": obs_loop,
    "condDemo": cond_demo,
    "unifCd": unif_cd,
    "unifCd2": unif_cd2,
    "poisCd": pois_cd,
    "poisCd2": pois_cd2,
    "geomIt": geom_it,
    "geomIt2": geom_it2,
    "mixed": mixed,
}


def source(name: str, *params) -> str:
    if name not in SOURCES:
        raise KeyError(f"unknown benchmark '{name}'; have {sorted(SOURCES)}")
    return SOURCES[name](*params)


def program(name: str, *params) -> Program:
    return desugar(parse_source(source(name, *params)))


def build(name: str, *params) -> Pcfg:
    return build_pcfg(program(name, *params))
