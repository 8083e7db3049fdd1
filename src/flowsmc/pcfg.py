"""Control-flow graphs for desugared programs, complete-flow enumeration, and
straight-line program extraction.

Locations are integers numbered breadth-first from the initial location, so
flow identifiers are stable across runs.  Each location has a kind:

    det     two outgoing edges observing a guard and then its negation
    draw    one outgoing probabilistic-assignment edge
    assign  one outgoing deterministic-assignment edge
    weight  one outgoing soft-conditioning edge
    final   no outgoing edges

Every edge carries a `syntax.Assign`, `Draw` or `Weight`; a det location's
two carry `Weight(Indicator(phi))` and `Weight(Indicator(!phi))`, one object
each, shared by every flow through the edge.

A complete control flow is a path from the initial location ending at the
final location; its id is the `-`-joined list of the locations it visits,
and `find_flow` walks an id back to its flow.  Its straight-line program is
the labels of the edges it takes.
"""
from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Optional, Union

from .syntax import (
    ARITY, Assign, Command, Draw, Expr, If, IfP, Indicator, Node, ProbError,
    Program, Seq, Skip, UnaryOp, Weight, While, command_list, family_name,
    pretty_expr,
)

DET, DRAW, ASSIGN, WEIGHT, FINAL = "det", "draw", "assign", "weight", "final"

# the default cap on the locations of an enumerated flow, for the sampler
# and for `flowsmc run` and `flowsmc flows`
MAX_FLOW_LEN = 400


class Transition(Node):
    def __init__(self, src: int, dst: int, label: Union[Assign, Draw, Weight]):
        d = self.__dict__
        d["src"], d["dst"], d["label"] = src, dst, label


class Pcfg(Node):
    def __init__(self, kinds: tuple, variables: tuple, l_init: int,
                 l_final: int, sigma_init: dict, e_final: Expr, out: tuple):
        d = self.__dict__
        d["kinds"], d["variables"] = kinds, variables
        d["l_init"], d["l_final"] = l_init, l_final
        d["sigma_init"], d["e_final"] = sigma_init, e_final
        d["out"] = out  # out[loc] = tuple of Transitions, guard edge first

    @property
    def n_locations(self) -> int:
        return len(self.kinds)


class PcfgError(ProbError):
    pass


# --------------------------------------------------------------------------
# construction


def build_pcfg(program: Program) -> Pcfg:
    """Translate a desugared program into its control-flow graph."""
    kinds: list = []
    edges: list = []  # parallel to kinds; list of (dst, label)

    def new_loc(kind: str) -> int:
        kinds.append(kind)
        edges.append([])
        return len(kinds) - 1

    l_final = new_loc(FINAL)

    def branch(loc: int, guard: Expr, taken: int, not_taken: int) -> int:
        # the observations of the guard and its negation, built once per loc
        edges[loc].append((taken, Weight(Indicator(guard))))
        edges[loc].append((not_taken, Weight(Indicator(UnaryOp("!", guard)))))
        return loc

    def translate(c: Command, nxt: int) -> int:
        if isinstance(c, Skip):
            return nxt
        if isinstance(c, Seq):
            entry = nxt
            for sub in reversed(command_list(c)):
                entry = translate(sub, entry)
            return entry
        if isinstance(c, Assign):
            loc = new_loc(ASSIGN)
            edges[loc].append((nxt, c))
            return loc
        if isinstance(c, Draw):
            family = family_name(c.family)
            if len(c.params) != ARITY[family]:
                raise PcfgError(
                    f"{family} takes {ARITY[family]} parameters, "
                    f"got {len(c.params)} in draw of '{c.var}'")
            loc = new_loc(DRAW)
            edges[loc].append((nxt, Draw(c.var, family, c.params)))
            return loc
        if isinstance(c, Weight):
            loc = new_loc(WEIGHT)
            edges[loc].append((nxt, c))
            return loc
        if isinstance(c, If):
            then_entry = translate(c.then_branch, nxt)
            else_entry = translate(c.else_branch, nxt)
            if then_entry == else_entry:
                return nxt  # both branches empty; their guards sum to 1
            return branch(new_loc(DET), c.guard, then_entry, else_entry)
        if isinstance(c, While):
            loc = new_loc(DET)
            return branch(loc, c.guard, translate(c.body, loc), nxt)
        if isinstance(c, IfP):
            raise PcfgError("program must be desugared before CFG construction")
        raise PcfgError(f"cannot translate {c!r}")

    l_init = translate(program.body, l_final)

    # renumber breadth-first from l_init for readable, reproducible ids
    order = []
    seen = {l_init}
    queue = deque([l_init])
    while queue:
        loc = queue.popleft()
        order.append(loc)
        for dst, _ in edges[loc]:
            if dst not in seen:
                seen.add(dst)
                queue.append(dst)
    renum = {old: new for new, old in enumerate(order)}

    kinds2 = tuple(kinds[old] for old in order)
    out2 = tuple(
        tuple(Transition(renum[old], renum[dst], label) for dst, label in edges[old])
        for old in order
    )
    return Pcfg(
        kinds=kinds2,
        variables=tuple(d.name for d in program.decls),
        l_init=renum[l_init],
        l_final=renum[l_final],
        sigma_init=program.initial_state,
        e_final=program.result,
        out=out2,
    )


# --------------------------------------------------------------------------
# validation


def validate(g: Pcfg) -> list:
    """Structural conditions on locations and labels; violations are data."""
    violations = []
    for loc, kind in enumerate(g.kinds):
        edges = g.out[loc]
        if kind == DET:
            if len(edges) != 2:
                violations.append(f"l{loc}: det location with {len(edges)} edges")
            else:
                a, b = (t.label for t in edges)
                if not (isinstance(a, Weight) and isinstance(a.pred, Indicator)
                        and b == Weight(Indicator(UnaryOp("!", a.pred.formula)))):
                    violations.append(
                        f"l{loc}: det edges must observe a guard, then its negation")
        elif kind == FINAL:
            if edges:
                violations.append(f"l{loc}: final location has outgoing edges")
        else:
            expected = {DRAW: Draw, ASSIGN: Assign, WEIGHT: Weight}[kind]
            if len(edges) != 1:
                violations.append(f"l{loc}: {kind} location with {len(edges)} edges")
            elif not isinstance(edges[0].label, expected):
                violations.append(f"l{loc}: {kind} location with a {type(edges[0].label).__name__}")
    reachable = {g.l_init}
    queue = deque([g.l_init])
    while queue:
        loc = queue.popleft()
        for t in g.out[loc]:
            if t.dst not in reachable:
                reachable.add(t.dst)
                queue.append(t.dst)
    for loc in range(g.n_locations):
        if loc not in reachable:
            violations.append(f"l{loc}: unreachable from the initial location")
    return violations


# --------------------------------------------------------------------------
# control flows


class ControlFlow(Node):
    def __init__(self, start: int, steps: tuple):
        # steps: Transitions
        d = self.__dict__
        d["start"], d["steps"] = start, steps

    @property
    def locations(self) -> tuple:
        return (self.start,) + tuple(t.dst for t in self.steps)

    @property
    def last(self) -> int:
        return self.steps[-1].dst if self.steps else self.start

    def is_complete(self, g: Pcfg) -> bool:
        return self.last == g.l_final

    @cached_property
    def flow_id(self) -> str:
        return "-".join(str(loc) for loc in self.locations)

    def __len__(self):
        return len(self.steps) + 1


class FlowEnumerator:
    """Breadth-first cursor over the complete control flows of a pCFG.

    Flows come out in order of increasing length, with the guard edge
    explored before the negated edge.  `max_len` bounds the number of
    locations in a path; pruned paths mark the enumerator as truncated.
    """

    def __init__(self, g: Pcfg, max_len: Optional[int] = None):
        self.g = g
        self.max_len = max_len
        self._queue = deque([ControlFlow(g.l_init, ())])
        self.hit_length_cap = False
        self.emitted = 0

    @property
    def exhausted(self) -> bool:
        return not self._queue

    def next_complete(self) -> Optional[ControlFlow]:
        while self._queue:
            path = self._queue.popleft()
            last = path.last
            if last == self.g.l_final:
                self.emitted += 1
                return path
            if self.max_len is not None and len(path) >= self.max_len:
                self.hit_length_cap = True
                continue
            for t in self.g.out[last]:
                self._queue.append(ControlFlow(path.start, path.steps + (t,)))
        return None


def find_flow(g: Pcfg, flow_id: str) -> ControlFlow:
    """The complete flow with id `flow_id`, found by walking the id through
    the graph, taking between two locations the first edge, which is the one
    enumeration explores first.  Raises PcfgError where the walk breaks."""
    want = flow_id.strip()
    first, *rest = want.split("-")
    if first != str(g.l_init):
        raise PcfgError(f"flow id {want!r} starts at {first!r}, not at the "
                        f"initial location {g.l_init}")
    steps, at = [], g.l_init
    for pos, token in enumerate(rest, start=2):
        step = next((t for t in g.out[at] if str(t.dst) == token), None)
        if step is None:
            raise PcfgError(f"flow id {want!r}: no edge from {at} to "
                            f"{token!r} (location {pos})")
        steps.append(step)
        at = step.dst
    if at != g.l_final:
        raise PcfgError(f"flow id {want!r} ends at {at}, not at the final "
                        f"location {g.l_final}")
    return ControlFlow(g.l_init, tuple(steps))


# --------------------------------------------------------------------------
# straight-line programs


class StraightLineProgram(Node):
    def __init__(self, variables: tuple, sigma_init: dict, steps: tuple,
                 e_final: Expr, flow_id: str = ""):
        # steps: Assign, Draw and Weight statements
        d = self.__dict__
        d["variables"], d["sigma_init"] = variables, sigma_init
        d["steps"], d["e_final"], d["flow_id"] = steps, e_final, flow_id

    def describe(self) -> str:
        lines = [f"// flow {self.flow_id}" if self.flow_id else "// straight-line"]
        init = ", ".join(f"{v} = {self.sigma_init[v]!r}" for v in self.variables)
        lines.append(f"// init: {init}")
        for s in self.steps:
            lines.append(f"{s};")
        lines.append(f"return {pretty_expr(self.e_final)};")
        return "\n".join(lines)


def straight_line(g: Pcfg, flow: ControlFlow) -> StraightLineProgram:
    """Turn a complete flow into a branch-free program: the labels of the
    edges it takes, so every traversed guard is the observation of the
    branch that was taken."""
    if not flow.is_complete(g):
        raise PcfgError("straight_line needs a complete control flow")
    return StraightLineProgram(
        variables=g.variables,
        sigma_init=dict(g.sigma_init),
        steps=tuple(t.label for t in flow.steps),
        e_final=g.e_final,
        flow_id=flow.flow_id,
    )
