import pytest

from flowsmc import benchmarks
from flowsmc.frontend import desugar, parse_source
from flowsmc.pcfg import (
    ControlFlow, FlowEnumerator, Pcfg, PcfgError, Transition, build_pcfg,
    find_flow, straight_line, validate,
)
from flowsmc.syntax import Assign, Const, Draw, Indicator, UnaryOp, Var, Weight

from conftest import first_flows, nth_flow


def test_obs_loop_graph_shape():
    g = benchmarks.build("obsLoop", 3, 5)
    assert g.n_locations == 7
    kinds = sorted(g.kinds)
    assert kinds == sorted(["det", "assign", "draw", "weight", "assign",
                            "weight", "final"])
    # back edge: the in-loop accumulator assignment returns to the guard
    back = [t for edges in g.out for t in edges
            if t.dst == g.l_init and isinstance(t.label, Assign)]
    assert len(back) == 1 and back[0].label.var == "x"
    assert validate(g) == []
    assert g.sigma_init == {"x": 0.0, "y": 0.0, "n": 0.0}


def test_sugar_rejected():
    p = parse_source(benchmarks.source("coin", 0.36))
    with pytest.raises(PcfgError, match="desugar"):
        build_pcfg(p)


@pytest.mark.parametrize("name,params", [
    ("coin", (0.36,)), ("obsLoop", (3, 5)), ("condDemo", ()),
    ("unifCd", (4,)), ("poisCd", (3, 4)), ("geomIt", (0.5, 2)),
    ("mixed", (0,)), ("unifCd2", (3,)), ("poisCd2", (3, 4)),
    ("geomIt2", (0.5, 2)),
])
def test_benchmarks_validate(name, params):
    assert validate(benchmarks.build(name, *params)) == []


def test_validate_flags_bad_det_location():
    g = benchmarks.build("obsLoop", 3, 5)
    guard_loc = g.l_init
    assert g.kinds[guard_loc] == "det"
    taken, not_taken = g.out[guard_loc]
    phi = taken.label.pred.formula

    def with_det_edges(edges):
        return Pcfg(
            kinds=g.kinds, variables=g.variables, l_init=g.l_init,
            l_final=g.l_final, sigma_init=g.sigma_init, e_final=g.e_final,
            out=tuple(edges if loc == guard_loc else out
                      for loc, out in enumerate(g.out)),
        )

    def relabel(t, label):
        return Transition(t.src, t.dst, label)

    problems = validate(with_det_edges((taken,)))
    assert any(f"l{guard_loc}" in p and "1 edges" in p for p in problems)
    broken = [
        (not_taken, taken),  # the negated edge first
        (taken, relabel(not_taken, Weight(UnaryOp("!", phi)))),  # not observed
        (taken, relabel(not_taken, Weight(Indicator(phi)))),  # not negated
        (taken, relabel(not_taken, Assign("x", Const(0.0)))),
    ]
    for edges in broken:
        problems = validate(with_det_edges(edges))
        assert [p for p in problems if p.startswith(f"l{guard_loc}:")], edges


def test_validate_flags_unreachable_location():
    g = benchmarks.build("condDemo")
    extra = Pcfg(
        kinds=g.kinds + ("assign",), variables=g.variables, l_init=g.l_init,
        l_final=g.l_final, sigma_init=g.sigma_init, e_final=g.e_final,
        out=g.out + ((Transition(g.n_locations, g.l_final,
                                 Assign("x", Const(0.0))),),),
    )
    assert any("unreachable" in p for p in validate(extra))


def test_chain_program_single_flow():
    g = build_pcfg(parse_source(
        "double x := 0.0;\nx ~ unif(0, 1);\nx := x + 1;\nreturn x;"))
    cursor = FlowEnumerator(g)
    first = cursor.next_complete()
    assert first is not None and first.is_complete(g)
    assert cursor.next_complete() is None
    assert cursor.exhausted


def test_coin_graph_has_two_branch_locations():
    g = benchmarks.build("coin", 0.36)
    assert g.kinds.count("det") == 2


def test_coin_has_four_flows():
    flows = first_flows(benchmarks.build("coin", 0.36), 10)
    assert len(flows) == 4
    assert len({f.flow_id for f in flows}) == 4


def test_obs_loop_flow_pattern():
    g = benchmarks.build("obsLoop", 3, 5)
    flows = first_flows(g, 4)
    base = flows[0].locations
    cycle = flows[1].locations[1:-len(base) + 1]
    # flow n = init, n copies of the loop cycle, then the exit suffix
    for n, flow in enumerate(flows):
        expected = (g.l_init,) + cycle * n + base[1:]
        assert flow.locations == expected
        assert len(flow.locations) == len(base) + n * len(cycle)


def test_obs_loop_flow_lengths_follow_loop_size():
    g = benchmarks.build("obsLoop", 3, 5)
    flows = first_flows(g, 11)
    sizes = [len(f.locations) for f in flows]
    assert sizes == [sizes[0] + 5 * n for n in range(11)]
    assert sizes[0] == 3  # guard, exit observation, final


def test_flows_unique_and_length_ordered():
    g = benchmarks.build("unifCd", 3)
    flows = first_flows(g, 20)
    ids = [f.flow_id for f in flows]
    assert len(set(ids)) == len(ids)
    lengths = [len(f) for f in flows]
    assert lengths == sorted(lengths)


def test_flow_length_end_and_id_agree_with_locations():
    g = benchmarks.build("obsLoop", 3, 5)
    cursor = FlowEnumerator(g)
    paths = [ControlFlow(g.l_init, ())] + first_flows(g, 6)
    paths.append(ControlFlow(g.l_init, paths[-1].steps[:4]))  # incomplete
    for flow in paths:
        locs = flow.locations
        assert len(flow) == len(locs) and flow.last == locs[-1]
        assert flow.is_complete(g) == (locs[-1] == g.l_final)
        assert flow.flow_id == "-".join(map(str, locs))
        assert flow.flow_id is flow.flow_id  # built once per flow
    assert cursor.next_complete().flow_id == paths[1].flow_id


def test_guard_edge_explored_first():
    # binary-branch program: the guard-true flow enumerates first
    g = build_pcfg(benchmarks.program("mixed", 0))
    flows = first_flows(g, 2)
    first_guard = flows[0].steps[1]
    assert g.kinds[first_guard.src] == "det"
    assert first_guard is g.out[first_guard.src][0]


def test_max_len_cap():
    g = benchmarks.build("condDemo")
    cursor = FlowEnumerator(g, max_len=8)
    flows = []
    while True:
        f = cursor.next_complete()
        if f is None:
            break
        flows.append(f)
    assert cursor.exhausted and cursor.hit_length_cap
    assert all(len(f) <= 8 for f in flows)


def test_find_flow_round_trips():
    for name in sorted(benchmarks.SOURCES):
        g = benchmarks.build(name)
        for f in first_flows(g, 40):
            found = find_flow(g, f" {f.flow_id}\n")
            assert found == f and found.flow_id == f.flow_id, (name, f.flow_id)
            # the graph's own transitions, not equal copies
            assert all(a is b for a, b in zip(found.steps, f.steps))


def sequential_ifs(n):
    """A program with n sequential two-way branches: 2^n flows, all of one
    length, the last of which takes every negated edge."""
    branches = "".join(f"if (x > {k}) {{ y := y + 1; }} else {{ y := y - 1; }}\n"
                       for k in range(n))
    return ("double x := 0.0; double y := 0.0; x ~ normal(0, 1);\n"
            f"{branches}return y;")


def last_flow_id(g):
    """Id of the flow that takes the last edge out of every location."""
    locs = [g.l_init]
    while locs[-1] != g.l_final:
        locs.append(g.out[locs[-1]][-1].dst)
    return "-".join(map(str, locs))


def test_find_flow_walks_the_id_without_enumerating(monkeypatch):
    small = build_pcfg(desugar(parse_source(sequential_ifs(3))))
    flows = first_flows(small, 100)
    assert len(flows) == 8 and flows[-1].flow_id == last_flow_id(small)

    def no_search(self):
        raise AssertionError("find_flow enumerated flows")

    monkeypatch.setattr(FlowEnumerator, "next_complete", no_search)
    g = build_pcfg(desugar(parse_source(sequential_ifs(14))))
    flow = find_flow(g, last_flow_id(g))
    assert flow.is_complete(g) and flow.flow_id == last_flow_id(g)
    guards = [t for t in flow.steps if g.kinds[t.src] == "det"]
    assert len(guards) == 14 and all(t is g.out[t.src][1] for t in guards)


def test_straight_line_matches_loop_unrolling():
    g = benchmarks.build("obsLoop", 3, 5)
    s = straight_line(g, nth_flow(g, 1))
    labels = s.steps
    # guard in, body, guard out, final observation
    assert isinstance(labels[0], Weight) and isinstance(labels[0].pred, Indicator)
    assert isinstance(labels[1], Assign) and labels[1].var == "n"
    assert isinstance(labels[2], Draw) and labels[2].family == "normal"
    assert isinstance(labels[3], Weight)
    assert isinstance(labels[4], Assign) and labels[4].var == "x"
    assert isinstance(labels[5], Weight)
    neg = labels[5].pred.formula
    assert isinstance(neg, UnaryOp) and neg.op == "!"
    assert isinstance(labels[6], Weight)
    assert s.e_final == Var("n")
    assert all(isinstance(lab, (Assign, Draw, Weight))
               for lab in labels)


@pytest.mark.parametrize("name,params,n", [
    ("obsLoop", (3, 5), 4), ("unifCd", (4,), 5), ("coin", (0.36,), 2),
])
def test_observation_count_equals_guard_traversals(name, params, n):
    g = benchmarks.build(name, *params)
    flow = nth_flow(g, n)
    guards = sum(1 for t in flow.steps if g.kinds[t.src] == "det")
    s = straight_line(g, flow)
    observations = sum(1 for lab in s.steps
                       if isinstance(lab, Weight) and isinstance(lab.pred, Indicator))
    weights_in_program = sum(1 for lab in s.steps if isinstance(lab, Weight))
    assert observations == weights_in_program  # all via observe in these sources
    # guard observations plus the source-level observes traversed
    assert observations >= guards
    draws = sum(1 for lab in s.steps if isinstance(lab, Draw))
    assert draws == sum(1 for t in flow.steps if isinstance(t.label, Draw))


def test_straight_line_requires_complete_flow():
    g = benchmarks.build("coin", 0.36)
    partial = ControlFlow(g.l_init, ())
    with pytest.raises(PcfgError, match="complete"):
        straight_line(g, partial)
