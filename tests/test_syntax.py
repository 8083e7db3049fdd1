"""The value classes built on `syntax.Node`: repr, equality, hashing,
immutability and construction, as a frozen dataclass would give them."""
import pytest

from flowsmc import benchmarks
from flowsmc.condprop import Atom, LinTerm, SymbolicPredicate
from flowsmc.dists import DistInstance, Interval
from flowsmc.frontend import Token
from flowsmc.metrics import GroundTruth
from flowsmc.pcfg import ControlFlow, StraightLineProgram, Transition
from flowsmc.sampler import FlowIds, RunConfig
from flowsmc.smc import Op
from flowsmc.syntax import (
    Assign, BinaryOp, Const, Decl, Draw, If, IfP, Indicator, Program, Seq,
    Skip, UnaryOp, Var, Weight, While,
)

from conftest import nth_flow

X, ONE = Var("x"), Const(1.0)
LIN = LinTerm.make({"x": 1.0}, -2.0)
SAMPLES = [
    (X, "Var(name='x')"),
    (ONE, "Const(value=1.0, type='double')"),
    (Const(0.0, "bool"), "Const(value=0.0, type='bool')"),
    (UnaryOp("-", X), "UnaryOp(op='-', operand=Var(name='x'))"),
    (BinaryOp("+", X, ONE), "BinaryOp(op='+', left=Var(name='x'), "
                            "right=Const(value=1.0, type='double'))"),
    (Indicator(X), "Indicator(formula=Var(name='x'))"),
    (Skip(), "Skip()"),
    (Assign("x", ONE), "Assign(var='x', expr=Const(value=1.0, type='double'))"),
    (Draw("x", "normal", (ONE, ONE)),
     "Draw(var='x', family='normal', params=(Const(value=1.0, type='double'), "
     "Const(value=1.0, type='double')), restriction=None)"),
    (Weight(X), "Weight(pred=Var(name='x'))"),
    (Seq((Skip(),)), "Seq(commands=(Skip(),))"),
    (If(X, Skip(), Skip()),
     "If(guard=Var(name='x'), then_branch=Skip(), else_branch=Skip())"),
    (IfP(0.5, Skip(), Skip()),
     "IfP(prob=0.5, then_branch=Skip(), else_branch=Skip())"),
    (While(X, Skip()), "While(guard=Var(name='x'), body=Skip())"),
    (Decl("x", "double", ONE),
     "Decl(name='x', type='double', init=Const(value=1.0, type='double'))"),
    (Program((), Skip(), X),
     "Program(decls=(), body=Skip(), result=Var(name='x'))"),
    (Token("int", "3", 1, 5), "Token(kind='int', text='3', line=1, col=5)"),
    (Interval(0.0, 1.0, hi_open=True),
     "Interval(lo=0.0, hi=1.0, lo_open=False, hi_open=True)"),
    (Transition(0, 1, Weight(X)),
     "Transition(src=0, dst=1, label=Weight(pred=Var(name='x')))"),
    (ControlFlow(0, ()), "ControlFlow(start=0, steps=())"),
    # the reprs the dataclasses of the sampling modules printed
    (DistInstance("pois", (3,)), "DistInstance(family='poisson', params=(3.0,))"),
    (LIN, "LinTerm(coeffs=(('x', 1.0),), const=-2.0)"),
    (Atom(LIN, ">="),
     "Atom(lin=LinTerm(coeffs=(('x', 1.0),), const=-2.0), op='>=')"),
    (SymbolicPredicate(), "SymbolicPredicate(const=1.0, atoms=(), fuzzy=())"),
    (RunConfig(), "RunConfig(budget=1000, particles=100, "
                  "weight_mode='per-arm', seed=0, max_flow_len=400)"),
]


@pytest.mark.parametrize("obj,text", SAMPLES,
                         ids=[type(o).__name__ for o, _ in SAMPLES])
def test_node_repr_equality_hash_and_immutability(obj, text):
    assert repr(obj) == text
    fields = tuple(obj.__dict__.values())
    twin = type(obj)(*fields)
    assert twin == obj and twin is not obj and not twin != obj
    assert hash(obj) == hash(fields)
    assert obj.__eq__("something else") is NotImplemented
    with pytest.raises(AttributeError):
        obj.x = 1
    with pytest.raises(AttributeError):
        delattr(obj, next(iter(obj.__dict__), "x"))


def test_flow_ids_repr_and_unhashable_list():
    ids = FlowIds(["0-1"], 2)
    assert repr(ids) == "FlowIds(keys=['0-1'], particles=2)"
    assert ids == FlowIds(["0-1"], 2) and list(ids) == ["0-1", "0-1"]
    with pytest.raises(TypeError):
        hash(ids)


@pytest.mark.parametrize("obj,field", [
    (RunConfig(), "budget"), (RunConfig(), "seed"),
    (DistInstance("uniform", (0, 1)), "family"),
    (DistInstance("uniform", (0, 1)), "params"),
], ids=["RunConfig.budget", "RunConfig.seed", "DistInstance.family",
        "DistInstance.params"])
def test_setting_a_field_raises(obj, field):
    before = repr(obj)
    with pytest.raises(AttributeError):
        setattr(obj, field, getattr(obj, field))
    assert repr(obj) == before


def test_a_hash_the_class_body_defines_is_kept():
    # SymbolicPredicate caches its hash, which the memo keys hash each step
    assert SymbolicPredicate.__hash__ is SymbolicPredicate.__dict__["__hash__"]
    p = SymbolicPredicate(0.5, (Atom(LIN, ">"),))
    q = SymbolicPredicate(0.5, (Atom(LIN, ">"),))
    assert p == q and hash(p) == hash(q)
    assert hash(p) == hash((0.5, (Atom(LIN, ">"),), ()))
    assert "_hash" in p.__dict__  # cached by the first call
    q.__dict__["_hash"] = 12345
    assert hash(q) == 12345  # the cached value is the one called


def test_node_fields_compare_in_order_and_class():
    assert BinaryOp("+", X, ONE) != BinaryOp("+", ONE, X)
    assert Weight(X) != Indicator(X)  # same fields, another class
    assert Const(0.0) == Const(-0.0) and hash(Const(0.0)) == hash(Const(-0.0))
    assert Const(1.0) != Const(1.0, "int")
    nan = float("nan")
    assert Const(nan) == Const(nan)  # one float object: equal by identity
    assert Const(nan) != Const(float("nan"))
    assert len({Var("x"), Var("x"), Var("y")}) == 2


def test_node_keywords_and_defaults():
    assert Const(value=2.0) == Const(2.0, "double")
    assert Draw(var="y", family="beta", params=(ONE, ONE)).restriction is None
    assert Interval(lo=0.0, hi=1.0) == Interval(0.0, 1.0, False, False)
    with pytest.raises(TypeError):
        Var()
    with pytest.raises(ValueError, match="lo > hi"):
        Interval(2.0, 1.0)


def test_cached_values_take_no_part_in_equality():
    a, b = Assign("y", BinaryOp("*", X, ONE)), Assign("y", BinaryOp("*", X, ONE))
    assert a.reads == frozenset({"x"}) and "reads" in a.__dict__
    assert "reads" not in b.__dict__
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    g = benchmarks.build("geomIt", 0.5, 2)
    flow = nth_flow(g, 1)
    twin = ControlFlow(flow.start, flow.steps)
    assert flow.flow_id and "flow_id" not in twin.__dict__
    assert flow == twin and hash(flow) == hash(twin)


def test_graph_program_op_and_truth_compare_by_fields_and_are_immutable():
    # like every other Node; a dict field leaves them unhashable
    s = StraightLineProgram(("x",), {"x": 0.0}, (), X)
    t = StraightLineProgram(("x",), {"x": 0.0}, (), X)
    assert s is not t and s == t
    assert s != StraightLineProgram(("x",), {"x": 1.0}, (), X)
    assert repr(s) == ("StraightLineProgram(variables=('x',), sigma_init="
                       "{'x': 0.0}, steps=(), e_final=Var(name='x'), "
                       "flow_id='')")
    g, h = benchmarks.build("coin"), benchmarks.build("coin")
    assert g is not h and g == h
    op = Op("scale", None, 0.5, reweights=True)
    assert op == Op("scale", None, 0.5, 0, True) != Op("scale", None, 0.25)
    truth = GroundTruth("categorical", {1.0: 1.0})
    assert truth == GroundTruth("categorical", {1.0: 1.0})
    for obj, field in ((s, "flow_id"), (h, "l_final"), (op, "payload"),
                       (truth, "label")):
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))
    for obj in (s, h, truth):
        with pytest.raises(TypeError):
            hash(obj)
