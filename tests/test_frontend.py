import pytest
from hypothesis import given, settings, strategies as st

from flowsmc import benchmarks
from flowsmc.frontend import LexError, ParseError, desugar, parse_source, tokenize
from flowsmc.syntax import (
    Assign, BinaryOp, Const, Draw, If, IfP, Indicator, Program, Seq, Skip,
    StaticError, Var, Weight, While, command_list, format_number, pretty_expr,
)


def kinds(tokens):
    return [t.kind for t in tokens[:-1]]  # drop eof


def is_observe(c):
    return isinstance(c, Weight) and isinstance(c.pred, Indicator)


def test_tokenize_assignment():
    assert kinds(tokenize("x := 0;")) == ["ident", ":=", "int", ";"]


def test_tokenize_draw():
    assert kinds(tokenize("y ~ normal(1,1);")) == [
        "ident", "~", "ident", "(", "int", ",", "int", ")", ";",
    ]


def test_tokenize_chained_comparison():
    toks = tokenize("observe(0 <= y <= 2);")
    assert kinds(toks) == ["observe", "(", "int", "<=", "ident", "<=", "int", ")", ";"]


def test_tokenize_positions_and_comments():
    toks = tokenize("x := 1; // trailing\ny := 2;")
    y = [t for t in toks if t.text == "y"][0]
    assert (y.line, y.col) == (2, 1)


def test_lex_error_has_position():
    with pytest.raises(LexError) as exc:
        tokenize("x := 0;\n@;")
    assert exc.value.line == 2 and exc.value.col == 1


def test_parse_coin_structure():
    p = parse_source(benchmarks.source("coin", 0.36))
    stmts = command_list(p.body)
    assert sum(isinstance(c, IfP) for c in stmts) == 2
    assert sum(is_observe(c) for c in stmts) == 1
    assert p.result == Var("c1")


def test_parse_obs_loop_structure():
    p = parse_source(benchmarks.source("obsLoop", 3, 5))
    loops = [c for c in command_list(p.body) if isinstance(c, While)]
    assert len(loops) == 1
    assert any(is_observe(c) for c in command_list(loops[0].body))


def test_observe_parses_to_an_indicator_weight():
    p = parse_source("double y := 0;\nobserve(y > 1);\nreturn y;")
    assert p.body == Weight(Indicator(BinaryOp(">", Var("y"), Const(1.0, "int"))))
    assert desugar(p) == p


def test_observe_needs_a_boolean_formula():
    with pytest.raises(StaticError, match="observe needs a boolean formula"):
        parse_source("double y := 0;\nobserve(y + 1);\nreturn y;")
    # weight takes a boolean or a number; desugar wraps a boolean in [.]
    p = parse_source("double y := 0;\nweight(y > 1);\nweight(y + 1);\nreturn y;")
    assert [is_observe(c) for c in command_list(desugar(p).body)] == [True, False]


def test_parse_minimal_program_has_skip_body():
    p = parse_source("return (0);")
    assert isinstance(p.body, Skip)


def test_chained_comparison_desugars_to_conjunction():
    prog = "double y := 0;\nobserve(0 <= y <= 2);\nreturn y;"
    explicit = "double y := 0;\nobserve(0 <= y && y <= 2);\nreturn y;"
    assert parse_source(prog) == parse_source(explicit)


def test_then_else_form_accepted():
    src = """bool c := true;
ifp (0.5) then c := true; else c := false;
return c;
"""
    p = parse_source(src)
    assert isinstance(command_list(p.body)[0], IfP)


def test_undeclared_variable_rejected():
    with pytest.raises(StaticError, match="undeclared"):
        parse_source("double x := 0;\nx := y + 1;\nreturn x;")


def test_fuzzy_guard_rejected():
    with pytest.raises(StaticError, match="guard"):
        parse_source("double x := 1;\nwhile (x) { x := x - 1; }\nreturn x;")
    with pytest.raises(StaticError, match="guard"):
        parse_source("double x := 1;\nif (x + 1) { skip; } else { skip; }\nreturn x;")


def test_ifp_probability_literal_checked():
    with pytest.raises(ParseError, match="probability"):
        parse_source("bool c := true;\nifp (1.5) { skip; } else { skip; }\nreturn c;")


def test_missing_return_rejected():
    with pytest.raises(ParseError, match="return"):
        parse_source("double x := 0;\nx := 1;")


def test_desugar_removes_sugar():
    p = desugar(parse_source(benchmarks.source("coin", 0.36)))

    def scan(c):
        assert not isinstance(c, IfP)
        if isinstance(c, Seq):
            for s in c.commands:
                scan(s)
        elif isinstance(c, If):
            scan(c.then_branch)
            scan(c.else_branch)
        elif isinstance(c, While):
            scan(c.body)

    scan(p.body)
    draws = [c for c in command_list(p.body) if isinstance(c, Draw)]
    assert [d.family for d in draws] == ["bernoulli", "bernoulli"]
    assert all(d.params == (Const(0.36),) for d in draws)


def test_desugar_observe_keeps_formula():
    p = desugar(parse_source("bool c := true;\nobserve(!(c = c));\nreturn c;"))
    w = command_list(p.body)[0]
    assert isinstance(w, Weight) and isinstance(w.pred, Indicator)
    assert isinstance(w.pred.formula, BinaryOp) or w.pred.formula


def test_desugar_idempotent():
    for name, params in [("coin", (0.36,)), ("obsLoop", (3, 5)), ("mixed", (0,))]:
        p = desugar(parse_source(benchmarks.source(name, *params)))
        assert desugar(p) == p


def test_desugar_preserves_user_variables():
    p = parse_source(benchmarks.source("coin", 0.36))
    dp = desugar(p)
    user = {d.name for d in p.decls}
    after = {d.name for d in dp.decls}
    assert user <= after
    assert all(n.startswith("_b") for n in after - user)


def test_desugar_no_sugar_is_identity():
    p = parse_source("double x := 0;\nx ~ unif(0, 1);\nweight(x);\nreturn x;")
    assert desugar(p) == p


CORPUS = [
    ("coin", (0.36,)),
    ("obsLoop", (3, 5)),
    ("condDemo", ()),
    ("unifCd", (10,)),
    ("unifCd2", (5,)),
    ("poisCd", (6, 20)),
    ("poisCd2", (6, 20)),
    ("geomIt", (0.5, 5)),
    ("geomIt2", (0.5, 5)),
    ("mixed", (5,)),
]


def pretty(program: Program, indent: str = "  ") -> str:
    """The program in concrete syntax; parsing it gives the program back."""
    lines = []
    for d in program.decls:
        init = pretty_expr(d.init)
        lines.append(f"{d.type} {d.name} := {init};")

    def emit(c, depth: int):
        pad = indent * depth
        if isinstance(c, Skip):
            lines.append(f"{pad}skip;")
        elif isinstance(c, (Assign, Draw, Weight)):
            lines.append(f"{pad}{c};")
        elif isinstance(c, Seq):
            for s in c.commands:
                emit(s, depth)
        elif isinstance(c, (If, IfP)):
            head = ("if (" + pretty_expr(c.guard) + ")") if isinstance(c, If) \
                else ("ifp (" + format_number(c.prob) + ")")
            lines.append(f"{pad}{head} {{")
            emit(c.then_branch, depth + 1)
            lines.append(f"{pad}}} else {{")
            emit(c.else_branch, depth + 1)
            lines.append(f"{pad}}}")
        elif isinstance(c, While):
            lines.append(f"{pad}while ({pretty_expr(c.guard)}) {{")
            emit(c.body, depth + 1)
            lines.append(f"{pad}}}")
        else:
            raise TypeError(f"not a command: {c!r}")

    for stmt in command_list(program.body):
        emit(stmt, 0)
    lines.append(f"return {pretty_expr(program.result)};")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name,params", CORPUS)
def test_pretty_parse_round_trip(name, params):
    src = benchmarks.source(name, *params)
    printed = pretty(parse_source(src))
    # identical token streams modulo whitespace and comments
    assert [(t.kind, t.text) for t in tokenize(printed)] == \
        [(t.kind, t.text) for t in tokenize(src)]
    assert parse_source(printed) == parse_source(src)


# ---------------------------------------------------------------------------
# random-expression round trips

_names = st.sampled_from(["x", "y", "z"])


def _exprs():
    num_leaf = st.one_of(
        st.integers(0, 50).map(lambda v: Const(float(v), "int")),
        st.floats(0.0, 100.0, allow_nan=False).map(lambda v: Const(v, "double")),
        _names.map(Var),
    )

    def extend(children):
        arith = st.tuples(st.sampled_from("+-*/"), children, children).map(
            lambda t: BinaryOp(t[0], t[1], t[2]))
        neg = children.map(lambda e: BinaryOp("-", Const(0.0), e))
        return st.one_of(arith, neg)

    return st.recursive(num_leaf, extend, max_leaves=12)


@pytest.mark.parametrize("value,number,expr", [
    (float("inf"), "inf", "inf"), (float("-inf"), "-inf", "-inf"),
    (float("nan"), "nan", "nan"), (3.0, "3", "3.0"), (-0.0, "0", "-0.0"),
    (1e16, "1e+16", "1e+16"), (0.25, "0.25", "0.25"),
])
def test_numbers_print_whatever_their_magnitude(value, number, expr):
    assert format_number(value) == number
    assert pretty_expr(Const(value)) == expr


@given(_exprs())
@settings(max_examples=80, deadline=None)
def test_expr_print_parse_round_trip(e):
    src = f"double x := 0; double y := 0; double z := 0;\nreturn {pretty_expr(e)};"
    assert parse_source(src).result == e


@given(st.text(alphabet="xy01 ()+-*/<>=!&|~;{}wrtbodin\n", max_size=120))
@settings(max_examples=200, deadline=None)
def test_parser_total_over_garbage(text):
    # any input either parses or raises a language error, never an internal one
    from flowsmc.syntax import ProbError

    try:
        parse_source(text)
    except ProbError:
        pass
