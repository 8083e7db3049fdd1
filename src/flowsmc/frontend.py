"""Lexer, parser, static checks and desugarer for `.prob` sources.

Grammar reference (C-like concrete syntax, `//` line comments):

    program   ::= decl* stmt* "return" expr ";"
    decl      ::= type ident ("," ident)* (":=" | "=") expr ";"
    type      ::= "bool" | "int" | "double"
    stmt      ::= "skip" ";"
                | ident (":=" | "=") expr ";"              deterministic assignment
                | ident "~" ident "(" expr,* ")" ";"       probabilistic assignment
                | "weight" "(" expr ")" ";"
                | "observe" "(" expr ")" ";"               Weight(Indicator(expr))
                | ("if" | "ifp") guard branch "else" branch
                | "while" guard block
                | block
    guard     ::= "(" expr ")" | expr                      (expr form before { or then)
    branch    ::= block | "then"? stmt
    block     ::= "{" stmt* "}"

    expr      ::= or;  or ::= and ("||" and)*;  and ::= cmp ("&&" cmp)*
    cmp       ::= add (relop add)*          chains desugar to conjunctions
    relop     ::= "<" | "<=" | "=" | "==" | "!=" | ">=" | ">"
    add       ::= mul (("+"|"-") mul)*;  mul ::= unary (("*"|"/") unary)*
    unary     ::= ("-" | "!") unary | atom
    atom      ::= number | "true" | "false" | ident | "(" expr ")"

Both `:=` and `=` are accepted for assignment; `=` inside expressions is
equality.  Guards of `if`/`while` must be boolean-typed (sharp); `ifp` takes a
probability literal in [0, 1].  All variables are declared, with constant
initializers, before the body.  `return` appears exactly once, at the end.
"""
from __future__ import annotations

import re
from typing import Optional

from .syntax import (
    Assign, BinaryOp, Command, Const, Decl, Draw, Expr, If, IfP, Indicator,
    Node, ProbError, Program, Seq, Skip, StaticError, UnaryOp, Var, Weight,
    While, expr_type, seq_of,
)

KEYWORDS = {
    "bool", "int", "double", "if", "ifp", "then", "else", "while",
    "observe", "weight", "return", "skip", "true", "false",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<float>\d+\.\d*(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
  | (?P<op>:=|==|!=|<=|>=|&&|\|\||[-+*/<>=!~(){};,])
    """,
    re.VERBOSE,
)


class LexError(ProbError):
    def __init__(self, msg, line, col):
        super().__init__(f"{line}:{col}: {msg}")
        self.line, self.col = line, col


class ParseError(ProbError):
    pass


class Token(Node):
    def __init__(self, kind: str, text: str, line: int, col: int):
        # kind: "ident" | "int" | "float" | keyword | operator | "eof"
        d = self.__dict__
        d["kind"], d["text"], d["line"], d["col"] = kind, text, line, col


def tokenize(source: str) -> list:
    """Token sequence covering the whole source; positions are 1-based."""
    tokens = []
    pos, line, col = 0, 1, 1
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise LexError(f"illegal character {source[pos]!r}", line, col)
        text = m.group()
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            if kind == "ident" and text in KEYWORDS:
                kind = text
            elif kind == "op":
                kind = "=" if text == "==" else text
            tokens.append(Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rindex("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self, ahead=0) -> Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, kind) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"{tok.line}:{tok.col}: expected {kind!r}, found {tok.text!r}")
        return self.next()

    def accept(self, kind) -> Optional[Token]:
        if self.peek().kind == kind:
            return self.next()
        return None

    # ---- expressions ----

    def expr(self) -> Expr:
        return self.or_expr()

    def or_expr(self) -> Expr:
        e = self.and_expr()
        while self.accept("||"):
            e = BinaryOp("||", e, self.and_expr())
        return e

    def and_expr(self) -> Expr:
        e = self.cmp_expr()
        while self.accept("&&"):
            e = BinaryOp("&&", e, self.cmp_expr())
        return e

    def cmp_expr(self) -> Expr:
        first = self.add_expr()
        parts = [first]
        ops = []
        while self.peek().kind in ("<", "<=", "=", "!=", ">=", ">"):
            ops.append(self.next().kind)
            parts.append(self.add_expr())
        if not ops:
            return first
        # a <= b <= c desugars to a<=b && b<=c
        atoms = [BinaryOp(op, parts[k], parts[k + 1]) for k, op in enumerate(ops)]
        e = atoms[0]
        for a in atoms[1:]:
            e = BinaryOp("&&", e, a)
        return e

    def add_expr(self) -> Expr:
        e = self.mul_expr()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            e = BinaryOp(op, e, self.mul_expr())
        return e

    def mul_expr(self) -> Expr:
        e = self.unary_expr()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            e = BinaryOp(op, e, self.unary_expr())
        return e

    def unary_expr(self) -> Expr:
        tok = self.peek()
        if tok.kind in ("-", "!"):
            self.next()
            return UnaryOp(tok.kind, self.unary_expr())
        return self.atom()

    def atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "int":
            return Const(float(tok.text), "int")
        if tok.kind == "float":
            return Const(float(tok.text), "double")
        if tok.kind == "true":
            return Const(1.0, "bool")
        if tok.kind == "false":
            return Const(0.0, "bool")
        if tok.kind == "ident":
            return Var(tok.text)
        if tok.kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ParseError(f"{tok.line}:{tok.col}: unexpected {tok.text!r} in expression")

    # ---- statements ----

    def guard(self) -> Expr:
        if self.accept("("):
            e = self.expr()
            self.expect(")")
            return e
        return self.expr()

    def block(self) -> Command:
        self.expect("{")
        stmts = []
        while self.peek().kind != "}":
            stmts.append(self.statement())
        self.expect("}")
        return seq_of(stmts)

    def branch(self) -> Command:
        if self.peek().kind == "{":
            return self.block()
        self.accept("then")
        return self.statement()

    def statement(self) -> Command:
        tok = self.peek()
        if tok.kind == "{":
            return self.block()
        if tok.kind == "skip":
            self.next()
            self.expect(";")
            return Skip()
        if tok.kind in ("weight", "observe"):
            self.next()
            self.expect("(")
            e = self.expr()
            self.expect(")")
            self.expect(";")
            return Weight(e if tok.kind == "weight" else Indicator(e))
        if tok.kind in ("if", "ifp"):
            self.next()
            g = self.guard()
            then_branch = self.branch()
            self.expect("else")
            else_branch = self.branch()
            if tok.kind == "if":
                return If(g, then_branch, else_branch)
            if not isinstance(g, Const) or not (0.0 <= g.value <= 1.0):
                raise ParseError(
                    f"{tok.line}:{tok.col}: ifp needs a probability literal in [0, 1]")
            return IfP(g.value, then_branch, else_branch)
        if tok.kind == "while":
            self.next()
            g = self.guard()
            body = self.block() if self.peek().kind == "{" else self.statement()
            return While(g, body)
        if tok.kind == "ident":
            name = self.next().text
            if self.accept("~"):
                fam = self.expect("ident").text
                self.expect("(")
                params = [self.expr()]
                while self.accept(","):
                    params.append(self.expr())
                self.expect(")")
                self.expect(";")
                return Draw(name, fam, tuple(params))
            if self.peek().kind in (":=", "="):
                self.next()
                e = self.expr()
                self.expect(";")
                return Assign(name, e)
            raise ParseError(
                f"{tok.line}:{tok.col}: expected ':=', '=' or '~' after '{name}'")
        raise ParseError(f"{tok.line}:{tok.col}: unexpected {tok.text!r}")

    # ---- program ----

    def declaration(self) -> list:
        typ = self.next().kind  # bool | int | double
        names = [self.expect("ident").text]
        while self.accept(","):
            names.append(self.expect("ident").text)
        if self.peek().kind not in (":=", "="):
            tok = self.peek()
            raise ParseError(f"{tok.line}:{tok.col}: declaration needs an initializer")
        self.next()
        init = self.expr()
        self.expect(";")
        folded = _const_initializer(init, typ)
        return [Decl(n, typ, folded) for n in names]

    def program(self) -> Program:
        decls = []
        while self.peek().kind in ("bool", "int", "double"):
            decls.extend(self.declaration())
        stmts = []
        while self.peek().kind != "return":
            if self.peek().kind == "eof":
                raise ParseError("missing 'return' at end of program")
            stmts.append(self.statement())
        self.expect("return")
        result = self.expr()
        self.expect(";")
        self.expect("eof")
        return Program(tuple(decls), seq_of(stmts), result)


def _const_initializer(e: Expr, typ: str) -> Const:
    from .syntax import fold_expr

    folded = fold_expr(e, {})
    if not isinstance(folded, Const):
        raise ParseError("declaration initializer must be a constant")
    if typ == "bool":
        if folded.type != "bool":
            raise StaticError("boolean variable initialized with a number")
        return Const(folded.value, "bool")
    if folded.type == "bool":
        raise StaticError("numeric variable initialized with a boolean")
    return Const(float(folded.value), typ)


def parse(tokens) -> Program:
    """Parse a token sequence into a checked Program."""
    if isinstance(tokens, str):
        tokens = tokenize(tokens)
    program = _Parser(list(tokens)).program()
    check(program)
    return program


def parse_source(source: str) -> Program:
    return parse(tokenize(source))


# --------------------------------------------------------------------------
# static checks


def check(program: Program) -> None:
    types = {}
    for d in program.decls:
        if d.name in types:
            raise StaticError(f"variable '{d.name}' declared twice")
        types[d.name] = d.type

    def visit(c: Command):
        if isinstance(c, (Skip,)):
            return
        if isinstance(c, Assign):
            if c.var not in types:
                raise StaticError(f"undeclared variable '{c.var}'")
            t = expr_type(c.expr, types)
            if (types[c.var] == "bool") != (t == "bool"):
                raise StaticError(f"assignment to '{c.var}' mixes bool and number")
            return
        if isinstance(c, Draw):
            if c.var not in types:
                raise StaticError(f"undeclared variable '{c.var}'")
            for p in c.params:
                if expr_type(p, types) == "bool":
                    raise StaticError("distribution parameter must be numeric")
            return
        if isinstance(c, Weight):
            # only observe builds an indicator weight; a bool weight(...)
            # is wrapped in one by desugar
            if isinstance(c.pred, Indicator):
                if expr_type(c.pred.formula, types) != "bool":
                    raise StaticError("observe needs a boolean formula")
            else:
                expr_type(c.pred, types)
            return
        if isinstance(c, Seq):
            for s in c.commands:
                visit(s)
            return
        if isinstance(c, If):
            if expr_type(c.guard, types) != "bool":
                raise StaticError("if guard must be a sharp boolean formula")
            visit(c.then_branch)
            visit(c.else_branch)
            return
        if isinstance(c, IfP):
            visit(c.then_branch)
            visit(c.else_branch)
            return
        if isinstance(c, While):
            if expr_type(c.guard, types) != "bool":
                raise StaticError("while guard must be a sharp boolean formula")
            visit(c.body)
            return
        raise TypeError(f"not a command: {c!r}")

    visit(program.body)
    expr_type(program.result, types)


# --------------------------------------------------------------------------
# desugaring


def desugar(program: Program) -> Program:
    """Remove ifp and bool weights: ifp becomes a fresh Bernoulli draw plus
    if, and weight(phi) with a boolean phi becomes weight over the indicator
    of phi, as observe(phi) parses.  Idempotent."""
    types = dict(program.var_types)
    fresh_decls = []
    counter = [0]

    def fresh() -> str:
        while True:
            name = f"_b{counter[0]}"
            counter[0] += 1
            if name not in types:
                types[name] = "bool"
                fresh_decls.append(Decl(name, "bool", Const(0.0, "bool")))
                return name

    def visit(c: Command) -> Command:
        if isinstance(c, (Skip, Assign, Draw)):
            return c
        if isinstance(c, Weight):
            if not isinstance(c.pred, Indicator) and expr_type(c.pred, types) == "bool":
                return Weight(Indicator(c.pred))
            return c
        if isinstance(c, Seq):
            return seq_of(visit(s) for s in c.commands)
        if isinstance(c, If):
            return If(c.guard, visit(c.then_branch), visit(c.else_branch))
        if isinstance(c, IfP):
            b = fresh()
            return Seq((
                Draw(b, "bernoulli", (Const(c.prob),)),
                If(Var(b), visit(c.then_branch), visit(c.else_branch)),
            ))
        if isinstance(c, While):
            return While(c.guard, visit(c.body))
        raise TypeError(f"not a command: {c!r}")

    body = visit(program.body)
    return Program(program.decls + tuple(fresh_decls), body, program.result)
