"""Parser and serializer for the `.rmas` specification language.

The surface syntax is line-oriented and mirrors the rule notation used in the
literature on data-aware agents: `Q enables M(x) to t` for proactive rules,
`on M(x) from s if Q then act(args)` for reactive ones, and
`Q ~> add { ... } del { ... }` for action effects.  Newlines terminate
statements except inside parentheses; braces group spec bodies, action bodies
and fact sets.  Every parenthesised list is comma-separated and may end in a
comma.

The built-in types, facets and `getN`, each spec block's `MyName`, and the
institutional registry relations and `newAg`/`remAg` bodies are declared
before the text is read.  Any declaration may be repeated only identically;
the one exception is a built-in action body, which a spec may replace once.
An untouched built-in body keeps its own variables even where the spec
declares an agent or spec of the same name; the serializer writes a free
variable so named of any other action, or of a proactive rule, under a
fresh name.

Literals are resolved to typed data objects in a second pass driven by the
declared schemas, so `3` can denote a ticket in one component and a price in
another.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from typing import NamedTuple, Optional

from .data import (
    AGENT_TYPE,
    INST_NAME,
    INTEGER,
    RATIONAL,
    SPEC_TYPE,
    STRING,
    Database,
    DataError,
    DataObject,
    DataTypeDef,
    Facet,
    TypedRelationSchema,
    UNDEF,
    mk_symbol,
    mk_undef,
)
from . import model as M
from . import queries as Q
from .model import (
    AgentSpec,
    CallTerm,
    CommRule,
    FactTemplate,
    MessageDef,
    RmasSpec,
    ServiceDef,
    UpdateAction,
    UpdateEffect,
    UpdateRule,
)
from .queries import Const, Param, Query, Term, Var


class ParseError(Exception):
    def __init__(self, msg: str, line: int = 0, col: int = 0) -> None:
        super().__init__(f"{line}:{col}: {msg}" if line else msg)
        self.line = line
        self.col = col
        self.msg = msg


class ResolutionError(ParseError):
    pass


# ---------------------------------------------------------------------------
# Tokenizer

TOKEN_RE = re.compile(
    r"""
    [^\S\n]*(?:\#[^\n]*)?  # whitespace, then a comment: skipped
    (?:
      (?P<newline>\n)
    | (?P<number>-?[0-9]+(?:\.[0-9]+)?(?:/[0-9]+)?)
    | (?P<string>"[^"\n]*")
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>~>|->|!=|<=|>=|<>|\[\]|[(){}\[\],.:=<>!&|@_])
    | \Z
    | (?P<bad>.)  # a character no token starts with
    )
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # ident, number, string, op, newline, eof
    value: str
    line: int
    col: int

    def __str__(self) -> str:
        """How an error message names the token."""
        return "end of input" if self.kind == "eof" else repr(self.value)


_token = partial(tuple.__new__, Token)  # Token(*fields) without a Python frame


def tokenize(text: str) -> list[Token]:
    """Each match is one token with the whitespace and comment before it.
    Every match starts where the last one ended, so one pass reads the text
    and no search runs ahead of a character that starts no token."""
    tokens: list[Token] = []
    append = tokens.append
    line, bol = 1, 0  # the current line's number and start offset
    depth = 0
    for m in TOKEN_RE.finditer(text):
        kind = m.lastgroup
        pos = m.end()
        if kind == "newline":
            if not depth:
                append(_token((kind, "\n", line, pos - bol)))
            line += 1
            bol = pos
        elif kind is None:  # end of input
            break
        elif kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", line, pos - bol)
        else:
            value = m[kind]
            if value == "(":
                depth += 1
            elif value == ")" and depth:
                depth -= 1
            append(_token((kind, value, line, pos - bol - len(value) + 1)))
    # input ends just after its last token but a newline
    last = next((t for t in reversed(tokens) if t.kind != "newline"), None)
    end = (last.line, last.col + len(last.value)) if last else (1, 1)
    append(Token("eof", "", *end))
    return tokens


class TokenStream:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens  # the last one, and only it, is eof
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        if ahead:
            return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]
        return self.tokens[self.i]

    def next(self) -> Token:
        t = self.tokens[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def skip_newlines(self) -> None:
        while self.tokens[self.i].kind == "newline":
            self.i += 1

    def at(self, value: str) -> bool:
        t = self.tokens[self.i]
        return t.value == value and t.kind in ("op", "ident")

    def accept(self, value: str) -> bool:
        t = self.tokens[self.i]
        if t.value == value and t.kind in ("op", "ident"):
            self.i += 1
            return True
        return False

    def expect(self, value: str) -> Token:
        t = self.tokens[self.i]
        if t.value != value or t.kind not in ("op", "ident"):
            raise ParseError(f"expected {value!r}, found {t}", t.line, t.col)
        self.i += 1
        return t

    def expect_ident(self) -> Token:
        t = self.tokens[self.i]
        if t.kind != "ident":
            raise ParseError(f"expected identifier, found {t}", t.line, t.col)
        self.i += 1
        return t

    def items(self, item, close: str = ")") -> list:
        """What `item` reads, again and again, up to and including the token
        `close`: comma-separated, a trailing comma allowed."""
        out = []
        while not self.accept(close):
            out.append(item())
            if not self.accept(","):
                self.expect(close)
                break
        return out

    def end_statement(self) -> None:
        t = self.peek()
        if t.kind in ("newline", "eof"):
            self.skip_newlines()
            return
        if t.value == "}":
            return
        raise ParseError(f"unexpected {t.value!r} at end of statement", t.line, t.col)


# ---------------------------------------------------------------------------
# Raw literals: typed during resolution.  The "?" that starts their type
# names is what marks them as raw for the type inference (`Q.Typing`).

RAW_NUM = "?num"
RAW_STR = "?str"
RAW_UNDEF = "?undef"

KEYWORDS = {
    "type", "facet", "service", "message", "agent", "spec", "mode",
    "relation", "constraint", "init", "action", "institutional",
    "on", "from", "to", "if", "then", "enables", "add", "del",
    "exists", "forall", "true", "false", "succ", "undef", "of", "with",
    "not",
}


def _raw_const(tok: Token) -> Const:
    if tok.kind == "number":
        try:  # `1/0` has a zero denominator, `1.5/2` no Fraction syntax
            return Const(DataObject(RAW_NUM, Fraction(tok.value)))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad number {tok.value!r}", tok.line, tok.col) from None
    if tok.kind == "string":
        return Const(DataObject(RAW_STR, tok.value[1:-1]))
    raise ParseError(f"not a literal: {tok.value!r}", tok.line, tok.col)


# ---------------------------------------------------------------------------
# Query parsing (terms stay raw; variables may later become params/constants)


class QueryParser:
    def __init__(self, ts: TokenStream) -> None:
        self.ts = ts
        self._anon = 0
        self._minted: dict[str, Var] = {}  # each "_" not yet closed, by name

    def fresh_anon(self, taken: frozenset[str] | set[str] = frozenset()) -> str:
        """The next of `_1`, `_2`, ... that is not in taken."""
        self._anon += 1
        while f"_{self._anon}" in taken:
            self._anon += 1
        return f"_{self._anon}"

    def parse_query(self) -> Query:
        ts = self.ts
        if ts.at("exists") or ts.at("forall"):
            kw = ts.next().value
            names = [self.parse_binder()]
            while ts.accept(","):
                names.append(self.parse_binder())
            ts.expect(".")
            body = self.parse_query()
            for name, t in reversed(names):
                body = Q.Exists(name, body, t) if kw == "exists" else Q.Forall(name, body, t)
            return body
        return self.parse_implies()

    def parse_binder(self) -> tuple[str, str]:
        """A quantified variable and its type, "?" until inferred."""
        return self.ts.expect_ident().value, "?"

    def parse_implies(self) -> Query:
        lhs = self.parse_or()
        if self.ts.accept("->"):
            rhs = self.parse_query()
            return Q.q_implies(lhs, rhs)
        return lhs

    def parse_or(self) -> Query:
        parts = [self.parse_and()]
        while self.ts.accept("|"):
            parts.append(self.parse_and())
        return Q.q_or(*parts)

    def parse_and(self) -> Query:
        parts = [self.parse_unary()]
        while self.ts.accept("&"):
            parts.append(self.parse_unary())
        return Q.q_and(*parts)

    def parse_unary(self) -> Query:
        ts = self.ts
        if ts.accept("!") or ts.accept("not"):
            return Q.Not(self.parse_unary())
        if ts.accept("("):
            inner = self.parse_query()
            ts.expect(")")
            return inner
        return self.parse_atom()

    def parse_atom(self) -> Query:
        ts = self.ts
        t = ts.peek()
        if ts.accept("true"):
            return Q.TrueQ()
        if ts.accept("false"):
            return Q.q_false()
        if ts.accept("succ"):
            ts.expect("(")
            a = self.parse_term()
            ts.expect(",")
            b = self.parse_term()
            ts.expect(")")
            return self._close_anon(Q.SuccAtom(a, b), (a, b))
        if t.kind == "ident" and ts.peek(1).value == "(" and t.value not in KEYWORDS:
            name = ts.next().value
            ts.expect("(")
            terms = ts.items(self.parse_term)
            return self._close_anon(Q.RelAtom(name, tuple(terms)), terms)
        left = self.parse_term()
        op_tok = ts.peek()
        for op in ("=", "!=", "<", ">"):
            if ts.accept(op):
                right = self.parse_term()
                pair = (left, right)
                if op == "=":
                    return self._close_anon(Q.EqAtom(left, right), pair)
                if op == "!=":
                    return self._close_anon(Q.Not(Q.EqAtom(left, right)), pair)
                if op == "<":
                    return self._close_anon(Q.LessAtom("?", left, right), pair)
                return self._close_anon(Q.LessAtom("?", right, left), pair)
        raise ParseError(f"expected comparison operator, found {op_tok}", op_tok.line, op_tok.col)

    def _close_anon(self, atom: Query, terms) -> Query:
        # "_" desugars to a fresh existential scoped to its own atom, named
        # apart from the variables written in the atom
        anon = [t for t in terms if isinstance(t, Var) and self._minted.get(t.name) is t]
        written = {t.name for t in terms if isinstance(t, Var) and not any(t is a for a in anon)}
        renamed = {id(t): Var(self.fresh_anon(written)) for t in anon if t.name in written}
        if renamed:
            atom = Q.map_terms(atom, lambda t: renamed.get(id(t), t))
        for t in reversed(anon):
            del self._minted[t.name]
            atom = Q.Exists(renamed.get(id(t), t).name, atom)
        return atom

    def parse_term(self) -> Term:
        ts = self.ts
        t = ts.peek()
        if t.kind in ("number", "string"):
            ts.next()
            return _raw_const(t)
        if ts.accept("undef"):
            return Const(DataObject(RAW_UNDEF, UNDEF))
        if ts.accept("_"):
            name = self.fresh_anon()
            var = self._minted[name] = Var(name)
            return var
        if t.kind == "ident" and t.value not in KEYWORDS:
            ts.next()
            return Var(t.value)
        raise ParseError(f"expected a term, found {t}", t.line, t.col)


# ---------------------------------------------------------------------------
# Facet formulas: queries over the single variable x


def facet_query(q: Query, base_type: str, types: dict[str, DataTypeDef]) -> Optional[Query]:
    """A parsed facet formula as a typed query over x, None for `true`.

    Only true, =, <, succ, !, & and | over x and literals of the base type
    are allowed; each literal is resolved at the base type, and each & and
    | is kept with two parts, nested to the left.
    """
    tdef = types[base_type]

    def term(t: Term) -> Term:
        if isinstance(t, Var) and t.name != "x":
            raise ResolutionError(f"facet formulas may only use the variable x, found {t.name!r}")
        return t if isinstance(t, Var) else Const(_resolve_literal(t.obj, base_type, types))

    def conv(q: Query) -> Query:
        if isinstance(q, Q.LessAtom) and not tdef.has_less:
            raise ResolutionError(f"type {base_type!r} has no dense order")
        if isinstance(q, Q.SuccAtom) and not tdef.has_succ:
            raise ResolutionError(f"type {base_type!r} has no successor relation")
        if isinstance(q, (Q.And, Q.Or)):
            out = conv(q.parts[0])
            for p in q.parts[1:]:
                out = type(q)((out, conv(p)))
            return out
        if isinstance(q, (Q.TrueQ, Q.Not, Q.EqAtom, Q.LessAtom, Q.SuccAtom)):
            return Q.rebuild(q, conv, term)
        raise ResolutionError("facet formulas allow only true, atoms, !, &, |")

    if isinstance(q, Q.TrueQ):
        return None
    ctx = Q.SchemaContext({}, {}, types)
    return Q.typecheck_query(conv(q), ctx, seed_types={"x": base_type})[0]


def _resolve_literal(obj: DataObject, type_name: str, types: dict[str, DataTypeDef]) -> DataObject:
    tdef = types.get(type_name)
    if tdef is None:
        raise ResolutionError(f"unknown type {type_name!r}")
    if obj.type_name == RAW_UNDEF:
        return mk_undef(type_name)
    if obj.type_name == RAW_NUM:
        frac = obj.value
        if tdef.carrier == INTEGER:
            if frac.denominator != 1:
                raise ResolutionError(f"literal {frac} is not an integer")
            return DataObject(type_name, int(frac))
        if tdef.carrier == RATIONAL:
            return DataObject(type_name, frac)
        raise ResolutionError(f"numeric literal {frac} in a {tdef.carrier} component")
    if obj.type_name == RAW_STR:
        if tdef.carrier != STRING:
            raise ResolutionError(f"string literal {obj.value!r} in a {tdef.carrier} component")
        return DataObject(type_name, obj.value)
    if obj.type_name != type_name:
        raise ResolutionError(f"constant {obj!r} used at type {type_name!r}")
    return obj


# ---------------------------------------------------------------------------
# Statement-level parser


@dataclass
class _SpecShell:
    name: str
    institutional: bool = False
    schema: dict[str, TypedRelationSchema] = field(default_factory=dict)
    constraints: list[Query] = field(default_factory=list)
    init_facts: list[tuple[str, tuple[Term, ...]]] = field(default_factory=list)
    # (query, message, payload terms, target name), desugared on resolution
    comm_rules: list[tuple[Query, str, tuple[Term, ...], str]] = field(default_factory=list)
    actions: dict[str, UpdateAction] = field(default_factory=dict)
    update_rules: list[UpdateRule] = field(default_factory=list)


def _new_shell(name: str, institutional: bool) -> _SpecShell:
    """A spec block before its statements: its built-in relations, and the
    built-in actions in the institutional spec."""
    return _SpecShell(name, institutional, M.spec_relations(institutional),
                      actions=M.institutional_actions() if institutional else {})


class SpecParser:
    def __init__(self, text: str) -> None:
        self.ts = TokenStream(tokenize(text))
        self.types, self.facets, self.services = M.builtin_declarations()
        self.messages: dict[str, MessageDef] = {}
        self.shells: list[_SpecShell] = []
        self.initial_agents: list[tuple[str, str]] = []
        self.mode_flags: set[str] = set()
        # names usable as constants in queries: inst + declared agents + spec names
        self.const_names: dict[str, DataObject] = {INST_NAME: mk_symbol(AGENT_TYPE, INST_NAME)}

    # -- declarations -------------------------------------------------------

    def parse(self) -> RmasSpec:
        ts = self.ts
        ts.skip_newlines()
        while ts.peek().kind != "eof":
            t = ts.peek()
            if ts.accept("type"):
                self._parse_type()
            elif ts.accept("facet"):
                self._parse_facet()
            elif ts.accept("service"):
                self._parse_service()
            elif ts.accept("message"):
                self._parse_message()
            elif ts.accept("agent"):
                self._parse_agent_decl()
            elif ts.accept("mode"):
                tok = ts.peek()
                if tok.kind == "string":
                    ts.next()
                    self.mode_flags.add(tok.value[1:-1])
                else:
                    self.mode_flags.add(ts.expect_ident().value)
                ts.end_statement()
            elif ts.accept("spec"):
                self._parse_spec_block()
            else:
                raise ParseError(f"unexpected {t.value!r} at top level", t.line, t.col)
            ts.skip_newlines()
        return self._assemble()

    def _declare(self, table: dict, name: str, value, what: str, tok: Token) -> None:
        """Enter a declaration, built-in or not.  It may repeat one exactly;
        only a built-in action body may be replaced by another."""
        old = table.get(name)
        if old is not None and old != value and old != M.institutional_actions().get(name):
            raise ParseError(f"{what} {name!r} already declared", tok.line, tok.col)
        table[name] = value

    def _parse_type(self) -> None:
        ts = self.ts
        tok = ts.expect_ident()
        carrier_tok = ts.expect_ident()
        has_less = has_succ = False
        if ts.accept("with"):
            while True:
                rel = ts.expect_ident().value
                if rel == "less":
                    has_less = True
                elif rel == "succ":
                    has_succ = True
                else:
                    raise ParseError(f"unknown relation {rel!r}", tok.line, tok.col)
                if not ts.accept(","):
                    break
        try:
            tdef = DataTypeDef(tok.value, carrier_tok.value, has_less, has_succ)
        except DataError as e:
            raise ParseError(str(e), carrier_tok.line, carrier_tok.col) from None
        self._declare(self.types, tok.value, tdef, "type", tok)
        ts.end_statement()

    def _parse_facet(self) -> None:
        ts = self.ts
        tok = ts.expect_ident()
        ts.expect("of")
        base = ts.expect_ident().value
        if base not in self.types:
            raise ResolutionError(f"unknown type {base!r}", tok.line, tok.col)
        formula = None
        if ts.accept(":"):
            formula = facet_query(QueryParser(ts).parse_query(), base, self.types)
        seeds: set[DataObject] = set()
        if ts.accept("init"):
            ts.expect("{")
            while not ts.accept("}"):
                t = ts.peek()
                if t.kind in ("number", "string"):
                    ts.next()
                    seeds.add(_resolve_literal(_raw_const(t).obj, base, self.types))
                elif ts.accept("undef"):
                    seeds.add(mk_undef(base))
                else:
                    raise ParseError(f"expected literal, found {t}", t.line, t.col)
                ts.accept(",")
        if formula is not None:
            seeds |= Q.constants(formula)
        facet = Facet(tok.value, base, formula, frozenset(seeds))
        self._declare(self.facets, tok.value, facet, "facet", tok)
        ts.end_statement()

    def _facet_name(self) -> str:
        t = self.ts.expect_ident()
        if t.value not in self.facets:
            raise ResolutionError(f"unknown facet {t.value!r}", t.line, t.col)
        return t.value

    def _facet_list(self) -> tuple[str, ...]:
        self.ts.expect("(")
        return tuple(self.ts.items(self._facet_name))

    def _parse_service(self) -> None:
        ts = self.ts
        tok = ts.expect_ident()
        inputs = self._facet_list()
        ts.expect("->")
        self._declare(self.services, tok.value, ServiceDef(tok.value, inputs, self._facet_name()),
                      "service", tok)
        ts.end_statement()

    def _parse_message(self) -> None:
        ts = self.ts
        tok = ts.expect_ident()
        payload = self._facet_list()
        self._declare(self.messages, tok.value, MessageDef(tok.value, payload), "message", tok)
        ts.end_statement()

    def _parse_agent_decl(self) -> None:
        ts = self.ts
        tok = ts.expect_ident()
        ts.expect(":")
        spec_tok = ts.expect_ident()
        self.initial_agents.append((tok.value, spec_tok.value))
        self.const_names[tok.value] = mk_symbol(AGENT_TYPE, tok.value)
        ts.end_statement()

    # -- spec blocks ---------------------------------------------------------

    def _parse_spec_block(self) -> None:
        ts = self.ts
        tok = ts.expect_ident()
        shell = _new_shell(tok.value, ts.accept("institutional"))
        self.const_names[tok.value] = mk_symbol(SPEC_TYPE, tok.value)
        ts.expect("{")
        ts.skip_newlines()
        while not ts.accept("}"):
            self._parse_spec_stmt(shell)
            ts.skip_newlines()
        ts.end_statement()
        self.shells.append(shell)

    def _parse_spec_stmt(self, shell: _SpecShell) -> None:
        ts = self.ts
        t = ts.peek()
        if ts.accept("relation"):
            tok = ts.expect_ident()
            self._declare(shell.schema, tok.value,
                          TypedRelationSchema(tok.value, self._facet_list()), "relation", tok)
            ts.end_statement()
            return
        if ts.accept("constraint"):
            qp = QueryParser(ts)
            q = qp.parse_query()
            shell.constraints.append(q)
            ts.end_statement()
            return
        if ts.accept("init"):
            qp = QueryParser(ts)
            while True:
                tok = ts.expect_ident()
                ts.expect("(")
                shell.init_facts.append((tok.value, tuple(ts.items(qp.parse_term))))
                if not ts.accept(","):
                    break
            ts.end_statement()
            return
        if ts.accept("action"):
            self._parse_action(shell)
            return
        if ts.accept("on"):
            self._parse_update_rule(shell)
            return
        # otherwise: communicative rule `Q enables M(x) to t`
        self._parse_comm_rule(shell)

    def _parse_action(self, shell: _SpecShell) -> None:
        ts = self.ts
        tok = ts.expect_ident()

        def param() -> tuple[str, str]:
            name = ts.expect_ident().value
            ts.expect(":")
            return name, self._facet_name()

        ts.expect("(")
        params = ts.items(param)
        ts.expect("{")
        ts.skip_newlines()
        effects: list[UpdateEffect] = []
        while not ts.accept("}"):
            effects.append(self._parse_effect())
            ts.skip_newlines()
        self._declare(shell.actions, tok.value,
                      UpdateAction(tok.value, tuple(params), tuple(effects)), "action", tok)
        ts.end_statement()

    def _parse_effect(self) -> UpdateEffect:
        ts = self.ts
        qp = QueryParser(ts)
        guard = qp.parse_query()
        ts.expect("~>")
        adds: list[FactTemplate] = []
        dels: list[FactTemplate] = []
        saw = False
        while True:
            if ts.accept("add"):
                adds.extend(self._parse_fact_set(qp))
                saw = True
            elif ts.accept("del"):
                dels.extend(self._parse_fact_set(qp))
                saw = True
            else:
                break
        if not saw:
            t = ts.peek()
            raise ParseError("effect needs an add or del set", t.line, t.col)
        ts.end_statement()
        return UpdateEffect(guard, tuple(adds), tuple(dels))

    def _parse_fact_set(self, qp: QueryParser) -> list[FactTemplate]:
        ts = self.ts
        ts.expect("{")
        out: list[FactTemplate] = []
        while not ts.accept("}"):
            tok = ts.expect_ident()
            ts.expect("(")
            terms = ts.items(lambda: self._parse_template_term(qp))
            out.append(FactTemplate(tok.value, tuple(terms)))
            ts.accept(",")
        return out

    def _parse_template_term(self, qp: QueryParser):
        ts = self.ts
        t = ts.peek()
        if t.kind == "ident" and ts.peek(1).value == "(" and t.value not in KEYWORDS:
            # service-call term
            name = ts.next().value
            ts.expect("(")
            return CallTerm(name, tuple(ts.items(qp.parse_term)))
        return qp.parse_term()

    def _parse_comm_rule(self, shell: _SpecShell) -> None:
        ts = self.ts
        qp = QueryParser(ts)
        query = qp.parse_query()
        ts.expect("enables")
        msg_tok = ts.expect_ident()
        ts.expect("(")
        payload = tuple(ts.items(qp.parse_term))
        ts.expect("to")
        target = ts.expect_ident().value
        shell.comm_rules.append((query, msg_tok.value, payload, target))
        ts.end_statement()

    def _parse_update_rule(self, shell: _SpecShell) -> None:
        ts = self.ts
        msg_tok = ts.expect_ident()
        qp = QueryParser(ts)

        def payload_var() -> str:
            term = qp.parse_term()
            if not isinstance(term, Var):
                raise ParseError("update-rule payload must be variables",
                                 msg_tok.line, msg_tok.col)
            return term.name

        ts.expect("(")
        payload = ts.items(payload_var)
        if ts.accept("from"):
            direction = M.ON_RECEIVE
        elif ts.accept("to"):
            direction = M.ON_SEND
        else:
            t = ts.peek()
            raise ParseError("expected 'from' or 'to'", t.line, t.col)
        peer = ts.expect_ident().value
        ts.expect("if")
        cond = qp.parse_query()
        ts.expect("then")
        act_tok = ts.expect_ident()
        ts.expect("(")
        args = ts.items(qp.parse_term)
        shell.update_rules.append(
            UpdateRule(direction, msg_tok.value, tuple(payload), peer, cond,
                       act_tok.value, tuple(args))
        )
        ts.end_statement()

    # -- assembly and resolution --------------------------------------------

    def _assemble(self) -> RmasSpec:
        inst_shells = [s for s in self.shells if s.institutional]
        if len(inst_shells) > 1:
            raise ResolutionError("multiple institutional specs declared")
        if not inst_shells:
            inst_shells = [_new_shell("instSpec", True)]
            self.shells.append(inst_shells[0])
            self.const_names["instSpec"] = mk_symbol(SPEC_TYPE, "instSpec")

        for name, spec_name in self.initial_agents:
            if spec_name not in {s.name for s in self.shells}:
                raise ResolutionError(f"agent {name!r} uses undeclared spec {spec_name!r}")

        agent_specs: dict[str, AgentSpec] = {}
        for shell in self.shells:
            agent_specs[shell.name] = self._resolve_shell(shell)

        return RmasSpec(
            types=self.types,
            facets=self.facets,
            services=self.services,
            messages=self.messages,
            agent_specs=agent_specs,
            institutional=inst_shells[0].name,
            initial_agents=tuple(self.initial_agents),
            mode_flags=frozenset(self.mode_flags),
        )

    def _resolve_shell(self, shell: _SpecShell) -> AgentSpec:
        resolver = _Resolver(self, shell)
        init_facts = [resolver.resolve_fact(rel, terms) for rel, terms in shell.init_facts]
        constraints = tuple(resolver.resolve_query(c) for c in shell.constraints)
        comm = []
        for query, message, terms, target in shell.comm_rules:
            msg = self.messages.get(message)
            if msg is None:
                raise ResolutionError(f"unknown message {message!r} in spec {shell.name!r}")
            # a payload term other than a variable, and a target naming a
            # declared constant, desugar to a fresh variable equated with it,
            # named apart from every variable of the rule
            taken = {t.name for a in Q.atoms(query) for t in Q.atom_terms(a)
                     if isinstance(t, Var)}
            taken |= {t.name for t in terms if isinstance(t, Var)} | {target}
            extra: list[Query] = []

            def apart(t: Term, base: str) -> str:
                if isinstance(t, Var) and t.name not in self.const_names:
                    return t.name
                while base in taken:
                    base = "_" + base
                taken.add(base)
                extra.append(Q.EqAtom(Var(base), Const(self.const_names[t.name])
                                      if isinstance(t, Var) else t))
                return base

            payload = tuple(apart(t, f"_p{i}") for i, t in enumerate(terms, 1))
            target = apart(Var(target), "_pt")
            seeds = msg.var_types(payload, target, self.facets)
            comm.append(CommRule(resolver.resolve_query(Q.q_and(query, *extra), seed_types=seeds),
                                 message, payload, target))
        # an untouched built-in body is resolved already: its variables are
        # never the spec's names
        builtin = M.institutional_actions()
        actions = {name: act if act == builtin.get(name) else resolver.resolve_action(act)
                   for name, act in shell.actions.items()}
        rules = []
        for r in shell.update_rules:
            msg = self.messages.get(r.message)
            if msg is None:
                raise ResolutionError(f"unknown message {r.message!r} in spec {shell.name!r}")
            act = actions.get(r.action)
            if act is None:
                raise ResolutionError(f"unknown action {r.action!r} in spec {shell.name!r}")
            if len(r.args) != len(act.params):
                raise ResolutionError(
                    f"action {r.action!r} takes {len(act.params)} arguments, got {len(r.args)}"
                )
            seeds = msg.var_types(r.payload_vars, r.peer_var, self.facets)
            # payload and peer variables are binders: they shadow constants
            binders = frozenset(r.payload_vars) | {r.peer_var}
            args = []
            for i, a in enumerate(r.args):
                if not (isinstance(a, Var) and a.name in binders):
                    a = resolver._name_to_const(a)
                args.append(resolver._finish_term(a, resolver.base_type(act.params[i][1])))
            rules.append(replace(
                r,
                condition=resolver.resolve_query(r.condition, seed_types=seeds,
                                                 shadowed=binders),
                args=tuple(args),
            ))
        return AgentSpec(
            name=shell.name,
            schema=dict(shell.schema),
            constraints=constraints,
            initial_db=Database(init_facts),
            comm_rules=tuple(comm),
            actions=actions,
            update_rules=tuple(rules),
        )


class _Resolver:
    """Second pass: names to constants/params, raw literals to typed objects."""

    def __init__(self, parser: SpecParser, shell: _SpecShell) -> None:
        self.p = parser
        self.shell = shell
        self.ctx = Q.SchemaContext(shell.schema, parser.facets, parser.types)

    def base_type(self, facet_name: str) -> str:
        return self.p.facets[facet_name].base_type

    def component_types(self, rel: str, terms: tuple) -> list[str]:
        try:
            return self.ctx.component_types(rel, len(terms))
        except Q.IncompatibleQuery as e:
            raise ResolutionError(f"{e} in spec {self.shell.name!r}") from None

    def resolve_fact(self, rel: str, terms: tuple[Term, ...]):
        objs: list[DataObject] = []
        for t, ct in zip(terms, self.component_types(rel, terms)):
            t = self._name_to_const(t)
            if not isinstance(t, Const):
                raise ResolutionError(f"initial facts must be ground, found {t!r} in {rel!r}")
            objs.append(_resolve_literal(t.obj, ct, self.p.types))
        return (rel, tuple(objs))

    def _name_to_const(self, t: Term, param_names: frozenset[str] = frozenset()) -> Term:
        if isinstance(t, Var):
            if t.name in param_names:
                return Param(t.name)
            obj = self.p.const_names.get(t.name)
            if obj is not None:
                return Const(obj)
        return t

    def resolve_query(
        self,
        q: Query,
        param_types: Optional[dict[str, str]] = None,
        seed_types: Optional[dict[str, str]] = None,
        shadowed: frozenset[str] = frozenset(),
    ) -> Query:
        """q with free names turned into constants or parameters (`shadowed`
        names stay variables), its variables typed and its literals resolved.
        A type clash leaves q untyped for the well-formedness check to report."""
        param_names = frozenset(param_types or ())
        q = Q.map_free(q, lambda v: v if v.name in shadowed
                       else self._name_to_const(v, param_names))
        params = {p: self.base_type(f) for p, f in (param_types or {}).items()}
        try:
            return Q.typecheck_query(
                q, self.ctx, params, seed_types, require_all=False,
                literal=lambda obj, t: _resolve_literal(obj, t, self.p.types))[0]
        except Q.TypeClash:
            return q
        except Q.IncompatibleQuery as e:
            raise ResolutionError(f"{e} in spec {self.shell.name!r}") from None

    def _finish_term(self, t: Term, type_name: str) -> Term:
        if isinstance(t, Const):
            return Const(_resolve_literal(t.obj, type_name, self.p.types))
        return t

    def resolve_action(self, act: UpdateAction) -> UpdateAction:
        param_types = dict(act.params)
        effects = []
        for eff in act.effects:
            guard = self.resolve_query(eff.guard, param_types)
            adds = tuple(self._resolve_template(t, param_types) for t in eff.adds)
            dels = tuple(self._resolve_template(t, param_types) for t in eff.dels)
            effects.append(UpdateEffect(guard, adds, dels))
        return UpdateAction(act.name, act.params, tuple(effects))

    def _resolve_template(self, tpl: FactTemplate, param_types: dict[str, str]) -> FactTemplate:
        terms = []
        for t, ct in zip(tpl.terms, self.component_types(tpl.rel, tpl.terms)):
            if isinstance(t, CallTerm):
                svc = self.p.services.get(t.service)
                if svc is None:
                    raise ResolutionError(f"unknown service {t.service!r}")
                if len(t.args) != svc.arity:
                    raise ResolutionError(f"service {t.service!r} used with wrong arity")
                args = []
                for j, a in enumerate(t.args):
                    a = self._name_to_const(a, frozenset(param_types))
                    args.append(self._finish_term(a, self.base_type(svc.input_facets[j])))
                terms.append(CallTerm(t.service, tuple(args)))
            else:
                t = self._name_to_const(t, frozenset(param_types))
                terms.append(self._finish_term(t, ct))
        return FactTemplate(tpl.rel, tuple(terms))

def parse_spec(text: str) -> RmasSpec:
    """Parse a `.rmas` specification with the built-ins declared (see the
    module docstring); install_institutional completes the initial data."""
    return SpecParser(text).parse()


# ---------------------------------------------------------------------------
# Serializer


def _lit(obj: DataObject) -> str:
    if obj.is_undef():
        return "undef"
    if isinstance(obj.value, str):
        if obj.type_name in (AGENT_TYPE, SPEC_TYPE):
            return obj.value
        return f'"{obj.value}"'
    return str(obj.value)


def _term_str(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Param):
        return t.name
    if isinstance(t, Const):
        return _lit(t.obj)
    if isinstance(t, CallTerm):
        return f"{t.service}({', '.join(_term_str(a) for a in t.args)})"
    raise ValueError(f"unknown term {t!r}")


def _query_str(q: Query, prec: int = 0) -> str:
    # precedence levels: 0 = implies, 1 = or, 2 = and, 3 = unary
    if isinstance(q, Q.TrueQ):
        return "true"
    if isinstance(q, Q.Not):
        if isinstance(q.body, Q.TrueQ):
            return "false"
        if isinstance(q.body, Q.EqAtom):
            return f"{_term_str(q.body.left)} != {_term_str(q.body.right)}"
        return "!" + _query_str(q.body, 3)
    if isinstance(q, Q.RelAtom):
        return f"{q.name}({', '.join(_term_str(t) for t in q.terms)})"
    if isinstance(q, Q.EqAtom):
        return f"{_term_str(q.left)} = {_term_str(q.right)}"
    if isinstance(q, Q.LessAtom):
        return f"{_term_str(q.left)} < {_term_str(q.right)}"
    if isinstance(q, Q.SuccAtom):
        return f"succ({_term_str(q.left)}, {_term_str(q.right)})"
    if isinstance(q, Q.And):
        s = " & ".join(_query_str(p, 3) for p in q.parts)
        return f"({s})" if prec > 2 else s
    if isinstance(q, Q.Or):
        # print implications back as A -> B when they have the Not/Or shape
        if len(q.parts) == 2 and isinstance(q.parts[0], Q.Not) and not isinstance(
            q.parts[0].body, (Q.TrueQ, Q.EqAtom)
        ):
            lhs = _query_str(q.parts[0].body, 1)
            rhs = _query_str(q.parts[1], 0)
            s = f"{lhs} -> {rhs}"
            return f"({s})" if prec > 0 else s
        s = " | ".join(_query_str(p, 3) for p in q.parts)
        return f"({s})" if prec > 1 else s
    if isinstance(q, (Q.Exists, Q.Forall)):
        kw = "exists" if isinstance(q, Q.Exists) else "forall"
        names = [q.var]
        body = q.body
        while isinstance(body, type(q)):
            names.append(body.var)
            body = body.body
        s = f"{kw} {', '.join(names)}. {_query_str(body, 0)}"
        return f"({s})" if prec > 0 else s
    raise ValueError(f"unknown query node {q!r}")


def _away_from(names: set[str], q: Query, free: set[str], taken=frozenset()) -> dict[str, str]:
    """A fresh name for each of `free` that the reader would take for one of
    the spec's constant `names`, named like none of those, of q's variables
    and of `taken`."""
    taken = {*names, *taken, *(t.name for a in Q.atoms(q) for t in Q.atom_terms(a)
                               if isinstance(t, Var))}
    out: dict[str, str] = {}
    for v in sorted(free & names):
        i = 1
        while f"{v}{i}" in taken:
            i += 1
        taken.add(f"{v}{i}")
        out[v] = f"{v}{i}"
    return out


def _renamed(node, ren: dict[str, str]):
    """A term, or a query's free variables, renamed by ren."""
    if not ren or isinstance(node, (Const, Param)):
        return node
    if isinstance(node, Var):
        return Var(ren.get(node.name, node.name))
    if isinstance(node, CallTerm):
        return replace(node, args=tuple(_renamed(a, ren) for a in node.args))
    return Q.map_free(node, lambda v: _renamed(v, ren))


def _templates_str(kw: str, tpls: tuple[FactTemplate, ...], ren: dict[str, str]) -> list[str]:
    if not tpls:
        return []
    return [f"{kw} {{ " + ", ".join(
        f"{t.rel}({', '.join(_term_str(_renamed(x, ren)) for x in t.terms)})" for t in tpls
    ) + " }"]


def serialize_spec(spec: RmasSpec) -> str:
    """Render a specification back to `.rmas` text.

    Every declaration equal to the built-in one the parser seeds (types,
    facets, services, and each spec block's relations and actions) is
    omitted.  A free variable of an action or a proactive rule named like
    an agent or a spec, which the reader would take for that constant, is
    written under a fresh name.
    """
    names = {INST_NAME, *spec.agent_specs, *(ag for ag, _ in spec.initial_agents)}
    out: list[str] = []
    for flag in sorted(spec.mode_flags):
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", flag):
            out.append(f"mode {flag}")
        else:
            out.append(f'mode "{flag}"')
    types, facets, services = M.builtin_declarations()
    for name, t in spec.types.items():
        if types.get(name) == t:
            continue
        rels = []
        if t.has_less:
            rels.append("less")
        if t.has_succ:
            rels.append("succ")
        suffix = f" with {', '.join(rels)}" if rels else ""
        out.append(f"type {name} {t.carrier}{suffix}")
    for name, facet in spec.facets.items():
        if facets.get(name) == facet:
            continue
        s = f"facet {name} of {facet.base_type}"
        seeds = facet.initial_objects
        if not facet.is_base():
            s += f": {_query_str(facet.formula, 3)}"
            seeds -= Q.constants(facet.formula)
        if seeds:
            lits = ", ".join(_lit(o) for o in sorted(seeds, key=DataObject.sort_key))
            s += f" init {{ {lits} }}"
        out.append(s)
    for name, svc in spec.services.items():
        if services.get(name) == svc:
            continue
        out.append(f"service {name}({', '.join(svc.input_facets)}) -> {svc.output_facet}")
    for name, msg in spec.messages.items():
        out.append(f"message {name}({', '.join(msg.payload_facets)})")
    for ag, sp in spec.initial_agents:
        out.append(f"agent {ag} : {sp}")

    for name, ag in spec.agent_specs.items():
        header = f"spec {name} institutional" if name == spec.institutional else f"spec {name}"
        out.append("")
        out.append(header + " {")
        seed = _new_shell(name, name == spec.institutional)
        for rel, rs in ag.schema.items():
            if seed.schema.get(rel) == rs:
                continue
            out.append(f"  relation {rel}({', '.join(rs.facets)})")
        for c in ag.constraints:
            out.append(f"  constraint {_query_str(c)}")
        facts = ag.initial_db.canonical()
        if facts:
            rendered = ", ".join(
                f"{rel}({', '.join(_lit(o) for o in args)})" for rel, args in facts
            )
            out.append(f"  init {rendered}")
        for act_name, act in ag.actions.items():
            if seed.actions.get(act_name) == act:
                continue
            params = ", ".join(f"{p}: {f}" for p, f in act.params)
            out.append(f"  action {act_name}({params}) {{")
            for eff in act.effects:
                ren = _away_from(names, eff.guard, Q.free_vars(eff.guard),
                                 {p for p, _ in act.params})
                out.append(" ".join([f"    {_query_str(_renamed(eff.guard, ren))} ~>",
                                     *_templates_str("add", eff.adds, ren),
                                     *_templates_str("del", eff.dels, ren)]))
            out.append("  }")
        for r in ag.comm_rules:
            own = {*r.payload_vars, r.target_var}
            ren = _away_from(names, r.query, Q.free_vars(r.query) | own, own)
            payload = ", ".join(ren.get(v, v) for v in r.payload_vars)
            out.append(f"  {_query_str(_renamed(r.query, ren))} enables {r.message}({payload}) "
                       f"to {ren.get(r.target_var, r.target_var)}")
        for r in ag.update_rules:
            kw = "from" if r.direction == M.ON_RECEIVE else "to"
            payload = ", ".join(r.payload_vars)
            args = ", ".join(_term_str(a) for a in r.args)
            out.append(
                f"  on {r.message}({payload}) {kw} {r.peer_var} "
                f"if {_query_str(r.condition)} then {r.action}({args})"
            )
        out.append("}")
    return "\n".join(out) + "\n"
