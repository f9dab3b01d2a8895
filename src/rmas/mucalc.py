"""First-order mu-calculus with location atoms over a finite transition system.

A property's first-order part is the query language of `queries`, parsed by
`dsl.QueryParser`: `TrueQ`, `Not`, `And`, `Or`, `Exists`, `Forall`, `EqAtom`
and `LessAtom`, without `succ`, `_` and `undef`.  This module adds what only
properties have: located atoms (`R@a(x, y)`) in place of relation atoms,
`live[T](x)`, typed binders (`x: T`), fixpoints and next-step modalities.  A
free name equal to `inst`, an initial agent or a spec is that constant; a
bound name shadows it.  Quantifiers range over the objects live in the
current state, and modal steps are wrapped in liveness guards so that
quantified data survives exactly as long as it persists in some database.
Fixpoints are computed by Kleene iteration; each approximant maps every
assignment of the free variables to the bitmask of the states where it holds.

What lives per transition system (`SystemTables`, kept on the system by its
first check): each state's predecessor ids, the ids of the states holding
each (agent, database) placement and each order database, each object's live
mask and the per-type universe, the all-true extension per domain, and each
atom's rows, keyed by the atom's value (and an equality's type) so equal atoms
of different properties share them.  The tables hold no mask per database: a
row or live mask is made by marking state ids into one `bytearray`, so the
build is linear in the states' placements.  What lives per check
(`ModelChecker`): the iteration count, the atoms expanded over their domains,
and the step memo: per `<>`/`[]` node, dom and assignment, the last mask the
step read and its predecessors, so that an approximant that grew costs only
the predecessors of its new states.  A verdict keeps the initial-state
extension as a mask and lists its pairs only when `extension` is read.
"""

from __future__ import annotations

import itertools
import operator
from functools import partial
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .data import AGENT_TYPE, INST_NAME, Database, DataObject, carrier_less, mk_symbol
from . import model as M
from .builder import TransitionSystem, collector_paused
from .dsl import KEYWORDS, ParseError, QueryParser, TokenStream, tokenize, _resolve_literal
from .model import RmasSpec, initial_data_domain
from . import queries as Q
from .queries import And, Const, EqAtom, Exists, Forall, LessAtom, Not, Or, Query, Term, TrueQ, Var
from .queries import lessthan_rel
from .shallow import is_accessory


class PropError(Exception):
    pass


class NonMonotoneFixpoint(PropError):
    pass


class UnguardedModalVariables(PropError):
    pass


# ---------------------------------------------------------------------------
# AST: the query nodes, and these for what only properties have


class Prop(Query):
    pass


@dataclass(frozen=True)
class LocAtom(Prop):
    """R(terms)@loc: the relation holds in the database of the located agent."""

    name: str
    terms: tuple[Term, ...]
    loc: Term


@dataclass(frozen=True)
class LiveAtom(Prop):
    type_name: str
    var: str


@dataclass(frozen=True)
class PVar(Prop):
    name: str


@dataclass(frozen=True)
class PMu(Prop):
    var: str
    body: Query


@dataclass(frozen=True)
class PNu(Prop):
    var: str
    body: Query


@dataclass(frozen=True)
class PDiamond(Prop):
    guards: tuple[tuple[str, str], ...]  # (var, type): live guards on the step
    body: Query


@dataclass(frozen=True)
class PBox(Prop):
    guards: tuple[tuple[str, str], ...]
    body: Query


def children(p: Query) -> tuple[Query, ...]:
    if isinstance(p, (PMu, PNu, PDiamond, PBox)):
        return (p.body,)
    return Q.children(p)


def rebuild(p: Query, f: Callable[[Query], Query],
            term: Optional[Callable[[Term], Term]] = None) -> Query:
    """p of the same kind, with f applied to each of its children and, when
    given, `term` to each term of an atom."""
    if not isinstance(p, Prop):
        return Q.rebuild(p, f, term)
    if isinstance(p, (PMu, PNu)):
        return type(p)(p.var, f(p.body))
    if isinstance(p, (PDiamond, PBox)):
        return type(p)(p.guards, f(p.body))
    if isinstance(p, LocAtom) and term is not None:
        return LocAtom(p.name, tuple(map(term, p.terms)), term(p.loc))
    return p


def free_vars_plus(p: Query, env: dict[str, frozenset[str]]) -> frozenset[str]:
    """Free first-order variables, a fixpoint variable standing for those of
    its nearest enclosing binder (env maps the binders in scope to theirs)."""
    if isinstance(p, LocAtom):
        return frozenset(_term_vars((p.loc,) + p.terms))
    if isinstance(p, Q.ATOMS):
        return frozenset(Q.free_vars(p))
    if isinstance(p, LiveAtom):
        return frozenset({p.var})
    if isinstance(p, PVar):
        return env.get(p.name, frozenset())
    if isinstance(p, (Exists, Forall)):
        return free_vars_plus(p.body, env) - {p.var}
    if isinstance(p, (PMu, PNu)):
        return binder_fv(p, env)
    out: frozenset[str] = frozenset()
    for c in children(p):
        out |= free_vars_plus(c, env)
    return out


def binder_fv(p: Query, env: dict[str, frozenset[str]]) -> frozenset[str]:
    """The free first-order variables of a mu/nu formula: the least set its
    body has when the binder's own variable stands for that set."""
    # The body's set is F(S) = F(empty) | (S minus the names bound on the
    # way to each occurrence), so F(F(empty)) = F(empty): one pass reaches it.
    return free_vars_plus(p.body, {**env, p.var: frozenset()})


# ---------------------------------------------------------------------------
# Parsing


class PropParser(QueryParser):
    """The query grammar plus typed binders, `mu`/`nu`, `<>`/`[]`,
    `live[T](x)`, located atoms and fixpoint variables.  It refuses an
    unlocated relation atom, `succ`, `undef` and `_`."""

    def __init__(self, text: str, spec: RmasSpec) -> None:
        super().__init__(TokenStream([t for t in tokenize(text) if t.kind != "newline"]))
        self.spec = spec
        self.consts: dict[str, DataObject] = {INST_NAME: mk_symbol(AGENT_TYPE, INST_NAME)}
        for name, _ in spec.initial_agents:
            self.consts[name] = mk_symbol(AGENT_TYPE, name)
        for sname in spec.agent_specs:
            self.consts[sname] = mk_symbol("spec", sname)
        self.fix_bound: list[str] = []

    def parse(self) -> Query:
        p = self.parse_query()
        t = self.ts.peek()
        if t.kind != "eof":
            raise ParseError(f"unexpected {t.value!r} after formula", t.line, t.col)
        return p

    def parse_query(self) -> Query:
        ts = self.ts
        if ts.at("mu") or ts.at("nu"):
            kw = ts.next().value
            var = ts.expect_ident().value
            ts.expect(".")
            self.fix_bound.append(var)
            body = self.parse_query()
            self.fix_bound.pop()
            return PMu(var, body) if kw == "mu" else PNu(var, body)
        return super().parse_query()

    def parse_binder(self) -> tuple[str, str]:
        v, t = super().parse_binder()
        if self.ts.accept(":"):
            tok = self.ts.expect_ident()
            t = tok.value
            if t not in self.spec.types:
                raise ParseError(f"unknown type {t!r}", tok.line, tok.col)
        return v, t

    def parse_unary(self) -> Query:
        if self.ts.accept("<>"):
            return PDiamond((), self.parse_unary())
        if self.ts.accept("[]"):
            return PBox((), self.parse_unary())
        return super().parse_unary()

    def parse_atom(self) -> Query:
        ts = self.ts
        t = ts.peek()
        if ts.accept("live"):
            ts.expect("[")
            tok = ts.expect_ident()
            ty = tok.value
            if ty not in self.spec.types:
                raise ParseError(f"unknown type {ty!r}", tok.line, tok.col)
            ts.expect("]")
            ts.expect("(")
            v = ts.expect_ident().value
            ts.expect(")")
            return LiveAtom(ty, v)
        if t.kind == "ident" and t.value not in KEYWORDS:
            nxt = ts.peek(1)
            if nxt.value == "@":
                return self.parse_located()
            if nxt.value == "(":
                raise ParseError(f"expected an atom, found {nxt}", nxt.line, nxt.col)
            if t.value in self.fix_bound and nxt.value not in ("=", "!=", "<", ">"):
                ts.next()
                return PVar(t.value)
        if ts.at("succ"):
            raise ParseError(f"expected a term, found {t}", t.line, t.col)
        return super().parse_atom()

    def parse_located(self) -> Query:
        ts = self.ts
        tok = ts.expect_ident()
        name = tok.value
        if is_accessory(name):
            raise ParseError(f"accessory relation {name!r} cannot appear in properties",
                             tok.line, tok.col)
        ts.expect("@")
        loc_tok = ts.expect_ident()
        terms = ts.items(self.parse_term) if ts.accept("(") else []
        return LocAtom(name, tuple(terms), Var(loc_tok.value))

    def parse_term(self) -> Term:
        t = self.ts.peek()
        if self.ts.at("undef") or self.ts.at("_"):
            raise ParseError(f"expected a term, found {t}", t.line, t.col)
        return super().parse_term()


# ---------------------------------------------------------------------------
# Resolution: constants, types, guards, monotonicity


class _PropResolver:
    def __init__(self, parser: PropParser) -> None:
        self.p = parser
        self.spec = parser.spec
        self.ctx = parser.spec.schema_context()
        self.literal = partial(_resolve_literal, types=parser.spec.types)

    def resolve(self, prop: Query) -> Query:
        consts = self.p.consts
        prop = Q.map_free(prop, lambda v: Const(consts[v.name]) if v.name in consts else v,
                          rebuild)
        self._check_monotone(prop)
        typing = Q.Typing(children, self._demands, self.spec.types)
        try:
            typing.visit(prop).check()
        except Q.IncompatibleQuery as e:
            raise PropError(str(e)) from None
        if typing.stale:
            prop = self._finish(prop, iter(typing.solved))
        return self._guard_modalities(prop, {}, frozenset(), typing.free_types())

    def _check_monotone(self, p: Query, positive: Optional[dict[str, bool]] = None) -> None:
        """Refuse a fixpoint variable under an odd number of negations,
        counted from its own binder: `positive` maps each fixpoint variable
        in scope to whether that count is even so far."""
        positive = positive or {}
        if isinstance(p, PVar):
            if not positive.get(p.name, True):
                raise NonMonotoneFixpoint(
                    f"fixpoint variable {p.name!r} under an odd number of negations")
            return
        if isinstance(p, Not):
            positive = {v: not even for v, even in positive.items()}
        elif isinstance(p, (PMu, PNu)):
            positive = {**positive, p.var: True}
        for c in children(p):
            self._check_monotone(c, positive)

    def _demands(self, p: Query) -> Optional[list[tuple]]:
        if isinstance(p, LocAtom):
            types = self.ctx.component_types(p.name, len(p.terms))
            return [((t,), ct, p.name) for t, ct in zip((p.loc,) + p.terms, [AGENT_TYPE] + types)]
        if isinstance(p, LiveAtom):
            return [((Var(p.var),), p.type_name, "live")]
        return self.ctx.demands(p)

    def _finish(self, p: Query, solved: Iterator) -> Query:
        """p with the solved types on its binders and comparisons, and its
        raw literals resolved; `solved` follows the order of the walk."""
        if isinstance(p, LocAtom):
            loc_type, *types = next(solved)
            lit = partial(Q.resolve_raw, literal=self.literal)
            return LocAtom(p.name, tuple(map(lit, p.terms, types)), lit(p.loc, loc_type))
        if isinstance(p, LiveAtom):
            next(solved)
        again = lambda c: self._finish(c, solved)
        if isinstance(p, Prop):
            return rebuild(p, again)
        return Q.finish(p, solved, self.literal, again)

    # attach live guards to modalities; reject unguarded free variables
    def _guard_modalities(self, p: Query, env, guards: frozenset[str],
                          types: dict[str, str]) -> Query:
        """env maps each fixpoint variable in scope to its binder's free
        first-order variables, `types` each first-order variable in scope to
        the type of its nearest binder."""
        if isinstance(p, (PDiamond, PBox)):
            need = sorted(free_vars_plus(p.body, env))
            missing = [v for v in need if v not in guards]
            if missing:
                raise UnguardedModalVariables(
                    f"variables {missing} are free under a modality but not "
                    f"guarded by a conjoined live or positive atom")
            gs = tuple((v, types[v]) for v in need)
            return type(p)(gs, self._guard_modalities(p.body, env, frozenset(), types))
        if isinstance(p, And):
            guards = guards | self._guarded_by(p.parts)
        elif isinstance(p, (Not, Or)):
            guards = frozenset()
        elif isinstance(p, (Exists, Forall)):
            types = {**types, p.var: p.type_name}
        elif isinstance(p, (PMu, PNu)):
            env = {**env, p.var: binder_fv(p, env)}
        return rebuild(p, lambda c: self._guard_modalities(c, env, guards, types))

    def _guarded_by(self, parts: Iterable[Query]) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for part in parts:
            if isinstance(part, (LocAtom, LiveAtom)):
                out |= free_vars_plus(part, {})
            elif isinstance(part, And):
                out |= self._guarded_by(part.parts)
        return out


def parse_property(text: str, spec: RmasSpec) -> Query:
    """Parse and normalize a closed property, ready for `model_check` on a
    system of any mode; raises on syntax errors, non-monotone fixpoints,
    unguarded modal variables and open formulas."""
    parser = PropParser(text, spec)
    prop = _PropResolver(parser).resolve(parser.parse())
    check_closed(prop)
    return prop


def flatten_property(p: Query) -> Query:
    """p itself: the checker picks each state's order source.  Kept only
    because the benchmark worker (`perfbench/worker.py`) still calls it."""
    return p


# ---------------------------------------------------------------------------
# Model checking


# the (variable, type) of each binder around a subformula, outermost first
Dom = tuple[tuple[str, str], ...]


@dataclass
class Verdict:
    """A check's outcome: `mask` has bit `sid` set for each state where the
    property holds, and `extension` lists those states as (sid, ()) pairs,
    computed when it is read."""

    truth: bool
    mask: int = 0
    iterations: int = 0

    @property
    def extension(self) -> frozenset:
        return frozenset((sid, ()) for sid in _bits(self.mask))


def _constants(spec: RmasSpec) -> frozenset[DataObject]:
    return frozenset(o for cs in initial_data_domain(spec).values() for o in cs)


class SystemTables:
    """What every check on one transition system shares, built by its first
    check and kept on the system (`TransitionSystem.check_tables`): the
    all-states mask, each state's predecessor ids, the ids of the states
    holding each (agent, database) placement and each order database, each
    object's live mask, the per-type universe, the all-true extension per
    domain and each atom's rows.  Memory grows with the edges and the
    placements, not with the states times the databases: the only masks are
    the live masks and the rows some check asked for.  The tables stay valid
    while the system's `states` and `edges` lists are the same objects of the
    same lengths and the spec's constants are the same; `spec` is the last
    spec they were found to fit, whose constants need no second look."""

    def __init__(self, ts: TransitionSystem, consts: frozenset[DataObject]) -> None:
        self.states, self.edges, self.consts = ts.states, ts.edges, consts
        self.spec: Optional[RmasSpec] = None
        self.sizes = (len(ts.states), len(ts.edges))
        n = self.n = len(ts.states)
        self.full = (1 << n) - 1
        # pred[sid]: the states with an edge into sid, one id per edge
        self.pred: list[list[int]] = [[] for _ in range(n)]
        for a, b in ts.edges:
            self.pred[b].append(a)
        inst = mk_symbol(AGENT_TYPE, INST_NAME)
        # States share the databases of the agents a step leaves alone, so
        # each (agent, database) pair is read once, with the ids of the
        # states that hold it, keyed apart by whether the agent is registered
        # there (an Agent fact in inst's database); `orders` does the same
        # for the order databases.  Each of inst's databases is read for its
        # Agent facts once, into `rosters`.
        holds: dict[tuple, tuple[DataObject, Database, list[int]]] = {}
        orders: dict[int, tuple[Database, list[int]]] = {}
        rosters: dict[int, set] = {}  # id(inst's db) -> the agents it registers
        for sid, s in enumerate(ts.states):
            if s.order_db is not None:
                got = orders.get(id(s.order_db))
                if got is None:
                    got = orders[id(s.order_db)] = (s.order_db, [])
                got[1].append(sid)
            inst_db = s.db(inst)
            agents = rosters.get(id(inst_db))
            if agents is None:
                agents = rosters[id(inst_db)] = set() if inst_db is None else {
                    args[0] for args in inst_db.facts_for(M.AGENT_REL)}
            for agent, db in s.agent_dbs:
                key = (agent, id(db), agent in agents)
                got = holds.get(key)
                if got is None:
                    got = holds[key] = (agent, db, [])
                got[2].append(sid)
        self.placed = [got for key, got in holds.items() if key[2]]
        self.orders = list(orders.values())
        # the states where each object is live, for every object stored
        # anywhere and every initial constant: the ids of each pair that
        # stores it
        holders: dict[DataObject, list[list[int]]] = {o: [] for o in consts}
        for _, db, ids in holds.values():
            for o in db.adom():
                holders.setdefault(o, []).append(ids)
        # per type: the universe in canonical order, and each object's live mask
        self.live: dict[str, dict[DataObject, int]] = {}
        for o in sorted(holders, key=DataObject.sort_key):
            self.live.setdefault(o.type_name, {})[o] = _mask(n, holders[o])
        self.universe = {t: list(per) for t, per in self.live.items()}
        self.tops: dict[tuple[str, ...], dict[tuple, int]] = {}
        self.rows: dict[tuple, tuple[tuple[str, ...], dict[tuple, int]]] = {}

    def fits(self, ts: TransitionSystem, spec: RmasSpec) -> bool:
        if not (self.states is ts.states and self.edges is ts.edges
                and self.sizes == (len(ts.states), len(ts.edges))):
            return False
        if spec is not self.spec:
            if _constants(spec) != self.consts:
                return False
            self.spec = spec
        return True

    def top(self, types: tuple[str, ...]) -> dict[tuple, int]:
        """Every assignment to variables of these types, true in every state."""
        out = self.tops.get(types)
        if out is None:
            full = self.full
            pools = [self.universe.get(t, []) for t in types]
            out = {c: full for c in itertools.product(*pools)} if full else {}
            self.tops[types] = out
        return out

    def atom_rows(self, atom: Query, eq_type: Optional[str] = None
                  ) -> tuple[tuple[str, ...], dict[tuple, int]]:
        """The atom's variables, and the states where it holds under each
        binding of them (only bindings that hold somewhere); computed once
        per atom value and, for an equality, the type it compares at."""
        got = self.rows.get((atom, eq_type))
        if got is None:
            got = self.rows[(atom, eq_type)] = self._atom_rows(atom, eq_type)
        return got

    def _atom_rows(self, atom: Query, eq_type: Optional[str]
                   ) -> tuple[tuple[str, ...], dict[tuple, int]]:
        if isinstance(atom, LiveAtom):
            return (atom.var,), {(o,): m for o, m in self.live.get(atom.type_name, {}).items()
                                 if m}
        # each row's id lists: the states of each database that holds it
        hits: dict[tuple, list[list[int]]] = {}
        if isinstance(atom, LocAtom):
            terms = (atom.loc,) + atom.terms
            names = _term_vars(terms)
            loc = atom.loc.obj if isinstance(atom.loc, Const) else None
            # distinct variables and no constants in the terms: a fact's
            # arguments are the row
            plain = len(names) == len(atom.terms) + (loc is None)
            for agent, db, ids in self.placed:
                if loc is not None and agent != loc:
                    continue
                for args in db.facts_for(atom.name):
                    if plain:
                        row = args if loc is not None else (agent,) + args
                    else:
                        row = _match(names, terms, (agent,) + args)
                        if row is None:
                            continue
                    hits.setdefault(row, []).append(ids)
            return names, {row: _mask(self.n, lists) for row, lists in hits.items()}
        if isinstance(atom, (EqAtom, LessAtom)):
            sides = (atom.left, atom.right)
            names = _term_vars(sides)
            less = isinstance(atom, LessAtom)
            pool = self.universe.get(atom.type_name if less else eq_type, [])
            # the states answered by the carrier: all of them for =, those
            # without an order database for <
            carrier = self.full
            if less:
                # the state's lessThan facts between universe objects, read
                # once per distinct order database
                members = set(pool)
                rel = lessthan_rel(atom.type_name)
                for order_db, ids in self.orders:
                    for pair in order_db.facts_for(rel):
                        if pair[0] == pair[1]:
                            continue
                        row = _match(names, sides, pair)
                        if row is not None and members.issuperset(row):
                            hits.setdefault(row, []).append(ids)
                carrier ^= _mask(self.n, [ids for _, ids in self.orders])
            rows = {row: _mask(self.n, lists) for row, lists in hits.items()}
            if carrier:
                test = carrier_less if less else operator.eq
                for row in itertools.product(pool, repeat=len(names)):
                    theta = dict(zip(names, row))
                    a, b = (theta[t.name] if isinstance(t, Var) else t.obj for t in sides)
                    if test(a, b):
                        rows[row] = rows.get(row, 0) | carrier
            return names, rows
        raise PropError(f"not an atom: {atom!r}")


class ModelChecker:
    """Set-at-a-time evaluation of one check over one transition system.

    An extension maps each assignment (a tuple of objects, one for each
    variable of `dom`, drawn from the per-type universe) to the bitmask of the
    states where the formula holds under it: bit `sid` stands for
    `ts.states[sid]`.  Assignments whose mask is zero are left out, so two
    extensions are equal exactly when they are equal dicts.  Extensions are
    shared, never mutated after they are returned.
    """

    def __init__(self, ts: TransitionSystem, spec: RmasSpec) -> None:
        tables = ts.check_tables
        if tables is None or not tables.fits(ts, spec):
            tables = ts.check_tables = SystemTables(ts, _constants(spec))
            tables.spec = spec
        self.tables = tables
        self.full, self.pred = tables.full, tables.pred
        self.live, self.universe = tables.live, tables.universe
        self._atoms: dict[tuple, dict[tuple, int]] = {}
        # per <>/[] node and dom: each assignment's last mask and its _pre
        self._steps: dict[tuple, dict[tuple, tuple[int, int]]] = {}
        self.iterations = 0

    # -- assignments -------------------------------------------------------------

    def _pools(self, dom: Dom) -> list[list[DataObject]]:
        return [self.universe.get(t, []) for _, t in dom]

    def _top(self, dom: Dom) -> dict[tuple, int]:
        """Every assignment over dom, true in every state."""
        return self.tables.top(tuple(t for _, t in dom))

    def _pre(self, m: int) -> int:
        """The states with a successor in m."""
        pred = self.pred
        return _mask(len(pred), map(pred.__getitem__, _bits(m)))

    def _pre_since(self, last: Optional[tuple[int, int]], m: int) -> int:
        """`_pre(m)`, given the last mask read for the same assignment and
        its `_pre`: when m contains that mask, only m's new states are read,
        since pre distributes over union.  Any earlier pair is exact, so a
        stale one costs time, never a wrong mask."""
        if last is not None:
            old, pre = last
            if m & old == old:
                new = m ^ old
                return pre | self._pre(new) if new else pre
        return self._pre(m)

    # -- atoms -------------------------------------------------------------------

    def _atom(self, atom: Query, dom: Dom) -> dict:
        """The atom's rows expanded over the positions of dom it leaves free
        (a shadowed one among them); computed once per atom and dom.  An
        equality compares at the type of its variables' binders."""
        key = (atom, dom)
        out = self._atoms.get(key)
        if out is not None:
            return out
        at = _positions(dom)
        eq_type = None
        if isinstance(atom, EqAtom):
            eq_type = next((dom[at[v]][1] for v in _term_vars((atom.left, atom.right))
                            if v in at), None)
        names, rows = self.tables.atom_rows(atom, eq_type)
        unbound = set(names).difference(at)
        if unbound:
            raise PropError(f"property must be closed; free variables {sorted(unbound)}")
        slots = [names.index(v) if v in names and at[v] == i else -1
                 for i, (v, _) in enumerate(dom)]
        pools = self._pools(dom)
        out = {}
        for row, m in rows.items():
            for c in itertools.product(*[(row[i],) if i >= 0 else pool
                                         for i, pool in zip(slots, pools)]):
                out[c] = m
        self._atoms[key] = out
        return out

    # -- evaluation -----------------------------------------------------------------

    def eval(self, p: Query, dom: Dom, env: dict[str, tuple[Dom, dict]]) -> dict[tuple, int]:
        """The extension of p over the assignments to dom, the (variable,
        type) of each binder around p, outermost first; env maps each
        fixpoint variable in scope to its binder's dom and approximant."""
        if isinstance(p, TrueQ):
            return self._top(dom)
        if isinstance(p, (LocAtom, LiveAtom, EqAtom, LessAtom)):
            return self._atom(p, dom)
        if isinstance(p, Not):
            body = self.eval(p.body, dom, env)
            full = self.full
            out = {}
            for c in self._top(dom):
                m = full ^ body.get(c, 0)
                if m:
                    out[c] = m
            return out
        if isinstance(p, And):
            if not p.parts:
                return self._top(dom)
            out = self.eval(p.parts[0], dom, env)
            for c in p.parts[1:]:
                e = self.eval(c, dom, env)
                small, big = (out, e) if len(out) <= len(e) else (e, out)
                out = {}
                for a, m in small.items():
                    m &= big.get(a, 0)
                    if m:
                        out[a] = m
            return out
        if isinstance(p, Or):
            out = {}
            for c in p.parts:
                for a, m in self.eval(c, dom, env).items():
                    out[a] = out.get(a, 0) | m
            return out
        if isinstance(p, (Exists, Forall)):
            body = self.eval(p.body, dom + ((p.var, p.type_name),), env)
            live = self.live.get(p.type_name, {})
            out = {}
            if isinstance(p, Exists):
                for c, m in body.items():
                    m &= live.get(c[-1], 0)
                    if m:
                        c = c[:-1]
                        out[c] = out.get(c, 0) | m
                return out
            # forall, relativized to live objects: holds where the body holds
            # for every object live there
            full = self.full
            # each object live somewhere, with the states where it is not
            dead = [(o, full ^ m) for o, m in live.items() if m]
            for c in self._top(dom):
                m = full
                for o, off in dead:
                    m &= body.get(c + (o,), 0) | off
                    if not m:
                        break
                if m:
                    out[c] = m
            return out
        if isinstance(p, (PDiamond, PBox)):
            body = self.eval(p.body, dom, env)
            at = _positions(dom)
            guards = [(at[v], self.live.get(t, {})) for v, t in p.guards]
            # diamond: the guarded states with a successor in body; box:
            # those with no successor outside it
            diamond = isinstance(p, PDiamond)
            flip = 0 if diamond else self.full
            last = self._steps.setdefault((id(p), dom), {})
            pre: dict[int, int] = {}  # many assignments share a mask
            out = {}
            for c in body if diamond else self._top(dom):
                on = flip ^ body.get(c, 0)
                m = pre.get(on)
                if m is None:
                    m = pre[on] = self._pre_since(last.get(c), on)
                last[c] = (on, m)
                m ^= flip
                for i, live in guards:
                    m &= live.get(c[i], 0)
                if m:
                    out[c] = m
            return out
        if isinstance(p, PVar):
            bdom, ext = env[p.name]
            k = len(bdom)
            assert dom[:k] == bdom
            if len(dom) == k:
                return ext
            pools = self._pools(dom[k:])
            return {c + extra: m for c, m in ext.items() for extra in itertools.product(*pools)}
        if isinstance(p, (PMu, PNu)):
            cur = {} if isinstance(p, PMu) else self._top(dom)
            while True:
                self.iterations += 1
                nxt = self.eval(p.body, dom, {**env, p.var: (dom, cur)})
                if nxt == cur:
                    return cur
                cur = nxt
        raise PropError(f"unknown property node {p!r}")


def _positions(dom: Dom) -> dict[str, int]:
    """Each variable of dom at its innermost position: a binder shadows the
    binders of its name around it."""
    return {v: i for i, (v, _) in enumerate(dom)}


def _term_vars(terms: Iterable[Term]) -> tuple[str, ...]:
    return tuple(dict.fromkeys(t.name for t in terms if isinstance(t, Var)))


def _match(names: tuple[str, ...], terms: tuple[Term, ...],
           args: tuple[DataObject, ...]) -> Optional[tuple[DataObject, ...]]:
    """The binding of names under which terms denote args, or None."""
    theta: dict[str, DataObject] = {}
    for t, obj in zip(terms, args):
        if isinstance(t, Const):
            if t.obj != obj:
                return None
        elif theta.setdefault(t.name, obj) != obj:
            return None
    return tuple(theta[v] for v in names)


def check_closed(prop: Query) -> None:
    """Raise PropError unless prop has no free first-order variable and every
    fixpoint variable is bound by an enclosing mu or nu."""
    free = free_vars_plus(prop, {})
    if free:
        raise PropError(f"property must be closed; free variables {sorted(free)}")

    def walk(p: Query, bound: frozenset[str]) -> None:
        if isinstance(p, PVar) and p.name not in bound:
            raise PropError(f"fixpoint variable {p.name!r} is not bound by mu or nu")
        if isinstance(p, (PMu, PNu)):
            bound = bound | {p.var}
        for c in children(p):
            walk(c, bound)

    walk(prop, frozenset())


def model_check(ts: TransitionSystem, spec: RmasSpec, prop: Query) -> Verdict:
    """Evaluate a closed property at the initial state."""
    check_closed(prop)
    with collector_paused():
        checker = ModelChecker(ts, spec)
        mask = checker.eval(prop, (), {}).get((), 0)
    return Verdict(truth=bool(mask >> ts.initial & 1), mask=mask,
                   iterations=checker.iterations)


_BIT_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _mask(n: int, id_lists: Iterable[Iterable[int]]) -> int:
    """The mask of the ids in id_lists, in a system of n states: each id is
    marked in one bytearray, converted to an int once."""
    mark = bytearray(n)
    for ids in id_lists:
        for i in ids:
            mark[i] = 1
    return int(mark[::-1].translate(_BIT_DIGITS) or b"0", 2)


def _bits(m: int) -> Iterator[int]:
    """The positions of the set bits of m, lowest first."""
    digits = bin(m)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)
