"""First-order queries over typed databases, compiled into plans.

Quantification always ranges over the active domain of the queried database
plus the constants of the initial data domain (the specs we accept are
domain-independent by construction, and relativization enforces it).
Dense comparisons are answered either from the rigid carrier order or from an
explicit lessThan fact database, depending on the order source.

`compile_query` turns a query into a Plan once, for a fixed set of variables
the caller pre-binds and with one slot per parameter: every variable
occurrence becomes a slot of an environment list, each node's free variables
and binder types are fixed, a Forall becomes a negated Exists, and each
conjunction runs its tests as soon as their variables are bound and its
binding atoms before the filters that need them.  A plan is a chain of
closures in continuation-passing style (Neumann, VLDB 2011, in Python): each
node extends the environment and calls the next one.  `eval_query` runs a
plan, or compiles a query on the spot, over a DbIndex: the facts of one
database grouped by relation and hashed on bound argument positions, with
its active domain and sorted quantifier ranges, each built on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Union

from .data import (
    Database,
    DataObject,
    DataTypeDef,
    TypedRelationSchema,
    Facet,
    UnknownRelation,
    Violation,
    carrier_less,
    carrier_succ,
    fact_key,
    literal_matches_carrier,
)


class QueryError(Exception):
    pass


class IncompatibleQuery(QueryError):
    pass


class MissingOrderFacts(QueryError):
    pass


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True)
class Param:
    name: str

    def __repr__(self) -> str:
        return f"${self.name}"


@dataclass(frozen=True)
class Const:
    obj: DataObject

    def __repr__(self) -> str:
        return repr(self.obj)


Term = Union[Var, Param, Const]


# ---------------------------------------------------------------------------
# Query AST


class Query:
    pass


@dataclass(frozen=True)
class TrueQ(Query):
    pass


@dataclass(frozen=True)
class RelAtom(Query):
    name: str
    terms: tuple[Term, ...]


@dataclass(frozen=True)
class EqAtom(Query):
    left: Term
    right: Term


@dataclass(frozen=True)
class LessAtom(Query):
    """Dense-order comparison left < right on a dense type, answered by the
    order source of the evaluation."""

    type_name: str
    left: Term
    right: Term


@dataclass(frozen=True)
class SuccAtom(Query):
    """left is the integer successor of right."""

    left: Term
    right: Term


@dataclass(frozen=True)
class Not(Query):
    body: Query


@dataclass(frozen=True)
class And(Query):
    parts: tuple[Query, ...]


@dataclass(frozen=True)
class Or(Query):
    parts: tuple[Query, ...]


@dataclass(frozen=True)
class Exists(Query):
    """exists var. body, var ranging over the active domain of `type_name`
    ("?" until inferred)."""

    var: str
    body: Query
    type_name: str = "?"


@dataclass(frozen=True)
class Forall(Query):
    var: str
    body: Query
    type_name: str = "?"


ATOMS = (RelAtom, EqAtom, LessAtom, SuccAtom)


def q_and(*parts: Query) -> Query:
    flat = [p for p in parts if not isinstance(p, TrueQ)]
    if not flat:
        return TrueQ()
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def q_or(*parts: Query) -> Query:
    if not parts:
        return Not(TrueQ())
    if len(parts) == 1:
        return parts[0]
    return Or(tuple(parts))


def q_implies(lhs: Query, rhs: Query) -> Query:
    return q_or(Not(lhs), rhs)


def q_false() -> Query:
    return Not(TrueQ())


# ---------------------------------------------------------------------------
# Traversal: every walk over a query is built on `children` and `rebuild`


def children(q: Query) -> tuple[Query, ...]:
    if isinstance(q, (And, Or)):
        return q.parts
    if isinstance(q, (Not, Exists, Forall)):
        return (q.body,)
    return ()


def rebuild(q: Query, f: Callable[[Query], Query],
            term: Optional[Callable[[Term], Term]] = None) -> Query:
    """q of the same kind, with f applied to each of its children and, when
    given, `term` to each term of an atom."""
    if isinstance(q, (And, Or)):
        return type(q)(tuple(f(c) for c in q.parts))
    if isinstance(q, Not):
        return Not(f(q.body))
    if isinstance(q, (Exists, Forall)):
        return type(q)(q.var, f(q.body), q.type_name)
    if term is None or isinstance(q, TrueQ):
        return q
    if isinstance(q, RelAtom):
        return RelAtom(q.name, tuple(map(term, q.terms)))
    if isinstance(q, LessAtom):
        return LessAtom(q.type_name, term(q.left), term(q.right))
    return type(q)(term(q.left), term(q.right))


def atom_terms(a: Query) -> tuple[Term, ...]:
    return a.terms if isinstance(a, RelAtom) else (a.left, a.right)


def atoms(q: Query) -> Iterator[Query]:
    if isinstance(q, ATOMS):
        yield q
    else:
        for c in children(q):
            yield from atoms(c)


def free_vars(q: Query) -> set[str]:
    if isinstance(q, ATOMS):
        return {t.name for t in atom_terms(q) if isinstance(t, Var)}
    if isinstance(q, (Exists, Forall)):
        return free_vars(q.body) - {q.var}
    out: set[str] = set()
    for c in children(q):
        out |= free_vars(c)
    return out


def constants(q: Query) -> set[DataObject]:
    return {t.obj for a in atoms(q) for t in atom_terms(a) if isinstance(t, Const)}


def map_terms(q: Query, f: Callable[[Term], Term]) -> Query:
    return rebuild(q, lambda c: map_terms(c, f), f)


def map_free(node, f: Callable[[Var], Term], rebuild=rebuild,
             bound: frozenset[str] = frozenset()):
    """node with f applied to each occurrence of a variable no Exists or
    Forall around it binds; `rebuild` describes the syntax tree, a query's
    by default."""
    if isinstance(node, (Exists, Forall)):
        bound = bound | {node.var}
    return rebuild(node, lambda c: map_free(c, f, rebuild, bound),
                   lambda t: f(t) if isinstance(t, Var) and t.name not in bound else t)


# ---------------------------------------------------------------------------
# Type inference, shared by queries and properties


class TypeClash(IncompatibleQuery):
    """One type variable was given two different types."""


_ORDERS = {"<": ("has_less", "dense order"), "succ": ("has_succ", "successor relation")}


class Typing:
    """Scope-aware type inference by union-find (Tarjan, JACM 1975).

    One pre-order walk over a query or a property makes a type variable of
    every binder occurrence, every free variable and every parameter; each
    group of terms an atom demands to share one type joins their variables.
    Each type name is a variable of its own, typed from the start, that a
    declared, seeded or constant type joins; a raw literal (a constant whose
    type starts with "?") takes the type of its group.  A binder is a
    variable of its own, so a name may be reused at another type in another
    scope, and an equality chain of any length is solved in the one walk.
    The first clash raises TypeClash.

    Both syntax trees bind with Exists and Forall, each of a `var` of a
    `type_name` ("?" when not declared), and pass what differs between
    them: `children`, and `demands`, which maps an atom to its (terms,
    fixed type or None, relation) groups and any other node to None.  The
    relation "<" or "succ" demands a type with that order among `types`.
    """

    def __init__(self, children, demands, types: dict[str, DataTypeDef],
                 param_types: Optional[dict[str, str]] = None) -> None:
        self.children, self.demands = children, demands
        self.types = types
        self.up: list[int] = []
        # set on the variable of each type name only, which stays its root
        self.type: list[Optional[str]] = []
        self.named: dict[str, int] = {}
        self.free: dict[str, int] = {}
        self.params = {p: self._named(t) for p, t in (param_types or {}).items()}
        # (binder, its variable) and (atom, the variable of each group), in walk order
        self.walk: list[tuple] = []
        # whether a binder or comparison lacks its type, or a literal is raw
        self.stale = False

    def _new(self, t: Optional[str] = None) -> int:
        self.up.append(len(self.up))
        self.type.append(t)
        return len(self.up) - 1

    def _named(self, t: str) -> int:
        i = self.named.get(t)
        if i is None:
            i = self.named[t] = self._new(t)
        return i

    def find(self, i: int) -> int:
        up = self.up
        while up[i] != i:
            up[i] = i = up[up[i]]
        return i

    def visit(self, node, scope: Optional[dict[str, int]] = None) -> "Typing":
        if scope is None:
            scope = {}
        if isinstance(node, (Exists, Forall)):
            v = self._new() if node.type_name == "?" else self._named(node.type_name)
            self.walk.append((node, v, None))
            scope = {**scope, node.var: v}
        kids = self.children(node)
        for c in kids:
            self.visit(c, scope)
        groups = None if kids else self.demands(node)
        if groups is not None:
            self.walk.append((node, [self._group(terms, t, rel, scope)
                                     for terms, t, rel in groups], groups))
        return self

    def _group(self, terms: tuple[Term, ...], t: Optional[str], rel: str,
               scope: dict[str, int]) -> int:
        """The variable the terms share, of type t unless t is None."""
        g = None if t is None else self._named(t)
        for term in terms:
            if isinstance(term, Const):
                if term.obj.type_name.startswith("?"):
                    self.stale = True
                    continue
                v = self._named(term.obj.type_name)
            else:
                v = scope.get(term.name) if isinstance(term, Var) else None
                if v is None:
                    table = self.params if isinstance(term, Param) else self.free
                    v = table.get(term.name)
                    if v is None:  # first seen: the variable is what the group shares
                        if g is None:
                            g = self._new()
                        table[term.name] = g
                        continue
            g = v if g is None or g == v else self._unify(g, v, term, rel)
        return self._new() if g is None else g

    def _unify(self, g: int, v: int, term: Term, rel: str) -> int:
        """Join what a group shares so far with one more of its terms."""
        a, b = self.find(g), self.find(v)
        if a == b:
            return a
        ta, tb = self.type[a], self.type[b]
        if ta is not None and tb is not None:
            what = repr(term.obj) if isinstance(term, Const) else \
                f"{'parameter' if isinstance(term, Param) else 'variable'} {term.name!r}"
            raise TypeClash(f"{what} used at type {tb} and at type {ta} (in {rel})")
        if ta is None:
            a, b = b, a
        self.up[b] = a
        return a

    def fill(self, types: dict[str, str]) -> "Typing":
        """Give free variables the types known outside the walk (a message's
        payload and peer); a use at another type is a clash."""
        for v, t in types.items():
            i = self._named(t)
            self._unify(self.free.setdefault(v, i), i, Var(v), "the message")
        return self

    def type_of(self, i: int) -> Optional[str]:
        return self.type[self.find(i)]

    def check(self, require_all: bool = True) -> "Typing":
        """Raise on the first group, or with require_all binder, left untyped
        and on a type without the order a relation needs.  `solved` then
        holds the type of each binder and the types of each atom's groups,
        in the order of the walk."""
        self.solved = [self.type_of(rec) if groups is None else list(map(self.type_of, rec))
                       for _, rec, groups in self.walk]
        for (node, _, groups), t in zip(self.walk, self.solved):
            if groups is None:
                if t is None and require_all:
                    raise IncompatibleQuery(
                        f"cannot infer the type of quantified variable {node.var!r}")
                self.stale |= (t or "?") != node.type_name
                continue
            for g, (terms, _, rel) in zip(t, groups):
                if g is None:
                    names = " and ".join(repr(x.name) for x in terms if isinstance(x, Var))
                    raise IncompatibleQuery("cannot infer the type of a comparison of "
                                            + (f"variables {names}" if names else "literals"))
                if rel in _ORDERS and not getattr(self.types.get(g), _ORDERS[rel][0], False):
                    raise IncompatibleQuery(f"type {g!r} has no {_ORDERS[rel][1]}")
            if len(t) == 1:
                self.stale |= getattr(node, "type_name", t[0]) != t[0]
        return self

    def free_types(self) -> dict[str, str]:
        return {v: t for v, i in self.free.items() if (t := self.type_of(i)) is not None}


@dataclass
class SchemaContext:
    """Everything typechecking needs to resolve relation components."""

    schema: dict[str, Optional[TypedRelationSchema]]  # None: typed two ways
    facets: dict[str, Facet]
    types: dict[str, DataTypeDef]

    def component_types(self, rel: str, arity: int) -> list[str]:
        rs = self.schema.get(rel)
        if rs is None:
            raise IncompatibleQuery(f"relation {rel!r} is declared with different typings"
                                    if rel in self.schema else f"unknown relation {rel!r}")
        if arity != rs.arity:
            raise IncompatibleQuery(
                f"relation {rel!r} used with {arity} terms, arity is {rs.arity}")
        return [self.facets[f].base_type for f in rs.facets]

    def demands(self, q: Query) -> Optional[list[tuple]]:
        """The (terms, fixed type or None, relation) groups of an atom."""
        if isinstance(q, RelAtom):
            return [((t,), ct, q.name)
                    for t, ct in zip(q.terms, self.component_types(q.name, len(q.terms)))]
        if isinstance(q, (EqAtom, SuccAtom)):
            return [((q.left, q.right), None, "=" if isinstance(q, EqAtom) else "succ")]
        if isinstance(q, LessAtom):
            return [((q.left, q.right), None if q.type_name == "?" else q.type_name, "<")]
        return None


def typecheck_query(
    q: Query,
    ctx: SchemaContext,
    param_types: Optional[dict[str, str]] = None,
    seed_types: Optional[dict[str, str]] = None,
    require_all: bool = True,
    literal: Optional[Callable[[DataObject, str], DataObject]] = None,
) -> tuple[Query, dict[str, str]]:
    """Infer the types of q's variables: q with every binder, comparison and
    raw literal typed (`literal` resolves a raw literal at a type), and the
    type of each free variable.

    `seed_types` injects externally known free-variable types (message
    payloads, peer variables); a use conflicting with a seed is a clash.
    Fails with TypeClash when a term is used at two types, and with
    IncompatibleQuery on an unknown relation or arity, a comparison left
    untyped or at a type without its order, and (with require_all) an
    untyped quantified variable.
    """
    typing = Typing(children, ctx.demands, ctx.types, param_types)
    if typing.visit(q).fill(seed_types or {}).check(require_all).stale:
        q = finish(q, iter(typing.solved), literal)
    return q, typing.free_types()


def finish(q: Query, solved: Iterator, literal, again=None) -> Query:
    """q with the solved types on its binders and comparisons and its raw
    literals resolved; `solved` follows the order of the walk.  `again`
    finishes each child, this function by default; a property passes its
    own, which knows the nodes only properties have."""
    if again is None:
        again = lambda c: finish(c, solved, literal)
    if isinstance(q, (Exists, Forall)):
        t = next(solved)
        return type(q)(q.var, again(q.body), t or "?")
    if isinstance(q, RelAtom):
        ts = next(solved)
        return RelAtom(q.name, tuple(resolve_raw(x, t, literal) for x, t in zip(q.terms, ts)))
    if isinstance(q, ATOMS):
        (t,) = next(solved)
        left, right = resolve_raw(q.left, t, literal), resolve_raw(q.right, t, literal)
        if isinstance(q, LessAtom):
            return LessAtom(t, left, right)
        return type(q)(left, right)
    return rebuild(q, again)


def resolve_raw(t: Term, type_name: str, literal) -> Term:
    """t, or the raw literal t resolved at type_name by `literal` if given."""
    if literal is not None and isinstance(t, Const) and t.obj.type_name.startswith("?"):
        return Const(literal(t.obj, type_name))
    return t


# ---------------------------------------------------------------------------
# Order sources


class CarrierOrder:
    """Dense comparisons answered by the rigid carrier order."""

    def less(self, type_name: str, a: DataObject, b: DataObject) -> bool:
        return carrier_less(a, b)


class FactOrder:
    """Dense comparisons answered from an explicit lessThan fact database."""

    def __init__(self, order_db: Database) -> None:
        self.order_db = order_db

    def less(self, type_name: str, a: DataObject, b: DataObject) -> bool:
        if a == b:
            return False
        rel = lessthan_rel(type_name)
        if (rel, (a, b)) in self.order_db:
            return True
        if (rel, (b, a)) in self.order_db:
            return False
        raise MissingOrderFacts(f"no order fact relating {a!r} and {b!r} in {type_name}")


LESSTHAN_PREFIX = "__lt_"


def lessthan_rel(type_name: str) -> str:
    return LESSTHAN_PREFIX + type_name


OrderSource = Union[CarrierOrder, FactOrder]


# ---------------------------------------------------------------------------
# Evaluation: database indexes, query plans and their compiler

Binding = dict[str, DataObject]


class DbIndex:
    """Lookup structures over one database, each built on first use.

    `rows` groups the facts by relation, `probe` hashes one relation's facts
    on some argument positions, and `universe` is the sorted range of a
    variable of a type: the database's active domain of that type plus the
    type's constants from `const_domain`.  The database itself stores none of
    this; an index lives as long as its owner keeps it.
    """

    __slots__ = ("db", "const_domain", "_rows", "_probes", "_adom", "_members", "_universes")

    def __init__(self, db: Database, const_domain: dict[str, frozenset[DataObject]]) -> None:
        self.db = db
        self.const_domain = const_domain
        self._rows: Optional[dict[str, list]] = None
        self._probes: dict[tuple, dict] = {}
        self._adom: Optional[dict[str, set[DataObject]]] = None
        self._members: dict[str, set[DataObject]] = {}
        self._universes: dict[str, list[DataObject]] = {}

    def rows(self, rel: str) -> list[tuple[DataObject, ...]]:
        if self._rows is None:
            self._rows = {}
            for r, args in self.db:
                bucket = self._rows.get(r)
                if bucket is None:
                    self._rows[r] = [args]
                else:
                    bucket.append(args)
        return self._rows.get(rel, [])

    def probe(self, rel: str, positions: tuple[int, ...], key) -> list[tuple[DataObject, ...]]:
        """Facts of rel whose arguments at positions are key (a bare object
        for one position, a tuple for several)."""
        table = self._probes.get((rel, positions))
        if table is None:
            table = {}
            get = itemgetter(*positions)
            for args in self.rows(rel):
                k = get(args)
                bucket = table.get(k)
                if bucket is None:
                    table[k] = [args]
                else:
                    bucket.append(args)
            self._probes[(rel, positions)] = table
        return table.get(key, [])

    def adom(self, type_name: str) -> set[DataObject]:
        """Objects of a type occurring in the database; do not mutate."""
        if self._adom is None:
            self._adom = objects_by_type(self.db)
        return self._adom.get(type_name, set())

    def members(self, type_name: str) -> set[DataObject]:
        """The range of a variable of a type, as a set; do not mutate."""
        objs = self._members.get(type_name)
        if objs is None:
            objs = self.adom(type_name) | self.const_domain.get(type_name, frozenset())
            self._members[type_name] = objs
        return objs

    def universe(self, type_name: str) -> list[DataObject]:
        """The range of a variable of a type, in canonical order."""
        objs = self._universes.get(type_name)
        if objs is None:
            objs = sorted(self.members(type_name), key=DataObject.sort_key)
            self._universes[type_name] = objs
        return objs


def objects_by_type(db: Database) -> dict[str, set[DataObject]]:
    """The objects occurring in db, grouped by type name."""
    out: dict[str, set[DataObject]] = {}
    for _, args in db:
        for o in args:
            out.setdefault(o.type_name, set()).add(o)
    return out


class _Run:
    """What one evaluation of a plan reads: the index, the order and the
    answers found so far."""

    __slots__ = ("index", "facts", "less", "out", "seen")

    def __init__(self, index: DbIndex, order: OrderSource) -> None:
        self.index = index
        self.facts = index.db
        self.less = order.less
        self.out: list[tuple] = []
        self.seen: set[tuple] = set()


_CARRIER = CarrierOrder()


def _stop(run: _Run, env: list) -> bool:
    """The continuation of a membership test: the first answer ends the search."""
    return True


class Plan:
    """A query compiled once, evaluated by `eval_query` many times.

    Every variable and parameter occurrence is resolved to a slot of one
    environment list.  `inputs` are the free variables each evaluation binds
    through `binding` and `params` the parameters it fills through `params`;
    the answers bind `outputs`, all free variables in sorted order.
    `reads_order` tells whether a dense comparison reads the order source.
    """

    __slots__ = ("inputs", "params", "outputs", "reads_order", "_nslots", "_in_slots",
                 "_produced", "_par_slots", "_run", "_test")

    def answers(self, index: DbIndex, order: OrderSource, binding: Binding,
                params: dict[str, DataObject]) -> list[Binding]:
        env: list = [None] * self._nslots
        for v, s in self._in_slots:
            if v not in binding:
                raise QueryError(f"input variable {v!r} is not bound")
            env[s] = binding[v]
        for v in binding:
            if v in self._produced:
                raise QueryError(f"variable {v!r} is bound but the plan computes it")
        for p, s in self._par_slots:
            if p not in params:
                raise QueryError(f"unsubstituted parameter ${p} at evaluation time")
            env[s] = params[p]
        run = _Run(index, order)
        if self._test is not None:
            if not self._test(run, env):
                return []
            return [{v: env[s] for v, s in self._in_slots}]
        self._run(run, env)
        names = self.outputs
        return [dict(zip(names, key)) for key in run.out]


def compile_query(q: Query, var_types: dict[str, str], inputs: Iterable[str] = ()) -> Plan:
    """Compile q into a plan whose evaluations pre-bind `inputs` (names that
    are not free in q are ignored) and fill every parameter of q.  The free
    variables take their types from `var_types`, the bound ones from their
    binders."""
    c = _Compiler()
    plan = Plan()
    plan.outputs = tuple(sorted(c.names(q)))
    scope = {v: c.slot(v, var_types.get(v)) for v in plan.outputs}
    wanted = set(inputs)
    plan.inputs = tuple(v for v in plan.outputs if v in wanted)
    plan.params = tuple(sorted(_param_names(q)))
    c.params = {p: c.slot("$" + p) for p in plan.params}
    plan._in_slots = tuple((v, scope[v]) for v in plan.inputs)
    plan._produced = frozenset(plan.outputs) - set(plan.inputs)
    plan._par_slots = tuple(c.params.items())
    bound = frozenset(scope[v] for v in plan.inputs) | frozenset(c.params.values())
    plan._run = plan._test = None
    if c.free(q, scope) <= bound:
        plan._test = c.test(q, scope, bound)
    else:
        plan._run = c.node(q, scope, bound, _emit(tuple(scope[v] for v in plan.outputs)))
    plan._nslots = len(c.slot_names)
    plan.reads_order = any(isinstance(a, LessAtom) for a in atoms(q))
    return plan


def _emit(slots: tuple[int, ...]):
    get = _tuple_getter(slots)

    def emit(run: _Run, env: list) -> bool:
        key = get(env)
        if key not in run.seen:
            run.seen.add(key)
            run.out.append(key)
        return False

    return emit


def _tuple_getter(slots: tuple[int, ...]):
    if len(slots) == 1:
        (s,) = slots
        return lambda env: (env[s],)
    return itemgetter(*slots)


def _param_names(q: Query) -> set[str]:
    return {t.name for a in atoms(q) for t in atom_terms(a) if isinstance(t, Param)}


# A compiled node is a function (run, env) -> bool.  It calls its
# continuation once for every way the node extends env, with all of the
# node's free variables bound, and returns True as soon as a continuation
# does (a test found its witness).  Which slots are bound where is decided
# here, once, so nodes never look a variable up by name.
Node = Callable[[_Run, list], bool]


def _both(p: Node, q: Node) -> Node:
    return lambda run, env: p(run, env) and q(run, env)


def _either(p: Node, q: Node) -> Node:
    return lambda run, env: p(run, env) or q(run, env)


class _Compiler:
    def __init__(self) -> None:
        self.slot_names: list[str] = []
        self.slot_types: list[Optional[str]] = []
        self.params: dict[str, int] = {}
        self._names: dict[int, tuple[Query, frozenset[str]]] = {}

    def slot(self, name: str, type_name: Optional[str] = None) -> int:
        self.slot_names.append(name)
        self.slot_types.append(None if type_name == "?" else type_name)
        return len(self.slot_names) - 1

    def type_of(self, slot: int) -> str:
        t = self.slot_types[slot]
        if t is None:
            raise QueryError(f"no type for variable {self.slot_names[slot]!r}")
        return t

    def free(self, q: Query, scope: dict[str, int]) -> frozenset[int]:
        return frozenset(scope[v] for v in self.names(q))

    def names(self, q: Query) -> frozenset[str]:
        """free_vars(q), computed once per node of this compilation."""
        hit = self._names.get(id(q))
        if hit is None:
            names = frozenset(free_vars(q)) if isinstance(q, ATOMS) else \
                frozenset().union(*map(self.names, children(q)))
            if isinstance(q, (Exists, Forall)):
                names -= {q.var}
            hit = self._names[id(q)] = (q, names)  # holding q keeps its id unique
        return hit[1]

    def ranges_var(self, q: Query) -> bool:
        """Forall x. b with x free in b is Not(Exists x. Not b): the answers
        of Not b bind x.  Without x in b, Forall still ranges x over its
        universe (true when it is empty) whereas Exists would not."""
        return isinstance(q, Forall) and q.var in self.names(q.body)

    def negate(self, q: Query) -> Query:
        """A query equivalent to Not(q), with the negation pushed through Or,
        Not and Forall so that relation atoms end up as binders."""
        if isinstance(q, Not):
            return q.body
        if isinstance(q, Or):
            return And(tuple(self.negate(p) for p in q.parts))
        if self.ranges_var(q):
            return Exists(q.var, self.negate(q.body), q.type_name)
        return Not(q)

    def term(self, t: Term, scope: dict[str, int]) -> tuple[bool, object]:
        """(True, slot) for a variable or parameter, (False, obj) for a constant."""
        if isinstance(t, Var):
            return True, scope[t.name]
        if isinstance(t, Param):
            return True, self.params[t.name]
        return False, t.obj

    def getter(self, t: Term, scope: dict[str, int]) -> Callable[[list], DataObject]:
        is_slot, x = self.term(t, scope)
        if is_slot:
            return itemgetter(x)
        return lambda env: x

    # -- tests: every free variable bound -------------------------------------

    def test(self, q: Query, scope: dict[str, int], bound: frozenset[int]) -> Node:
        if isinstance(q, TrueQ):
            return _stop
        if isinstance(q, RelAtom):
            fact = (q.name, tuple(t.obj for t in q.terms)) \
                if all(isinstance(t, Const) for t in q.terms) else None
            if fact is not None:
                return lambda run, env: fact in run.facts
            name = q.name
            getters = [self.term(t, scope) for t in q.terms]
            if all(is_slot for is_slot, _ in getters):
                args = _tuple_getter(tuple(s for _, s in getters))
                return lambda run, env: (name, args(env)) in run.facts
            return lambda run, env: (name, tuple(
                env[x] if is_slot else x for is_slot, x in getters)) in run.facts
        if isinstance(q, (EqAtom, LessAtom, SuccAtom)):
            a, b = self.getter(q.left, scope), self.getter(q.right, scope)
            t = getattr(q, "type_name", None)
            if isinstance(q, EqAtom):
                return lambda run, env: a(env) == b(env)
            if isinstance(q, LessAtom):
                return lambda run, env: run.less(t, a(env), b(env))
            return lambda run, env: carrier_succ(a(env), b(env))
        if isinstance(q, Not):
            body = self.test(q.body, scope, bound)
            return lambda run, env: not body(run, env)
        if isinstance(q, (And, Or)):
            # nested binary closures, `p0 and p1 and p2` as `(p0 and p1) and p2`;
            # no parts is the operator's unit
            join, unit = (_both, TrueQ()) if isinstance(q, And) else (_either, Not(TrueQ()))
            return reduce(join, [self.test(p, scope, bound) for p in q.parts or (unit,)])
        if isinstance(q, Exists):
            inner, body, vacuous = self.binders(q, scope)
            return self.node(body, inner, bound, self.enumerate(vacuous, _stop))
        if self.ranges_var(q):
            return self.test(Not(self.negate(q)), scope, bound)
        if isinstance(q, Forall):
            t = self.type_of(self.slot(q.var, q.type_name))
            body = self.test(q.body, scope, bound)
            return lambda run, env: not run.index.universe(t) or body(run, env)
        raise QueryError(f"unknown query node {q!r}")

    # -- nodes that bind variables -------------------------------------------

    def node(self, q: Query, scope: dict[str, int], bound: frozenset[int], cont: Node) -> Node:
        free = self.free(q, scope)
        if free <= bound:
            if isinstance(q, TrueQ):
                return cont
            test = self.test(q, scope, bound)
            if cont is _stop:
                return test
            return lambda run, env: test(run, env) and cont(run, env)
        if isinstance(q, RelAtom):
            return self.relation(q, scope, bound, cont)
        if isinstance(q, EqAtom):
            return self.equality(q, scope, bound, cont)
        if isinstance(q, And):
            return self.conjunction(q, scope, bound, cont)
        if isinstance(q, Or):
            return self.disjunction(q, scope, bound, cont)
        if isinstance(q, Exists):
            return self.exists(q, scope, bound, cont)
        if self.ranges_var(q):
            return self.node(Not(self.negate(q)), scope, bound, cont)
        # comparisons, negations and vacuous Forall: range the unbound
        # variables over their universes, then test
        return self.enumerate(sorted(free - bound), self.node(q, scope, bound | free, cont))

    def enumerate(self, slots: list[int], cont: Node) -> Node:
        for s in reversed(slots):
            cont = self._enumerate_one(s, self.type_of(s), cont)
        return cont

    @staticmethod
    def _enumerate_one(s: int, t: str, cont: Node) -> Node:
        def fn(run: _Run, env: list) -> bool:
            for o in run.index.universe(t):
                env[s] = o
                if cont(run, env):
                    return True
            return False

        return fn

    def relation(self, q: RelAtom, scope, bound, cont: Node) -> Node:
        name = q.name
        probe_pos: list[int] = []
        probe_terms: list[tuple[bool, object]] = []
        binds: list[tuple[int, int]] = []  # (position, slot)
        repeats: list[tuple[int, int]] = []  # (position, earlier position) of one new variable
        first: dict[int, int] = {}
        for i, t in enumerate(q.terms):
            is_slot, x = self.term(t, scope)
            if is_slot and x not in bound:
                if x in first:
                    repeats.append((i, first[x]))
                else:
                    first[x] = i
                    binds.append((i, x))
            else:
                probe_pos.append(i)
                probe_terms.append((is_slot, x))

        def scan(run: _Run, env: list, rows) -> bool:
            for args in rows:
                if repeats and any(args[i] != args[j] for i, j in repeats):
                    continue
                for i, s in binds:
                    env[s] = args[i]
                if cont(run, env):
                    return True
            return False

        if not probe_pos:
            return lambda run, env: scan(run, env, run.index.rows(name))
        positions = tuple(probe_pos)
        if len(probe_terms) == 1:
            ((is_slot, x),) = probe_terms
            key = itemgetter(x) if is_slot else (lambda env: x)
        else:
            key = lambda env: tuple(env[x] if is_slot else x for is_slot, x in probe_terms)
        return lambda run, env: scan(run, env, run.index.probe(name, positions, key(env)))

    def equality(self, q: EqAtom, scope, bound, cont: Node) -> Node:
        (l_slot, l), (r_slot, r) = self.term(q.left, scope), self.term(q.right, scope)
        l_free = l_slot and l not in bound
        r_free = r_slot and r not in bound
        if l_free and r_free:
            if l == r:
                return self.enumerate([l], cont)
            t = self.type_of(l)
            if self.type_of(r) != t:
                return lambda run, env: False  # objects of two types are never equal

            def both(run: _Run, env: list) -> bool:
                for o in run.index.universe(t):
                    env[l] = env[r] = o
                    if cont(run, env):
                        return True
                return False

            return both
        target, source = (l, q.right) if l_free else (r, q.left)
        get, t = self.getter(source, scope), self.type_of(target)

        def one(run: _Run, env: list) -> bool:
            o = get(env)
            if o in run.index.members(t):
                env[target] = o
                return cont(run, env)
            return False

        return one

    def conjunction(self, q: And, scope, bound, cont: Node) -> Node:
        parts = []
        for p in q.parts:
            parts.extend(p.parts if isinstance(p, And) else (p,))
        order, bounds = [], []
        todo = [(p, self.free(p, scope)) for p in parts]
        while todo:
            pick = min(todo, key=lambda pf: self._rank(pf[0], pf[1], scope, bound))
            todo = [pf for pf in todo if pf is not pick]
            order.append(pick[0])
            bounds.append(bound)
            bound = bound | pick[1]
        for p, b in zip(reversed(order), reversed(bounds)):
            cont = self.node(p, scope, b, cont)
        return cont

    def _rank(self, q: Query, free: frozenset[int], scope, bound: frozenset[int]) -> int:
        """Which conjunct runs next: tests first, then the parts that bind
        variables cheaply, and last those that range over universes."""
        if free <= bound:
            return 0
        if isinstance(q, EqAtom):
            sides = [self.term(t, scope) for t in (q.left, q.right)]
            if any(not is_slot or x in bound for is_slot, x in sides):
                return 1
        if isinstance(q, RelAtom):
            return 2
        if isinstance(q, (And, Or, Exists)):
            return 3
        return 4

    def disjunction(self, q: Or, scope, bound, cont: Node) -> Node:
        out = sorted(self.free(q, scope) - bound)
        seen = self.slot("|or")
        after = self._dedup(tuple(out), seen, cont)
        parts = [
            self.node(p, scope, bound,
                      self.enumerate([s for s in out if s not in self.free(p, scope)], after))
            for p in q.parts
        ]

        def fn(run: _Run, env: list) -> bool:
            env[seen] = set()
            for p in parts:
                if p(run, env):
                    return True
            return False

        return fn

    def binders(self, q: Exists, scope: dict[str, int]) -> tuple[dict, Query, list[int]]:
        """A nested chain of Exists as one scope with a slot per binder, its
        body, and the slots of the binders the body does not read: those
        still range over their universes, so hold nowhere if one is empty."""
        inner = dict(scope)
        slots = []
        while isinstance(q, Exists):
            inner[q.var] = self.slot(q.var, q.type_name)
            slots.append(inner[q.var])
            q = q.body
        free = self.free(q, inner)
        return inner, q, [s for s in slots if s not in free]

    def exists(self, q: Exists, scope, bound, cont: Node) -> Node:
        out = tuple(sorted(self.free(q, scope) - bound))
        inner, body, vacuous = self.binders(q, scope)
        seen = self.slot("|exists")
        body_fn = self.node(body, inner, bound,
                            self.enumerate(vacuous, self._dedup(out, seen, cont)))

        def fn(run: _Run, env: list) -> bool:
            env[seen] = set()
            return body_fn(run, env)

        return fn

    @staticmethod
    def _dedup(slots: tuple[int, ...], seen: int, cont: Node) -> Node:
        """Pass each distinct binding of slots on once per entry of the node
        owning the `seen` slot."""
        key = itemgetter(*slots)

        def fn(run: _Run, env: list) -> bool:
            k = key(env)
            done = env[seen]
            if k in done:
                return False
            done.add(k)
            return cont(run, env)

        return fn


def eval_query(
    q: Union[Query, Plan],
    db: Union[Database, DbIndex],
    order: OrderSource,
    var_types: Optional[dict[str, str]] = None,
    const_domain: Optional[dict[str, frozenset[DataObject]]] = None,
    binding: Optional[Binding] = None,
    params: Optional[dict[str, DataObject]] = None,
) -> list[Binding]:
    """Answers of q over db: one total substitution per free variable.

    A boolean query returns [{}] for true and [] for false.  `binding` may
    pre-bind some free variables and `params` fills the parameters.  A plain
    Query is compiled on the spot with `var_types`, the types of its free
    variables, its inputs being the variables of `binding`; a Plan must be
    given exactly its inputs.  A Database is indexed on the spot with
    `const_domain`; a DbIndex brings its own constants.
    """
    binding = binding or {}
    if not isinstance(q, Plan):
        q = compile_query(q, var_types or {}, binding)
    if not isinstance(db, DbIndex):
        db = DbIndex(db, const_domain or {})
    return q.answers(db, order, binding, params or {})


# ---------------------------------------------------------------------------
# Facets: membership and conformance

_NO_FACTS = DbIndex(Database(), {})


@lru_cache(maxsize=None)
def _facet_plan(formula: Query, type_name: str) -> Plan:
    return compile_query(formula, {"x": type_name}, ("x",))


def facet_member(facet: Facet, d: DataObject, types: dict[str, DataTypeDef]) -> bool:
    """Membership of a data object in a facet.

    A type mismatch is a defined False, not an error.  The undef object of a
    type belongs to every facet of that type (buffered payload slots rely on
    this).  Otherwise the formula's plan, compiled once, tests d as x against
    no facts with the rigid carrier order, once per facet and object.
    """
    if d.type_name != facet.base_type:
        return False
    t = types.get(facet.base_type)
    if t is None or not literal_matches_carrier(d.value, t.carrier):
        return False
    if d.is_undef() or facet.formula is None:
        return True
    hit = facet.memo.get(d)
    if hit is None:
        plan = _facet_plan(facet.formula, facet.base_type)
        hit = facet.memo[d] = bool(plan.answers(_NO_FACTS, _CARRIER, {"x": d}, {}))
    return hit


def conforms(
    schema: dict[str, TypedRelationSchema],
    db: Database,
    facets: dict[str, Facet],
    types: dict[str, DataTypeDef],
) -> list[Violation]:
    """Check every fact component against its component facet.

    Returns one violation per offending (fact, position); raises
    UnknownRelation if a fact's relation is not in the schema.
    """
    out: list[Violation] = []
    for fact in sorted(db, key=fact_key):
        rel, args = fact
        rs = schema.get(rel)
        if rs is None:
            raise UnknownRelation(f"relation {rel!r} not in schema")
        if len(args) != rs.arity:
            raise UnknownRelation(f"fact {rel!r} has arity {len(args)}, schema says {rs.arity}")
        for i, (obj, fname) in enumerate(zip(args, rs.facets), start=1):
            if not facet_member(facets[fname], obj, types):
                out.append(Violation(fact, i, fname))
    return out
