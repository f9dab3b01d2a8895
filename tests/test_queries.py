import itertools
import random
from fractions import Fraction

import pytest

from rmas import queries as Q
from rmas.data import (
    Database,
    DataObject,
    DataTypeDef,
    Facet,
    TypedRelationSchema,
    builtin_types,
    mk_rational,
    mk_string,
)
from rmas.queries import (
    CarrierOrder,
    Const,
    FactOrder,
    IncompatibleQuery,
    MissingOrderFacts,
    Var,
    eval_query,
    free_vars,
    lessthan_rel,
    typecheck_query,
)

from oracles import naive_eval, substitute_params

STR = DataTypeDef("Str", "string")
RAT = DataTypeDef("Rat", "rational", has_less=True)
TYPES = {"Str": STR, "Rat": RAT, **builtin_types()}
FACETS = {"SF": Facet("SF", "Str"), "PF": Facet("PF", "Rat")}
SCHEMA = {
    "R": TypedRelationSchema("R", ("SF", "PF")),
    "S": TypedRelationSchema("S", ("PF",)),
    "T": TypedRelationSchema("T", ("SF",)),
}
CTX = Q.SchemaContext(schema=SCHEMA, facets=FACETS, types=TYPES)
NO_CONSTS = {"Str": frozenset(), "Rat": frozenset()}


def s(v):
    return mk_string("Str", v)


def r(v):
    return mk_rational("Rat", Fraction(v))


class TestTypecheck:
    def test_atomic_query_typing_matches_schema(self):
        q = Q.RelAtom("R", (Var("x"), Var("y")))
        assert typecheck_query(q, CTX) == (q, {"x": "Str", "y": "Rat"})

    def test_variable_in_two_differently_typed_components_fails(self):
        q = Q.q_and(Q.RelAtom("T", (Var("x"),)), Q.RelAtom("S", (Var("x"),)))
        with pytest.raises(IncompatibleQuery):
            typecheck_query(q, CTX)

    def test_constant_in_wrong_component_fails(self):
        q = Q.RelAtom("S", (Const(s("nope")),))
        with pytest.raises(IncompatibleQuery):
            typecheck_query(q, CTX)

    def test_comparison_propagates_types(self):
        q = Q.q_and(Q.RelAtom("S", (Var("x"),)), Q.LessAtom("Rat", Var("x"), Var("y")))
        assert typecheck_query(q, CTX)[1]["y"] == "Rat"

    def test_untypeable_variable_fails(self):
        q = Q.EqAtom(Var("x"), Var("y"))
        with pytest.raises(IncompatibleQuery):
            typecheck_query(q, CTX)

    def test_equality_chain_of_any_length(self):
        names = "abcdef"
        q = Q.q_and(*(Q.EqAtom(Var(a), Var(b)) for a, b in zip(names, names[1:])),
                    Q.RelAtom("S", (Var("f"),)))
        assert typecheck_query(q, CTX)[1] == dict.fromkeys(names, "Rat")

    def test_binder_type_takes_part_in_equality(self):
        assert Q.Exists("x", Q.TrueQ(), "Rat") != Q.Exists("x", Q.TrueQ(), "Str")
        assert Q.Forall("x", Q.TrueQ(), "Rat") != Q.Forall("x", Q.TrueQ())

    def test_seed_types_fill_gaps_and_clash(self):
        q = Q.EqAtom(Var("x"), Var("y"))
        _, out = typecheck_query(q, CTX, seed_types={"x": "Rat"})
        assert out == {"x": "Rat", "y": "Rat"}
        with pytest.raises(IncompatibleQuery):
            typecheck_query(Q.RelAtom("S", (Var("x"),)), CTX, seed_types={"x": "Str"})


class TestEval:
    def test_single_atom(self):
        db = Database([("S", (r(1),))])
        q = Q.RelAtom("S", (Var("x"),))
        out = eval_query(q, db, CarrierOrder(), {"x": "Rat"}, NO_CONSTS)
        assert out == [{"x": r(1)}]

    def test_boolean_query_conventions(self):
        db = Database([("S", (r(1),))])
        yes = Q.Exists("x", Q.RelAtom("S", (Var("x"),)))
        no = Q.Exists("x", Q.RelAtom("T", (Var("x"),)))
        assert eval_query(yes, db, CarrierOrder(), {"x": "Rat"}, NO_CONSTS) == [{}]
        assert eval_query(no, db, CarrierOrder(), {"x": "Str"}, NO_CONSTS) == []

    def test_lowest_price_guard(self):
        # exists p2. PropPrice(_, t, p2) & p2 < p  with p bound to 5
        db = Database([("R", (s("task"), r(3)))])
        q = Q.Exists("w", Q.Exists("p2", Q.q_and(
            Q.RelAtom("R", (Var("w"), Var("p2"))),
            Q.LessAtom("Rat", Var("p2"), Var("p")),
        )))
        types = {"w": "Str", "p2": "Rat", "p": "Rat"}
        assert eval_query(q, db, CarrierOrder(), types, NO_CONSTS,
                          binding={"p": r(5)}) == [{"p": r(5)}]
        assert eval_query(q, db, CarrierOrder(), types, NO_CONSTS,
                          binding={"p": r(2)}) == []

    def test_exists_over_empty_domain(self):
        q = Q.Exists("x", Q.RelAtom("S", (Var("x"),)))
        assert eval_query(q, Database(), CarrierOrder(), {"x": "Rat"}, NO_CONSTS) == []

    def test_a_binder_the_body_does_not_read_needs_an_object(self):
        # y is not free in the body, yet exists y holds only where y's type
        # has an object; the body alone would answer x = a1
        db = Database([("S", (r(1),))])
        q = Q.Exists("y", Q.RelAtom("S", (Var("x"),)), "Str")
        assert eval_query(q, db, CarrierOrder(), {"x": "Rat"}, NO_CONSTS) == []
        assert eval_query(q, db.apply(adds=[("T", (s("a"),))], dels=[]), CarrierOrder(),
                          {"x": "Rat"}, NO_CONSTS) == [{"x": r(1)}]
        assert eval_query(Q.Exists("x", Q.TrueQ(), "Rat"), Database(), CarrierOrder(),
                          {}, NO_CONSTS) == []

    def test_constants_of_initial_domain_enter_quantifier_range(self):
        q = Q.Exists("x", Q.EqAtom(Var("x"), Var("x")), "Rat")
        consts = {"Rat": frozenset({r(9)}), "Str": frozenset()}
        assert eval_query(q, Database(), CarrierOrder(), {}, consts) == [{}]

    def test_fact_order_mode(self):
        # the lessThan facts put 2 below 1, against the carrier
        order_db = Database([(lessthan_rel("Rat"), (r(2), r(1)))])
        q = Q.LessAtom("Rat", Const(r(2)), Const(r(1)))
        assert eval_query(q, Database(), FactOrder(order_db), {}, NO_CONSTS) == [{}]
        assert eval_query(q, Database(), CarrierOrder(), {}, NO_CONSTS) == []
        q2 = Q.LessAtom("Rat", Const(r(1)), Const(r(2)))
        assert eval_query(q2, Database(), FactOrder(order_db), {}, NO_CONSTS) == []
        assert eval_query(q2, Database(), CarrierOrder(), {}, NO_CONSTS) == [{}]

    def test_missing_order_facts(self):
        order_db = Database([(lessthan_rel("Rat"), (r(1), r(2)))])
        q = Q.LessAtom("Rat", Const(r(1)), Const(r(7)))
        with pytest.raises(MissingOrderFacts):
            eval_query(q, Database(), FactOrder(order_db), {}, NO_CONSTS)


class TestShortCircuit:
    """A conjunction stops at its first false part and a disjunction at its
    first true one: the part after it, which would raise, is not run."""

    ORDER = FactOrder(Database([(lessthan_rel("Rat"), (r(1), r(2)))]))
    DB = Database([("S", (r(1),))])
    YES = Q.RelAtom("S", (Const(r(1)),))
    NO = Q.RelAtom("S", (Const(r(2)),))
    RAISES = Q.LessAtom("Rat", Const(r(1)), Const(r(7)))  # no order fact for 7

    def run(self, q):
        return eval_query(q, self.DB, self.ORDER, {}, NO_CONSTS)

    @pytest.mark.parametrize("extra", [(), (YES,)])
    def test_and_skips_parts_after_a_false_one(self, extra):
        assert self.run(Q.And((self.NO, self.RAISES) + extra)) == []
        with pytest.raises(MissingOrderFacts):
            self.run(Q.And((self.YES, self.RAISES) + extra))

    @pytest.mark.parametrize("extra", [(), (NO,)])
    def test_or_skips_parts_after_a_true_one(self, extra):
        assert self.run(Q.Or((self.YES, self.RAISES) + extra)) == [{}]
        with pytest.raises(MissingOrderFacts):
            self.run(Q.Or((self.NO, self.RAISES) + extra))

    def test_no_parts_is_the_unit(self):
        assert self.run(Q.And(())) == [{}]
        assert self.run(Q.Or(())) == []


class TestPlanShapes:
    """Node shapes the random generators below rarely reach."""

    def agree(self, q, db, types, consts=NO_CONSTS):
        got = eval_query(q, db, CarrierOrder(), types, consts)
        want = naive_eval(q, db, CarrierOrder(), types, consts)
        key = lambda row: tuple(sorted((k, v.sort_key()) for k, v in row.items()))
        assert sorted(map(key, got)) == sorted(map(key, want))
        return got

    def test_repeated_variable_in_one_atom(self):
        db = Database([("P", (r(1), r(2))), ("P", (r(3), r(3)))])
        got = self.agree(Q.RelAtom("P", (Var("x"), Var("x"))), db, {"x": "Rat"})
        assert got == [{"x": r(3)}]

    def test_equality_of_two_unbound_variables(self):
        db = Database([("S", (r(1),)), ("S", (r(2),))])
        q = Q.q_and(Q.EqAtom(Var("x"), Var("y")), Q.Not(Q.RelAtom("S", (Var("y"),))))
        got = self.agree(q, db, {"x": "Rat", "y": "Rat"}, {"Rat": frozenset({r(1), r(5)})})
        assert got == [{"x": r(5), "y": r(5)}]

    def test_forall_without_its_variable_over_an_empty_universe(self):
        # the universe of x is empty, so the universal holds vacuously
        q = Q.Forall("x", Q.q_false(), "Rat")
        assert self.agree(q, Database(), {}) == [{}]
        assert self.agree(q, Database([("S", (r(1),))]), {}) == []


# ---------------------------------------------------------------------------
# Randomized equivalence with the naive evaluator


def random_query(rng, depth, vars_in_scope):
    choices = ["R", "S", "eq", "less"]
    if depth > 0:
        choices += ["not", "and", "or", "exists", "forall"]

    def term(type_name):
        pool = [Var(v) for v, t in vars_in_scope if t == type_name]
        consts = [Const(r(i)) for i in range(3)] if type_name == "Rat" else [Const(s("a"))]
        return rng.choice(pool + consts)

    kind = rng.choice(choices)
    if kind == "R":
        return Q.RelAtom("R", (term("Str"), term("Rat")))
    if kind == "S":
        return Q.RelAtom("S", (term("Rat"),))
    if kind == "eq":
        return Q.EqAtom(term("Rat"), term("Rat"))
    if kind == "less":
        return Q.LessAtom("Rat", term("Rat"), term("Rat"))
    if kind == "not":
        return Q.Not(random_query(rng, depth - 1, vars_in_scope))
    if kind in ("and", "or"):
        a = random_query(rng, depth - 1, vars_in_scope)
        b = random_query(rng, depth - 1, vars_in_scope)
        return Q.And((a, b)) if kind == "and" else Q.Or((a, b))
    v = f"q{len(vars_in_scope)}"
    t = rng.choice(["Rat", "Str"])
    body = random_query(rng, depth - 1, vars_in_scope + [(v, t)])
    return Q.Exists(v, body) if kind == "exists" else Q.Forall(v, body)


def random_db(rng):
    strs = [s(c) for c in "ab"]
    rats = [r(i) for i in range(4)]
    facts = set()
    for _ in range(rng.randint(0, 6)):
        facts.add(("R", (rng.choice(strs), rng.choice(rats))))
    for _ in range(rng.randint(0, 3)):
        facts.add(("S", (rng.choice(rats),)))
    return Database(facts)


def test_eval_matches_naive_enumeration():
    rng = random.Random(7)
    # every constant a random query can mention sits in the initial domain,
    # mirroring the well-formedness restriction on specifications
    consts = {"Rat": frozenset({r(0), r(1), r(2)}), "Str": frozenset({s("a")})}
    checked = 0
    for _ in range(300):
        scope = [("x", "Rat")] if rng.random() < 0.5 else []
        q = random_query(rng, 3, list(scope))
        try:
            q, types = typecheck_query(q, CTX, seed_types=dict(scope))
        except IncompatibleQuery:
            continue
        db = random_db(rng)
        got = eval_query(q, db, CarrierOrder(), types, consts)
        want = naive_eval(q, db, CarrierOrder(), types, consts)
        canon = lambda rows: sorted(
            tuple(sorted((k, v.sort_key()) for k, v in row.items())) for row in rows
        )
        assert canon(got) == canon(want), f"query {q}"
        for row in got:  # answers are well-typed per the inferred output types
            for v, o in row.items():
                assert o.type_name == types[v]
        checked += 1
    assert checked > 150


def test_carrier_equals_flat_on_full_order_restriction():
    # evaluating a query over explicit order facts agrees with the rigid
    # order whenever the fact table covers the active values
    rng = random.Random(13)
    consts = {"Rat": frozenset({r(0), r(1), r(2)}), "Str": frozenset({s("a")})}
    for _ in range(200):
        q = random_query(rng, 3, [])
        try:
            q, types = typecheck_query(q, CTX)
        except IncompatibleQuery:
            continue
        db = random_db(rng)
        objs = sorted(db.adom("Rat") | set(consts["Rat"]), key=DataObject.sort_key)
        facts = [
            (lessthan_rel("Rat"), (a, b))
            for a, b in itertools.combinations(objs, 2)
        ]
        got = eval_query(q, db, FactOrder(Database(facts)), types, consts)
        want = eval_query(q, db, CarrierOrder(), types, consts)
        canon = lambda rows: sorted(
            tuple(sorted((k, v.sort_key()) for k, v in row.items())) for row in rows
        )
        assert canon(got) == canon(want)


# ---------------------------------------------------------------------------
# Randomized equivalence of compiled plans with the naive evaluator, on the
# shapes the builder's queries take: binder names reused in nested scopes,
# parameter slots, pre-bound variables, comparisons under lessThan facts, and
# conjunctions whose filters come before their binders

# binders reuse these names, each at one type unless a test adds another
BINDERS = [("x", "Rat"), ("u", "Rat"), ("w", "Str")]
PARAM_TYPES = {"p": "Rat", "ps": "Str"}
CONSTS = {"Rat": frozenset({r(0), r(1), r(2)}), "Str": frozenset({s("a")})}


def random_plan_query(rng, depth, scope, *, params=False, binders=BINDERS):
    """A random query over R, S; binders reuse the names of `binders`, and
    `guarded` conjunctions put a filter on a variable before the atom that
    binds it."""
    kinds = ["R", "S", "eq", "less"]
    if depth > 0:
        kinds += ["not", "and", "or", "exists", "forall", "guarded", "guarded"]

    def term(type_name):
        pool = [Var(v) for v, t in scope if t == type_name]
        if type_name == "Rat":
            pool += [Const(r(i)) for i in range(3)] + ([Q.Param("p")] if params else [])
        else:
            pool += [Const(s("a"))] + ([Q.Param("ps")] if params else [])
        return rng.choice(pool)

    kind = rng.choice(kinds)
    if kind == "R":
        return Q.RelAtom("R", (term("Str"), term("Rat")))
    if kind == "S":
        return Q.RelAtom("S", (term("Rat"),))
    if kind == "eq":
        return Q.EqAtom(term("Rat"), term("Rat"))
    if kind == "less":
        return Q.LessAtom("Rat", term("Rat"), term("Rat"))
    sub = lambda sc: random_plan_query(rng, depth - 1, sc, params=params, binders=binders)
    if kind == "not":
        return Q.Not(sub(scope))
    if kind in ("and", "or"):
        parts = (sub(scope), sub(scope))
        return Q.And(parts) if kind == "and" else Q.Or(parts)
    v, t = rng.choice(binders)
    if kind == "guarded":
        v, t = "u", "Rat"
    # the binder shadows its name's variables of another type
    inner = [(n, u) for n, u in scope if n != v or u == t] + [(v, t)]
    if kind == "guarded":
        binder = rng.choice([Q.RelAtom("S", (Var(v),)), Q.RelAtom("R", (Const(s("a")), Var(v)))])
        filt = rng.choice([
            Q.LessAtom("Rat", Var(v), rng.choice([Var(v), Const(r(1))])),
            Q.Not(sub(inner)),
            Q.EqAtom(Var(v), Const(r(rng.randint(0, 3)))),
        ])
        body = Q.And((filt, binder))
        return Q.Exists(v, body) if rng.random() < 0.5 else body
    # the binder declares its type: its variable may go unused in the body
    return (Q.Exists if kind == "exists" else Q.Forall)(v, sub(inner), t)


def canon(rows):
    return sorted(tuple(sorted((k, v.sort_key()) for k, v in row.items())) for row in rows)


def typed_random_cases(seed, n, **opts):
    """(query, its variable types, a database) triples that typecheck."""
    rng = random.Random(seed)
    for _ in range(n):
        scope = [rng.choice(BINDERS[:2])] if rng.random() < 0.7 else []
        q = random_plan_query(rng, 3, list(scope), **opts)
        try:
            q, types = typecheck_query(q, CTX, param_types=PARAM_TYPES,
                                       seed_types=dict(scope))
        except IncompatibleQuery:
            continue
        yield rng, q, types, random_db(rng)


def test_reused_binder_names_match_naive():
    checked = shadowed = retyped = 0
    # x and u are also bound at a second type, which shadows the first
    more = BINDERS + [("x", "Str"), ("u", "Str")]
    for _, q, types, db in typed_random_cases(31, 300, binders=more):
        binders = {(n.var, n.type_name) for n in _subqueries(q)
                   if isinstance(n, (Q.Exists, Q.Forall))} | set(types.items())
        names = [n.var for n in _subqueries(q) if isinstance(n, (Q.Exists, Q.Forall))]
        shadowed += len(names) != len(set(names)) or bool(set(names) & free_vars(q))
        retyped += len({v for v, _ in binders}) < len(binders)
        got = eval_query(q, db, CarrierOrder(), types, CONSTS)
        assert canon(got) == canon(naive_eval(q, db, CarrierOrder(), types, CONSTS)), q
        checked += 1
    assert checked > 150 and shadowed > 20 and retyped > 15


def test_empty_universes_match_naive():
    # without constants, a type the database does not mention has no object:
    # a binder whose variable its body never reads then ranges over nothing
    checked = vacuous = 0
    for _, q, types, db in typed_random_cases(31, 400):
        got = eval_query(q, db, CarrierOrder(), types, NO_CONSTS)
        assert canon(got) == canon(naive_eval(q, db, CarrierOrder(), types, NO_CONSTS)), q
        checked += 1
        vacuous += any(isinstance(n, Q.Exists) and n.var not in free_vars(n.body)
                       for n in _subqueries(q))
    assert checked > 150 and vacuous > 20


def test_parameter_slots_match_substitution():
    checked = 0
    for rng, q, types, db in typed_random_cases(37, 300, params=True):
        plan = Q.compile_query(q, types)
        for _ in range(2):
            values = {"p": rng.choice([r(0), r(2), r(7)]), "ps": rng.choice([s("a"), s("b")])}
            ground = substitute_params(q, values)
            got = eval_query(plan, db, CarrierOrder(), const_domain=CONSTS, params=values)
            assert canon(got) == canon(naive_eval(ground, db, CarrierOrder(), types, CONSTS)), q
            assert canon(got) == canon(eval_query(ground, db, CarrierOrder(), types, CONSTS))
        checked += 1
    assert checked > 150


def test_prebound_binding_matches_naive():
    checked = 0
    for rng, q, types, db in typed_random_cases(41, 400):
        fv = free_vars(q)
        if not fv:
            continue
        # a value outside the universe too, as a message payload may be;
        # and a variable the query does not mention, which is ignored
        binding = {v: rng.choice([r(1), r(3), r(7)]) for v in fv if rng.random() < 0.7}
        binding["zz"] = s("b")
        plan = Q.compile_query(q, types, inputs=binding)
        got = eval_query(plan, db, CarrierOrder(), const_domain=CONSTS, binding=binding)
        want = naive_eval(q, db, CarrierOrder(), types, CONSTS, binding)
        assert canon(got) == canon(want), (q, binding)
        checked += 1
    assert checked > 100


def test_less_fact_atoms_under_a_total_fact_order_match_naive():
    checked = 0
    for rng, q, types, db in typed_random_cases(43, 300):
        # a random strict total order on the universe, not the carrier's
        objs = sorted(db.adom("Rat") | CONSTS["Rat"], key=DataObject.sort_key)
        rng.shuffle(objs)
        order = FactOrder(Database(
            (lessthan_rel("Rat"), (a, b)) for a, b in itertools.combinations(objs, 2)))
        got = eval_query(q, db, order, types, CONSTS)
        assert canon(got) == canon(naive_eval(q, db, order, types, CONSTS)), q
        checked += 1
    assert checked > 150


def test_filter_before_binder_matches_naive():
    db = Database([("S", (r(1),)), ("S", (r(3),)), ("R", (s("a"), r(2)))])
    # the filter names v before S binds it: v ranges over S, not the universe
    q = Q.And((Q.LessAtom("Rat", Var("v"), Const(r(2))), Q.RelAtom("S", (Var("v"),))))
    types = {"v": "Rat"}
    got = eval_query(q, db, CarrierOrder(), types, CONSTS)
    assert got == [{"v": r(1)}]
    assert canon(got) == canon(naive_eval(q, db, CarrierOrder(), types, CONSTS))
    guarded = 0
    for _, q, types, db in typed_random_cases(47, 300):
        guarded += any(isinstance(n, Q.And) and not isinstance(n.parts[0], Q.RelAtom)
                       for n in _subqueries(q))
        got = eval_query(q, db, CarrierOrder(), types, CONSTS)
        assert canon(got) == canon(naive_eval(q, db, CarrierOrder(), types, CONSTS)), q
    assert guarded > 50


def _subqueries(q):
    yield q
    for p in getattr(q, "parts", ()):
        yield from _subqueries(p)
    if hasattr(q, "body"):
        yield from _subqueries(q.body)
