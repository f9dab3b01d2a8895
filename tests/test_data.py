import copy
import gc
import pickle
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rmas import data, parse_spec, queries as Q
from rmas.builder import (BuildConfig, build_transition_system, export_jsonl, import_jsonl,
                          state_key)
from rmas.data import (
    Database,
    DataObject,
    DataTypeDef,
    DataError,
    Facet,
    TypedRelationSchema,
    UNDEF,
    UnknownRelation,
    active_domain,
    builtin_types,
    carrier_less,
    mk_rational,
    mk_string,
    mk_symbol,
    mk_undef,
)
from rmas.model import RmasSpec, initial_data_domain
from rmas.queries import Const, Var, conforms, facet_member

STR = DataTypeDef("Str", "string")
RAT = DataTypeDef("Rat", "rational", has_less=True)
TYPES = {"Str": STR, "Rat": RAT, **builtin_types()}


def s(v):
    return mk_string("Str", v)


def r(v):
    return mk_rational("Rat", Fraction(v))


X = Var("x")


def eq(a, b):
    return Q.EqAtom(a, b)


def less(a, b):
    return Q.LessAtom("Rat", a, b)


BOOL = Facet("Bool", "Str", Q.Or((eq(X, Const(s("t"))), eq(X, Const(s("f"))))),
             frozenset({s("t"), s("f")}))
BASE_STR = Facet("SF", "Str")
# ages of juniors (0 < x < 18) or seniors (x > 65); the formula's constants
# are not among the initial objects
AGE = Facet(
    "Age", "Rat",
    Q.Or((Q.And((less(Const(r(0)), X), less(X, Const(r(18))))),
          less(Const(r(65)), X))),
)


class TestFacetMember:
    def test_bool_accepts_t(self):
        assert facet_member(BOOL, s("t"), TYPES)

    def test_bool_rejects_maybe(self):
        assert not facet_member(BOOL, s("maybe"), TYPES)

    def test_base_facet_accepts_everything_of_the_type(self):
        for v in ("a", "b", "t", "zzz"):
            assert facet_member(BASE_STR, s(v), TYPES)

    def test_type_mismatch_is_false_not_error(self):
        assert not facet_member(BOOL, r(1), TYPES)

    def test_age_senior(self):
        assert facet_member(AGE, r(70), TYPES)

    def test_age_thirty_rejected(self):
        assert not facet_member(AGE, r(30), TYPES)

    def test_age_junior(self):
        assert facet_member(AGE, r(17), TYPES)
        assert not facet_member(AGE, r(0), TYPES)

    def test_undef_belongs_to_every_facet_of_its_type(self):
        assert facet_member(BOOL, mk_undef("Str"), TYPES)
        assert facet_member(AGE, mk_undef("Rat"), TYPES)
        assert not facet_member(BOOL, mk_undef("Rat"), TYPES)


    def test_formula_constants_join_the_initial_data_domain(self):
        spec = RmasSpec(types=TYPES, facets={"Age": AGE}, services={}, messages={},
                        agent_specs={}, institutional="inst")
        assert initial_data_domain(spec)["Rat"] == {r(0), r(18), r(65)}


# brute-force facet evaluator used as an oracle on random formulas
def eval_formula_oracle(f, d):
    if isinstance(f, Q.TrueQ):
        return True
    if isinstance(f, Q.Not):
        return not eval_formula_oracle(f.body, d)
    if isinstance(f, Q.Or):
        return any(eval_formula_oracle(p, d) for p in f.parts)
    if isinstance(f, Q.And):
        return all(eval_formula_oracle(p, d) for p in f.parts)
    a = d if f.left == X else f.left.obj
    b = d if f.right == X else f.right.obj
    if isinstance(f, Q.EqAtom):
        return a == b
    if isinstance(f, Q.LessAtom):
        return not a.is_undef() and not b.is_undef() and a.value < b.value or (
            a.is_undef() and not b.is_undef())
    raise AssertionError


consts = st.integers(min_value=-3, max_value=3).map(lambda v: Const(r(v)))
terms = st.one_of(st.just(X), consts)
atoms = st.one_of(st.builds(eq, terms, terms), st.builds(less, terms, terms))


def formulas(depth: int):
    if depth == 0:
        return st.one_of(st.just(Q.TrueQ()), atoms)
    sub = formulas(depth - 1)
    return st.one_of(
        atoms,
        st.builds(Q.Not, sub),
        st.builds(lambda a, b: Q.Or((a, b)), sub, sub),
        st.builds(lambda a, b: Q.And((a, b)), sub, sub),
    )


@settings(max_examples=150, deadline=None)
@given(formulas(4), st.integers(min_value=-4, max_value=4))
def test_facet_member_matches_bruteforce(f, v):
    facet = Facet("F", "Rat", f)
    d = r(v)
    assert facet_member(facet, d, TYPES) == eval_formula_oracle(f, d)


SCHEMA = {
    "R": TypedRelationSchema("R", ("Bool",)),
    "P": TypedRelationSchema("P", ("Age",)),
}
FACETS = {"Bool": BOOL, "Age": AGE, "SF": BASE_STR}


class TestConforms:
    def test_clean(self):
        db = Database.of([("R", (s("t"),))])
        assert conforms(SCHEMA, db, FACETS, TYPES) == []

    def test_violation_position(self):
        db = Database.of([("R", (s("maybe"),))])
        v = conforms(SCHEMA, db, FACETS, TYPES)
        assert len(v) == 1
        assert v[0].position == 1
        assert v[0].fact == ("R", (s("maybe"),))

    def test_age_fact(self):
        db = Database.of([("P", (r(70),))])
        assert conforms(SCHEMA, db, FACETS, TYPES) == []

    def test_unknown_relation(self):
        db = Database.of([("Nope", (s("t"),))])
        with pytest.raises(UnknownRelation):
            conforms(SCHEMA, db, FACETS, TYPES)

    def test_monotone_adding_facts_never_removes_violations(self):
        bad = ("R", (s("maybe"),))
        db1 = Database.of([bad])
        db2 = Database.of([bad, ("R", (s("t"),)), ("P", (r(70),))])
        v1 = {(v.fact, v.position) for v in conforms(SCHEMA, db1, FACETS, TYPES)}
        v2 = {(v.fact, v.position) for v in conforms(SCHEMA, db2, FACETS, TYPES)}
        assert v1 <= v2


class TestActiveDomain:
    def test_picks_only_matching_type(self):
        db = Database.of([("R", (r("3/2"),)), ("S", (s("a"),))])
        assert active_domain([db], RAT) == {r("3/2")}

    def test_empty_collection(self):
        assert active_domain([], RAT) == set()

    def test_union_across_databases(self):
        db1 = Database.of([("R", (r(1),))])
        db2 = Database.of([("R", (r(2),))])
        assert active_domain([db1, db2], RAT) == {r(1), r(2)}
        assert active_domain([db1, db2], RAT) == (
            active_domain([db1], RAT) | active_domain([db2], RAT))


class TestDataObjects:
    def test_equality_is_type_and_literal(self):
        assert mk_rational("Rat", 1) == mk_rational("Rat", Fraction(2, 2))
        assert mk_rational("Rat", 1) != mk_rational("Other", 1)

    def test_rationals_are_exact(self):
        third = mk_rational("Rat", Fraction(1, 3))
        assert third.value * 3 == 1

    def test_carrier_less_undef_is_least(self):
        assert carrier_less(mk_undef("Rat"), r(0))
        assert not carrier_less(r(0), mk_undef("Rat"))
        assert not carrier_less(mk_undef("Rat"), mk_undef("Rat"))

    def test_type_invariants(self):
        with pytest.raises(DataError):
            DataTypeDef("T", "string", has_less=True)
        with pytest.raises(DataError):
            DataTypeDef("T", "rational", has_succ=True)

    def test_database_apply_add_priority(self):
        db = Database.of([("R", (s("a"),))])
        out = db.apply(adds=[("R", (s("a"),))], dels=[("R", (s("a"),))])
        assert ("R", (s("a"),)) in out.facts


class TestInterning:
    """One object per (type name, literal): equality and hashing are by
    identity."""

    def test_equal_pairs_are_one_object(self):
        assert DataObject("Str", "a") is DataObject("Str", "a")
        assert s("a") is DataObject("Str", "a")
        assert mk_undef("Rat") is DataObject("Rat", UNDEF)

    def test_equal_fractions_are_one_object(self):
        assert r(Fraction(1, 2)) is r(Fraction(2, 4))
        assert DataObject("Rat", Fraction(3)) is r(3)

    def test_a_literal_keeps_its_class(self):
        assert DataObject("Rat", 3) is not DataObject("Rat", Fraction(3))
        assert type(DataObject("Rat", 3).value) is int
        assert type(DataObject("Rat", Fraction(3)).value) is Fraction

    def test_one_type_name_under_two_carriers(self):
        # two specs in one process may give a type name different carriers
        text = "type N {}\nfacet F of N: x = 1 | x = 2\n"
        ints = parse_spec(text.format("integer"))
        rats = parse_spec(text.format("rational"))
        for spec, carrier in ((ints, int), (rats, Fraction)):
            consts = {t.obj for a in Q.atoms(spec.facets["F"].formula) for t in (a.left, a.right)
                      if isinstance(t, Const)}
            assert {type(o.value) for o in consts} == {carrier}
            assert facet_member(spec.facets["F"], DataObject("N", carrier(2)), spec.types)
            assert not facet_member(spec.facets["F"], DataObject("N", carrier(3)), spec.types)

    def test_unheld_objects_are_released(self):
        obj = s("held only here")
        ref = weakref.ref(obj)
        del obj
        gc.collect()
        assert ref() is None
        assert "held only here" not in data._OBJECTS[("Str", str)]

    def test_a_dropped_build_releases_its_objects(self, ticket_shallow):
        def live_objects():
            gc.collect()
            return {k: len(table) for k, table in data._OBJECTS.items() if table}

        before = live_objects()
        # fb-flat draws fresh values at every step
        ts = build_transition_system(ticket_shallow, BuildConfig(mode="fb-flat", max_states=300))
        assert sum(live_objects().values()) > sum(before.values())
        del ts
        assert live_objects() == before

    def test_same_literal_under_two_types_is_two_objects(self):
        assert DataObject("Str", "a") is not DataObject("Name", "a")
        assert DataObject("Str", "a") != DataObject("Name", "a")

    def test_no_equality_or_hash_of_its_own(self):
        assert "__eq__" not in vars(DataObject) and "__hash__" not in vars(DataObject)
        assert not hasattr(s("a"), "_hash")

    def test_fields_cannot_be_assigned(self):
        obj = s("frozen")
        for name in ("type_name", "value", "_key", "other"):
            with pytest.raises(AttributeError):
                setattr(obj, name, "x")
        assert (obj.type_name, obj.value) == ("Str", "frozen")

    @pytest.mark.parametrize("obj", [s("a"), r(Fraction(1, 3)), mk_undef("Rat"),
                                     mk_symbol("agent", "inst")], ids=repr)
    def test_copies_and_pickles_are_the_same_object(self, obj):
        assert copy.copy(obj) is obj
        assert copy.deepcopy(obj) is obj
        assert copy.deepcopy([(obj, obj)])[0][1] is obj
        assert pickle.loads(pickle.dumps(obj)) is obj

    def test_imported_objects_are_the_built_ones(self, ticket_shallow):
        ts = build_transition_system(ticket_shallow, BuildConfig(mode="abstract-recycle"))
        back = import_jsonl(export_jsonl(ts))

        def objects(t):
            for state in t.states:
                dbs = [db for _, db in state.agent_dbs]
                if state.order_db is not None:
                    dbs.append(state.order_db)
                yield from (name for name, _ in state.agent_dbs)
                yield from (o for db in dbs for _, args in db.facts for o in args)

        built = {id(o): o for o in objects(ts)}
        got = {id(o): o for o in objects(back)}
        assert any(o.type_name == "Real" for o in built.values())
        assert got.keys() == built.keys()
        for mine, theirs in zip(ts.states, back.states):
            assert state_key(mine) == state_key(theirs)
