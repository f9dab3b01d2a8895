import dataclasses
import random

import pytest

import rmas.mucalc as mucalc
from rmas.builder import BuildConfig, TransitionSystem, build_transition_system, make_state
from rmas.data import Database, DataObject, mk_integer, mk_rational, mk_symbol
from rmas.dsl import ParseError, parse_spec
from rmas.model import install_institutional
from rmas import queries as Q
from rmas.mucalc import (
    ModelChecker,
    LiveAtom,
    LocAtom,
    NonMonotoneFixpoint,
    PBox,
    PDiamond,
    PMu,
    PNu,
    PropError,
    PVar,
    SystemTables,
    UnguardedModalVariables,
    check_closed,
    children,
    flatten_property,
    model_check,
    parse_property,
    rebuild,
)
from rmas.queries import (
    And, Const, EqAtom, Exists, Forall, LessAtom, Not, Or, TrueQ, Var, lessthan_rel)
from rmas.shallow import compile_shallow

from conftest import CORPUS, load_corpus, prop_paths, prop_text, run_cli, ticket_with_names
from oracles import NaiveChecker, ag_oracle, ef_oracle, naive_model_check

# a minimal system whose union schema provides propositional (0-ary) atoms
PROP_SPEC = install_institutional(parse_spec("""
spec instSpec institutional {
  relation p()
  relation q()
}
"""))

INST = mk_symbol("agent", "inst")
SPEC_OBJ = mk_symbol("spec", "instSpec")

BASE_FACTS = [
    ("Agent", (INST,)),
    ("MyName", (INST,)),
    ("hasSpec", (INST, SPEC_OBJ)),
    ("Spec", (SPEC_OBJ,)),
]


def prop_state(*labels: str):
    facts = list(BASE_FACTS) + [(l, ()) for l in labels]
    return make_state({INST: Database.of(facts)}, None)


def make_ts(labels_per_state, edges):
    ts = TransitionSystem()
    ts.states = [prop_state(*labels) for labels in labels_per_state]
    ts.edges = sorted(set(edges))
    return ts


class TestParse:
    def test_reachability_formula(self):
        p = parse_property("mu Z. Halted@inst | <>Z", _spec_with_halted())
        assert isinstance(p, PMu)
        assert isinstance(p.body, Or)

    def test_safety_skeleton(self):
        p = parse_property("nu Z. p@inst & []Z", PROP_SPEC)
        assert isinstance(p, PNu)
        assert isinstance(p.body, And)

    @pytest.mark.parametrize("text, error", [
        ("nu Z. (forall a: agent. !inCritical@inst(a)) & [ ]Z",
         "1:48: expected a term, found '['"),
        ("mu Z. (exists a: agent. inCritical@inst(a)) | < >Z",
         "1:47: expected a term, found '<'"),
    ])
    def test_modal_operators_are_written_without_a_space(self, ticket_spec, text, error):
        with pytest.raises(ParseError) as e:
            parse_property(text, ticket_spec)
        assert str(e.value) == error
        assert parse_property(text.replace("[ ]", "[]").replace("< >", "<>"), ticket_spec)

    def test_unguarded_modal_variable_rejected(self, ticket_spec):
        with pytest.raises(UnguardedModalVariables):
            parse_property("exists a: agent. <> inCritical@inst(a)", ticket_spec)

    def test_guard_by_positive_atom_accepted(self, ticket_spec):
        p = parse_property(
            "exists a: agent. Agent@inst(a) & <> inCritical@inst(a)", ticket_spec)
        found = []

        def walk(node):
            if isinstance(node, PDiamond):
                found.append(node.guards)
            for c in getattr(node, "parts", ()) or ():
                walk(c)
            body = getattr(node, "body", None)
            if body is not None:
                walk(body)

        walk(p)
        assert found == [(("a", "agent"),)]

    def test_live_atom_guard_accepted(self, ticket_spec):
        p = parse_property(
            "exists t: Real. live[Real](t) & <> (exists a: agent. hasTicket@inst(a, t))",
            ticket_spec)
        assert p is not None

    def test_non_monotone_fixpoint_rejected(self):
        # Z is counted from its own binder, through a negated inner one too
        for text in ("mu Z. !Z", "mu Z. !(mu Y. Z | <>Y)",
                     "nu Z. q@inst & !(nu Y. Z & []Y) & []Z"):
            with pytest.raises(NonMonotoneFixpoint):
                parse_property(text, PROP_SPEC)

    @pytest.mark.parametrize("text", [
        "!(mu Y. (exists a: agent. inCritical@inst(a)) | <>Y)",
        "nu Z. !(mu Y. (exists a: agent. inCritical@inst(a)) | <>Y) & []Z",
        "mu Z. !(!Z)"])
    def test_negated_closed_fixpoint_is_monotone(self, text, ticket_shallow):
        # negations are counted from each variable's own binder, not the root
        prop = parse_property(text, ticket_shallow)
        ts = build_transition_system(ticket_shallow, BuildConfig(mode="abstract-recycle"))
        _same_as_naive(ts, ticket_shallow, prop)

    def test_accessory_relations_rejected(self, contract_shallow):
        with pytest.raises(ParseError):
            parse_property("mu Z. __input_getQuote@inst | <>Z", contract_shallow)

    @pytest.mark.parametrize("text, error", [
        ("exists x: Nope. true", "1:11: unknown type 'Nope'"),
        ("exists x: agent. live[Nope](x)", "1:23: unknown type 'Nope'"),
        ("exists a: agent. __input_askTicket@inst(a)",
         "1:18: accessory relation '__input_askTicket' cannot appear in properties"),
    ])
    def test_name_refusals_point_at_the_name(self, ticket_spec, text, error):
        with pytest.raises(ParseError) as e:
            parse_property(text, ticket_spec)
        assert str(e.value) == error

    def test_unknown_relation(self):
        with pytest.raises(PropError):
            parse_property("mu Z. nope@inst | <>Z", PROP_SPEC)

    def test_comparison_type_inference(self, ticket_spec):
        p = parse_property(
            "exists a: agent, t: Real. hasTicket@inst(a, t) & 0 < t", ticket_spec)
        cmps = []

        def walk(node):
            if isinstance(node, LessAtom):
                cmps.append(node)
            for c in getattr(node, "parts", ()) or ():
                walk(c)
            if getattr(node, "body", None) is not None:
                walk(node.body)

        walk(p)
        assert any(c.type_name == "Real" for c in cmps)


def _spec_with_halted():
    return install_institutional(parse_spec(
        "spec instSpec institutional {\n relation Halted()\n}\n"))


class TestFlattenProperty:
    def test_returns_its_argument(self, ticket_spec):
        # the benchmark worker still calls it; the checker picks the order
        p = parse_property(prop_text("ticket_mutex", "fifo"), ticket_spec)
        assert flatten_property(p) is p


class TestModelCheck:
    def test_reachability_on_chain(self):
        # p only at the end of a 3-state chain: EF p true at every state
        ts = make_ts([(), (), ("p",)], [(0, 1), (1, 2)])
        p = parse_property("mu Z. p@inst | <>Z", PROP_SPEC)
        v = model_check(ts, PROP_SPEC, p)
        assert v.truth
        assert {sid for sid, _ in v.extension} == {0, 1, 2}

    def test_greatest_fixpoint_of_truth(self):
        ts = make_ts([(), ()], [(0, 1), (1, 0)])
        p = parse_property("nu Z. true & []Z", PROP_SPEC)
        v = model_check(ts, PROP_SPEC, p)
        assert v.truth
        assert {sid for sid, _ in v.extension} == {0, 1}

    def test_empty_system(self):
        # no state to mark: every mask is 0, and nothing holds at state 0
        ts = make_ts([], [])
        for text in ("mu Z. p@inst | <>Z", "nu Z. true & []Z", "exists a: agent. Agent@inst(a)"):
            v = model_check(ts, PROP_SPEC, parse_property(text, PROP_SPEC))
            assert (v.truth, v.extension) == (False, frozenset())

    def test_box_vacuous_on_terminal_state(self):
        ts = make_ts([()], [])
        assert model_check(ts, PROP_SPEC, parse_property("[] false", PROP_SPEC)).truth
        assert not model_check(ts, PROP_SPEC, parse_property("<> true", PROP_SPEC)).truth

    def test_persistence_falsifies_guard_in_successor(self, ticket_spec):
        # a ticket quantified outside the modality disappears in the
        # successor: the guarded diamond must fail
        from fractions import Fraction

        rt = lambda v: DataObject("Real", Fraction(v))
        c1 = mk_symbol("agent", "c1")
        base = [
            ("Agent", (INST,)), ("MyName", (INST,)),
            ("hasSpec", (INST, SPEC_OBJ)), ("Spec", (SPEC_OBJ,)),
        ]
        with_ticket = make_state(
            {INST: Database.of(base + [("Agent", (c1,)), ("hasTicket", (c1, rt(1)))])},
            None)
        without = make_state(
            {INST: Database.of(base + [("Agent", (c1,))])}, None)
        ts = TransitionSystem()
        ts.states = [with_ticket, without]
        ts.edges = [(0, 1), (1, 1)]
        spec = install_institutional(parse_spec(
            "type Real rational with less\nfacet RF of Real\n"
            "spec instSpec institutional {\n relation hasTicket(AF, RF)\n}\n"))
        live_now = parse_property(
            "exists a: agent, t: Real. hasTicket@inst(a, t) & <> true", spec)
        assert model_check(ts, spec, live_now).truth
        # one step later the ticket is gone, so the inner diamond (guarded
        # by t) is false at the successor
        gone = parse_property(
            "exists a: agent, t: Real. hasTicket@inst(a, t) & <> "
            "(live[Real](t) & <> true)", spec)
        assert not model_check(ts, spec, gone).truth

    def test_open_formula_rejected(self):
        p = parse_property("p@inst", PROP_SPEC)
        assert model_check(make_ts([("p",)], []), PROP_SPEC, p).truth
        # a genuinely open AST is refused
        with pytest.raises(PropError):
            model_check(make_ts([()], []), PROP_SPEC, LocAtom("p", (), Var("somewhere")))

    def test_unbound_fixpoint_variable_rejected(self):
        # Z has no enclosing mu/nu: it has no free first-order variable, but
        # it is not closed either
        for bad in (PVar("Z"), PMu("Y", Or((PVar("Y"), PDiamond((), PVar("Z"))))),
                    And((PNu("Z", PVar("Z")), PVar("Z")))):
            with pytest.raises(PropError, match="'Z' is not bound"):
                check_closed(bad)
            with pytest.raises(PropError, match="'Z' is not bound"):
                model_check(make_ts([()], []), PROP_SPEC, bad)
        check_closed(PNu("Z", And((PVar("Z"), PMu("Y", PVar("Z"))))))

    def test_iteration_count_bounded_by_state_space(self):
        ts = make_ts([(), (), (), ("p",)], [(0, 1), (1, 2), (2, 3), (3, 0)])
        p = parse_property("mu Z. p@inst | <>Z", PROP_SPEC)
        v = model_check(ts, PROP_SPEC, p)
        # closed formula: assignment space is trivial, so the Kleene chain
        # stabilizes within |states| + 1 rounds
        assert v.iterations <= len(ts.states) + 1


def random_prop_ts(rng: random.Random, n_states: int):
    labels = []
    for _ in range(n_states):
        ls = []
        if rng.random() < 0.4:
            ls.append("p")
        if rng.random() < 0.3:
            ls.append("q")
        labels.append(tuple(ls))
    edges = []
    for i in range(n_states):
        for j in range(n_states):
            if rng.random() < 0.3:
                edges.append((i, j))
    return make_ts(labels, edges), labels


class TestOracleAgreement:
    def test_ef_ag_fragment_on_random_systems(self):
        rng = random.Random(42)
        ef = parse_property("mu Z. p@inst | <>Z", PROP_SPEC)
        ag = parse_property("nu Z. p@inst & []Z", PROP_SPEC)
        agreements = 0
        for _ in range(200):
            ts, labels = random_prop_ts(rng, rng.randint(1, 6))
            succ: dict[int, list[int]] = {}
            for a, b in ts.edges:
                succ.setdefault(a, []).append(b)
            sat = {i for i, ls in enumerate(labels) if "p" in ls}
            assert model_check(ts, PROP_SPEC, ef).truth == ef_oracle(succ, 0, sat)
            assert model_check(ts, PROP_SPEC, ag).truth == ag_oracle(succ, 0, sat)
            agreements += 1
        assert agreements == 200

    def test_fixpoint_duality_on_random_formulas(self):
        # not mu Z. phi  ==  nu Z. not phi[not Z / Z]
        rng = random.Random(9)

        def dualize(node):
            if isinstance(node, PVar):
                return Not(node)
            if isinstance(node, Not):
                return Not(dualize(node.body))
            if isinstance(node, And):
                return And(tuple(dualize(c) for c in node.parts))
            if isinstance(node, Or):
                return Or(tuple(dualize(c) for c in node.parts))
            if isinstance(node, PDiamond):
                return PDiamond(node.guards, dualize(node.body))
            if isinstance(node, PBox):
                return PBox(node.guards, dualize(node.body))
            return node

        def random_body(depth):
            if depth == 0:
                return rng.choice([
                    LocAtom("p", (), Const(INST)),
                    LocAtom("q", (), Const(INST)),
                    PVar("Z"),
                ])
            kind = rng.choice(["and", "or", "dia", "box", "atom"])
            if kind == "and":
                return And((random_body(depth - 1), random_body(depth - 1)))
            if kind == "or":
                return Or((random_body(depth - 1), random_body(depth - 1)))
            if kind == "dia":
                return PDiamond((), random_body(depth - 1))
            if kind == "box":
                return PBox((), random_body(depth - 1))
            return LocAtom("p", (), Const(INST))

        checked = 0
        for _ in range(100):
            body = random_body(3)
            ts, _ = random_prop_ts(rng, rng.randint(1, 5))
            lhs = model_check(ts, PROP_SPEC, Not(PMu("Z", body))).truth
            rhs = model_check(ts, PROP_SPEC, PNu("Z", Not(dualize(body)))).truth
            assert lhs == rhs
            checked += 1
        assert checked == 100


def _mapped(value, f):
    return tuple(map(f, value)) if isinstance(value, tuple) else f(value)


def _parts(value, kinds) -> tuple:
    """A field's value, or the members of a tuple field, that are of kinds."""
    return tuple(x for x in (value if isinstance(value, tuple) else (value,))
                 if isinstance(x, kinds))


class TestRebuild:
    """Both syntax trees have one traversal: `children` and `rebuild` of
    queries, and those of mucalc, which add the property-only nodes."""

    def test_identity_and_replacement_on_every_node_kind(self):
        a, b = LocAtom("p", (), Const(INST)), LocAtom("q", (), Const(INST))
        x, c = Var("x"), Const(INST)
        samples = [
            TrueQ(), Q.RelAtom("R", (x, c)), EqAtom(x, c), LessAtom("Num", c, x),
            Q.SuccAtom(x, c), Not(a), And((a, b)), Or((a, b)), Exists("x", a, "agent"),
            Forall("x", a, "agent"), LocAtom("R", (x, c), Var("l")), LiveAtom("agent", "x"),
            PVar("Z"), PMu("Z", a), PNu("Z", a), PDiamond((("x", "agent"),), a), PBox((), a)]
        classes = {k for m in (Q, mucalc) for k in vars(m).values() if isinstance(k, type)
                   and issubclass(k, Q.Query) and dataclasses.is_dataclass(k)}
        assert {type(n) for n in samples} == classes
        swap = lambda n: b if n == a else a
        term = lambda t: x if isinstance(t, Const) else c
        terms = (Var, Q.Param, Const)
        for node in samples:
            trees = [(children, rebuild)]
            if getattr(Q, type(node).__name__, None) is type(node):
                trees.append((Q.children, Q.rebuild))
            fields = [getattr(node, f.name) for f in dataclasses.fields(node)]
            for children_, rebuild_ in trees:
                assert children_(node) == tuple(p for v in fields for p in _parts(v, Q.Query))
                assert rebuild_(node, lambda n: n) == node
                for t in (None, term):
                    got = rebuild_(node, swap, t)
                    assert type(got) is type(node)
                    for old, new in zip(fields, (getattr(got, g.name)
                                                 for g in dataclasses.fields(got))):
                        if _parts(old, Q.Query):
                            assert new == _mapped(old, swap), node
                        elif t is not None and _parts(old, terms):
                            assert new == _mapped(old, t), node
                        else:
                            assert new == old, node


@pytest.mark.parametrize("text", [
    "R(x)", "succ(1, 2)", "undef = undef", "exists t: Real. hasTicket@inst(_, t)"])
def test_query_only_syntax_is_refused(text, ticket_spec, tmp_path):
    # an unlocated relation atom, succ, undef and _ belong to spec queries only
    with pytest.raises((ParseError, PropError)):
        parse_property(text, ticket_spec)
    prop = tmp_path / "p.mlp"
    prop.write_text(text)
    out = run_cli("verify", str(CORPUS / "ticket_mutex.rmas"), str(prop),
                  "--mode", "abstract-recycle")
    assert out.returncode == 2, out.stderr
    assert b"Traceback" not in out.stderr


# ---------------------------------------------------------------------------
# Differential tests: the bitset checker against the set-of-pairs oracle


def _same_as_naive(ts, spec, prop):
    got = model_check(ts, spec, prop)
    want = naive_model_check(ts, spec, prop)
    assert (got.truth, got.extension, got.iterations) == \
        (want.truth, want.extension, want.iterations), prop


class TestNaiveAgreementOnCorpus:
    # true only if the order source orders two tickets held at once
    TWO_TICKETS_ORDERED = ("mu Z. (exists a: agent, b: agent, t: Real, u: Real. "
                           "hasTicket@inst(a, t) & hasTicket@inst(b, u) & t < u) | <>Z")

    @pytest.mark.parametrize("mode,max_states", [
        ("abstract-recycle", None), ("fb-flat", 60), ("fb-commitments", 60)])
    def test_ticket_properties(self, mode, max_states):
        spec = compile_shallow(load_corpus("ticket_mutex"))
        config = BuildConfig(mode=mode, max_states=max_states)
        ts = build_transition_system(spec, config)
        # `<` reads the lessThan facts in the flat modes, the carrier otherwise
        assert all((s.order_db is not None) == config.flat for s in ts.states)
        ops = set()
        for path in prop_paths("ticket_mutex"):
            prop = parse_property(path.read_text(), spec)
            ops |= _cmp_ops(prop)
            _same_as_naive(ts, spec, prop)
        assert ops == {"EqAtom", "LessAtom"}
        ordered = parse_property(self.TWO_TICKETS_ORDERED, spec)
        _same_as_naive(ts, spec, ordered)
        assert model_check(ts, spec, ordered).truth

    def test_parsed_ticket_properties_read_the_order_facts(self, ticket_shallow):
        # what parse_property returns is checked as is: no caller rewrites
        # `<` for a flat system
        ts = build_transition_system(ticket_shallow, BuildConfig(mode="abstract-recycle"))
        truth = {}
        for path in prop_paths("ticket_mutex"):
            prop = parse_property(path.read_text(), ticket_shallow)
            _same_as_naive(ts, ticket_shallow, prop)
            truth[path.stem] = model_check(ts, ticket_shallow, prop).truth
        assert truth["fifo"]

    def test_ping_properties(self, ping_shallow):
        ts = build_transition_system(ping_shallow, BuildConfig(mode="abstract-recycle"))
        for path in prop_paths("ping"):
            _same_as_naive(ts, ping_shallow, parse_property(path.read_text(), ping_shallow))


class TestFixpointVariableScope:
    """A fixpoint variable is bound by its nearest enclosing mu/nu, so reusing
    a name in another binder changes nothing."""

    WITNESS = ("(exists a: agent. Agent@inst(a) & (mu Z. inCritical@inst(a) | "
               "(Agent@inst(a) & <>Z)))")
    REUSED = [  # (name reused, every binder named apart)
        (WITNESS + " & (mu Z. true | <>Z)", WITNESS + " & (mu Y. true | <>Y)"),
        (WITNESS + " & (mu Z. (exists b: agent. inCritical@inst(b)) | <>Z)",
         WITNESS + " & (mu Y. (exists b: agent. inCritical@inst(b)) | <>Y)"),
        ("mu Z. (exists a: agent. Agent@inst(a) & (nu Z. Agent@inst(a) & []Z)) | <>Z",
         "mu Z. (exists a: agent. Agent@inst(a) & (nu Y. Agent@inst(a) & []Y)) | <>Z"),
    ]

    @pytest.mark.parametrize("text,apart", REUSED)
    def test_reused_name_parses_and_agrees(self, text, apart, ticket_shallow):
        prop = parse_property(text, ticket_shallow)
        renamed = parse_property(apart, ticket_shallow)
        ts = build_transition_system(ticket_shallow, BuildConfig(mode="abstract-recycle"))
        got, want = model_check(ts, ticket_shallow, prop), model_check(
            ts, ticket_shallow, renamed)
        assert (got.truth, got.extension, got.iterations) == \
            (want.truth, want.extension, want.iterations)
        _same_as_naive(ts, ticket_shallow, prop)

    def test_free_variable_still_reaches_the_modality(self, ticket_spec):
        # Z stands for its binder's body, in which a is free: <>Z needs a guard
        with pytest.raises(UnguardedModalVariables):
            parse_property("exists a: agent. mu Z. inCritical@inst(a) | <>Z", ticket_spec)


class TestBinderScopes:
    """A quantified name may be reused at another type in another scope; HasT
    is over Real and Name over Str."""

    REUSED = [  # (name reused, every binder named apart)
        ("nu Z. ((exists x. HasT@c1(x)) | (exists x. Name@c1(x))) & []Z",
         "nu Z. ((exists x. HasT@c1(x)) | (exists y. Name@c1(y))) & []Z"),
        ('mu Z. (exists x. HasT@c1(x) & (exists x. Name@c1(x) & x = "me")) | <>Z',
         'mu Z. (exists x. HasT@c1(x) & (exists y. Name@c1(y) & y = "me")) | <>Z'),
        ("mu Z. (exists x. HasT@c1(x) & (exists x. Name@c1(x) & <> live[Str](x))) | <>Z",
         "mu Z. (exists x. HasT@c1(x) & (exists y. Name@c1(y) & <> live[Str](y))) | <>Z"),
    ]

    @pytest.fixture(scope="class")
    def named(self):
        spec = compile_shallow(install_institutional(parse_spec(ticket_with_names("true"))))
        return spec, build_transition_system(spec, BuildConfig(mode="abstract-recycle"))

    @pytest.mark.parametrize("text,apart", REUSED)
    def test_reused_name_parses_and_agrees(self, text, apart, named):
        spec, ts = named
        prop, renamed = parse_property(text, spec), parse_property(apart, spec)
        got, want = model_check(ts, spec, prop), model_check(ts, spec, renamed)
        assert (got.truth, got.extension, got.iterations) == \
            (want.truth, want.extension, want.iterations)
        _same_as_naive(ts, spec, prop)

    def test_six_variable_equality_chain(self, named):
        spec, ts = named
        prop = parse_property("forall a, b, c, d, e, f. (a = b & b = c & c = d & d = e & e = f"
                              " & HasT@c1(f)) -> a = b", spec)
        binders = [n for n, _ in _scoped_nodes(prop, {}) if isinstance(n, Forall)]
        assert [n.type_name for n in binders] == ["Real"] * 6
        _same_as_naive(ts, spec, prop)


def _cmp_ops(p) -> set:
    own = {type(p).__name__} if isinstance(p, (EqAtom, LessAtom)) else set()
    return own.union(*(_cmp_ops(c) for c in children(p)))


DATA_SPEC_TEXT = """
type Str string
type Num rational with less
type Cnt integer with succ
facet SF of Str init { "k" }
facet NF of Num
facet CF of Cnt
agent b : worker
spec instSpec institutional {
  relation R(SF)
  relation S(AF, SF)
  relation T(SF, SF)
  relation N(NF)
  relation C(CF)
  relation p()
}
spec worker {
  relation W(SF)
}
"""
DATA_SPEC = install_institutional(parse_spec(DATA_SPEC_TEXT))

B = mk_symbol("agent", "b")
WORKER = mk_symbol("spec", "worker")
STRS = [DataObject("Str", v) for v in ("k", "s1", "s2", "s3")]
NUMS = [mk_rational("Num", v) for v in (1, 2, 3)]
CNTS = [mk_integer("Cnt", v) for v in (0, 1, 2)]
POOLS = {"Str": STRS, "Num": NUMS, "Cnt": CNTS, "agent": [INST, B]}


def random_data_ts(rng: random.Random, n_states: int) -> TransitionSystem:
    """States whose databases carry objects: b registered or not, with or
    without a database, and random lessThan facts over Num or no order
    database at all, so `<` reads both order sources."""

    def some(pool, p=0.4):
        return [o for o in pool if rng.random() < p]

    states = []
    for _ in range(n_states):
        facts = list(BASE_FACTS)
        if rng.random() < 0.7:
            facts += [("Agent", (B,)), ("hasSpec", (B, WORKER))]
        facts += [("R", (s,)) for s in some(STRS[1:])]
        facts += [("S", (a, s)) for a in (INST, B) for s in some(STRS[1:], 0.25)]
        facts += [("T", (s, t)) for s in STRS[1:] for t in some(STRS[1:], 0.2)]
        facts += [("N", (x,)) for x in some(NUMS)]
        facts += [("C", (x,)) for x in some(CNTS)]
        if rng.random() < 0.5:
            facts.append(("p", ()))
        dbs = {INST: Database.of(facts)}
        if rng.random() < 0.8:
            dbs[B] = Database.of([("MyName", (B,))] + [("W", (s,)) for s in some(STRS)])
        order = Database.of((lessthan_rel("Num"), (x, y))
                            for x in NUMS for y in NUMS if rng.random() < 0.3)
        states.append(make_state(dbs, order if rng.random() < 0.7 else None))
    ts = TransitionSystem()
    ts.states = states
    ts.edges = sorted({(i, j) for i in range(n_states) for j in range(n_states)
                       if rng.random() < 0.3})
    return ts


def random_data_prop(rng: random.Random, depth: int, scope: dict, fix: tuple):
    """A closed-by-construction formula: first-order variables come from
    `scope` (name -> type, in quantifier order), fixpoint variables from
    `fix`, and no fixpoint variable occurs under a negation."""

    def term(t):
        names = [v for v, vt in scope.items() if vt == t]
        if names and rng.random() < 0.75:
            return Var(rng.choice(names))
        return Const(rng.choice(POOLS[t]))

    def leaf():
        kind = rng.choice(["R", "S", "T", "W", "p", "N", "live", "eq", "cmp", "true", "var"])
        if kind == "var" and fix:
            return PVar(rng.choice(fix))
        if kind in ("R", "N"):
            return LocAtom(kind, (term("Str" if kind == "R" else "Num"),), Const(INST))
        if kind == "S":
            return LocAtom("S", (term("agent"), term("Str")), Const(INST))
        if kind == "T":
            x = term("Str")
            return LocAtom("T", (x, x if rng.random() < 0.3 else term("Str")), Const(INST))
        if kind == "W":
            return LocAtom("W", (term("Str"),), term("agent"))
        if kind == "live" and scope:
            v = rng.choice(list(scope))
            return LiveAtom(scope[v], v)
        if kind == "eq":
            t = rng.choice(["Str", "agent"])
            return EqAtom(term(t), term(t))
        if kind == "cmp":
            return LessAtom("Num", term("Num"), term("Num"))
        if kind == "true":
            return TrueQ()
        return LocAtom("p", (), Const(INST))

    if depth == 0:
        return leaf()
    sub = lambda scope=scope, fix=fix: random_data_prop(rng, depth - 1, scope, fix)
    kind = rng.choice(["and", "or", "not", "exists", "forall", "dia", "box", "mu", "nu", "leaf"])
    if kind in ("and", "or"):
        return (And if kind == "and" else Or)((sub(), sub()))
    if kind == "not":
        return Not(sub(fix=()))
    if kind in ("exists", "forall"):
        v = f"x{len(scope)}"
        t = rng.choice(["Str", "Num", "Cnt", "agent"])
        return (Exists if kind == "exists" else Forall)(v, sub(scope={**scope, v: t}), t)
    if kind in ("dia", "box"):
        guards = tuple((v, t) for v, t in scope.items() if rng.random() < 0.8)
        return (PDiamond if kind == "dia" else PBox)(guards, sub())
    if kind in ("mu", "nu"):
        z = f"Z{len(fix)}"
        return (PMu if kind == "mu" else PNu)(z, sub(fix=fix + (z,)))
    return leaf()


class TestNaiveAgreementOnRandomSystems:
    def test_random_formulas_with_data(self):
        rng = random.Random(20261018)
        shapes = set()
        for _ in range(120):
            ts = random_data_ts(rng, rng.randint(1, 5))
            prop = random_data_prop(rng, rng.randint(2, 5), {}, ())
            check_closed(prop)
            _same_as_naive(ts, DATA_SPEC, prop)
            shapes |= {type(n).__name__ for n, _ in _scoped_nodes(prop, {})}
        assert shapes >= {"Exists", "Forall", "PDiamond", "PBox", "PMu", "PNu", "PVar"}

    def test_nested_fixpoints_with_free_variables(self):
        # the inner fixpoints' bodies mention the quantified x: their
        # extensions range over assignments to x
        rng = random.Random(7)
        templates = [
            lambda body: PNu("Z", And((
                Forall("x", Or((Not(LocAtom("R", (Var("x"),), Const(INST))),
                                PMu("Y", body))), "Str"),
                PBox((), PVar("Z"))))),
            lambda body: PMu("Z", Or((
                Exists("x", And((LiveAtom("Str", "x"), PNu("Y", body))), "Str"),
                PDiamond((), PVar("Z"))))),
        ]
        checked = 0
        for _ in range(60):
            ts = random_data_ts(rng, rng.randint(2, 5))
            inner = random_data_prop(rng, rng.randint(1, 3), {"x": "Str"}, ("Y",))
            # the guard re-tests x at every step of the fixpoint
            guarded = rng.choice([PDiamond, PBox])((("x", "Str"),), PVar("Y"))
            body = rng.choice([Or, And])((inner, guarded))
            for make in templates:
                _same_as_naive(ts, DATA_SPEC, make(body))
                checked += 1
        assert checked == 120


class TestNaiveAgreementOnOpenFormulas:
    def test_every_subformula_extension(self):
        # whole extensions over assignments to free variables, not only the
        # closed formula's states
        rng = random.Random(11)
        scope = {"x0": "Str", "x1": "Num", "x2": "agent"}
        dom = tuple(scope)
        for _ in range(80):
            ts = random_data_ts(rng, rng.randint(1, 4))
            prop = random_data_prop(rng, rng.randint(1, 4), scope, ())
            got = ModelChecker(ts, DATA_SPEC)
            want = NaiveChecker(ts, DATA_SPEC)
            for node, node_scope in _scoped_nodes(prop, scope):
                if _free_fixpoint_vars(node):
                    continue
                node_dom = tuple(node_scope.items())
                ext = got.eval(node, node_dom, {})
                assert all(ext.values())
                pairs = {(sid, c) for c, m in ext.items()
                         for sid in range(len(ts.states)) if m >> sid & 1}
                assert pairs == want.eval(node, node_dom, {}), node
            assert got.iterations == want.iterations

    def test_atoms_over_order_facts_and_repeated_variables(self):
        x, y = Var("x"), Var("y")
        atoms = [(LessAtom("Num", x, x), "Num"), (LessAtom("Num", x, y), "Num"),
                 (LessAtom("Num", Const(NUMS[0]), y), "Num"),
                 (LessAtom("Num", x, Const(NUMS[-1])), "Num"),
                 (EqAtom(x, x), "Cnt"), (LocAtom("T", (x, x), Const(INST)), "Str"),
                 (LocAtom("T", (x, Const(STRS[1])), Const(INST)), "Str")]
        rng = random.Random(3)
        for _ in range(30):
            ts = random_data_ts(rng, rng.randint(1, 4))
            for atom, t in atoms:
                dom = (("x", t), ("y", t))
                got = ModelChecker(ts, DATA_SPEC).eval(atom, dom, {})
                pairs = {(sid, c) for c, m in got.items()
                         for sid in range(len(ts.states)) if m >> sid & 1}
                assert pairs == NaiveChecker(ts, DATA_SPEC).eval(atom, dom, {})

    def test_unbound_atom_variable_rejected(self):
        ts = random_data_ts(random.Random(1), 2)
        with pytest.raises(PropError, match="free variables"):
            ModelChecker(ts, DATA_SPEC).eval(LocAtom("R", (Var("x"),), Const(INST)), (), {})


def _bind_pair(atom, pair):
    """The binding under which a comparison atom's sides are the pair, or
    None."""
    theta: dict = {}
    for t, o in zip((atom.left, atom.right), pair):
        if isinstance(t, Const):
            if t.obj is not o:
                return None
        elif theta.setdefault(t.name, o) is not o:
            return None
    return theta


def _scoped_nodes(p, scope: dict):
    """Every subformula with its variables in scope, in quantifier order."""
    yield p, scope
    if isinstance(p, (Exists, Forall)):
        scope = {**scope, p.var: p.type_name}
    for c in children(p):
        yield from _scoped_nodes(c, scope)


def _free_fixpoint_vars(p) -> set:
    if isinstance(p, PVar):
        return {p.name}
    inner = set().union(*(_free_fixpoint_vars(c) for c in children(p)))
    return inner - {p.var} if isinstance(p, (PMu, PNu)) else inner


class TestSharedTables:
    """Every check on one transition system shares its `SystemTables`; a
    system that changed since, or a spec with other constants, gets fresh
    ones."""

    def test_placements_follow_each_states_roster(self, registry_spec):
        # agents join and leave, so the states' rosters differ
        ts = build_transition_system(registry_spec, BuildConfig(mode="abstract-recycle"))
        want: dict = {}
        rosters = set()
        for sid, s in enumerate(ts.states):
            roster = frozenset(args[0] for args in s.inst_db().facts_for("Agent"))
            rosters.add(roster)
            for agent, db in s.agent_dbs:
                if agent in roster:
                    want.setdefault((agent, db.facts), set()).add(sid)
        got: dict = {}
        for agent, db, ids in SystemTables(ts, frozenset()).placed:
            # each state that holds the placement, once, in id order
            assert ids == sorted(set(ids))
            got.setdefault((agent, db.facts), set()).update(ids)
        assert got == want
        assert len(rosters) > 1

    def test_six_checks_on_one_system(self, ticket_shallow, monkeypatch):
        made = []

        class Counting(SystemTables):
            def __init__(self, ts, consts):
                made.append(ts)
                super().__init__(ts, consts)

        monkeypatch.setattr(mucalc, "SystemTables", Counting)
        config = BuildConfig(mode="abstract-recycle")
        ts = build_transition_system(ticket_shallow, config)
        props = [parse_property(path.read_text(), ticket_shallow)
                 for path in prop_paths("ticket_mutex")]
        assert len(props) == 6
        for prop in props:
            got = model_check(ts, ticket_shallow, prop)
            fresh = model_check(build_transition_system(ticket_shallow, config),
                                ticket_shallow, prop)
            want = naive_model_check(ts, ticket_shallow, prop)
            for other in (fresh, want):
                assert (got.truth, got.extension, got.iterations) == \
                    (other.truth, other.extension, other.iterations), prop
        # one table build for ts, one for each fresh copy
        assert sum(t is ts for t in made) == 1
        assert len(made) == 1 + len(props)

    def test_lessfact_rows_match_per_state_reading(self, ticket_shallow):
        # `<` rows read each distinct order database once; reading every
        # state's own order database gives the same rows
        ts = build_transition_system(ticket_shallow, BuildConfig(mode="abstract-recycle"))
        orders = {id(s.order_db) for s in ts.states if s.order_db is not None}
        assert 1 < len(orders) < len(ts.states)
        tables = ModelChecker(ts, ticket_shallow).tables
        reals = tables.universe["Real"]
        x, y = Var("x"), Var("y")
        rel = lessthan_rel("Real")
        assert tables.atom_rows(LessAtom("Real", x, y))[1]
        for atom in (LessAtom("Real", x, y), LessAtom("Real", x, x),
                     LessAtom("Real", Const(reals[0]), y),
                     LessAtom("Real", x, Const(reals[-1]))):
            names, rows = tables.atom_rows(atom)
            want: dict = {}
            for sid, s in enumerate(ts.states):
                for pair in (s.order_db.facts_for(rel) if s.order_db else ()):
                    theta = _bind_pair(atom, pair)
                    if pair[0] is not pair[1] and theta is not None \
                            and set(theta.values()) <= set(reals):
                        row = tuple(theta[n] for n in names)
                        want[row] = want.get(row, 0) | 1 << sid
            assert rows == want, atom
        prop = parse_property(prop_text("ticket_mutex", "fifo"), ticket_shallow)
        got = model_check(ts, ticket_shallow, prop)
        want = naive_model_check(ts, ticket_shallow, prop)
        assert (got.truth, got.extension, got.iterations) == \
            (want.truth, want.extension, want.iterations)

    def test_grown_or_replaced_lists_get_fresh_tables(self):
        reach_q = parse_property("mu Z. q@inst | <>Z", PROP_SPEC)
        ts = make_ts([(), (), ("q",)], [(0, 1)])
        assert not model_check(ts, PROP_SPEC, reach_q).truth
        ts.edges.append((1, 2))  # the edge list grows
        assert model_check(ts, PROP_SPEC, reach_q).truth
        _same_as_naive(ts, PROP_SPEC, reach_q)
        ts.edges = [(0, 1), (1, 0)]  # replaced by one of the same length
        assert not model_check(ts, PROP_SPEC, reach_q).truth
        _same_as_naive(ts, PROP_SPEC, reach_q)
        ts.states.append(prop_state("q"))  # the state list grows
        ts.edges = ts.edges + [(1, 3)]
        assert model_check(ts, PROP_SPEC, reach_q).truth
        _same_as_naive(ts, PROP_SPEC, reach_q)
        ts.states = [prop_state("q"), prop_state(), prop_state(), prop_state()]
        assert model_check(ts, PROP_SPEC, reach_q).truth
        _same_as_naive(ts, PROP_SPEC, reach_q)

    def test_other_constants_get_fresh_tables(self):
        # the second spec has one more Str constant, so the universe an open
        # formula ranges over has one more object
        more = install_institutional(parse_spec(DATA_SPEC_TEXT.replace(
            'init { "k" }', 'init { "k", "z" }')))
        ts = random_data_ts(random.Random(5), 3)
        node = Not(LocAtom("R", (Var("x"),), Const(INST)))
        dom = (("x", "Str"),)
        last = ModelChecker(ts, DATA_SPEC)
        # the system keeps the tables of its last check's constants
        for spec, shared in ((DATA_SPEC, True), (more, False), (DATA_SPEC, False)):
            got = ModelChecker(ts, spec)
            pairs = {(sid, c) for c, m in got.eval(node, dom, {}).items()
                     for sid in range(len(ts.states)) if m >> sid & 1}
            assert pairs == NaiveChecker(ts, spec).eval(node, dom, {})
            assert (got.tables is last.tables) == shared
            assert (DataObject("Str", "z") in got.universe["Str"]) == (spec is more)
            last = got

    def test_six_checks_read_the_constants_once(self, ticket_shallow, monkeypatch):
        # later checks with the same spec object reuse the tables' constants
        read = []
        real = mucalc.initial_data_domain
        monkeypatch.setattr(mucalc, "initial_data_domain", lambda spec: read.append(spec)
                            or real(spec))
        ts = build_transition_system(ticket_shallow, BuildConfig(mode="abstract-recycle"))
        for path in prop_paths("ticket_mutex"):
            model_check(ts, ticket_shallow, parse_property(path.read_text(), ticket_shallow))
        assert read == [ticket_shallow]


class TestIncrementalSteps:
    """A `<>`/`[]` step whose mask grew since its last evaluation reads the
    predecessors of the new states only; one whose mask shrank reads all of
    them again."""

    @staticmethod
    def _spy(monkeypatch):
        """Record, for each `_pre_since` call, whether it had an earlier mask
        and whether that mask was contained in the new one, and the number
        of states each `_pre` call reads."""
        steps, read = [], []
        since, pre = ModelChecker._pre_since, ModelChecker._pre

        def spy_since(self, last, m):
            steps.append((last is not None, last is not None and last[0] & m == last[0]))
            return since(self, last, m)

        def spy_pre(self, m):
            read.append(bin(m).count("1"))
            return pre(self, m)

        monkeypatch.setattr(ModelChecker, "_pre_since", spy_since)
        monkeypatch.setattr(ModelChecker, "_pre", spy_pre)
        return steps, read

    @pytest.mark.parametrize("text,labels", [
        # the mu grows by one state per iteration, from the end of the chain
        ("mu Z. q@inst | <>Z", lambda i, n: ("q",) if i == n - 1 else ()),
        # the nu shrinks by one per iteration, so []'s complement grows
        ("nu Z. p@inst & []Z", lambda i, n: ("p",) if i < n - 1 else ())])
    def test_a_grown_mask_reads_only_its_new_states(self, text, labels, monkeypatch):
        n = 40
        ts = make_ts([labels(i, n) for i in range(n)],
                     [(i, i + 1) for i in range(n - 1)] + [(n - 1, n - 1)])
        prop = parse_property(text, PROP_SPEC)
        steps, read = self._spy(monkeypatch)
        got = model_check(ts, PROP_SPEC, prop)
        assert got.iterations == n + 1
        # every state enters the approximant's mask once; a full
        # recomputation would read 1 + 2 + ... + n of them
        assert sum(read) == n
        # only the first evaluation of the step had no earlier mask to grow
        assert steps[0] == (False, False) and set(steps[1:]) == {(True, True)}
        _same_as_naive(ts, PROP_SPEC, prop)

    def test_alternating_fixpoints_agree_with_naive(self, monkeypatch):
        # an inner fixpoint restarts on each outer iteration, so a step's mask
        # can shrink between two evaluations of the step
        templates = [
            lambda a, b: PNu("Z", PMu("Y", Or((And((a, PBox((), PVar("Z")))),
                                               PDiamond((), PVar("Y")))))),
            lambda a, b: PMu("Z", PNu("Y", And((Or((a, PDiamond((), PVar("Z")))),
                                                PBox((), PVar("Y")))))),
            lambda a, b: PNu("Z", Forall("x", Or((
                Not(LocAtom("R", (Var("x"),), Const(INST))),
                PMu("Y", Or((And((b, PBox((("x", "Str"),), PVar("Z")))),
                             PDiamond((("x", "Str"),), PVar("Y"))))))), "Str")),
        ]
        steps, _ = self._spy(monkeypatch)
        rng = random.Random(20261020)
        for _ in range(40):
            ts = random_data_ts(rng, rng.randint(2, 6))
            a = random_data_prop(rng, rng.randint(1, 3), {}, ("Z", "Y"))
            b = random_data_prop(rng, rng.randint(1, 3), {"x": "Str"}, ("Z", "Y"))
            for make in templates:
                _same_as_naive(ts, DATA_SPEC, make(a, b))
        # both ways of reading a step with an earlier mask were taken
        assert (True, False) in steps and (True, True) in steps
