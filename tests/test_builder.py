import collections
import gc
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import rmas.builder as B
from rmas import queries as Q
from rmas import symmetry
from rmas.builder import (
    BuildConfig,
    BuildError,
    Builder,
    ConfigError,
    MODE_ABSTRACT,
    MODE_CONCRETE,
    MODE_FB,
    MODE_FB_FLAT,
    MODE_SHALLOW,
    StateBoundExceeded,
    SuccRejected,
    build_transition_system,
    export,
    export_dot,
    export_jsonl,
    import_jsonl,
    make_state,
    state_key,
)
from rmas.commitments import CallToken, InconsistentOrder
from rmas.data import Database, DataObject, mk_rational, mk_symbol
from rmas.dsl import parse_spec
from rmas.generators import (
    ASYNC_DISORDERED,
    ASYNC_ORDERED,
    async_to_sync,
    counter_machine_to_rmas,
    parse_counter_program,
)
from rmas.model import ON_RECEIVE, ON_SEND, install_institutional
from rmas.queries import MissingOrderFacts, lessthan_rel
from rmas.shallow import compile_shallow

from conftest import CORPUS, load_corpus, rational_pool
from oracles import canonical_state_bytes


def rt(v):
    return mk_rational("Real", Fraction(v))


def agent(n):
    return mk_symbol("agent", n)


@pytest.fixture(scope="module")
def ticket_builder(ticket_spec):
    return Builder(ticket_spec, BuildConfig(mode=MODE_ABSTRACT))


@pytest.fixture(scope="module")
def ticket_abstract_ts(ticket_spec):
    return build_transition_system(ticket_spec, BuildConfig(mode=MODE_ABSTRACT))


class TestEnabledMessages:
    def test_assigned_enables_give_ticket(self, ticket_spec, ticket_builder):
        b = ticket_builder
        s0 = b.initial_state()
        inst_db = s0.inst_db().apply(
            adds=[("Assigned", (agent("c1"), rt("7/2")))], dels=[])
        dbs = {a: d for a, d in s0.agent_dbs}
        dbs[agent("inst")] = inst_db
        # order facts must mention the new ticket in flat mode
        order = Database.of([*(s0.order_db or Database()).facts])
        state = make_state(dbs, order)
        active = {a for a, _ in b.current_agents(state.inst_db())}
        out = b.enabled_messages(B._StepCache(b, state), agent("inst"), "instSpec", active)
        assert ("giveTicket", (rt("7/2"),), agent("c1")) in out

    def test_no_rules_no_messages(self):
        spec = install_institutional(parse_spec(""))
        b = Builder(spec, BuildConfig(mode=MODE_CONCRETE))
        s0 = b.initial_state()
        step = B._StepCache(b, s0)
        assert b.enabled_messages(step, agent("inst"), "instSpec", {agent("inst")}) == []

    def test_inactive_target_excluded(self, ticket_spec):
        b = Builder(ticket_spec, BuildConfig(mode=MODE_ABSTRACT))
        s0 = b.initial_state()
        # drop c2 from the registry: its askTicket rule can no longer fire
        inst_db = Database.of([
            f for f in s0.inst_db().facts
            if not (f[0] in ("Agent", "hasSpec") and f[1][0] == agent("c2"))
        ])
        dbs = {a: d for a, d in s0.agent_dbs if a != agent("c2")}
        dbs[agent("inst")] = inst_db
        state = make_state(dbs, s0.order_db)
        active = {a for a, _ in b.current_agents(state.inst_db())}
        assert agent("c2") not in active
        # no enabled message may target the deregistered agent
        step = B._StepCache(b, state)
        for sender, sname in b.current_agents(state.inst_db()):
            for (_, _, target) in b.enabled_messages(step, sender, sname, active):
                assert target != agent("c2")


class TestReactionsAndFacts:
    def test_give_ticket_triggers_bind(self, ticket_spec, ticket_builder):
        b = ticket_builder
        s0 = b.initial_state()
        out = b.collect_reactions(B._StepCache(b, s0), agent("inst"), "instSpec", ON_SEND,
                                  "giveTicket", (rt(1),), agent("c1"))
        assert out == [("bindTicket", (agent("c1"), rt(1)))]

    def test_no_matching_rules(self, ticket_spec, ticket_builder):
        b = ticket_builder
        s0 = b.initial_state()
        out = b.collect_reactions(B._StepCache(b, s0), agent("c1"), "client", ON_SEND,
                                  "giveTicket", (rt(1),), agent("inst"))
        assert out == []

    def test_gen_ticket_fact_embeds_call(self, ticket_spec, ticket_builder):
        b = ticket_builder
        s0 = b.initial_state()
        to_del, to_add = b.get_facts(
            B._StepCache(b, s0), agent("inst"), "instSpec", [("genTicket", (agent("c1"),))])
        assert to_del == set()
        assert to_add == {("Assigned", (agent("c1"), CallToken("getTicket", ())))}

    def test_unsatisfiable_guard(self, ticket_spec, ticket_builder):
        b = ticket_builder
        s0 = b.initial_state()
        # bindTicket's guards are true but the dels mention the arguments
        to_del, to_add = b.get_facts(
            B._StepCache(b, s0), agent("inst"), "instSpec", [("bindTicket", (agent("c1"), rt(1)))])
        assert to_add == {("hasTicket", (agent("c1"), rt(1)))}
        assert to_del == {("Assigned", (agent("c1"), rt(1)))}

    def test_false_guard_contributes_nothing(self):
        spec = install_institutional(parse_spec("""
spec instSpec institutional {
  relation W(AF)
  action never() {
    false ~> add { W(inst) }
  }
}
"""))
        b = Builder(spec, BuildConfig(mode=MODE_CONCRETE))
        s0 = b.initial_state()
        step = B._StepCache(b, s0)
        assert b.get_facts(step, agent("inst"), "instSpec", [("never", ())]) == (set(), set())

    def test_rem_ag_deletes_registry_rows(self, registry_spec):
        b = Builder(registry_spec, BuildConfig(mode=MODE_ABSTRACT))
        s0 = b.initial_state()
        w = agent("w1")
        inst_db = s0.inst_db().apply(
            adds=[("Agent", (w,)), ("hasSpec", (w, mk_symbol("spec", "worker")))],
            dels=[])
        dbs = {a: d for a, d in s0.agent_dbs}
        dbs[agent("inst")] = inst_db
        state = make_state(dbs, s0.order_db)
        to_del, to_add = b.get_facts(
            B._StepCache(b, state), agent("inst"), "instSpec", [("remAg", (w,))])
        assert ("Agent", (w,)) in to_del
        assert ("hasSpec", (w, mk_symbol("spec", "worker"))) in to_del


class TestStepSuccessors:
    def test_terminal_state_of_halted_machine(self):
        spec = counter_machine_to_rmas(parse_counter_program("halt\n"))
        pool = {"Int": tuple(DataObject("Int", i) for i in range(3))}
        ts = build_transition_system(spec, BuildConfig(mode=MODE_CONCRETE, pools=pool))
        # initial -> halted; halted state has no enabled messages
        assert ts.stats["states"] == 2
        last = ts.states[1]
        b = Builder(spec, BuildConfig(mode=MODE_CONCRETE, pools=pool))
        assert b.step_successors(last) == []

    def test_ask_ticket_dense_branching(self, ticket_spec):
        # one pending getTicket call against 2 live tickets: exactly the
        # dense commitments on 3 elements with 2 pre-ordered objects, i.e.
        # join-first, join-second, below, between, above = 5 branches
        b = Builder(ticket_spec, BuildConfig(mode=MODE_FB_FLAT))
        s0 = b.initial_state()
        inst_db = s0.inst_db().apply(adds=[
            ("hasTicket", (agent("c2"), rt(1))),
            ("hasTicket", (agent("c2"), rt(2))),
        ], dels=[])
        dbs = {a: d for a, d in s0.agent_dbs}
        dbs[agent("inst")] = inst_db
        order = Database.of([(lessthan_rel("Real"), (rt(1), rt(2)))])
        state = make_state(dbs, order)
        succs = b._exchange(
            B._StepCache(b, state), agent("c1"), "client", agent("inst"), "instSpec",
            "askTicket", ())
        assert len(succs) == 5
        # the ordering constraint commits only the above-everything branch;
        # the four rejected branches all roll back to the source state
        committed = [s for s in succs if s.db(agent("inst")) != inst_db]
        assert len(committed) == 1
        assert len({state_key(s) for s in succs}) == 2
        (assigned,) = committed[0].db(agent("inst")).facts_for("Assigned")
        new_ticket = assigned[1]
        pairs = {(a, c) for _, (a, c) in committed[0].order_db.facts}
        assert (rt(1), new_ticket) in pairs and (rt(2), new_ticket) in pairs

    def test_constraint_rollback_keeps_old_db(self, ticket_spec):
        b = Builder(ticket_spec, BuildConfig(mode=MODE_CONCRETE,
                                             pools=rational_pool("Real", [1])))
        s0 = b.initial_state()
        inst_db = s0.inst_db().apply(adds=[("hasTicket", (agent("c2"), rt(1)))], dels=[])
        dbs = {a: d for a, d in s0.agent_dbs}
        dbs[agent("inst")] = inst_db
        state = make_state(dbs, None)
        # c1 asks; the only pool ticket (1) ties with c2's and violates the
        # ordering constraint, so inst must roll back
        succs = b._exchange(
            B._StepCache(b, state), agent("c1"), "client", agent("inst"), "instSpec",
            "askTicket", ())
        assert len(succs) == 1
        assert succs[0].db(agent("inst")) == inst_db

    def test_rollback_locality(self, ping_shallow):
        # make bob's note action violate a constraint; alice's markSent
        # commit must be unaffected
        spec = ping_shallow
        bob = spec.agent_specs["ponger"]
        never = Q.Forall("g", Q.q_implies(
            Q.RelAtom("Seen", (Q.Var("g"),)), Q.q_false()))
        spec2 = replace(spec, agent_specs={
            **spec.agent_specs,
            "ponger": replace(bob, constraints=bob.constraints + (never,)),
        })
        b = Builder(spec2, BuildConfig(mode=MODE_SHALLOW))
        s0 = b.initial_state()
        succs = b._exchange(
            B._StepCache(b, s0), agent("alice"), "pinger", agent("bob"), "ponger",
            "ping", (DataObject("Str", "hi"),))
        (s1,) = succs
        assert s1.db(agent("bob")) == s0.db(agent("bob"))  # rolled back
        assert ("Waiting", ()) in s1.db(agent("alice")).facts  # committed

    def _ask_ticket_with_bogus_fact(self, ticket_spec):
        b = Builder(ticket_spec, BuildConfig(mode=MODE_CONCRETE,
                                             pools=rational_pool("Real", [1, 2])))
        s0 = b.initial_state()
        dbs = {a: d for a, d in s0.agent_dbs}
        dbs[agent("inst")] = s0.inst_db().apply(adds=[("Bogus", (agent("c1"),))], dels=[])
        state = make_state(dbs, None)
        return b, state, lambda: b._exchange(
            B._StepCache(b, state), agent("c1"), "client", agent("inst"), "instSpec",
            "askTicket", ())

    def test_out_of_schema_fact_rolls_back(self, ticket_spec):
        # every candidate of inst keeps the fact of a relation outside its
        # schema, so conformance rejects each branch and inst keeps its db
        b, state, exchange = self._ask_ticket_with_bogus_fact(ticket_spec)
        succs = exchange()
        assert succs
        assert all(s.db(agent("inst")) == state.inst_db() for s in succs)
        assert not b._acceptable("instSpec", state.inst_db(), Q.CarrierOrder())

    def test_other_conformance_errors_propagate(self, ticket_spec, monkeypatch):
        import rmas.builder as builder_module

        def broken(*args):
            raise RuntimeError("engine bug")

        _, _, exchange = self._ask_ticket_with_bogus_fact(ticket_spec)
        monkeypatch.setattr(builder_module, "conforms", broken)
        with pytest.raises(RuntimeError, match="engine bug"):
            exchange()


class TestBuild:
    def test_no_comm_rules_single_state(self):
        spec = install_institutional(parse_spec(""))
        ts = build_transition_system(spec, BuildConfig(mode=MODE_CONCRETE))
        assert ts.stats == {
            "states": 1, "edges": 0, "max_agent_adom": 2,
            "peak_frontier": 1, "depth": 1,
        } or ts.stats["states"] == 1

    def test_ticket_abstract_closes(self, ticket_abstract_ts):
        assert not ticket_abstract_ts.truncated
        assert ticket_abstract_ts.stats["states"] > 1

    def test_counter_machine_rejected_by_commitment_modes(self):
        spec = counter_machine_to_rmas(parse_counter_program("halt\n"))
        for mode in (MODE_FB, MODE_FB_FLAT, MODE_ABSTRACT):
            with pytest.raises(SuccRejected):
                build_transition_system(spec, BuildConfig(mode=mode))

    def test_state_bound_enforced(self, ticket_spec):
        with pytest.raises(StateBoundExceeded):
            build_transition_system(
                ticket_spec, BuildConfig(mode=MODE_ABSTRACT, state_bound=3))

    def test_max_states_truncates(self, ticket_spec):
        ts = build_transition_system(
            ticket_spec, BuildConfig(mode=MODE_ABSTRACT, max_states=1))
        assert ts.truncated

    def test_missing_pool_is_config_error(self, ticket_spec):
        with pytest.raises(ConfigError):
            build_transition_system(ticket_spec, BuildConfig(mode=MODE_CONCRETE))

    def test_non_shallow_spec_rejected_outside_concrete(self, ping_spec):
        with pytest.raises(ConfigError):
            build_transition_system(ping_spec, BuildConfig(mode=MODE_FB))

    def test_order_db_is_strict_total_order(self, ticket_abstract_ts):
        for s in ticket_abstract_ts.states:
            order = s.order_db or Database()
            by_type: dict[str, set] = {}
            pairs: dict[str, set] = {}
            for rel, (a, c) in order.facts:
                t = rel[len("__lt_"):]
                by_type.setdefault(t, set()).update({a, c})
                pairs.setdefault(t, set()).add((a, c))
            for t, objs in by_type.items():
                ps = pairs[t]
                for a in objs:
                    assert (a, a) not in ps  # irreflexive
                for a, c in itertools.permutations(objs, 2):
                    assert ((a, c) in ps) != ((c, a) in ps)  # total
                for (a, c), (c2, d) in itertools.product(ps, ps):
                    if c == c2:
                        assert (a, d) in ps or a == d  # transitive


TAGGER = """
type Tagv string
facet TF of Tagv
service mkTag() -> TF
message stamp()
message wipe()

spec instSpec institutional {
  relation Tag(TF)
  relation Seen(TF)

  MyName(a) & !Tag(_) enables stamp() to a
  MyName(a) & Tag(_) enables wipe() to a

  action gen() {
    true ~> add { Tag(mkTag()) }
  }
  action clear() {
    Tag(x) ~> del { Tag(x) } add { Seen(x) }
    Seen(y) ~> del { Seen(y) }
  }

  on stamp() from s if true then gen()
  on wipe() from s if true then clear()
}
"""


class TestEqualityCommitmentAbstraction:
    def test_unordered_results_agree_with_exhaustive_pools(self):
        # string-valued service: equality commitments must both equate a
        # fresh result with the passive value and keep it apart
        from rmas.mucalc import model_check, parse_property

        spec = install_institutional(parse_spec(TAGGER))
        pool = {"Tagv": tuple(DataObject("Tagv", c) for c in ("a", "b", "c"))}
        ts_c = build_transition_system(
            spec, BuildConfig(mode=MODE_CONCRETE, pools=pool))
        ts_a = build_transition_system(spec, BuildConfig(mode=MODE_ABSTRACT))
        assert not ts_c.truncated and not ts_a.truncated
        props = [
            "mu Z. (exists x: Tagv. Tag@inst(x) & Seen@inst(x)) | <>Z",
            "mu Z. (exists x: Tagv, y: Tagv. Tag@inst(x) & Seen@inst(y) & x != y) | <>Z",
            "nu Z. (!(exists x: Tagv, y: Tagv. Tag@inst(x) & Tag@inst(y) & x != y)) & []Z",
            "mu Z. (exists x: Tagv. Seen@inst(x)) | <>Z",
        ]
        for text in props:
            v1 = model_check(ts_c, spec, parse_property(text, spec)).truth
            v2 = model_check(ts_a, spec, parse_property(text, spec)).truth
            assert v1 is True and v2 is True


class TestThreeClients:
    def test_bigger_population_still_closes_and_verifies(self):
        from rmas.mucalc import model_check, parse_property
        from conftest import CORPUS

        text = (CORPUS / "ticket_mutex.rmas").read_text().replace(
            "agent c2 : client", "agent c2 : client\nagent c3 : client")
        spec = install_institutional(parse_spec(text))
        ts = build_transition_system(
            spec, BuildConfig(mode=MODE_ABSTRACT, max_states=500000))
        assert not ts.truncated
        for prop in ("safety", "fifo"):
            p = parse_property(
                (CORPUS / "props" / "ticket_mutex" / f"{prop}.mlp").read_text(), spec)
            assert model_check(ts, spec, p).truth


class TestRecycling:
    def test_registry_reuses_retired_agent_names(self, registry_spec):
        # unboundedly many workers over time, one alive at a time: the
        # abstraction must close by recycling the retired name
        ts = build_transition_system(registry_spec, BuildConfig(mode=MODE_ABSTRACT))
        assert not ts.truncated
        workers = set()
        for s in ts.states:
            for (name, _) in s.agent_dbs:
                if name.value != "inst":
                    workers.add(name.value)
        # FreshAg keeps the retired name active for one extra round, so two
        # names alternate; the point is that infinitely many creations reuse
        # a fixed finite set
        assert len(workers) == 2

    @pytest.mark.parametrize("worker", ("a", "s", "b"))
    def test_worker_may_share_a_name_with_builtin_variables(self, worker):
        # newAg and remAg use the variables a and s; the registry's own
        # rules use w and v instead, so only the built-ins could read the
        # initial worker's name
        text = (CORPUS / "registry.rmas").read_text()
        for old, new in (("(a", "(w"), ("a)", "w)"), ("a.", "w."), ("(s", "(v"), ("s)", "v)"),
                         ("s =", "v =")):
            text = text.replace(old, new)
        spec = install_institutional(parse_spec(text + f"agent {worker} : worker\n"))
        ts = build_transition_system(spec, BuildConfig(mode=MODE_ABSTRACT))
        assert (len(ts.states), len(ts.edges), ts.truncated) == (8, 18, False)

    def test_passive_objects_feed_fresh_results(self, ticket_spec):
        ts = build_transition_system(ticket_spec, BuildConfig(mode=MODE_ABSTRACT))
        tickets = set()
        for s in ts.states:
            for o in s.adom("Real"):
                tickets.add(o)
        # closure with finitely many representatives despite unbounded draws
        assert not ts.truncated
        assert 0 < len(tickets) <= 8


class TestDeterminism:
    def test_identical_builds(self, ticket_spec):
        cfg = BuildConfig(mode=MODE_ABSTRACT)
        a = build_transition_system(ticket_spec, cfg)
        b = build_transition_system(ticket_spec, cfg)
        assert [state_key(s) for s in a.states] == [state_key(s) for s in b.states]
        assert a.edges == b.edges

    @pytest.mark.parametrize("mode", [MODE_CONCRETE, MODE_ABSTRACT, MODE_FB_FLAT])
    def test_queries_compiled_once_per_builder(self, ticket_spec, monkeypatch, mode):
        typed, compiled = [], []
        typecheck_query, compile_query = Q.typecheck_query, Q.compile_query

        def typecheck(*a, **k):
            q, var_types = typecheck_query(*a, **k)
            typed.append(q)
            return q, var_types

        def compile_(q, var_types, inputs=()):
            compiled.append((q, tuple(sorted(var_types.items())), frozenset(inputs)))
            return compile_query(q, var_types, inputs)

        monkeypatch.setattr(Q, "typecheck_query", typecheck)
        monkeypatch.setattr(Q, "compile_query", compile_)
        b = Builder(ticket_spec, BuildConfig(mode=mode, max_states=60,
                                             pools=rational_pool("Real", [1, 2])))
        # every comm rule, update rule, effect guard and constraint is typed,
        # and each distinct typed query, with its types and inputs, compiled
        # once: the spec repeats some of them.  A literal true condition or
        # guard is never run, so never compiled; the spec has no other true
        assert len(typed) == sum(
            len(ag.comm_rules) + len(ag.update_rules) + len(ag.constraints)
            + sum(len(act.effects) for act in ag.actions.values())
            for ag in b.spec.agent_specs.values())
        assert len(compiled) == len(set(compiled)) < len(typed)
        assert Q.TrueQ() in typed
        assert {q for q, _, _ in compiled} == set(typed) - {Q.TrueQ()}
        before = len(compiled)
        assert len(b.build().states) > 10
        assert len(compiled) == before  # none per state

    def test_fb_successor_count_bounded_by_bell_product(self, ticket_spec):
        from oracles import bell
        import math

        b = Builder(ticket_spec, BuildConfig(mode=MODE_FB))
        s0 = b.initial_state()
        cur = b.current_agents(s0.inst_db())
        step = B._StepCache(b, s0)
        total_msgs = sum(
            len(b.enabled_messages(step, a, sn, {x for x, _ in cur})) for a, sn in cur
        )
        succs = b.step_successors(s0)
        # |ADom| per type at the first step is at most 4 here
        bound = total_msgs
        for t in b.spec.types:
            n = len(b.const_domain.get(t, ())) + len(s0.adom(t)) + 1
            bound *= bell(n) * math.factorial(n)
        assert len(succs) <= bound


class TestStateKey:
    def test_same_state_same_key(self, ticket_builder):
        s = ticket_builder.initial_state()
        s2 = ticket_builder.initial_state()
        assert state_key(s) == state_key(s2)

    def test_one_fact_difference(self, ticket_builder):
        s = ticket_builder.initial_state()
        dbs = {a: d for a, d in s.agent_dbs}
        dbs[agent("inst")] = dbs[agent("inst")].apply(
            adds=[("inCritical", (agent("c1"),))], dels=[])
        assert state_key(make_state(dbs, s.order_db)) != state_key(s)

    def test_insertion_order_irrelevant(self):
        f1 = ("R", (agent("a"),))
        f2 = ("S", (agent("b"),))
        d1 = Database.of([f1, f2])
        d2 = Database.of([f2, f1])
        s1 = make_state({agent("inst"): d1}, None)
        s2 = make_state({agent("inst"): d2}, None)
        assert state_key(s1) == state_key(s2)


class TestExport:
    def test_single_state_dot(self):
        spec = install_institutional(parse_spec(""))
        ts = build_transition_system(spec, BuildConfig(mode=MODE_CONCRETE))
        dot = export_dot(ts).decode()
        assert dot.count("label=") == 1
        assert "->" not in dot

    def test_chain_jsonl_counts(self):
        spec = counter_machine_to_rmas(parse_counter_program("inc 1 2\nhalt\n"))
        pool = {"Int": tuple(DataObject("Int", i) for i in range(3))}
        ts = build_transition_system(spec, BuildConfig(mode=MODE_CONCRETE, pools=pool))
        lines = export_jsonl(ts).decode().splitlines()
        states = [l for l in lines if '"kind": "state"' in l]
        edges = [l for l in lines if '"kind": "edge"' in l]
        assert len(states) == ts.stats["states"]
        assert len(edges) == ts.stats["edges"]

    def test_roundtrip_under_state_key(self, ticket_abstract_ts):
        data = export_jsonl(ticket_abstract_ts)
        back = import_jsonl(data)
        assert [state_key(s) for s in back.states] == [
            state_key(s) for s in ticket_abstract_ts.states
        ]
        assert back.edges == ticket_abstract_ts.edges
        assert export_jsonl(back) == data

    def test_unknown_format(self, ticket_abstract_ts):
        with pytest.raises(ConfigError):
            export(ticket_abstract_ts, "xml")


def _ticket3_spec():
    text = (CORPUS / "ticket_mutex.rmas").read_text()
    decl = "agent c1 : client\nagent c2 : client\n"
    assert decl in text
    return install_institutional(parse_spec(text.replace(
        decl, decl + "agent c3 : client\n")))


def _ping_ordered(ping_spec):
    return compile_shallow(async_to_sync(ping_spec, ASYNC_ORDERED))


def _flat_builds(ticket_spec, ping_spec, name):
    """The spec and config of a flat-mode build by name."""
    return {
        "ticket3-abstract": (_ticket3_spec(), BuildConfig(mode=MODE_ABSTRACT)),
        "ticket-flat-200": (ticket_spec, BuildConfig(mode=MODE_FB_FLAT, max_states=200)),
        "ping-ordered": (_ping_ordered(ping_spec), BuildConfig(mode=MODE_ABSTRACT)),
        # the corpus spec whose reactions write hasSpec
        "registry-abstract": (load_corpus("registry"), BuildConfig(mode=MODE_ABSTRACT)),
    }[name]


def _dedup_builds(ticket_spec, ping_spec):
    return [
        ("ticket-abstract", ticket_spec, BuildConfig(mode=MODE_ABSTRACT)),
        ("ticket-flat-200", ticket_spec, BuildConfig(mode=MODE_FB_FLAT, max_states=200)),
        ("ping-ordered", _ping_ordered(ping_spec), BuildConfig(mode=MODE_ABSTRACT)),
    ]


class TestStateKeyAgainstBytes:
    """`state_key` must split states exactly as the sorted byte serialisation
    of all their facts does, and dedup by either must give the same system."""

    def test_same_partition_of_every_successor(self, ticket_spec, ping_spec, monkeypatch):
        key = B.state_key
        for name, spec, cfg in _dedup_builds(ticket_spec, ping_spec):
            seen = []
            with monkeypatch.context() as m:
                m.setattr(B, "state_key", lambda s: seen.append(s) or key(s))
                ts = build_transition_system(spec, cfg)
            pairs = {(key(s), canonical_state_bytes(s)) for s in seen}
            keys = {k for k, _ in pairs}
            assert len(seen) > len(ts.states), name  # duplicates were met
            assert len(keys) == len(pairs) == len({b for _, b in pairs}), name
            assert len(keys) >= len(ts.states), name

    def test_byte_keyed_build_exports_the_same_bytes(self, ticket_spec, ping_spec,
                                                      monkeypatch):
        for name, spec, cfg in _dedup_builds(ticket_spec, ping_spec):
            want = export_jsonl(build_transition_system(spec, cfg))
            with monkeypatch.context() as m:
                m.setattr(B, "state_key", canonical_state_bytes)
                got = export_jsonl(build_transition_system(spec, cfg))
            assert got == want, name


class TestCommitmentsOnlyForCalls:
    def test_enumerators_see_calls_and_every_commitment_is_assigned(self, monkeypatch):
        counts = {"enumerated": 0, "assigned": 0}

        def counting(enum):
            def wrapper(elems, *args):
                elems = list(elems)
                assert any(isinstance(e, CallToken) for e in elems)
                for h in enum(elems, *args):
                    counts["enumerated"] += 1
                    yield h
            return wrapper

        assign = B.assign_results

        def counting_assign(*args):
            counts["assigned"] += 1
            return assign(*args)

        monkeypatch.setattr(B, "enumerate_dense_commitments",
                            counting(B.enumerate_dense_commitments))
        monkeypatch.setattr(B, "enumerate_equality_commitments",
                            counting(B.enumerate_equality_commitments))
        monkeypatch.setattr(B, "assign_results", counting_assign)
        ts = build_transition_system(_ticket3_spec(), BuildConfig(mode=MODE_ABSTRACT))
        assert (len(ts.states), len(ts.edges)) == (895, 2517)
        # the ticket spec has one service, so one commitment per branch
        assert counts["enumerated"] == counts["assigned"] > 0
        # most exchanges issue no call and enumerate nothing
        assert counts["assigned"] < len(ts.edges)

    def _two_ticket_state(self, b, order_facts):
        """c1 alone is registered and may only ask for a ticket, which inst
        refuses without a call because c1 holds two tickets already."""
        s0 = b.initial_state()
        inst_db = Database.of(
            [f for f in s0.inst_db().facts
             if not (f[0] in ("Agent", "hasSpec") and f[1][0] == agent("c2"))]
            + [("hasTicket", (agent("c1"), rt(1))), ("hasTicket", (agent("c1"), rt(2)))])
        dbs = {a: d for a, d in s0.agent_dbs if a != agent("c2")}
        dbs[agent("inst")] = inst_db
        state = make_state(dbs, Database.of(order_facts))
        cur = b.current_agents(state.inst_db())
        active = {a for a, _ in cur}
        step = B._StepCache(b, state)
        msgs = [(s, m) for s, sn in cur for m in b.enabled_messages(step, s, sn, active)]
        assert msgs == [(agent("c1"), ("askTicket", (), agent("inst")))]
        _, to_add = b.get_facts(step, agent("inst"), "instSpec", b.collect_reactions(
            step, agent("inst"), "instSpec", ON_RECEIVE, "askTicket", (), agent("c1")))
        assert not to_add
        return state

    def test_call_free_step_still_checks_the_order(self, ticket_spec):
        lt = lessthan_rel("Real")
        b = Builder(ticket_spec, BuildConfig(mode=MODE_FB_FLAT))
        both_ways = self._two_ticket_state(
            b, [(lt, (rt(1), rt(2))), (lt, (rt(2), rt(1)))])
        with pytest.raises(InconsistentOrder):
            b.step_successors(both_ways)
        unordered = self._two_ticket_state(b, [])
        with pytest.raises(MissingOrderFacts):
            b.step_successors(unordered)
        ordered = self._two_ticket_state(b, [(lt, (rt(1), rt(2)))])
        (succ,) = b.step_successors(ordered)
        assert succ.order_db.facts == ordered.order_db.facts


def _local_answers(b, state):
    """The answers of every agent-local call a step of state makes: each
    agent's enabled messages and the acceptance of its database, and for each
    message the reactions of sender and target, their facts, and the
    acceptance of the update made of the facts without a call result."""
    order = Q.CarrierOrder() if state.order_db is None else Q.FactOrder(state.order_db)
    specs = dict(b.current_agents(state.inst_db()))
    step = B._StepCache(b, state)
    out = [step.dense_order()]
    for agent, sname in specs.items():
        out.append(b._acceptable(sname, state.db(agent), order))
        for msg, payload, target in b.enabled_messages(step, agent, sname, set(specs)):
            for who, peer, direction in ((agent, target, ON_SEND), (target, agent, ON_RECEIVE)):
                acts = b.collect_reactions(step, who, specs[who], direction, msg, payload, peer)
                to_del, to_add = b.get_facts(step, who, specs[who], acts)
                ground = {f for f in to_add if not any(isinstance(a, CallToken) for a in f[1])}
                cand = Database((state.db(who).facts - to_del) | ground)
                out.append((msg, payload, target, acts, to_del, to_add,
                            b._acceptable(specs[who], cand, order)))
    return out


# one message sent by an agent to itself or to the other: the sender notes
# the payload, the receiver notes the sender
SELF_AND_OTHER = """
message m(AF)

agent p : node
agent q : node

spec node {
  relation Noted(AF)

  (t = p | t = q) & (x = p | x = q) enables m(x) to t

  action note(a: AF) {
    true ~> add { Noted(a) }
  }

  on m(x) to t if true then note(x)
  on m(x) from s if true then note(s)
}
"""

# inst may move p from spec left to spec right, keeping p's database; each
# spec reacts to hi with its own action
SWITCHED_SPEC = """
message hi()
message flip()

agent p : left

spec instSpec institutional {
  relation Flipped()

  MyName(m) & !Flipped() enables flip() to m
  a = p enables hi() to a

  action doFlip() {
    true ~> del { hasSpec(p, left) } add { hasSpec(p, right), Flipped() }
  }

  on flip() from x if true then doFlip()
}

spec left {
  relation L()
  action l() {
    true ~> add { L() }
  }
  on hi() from s if true then l()
}

spec right {
  relation R()
  action r() {
    true ~> add { R() }
  }
  on hi() from s if true then r()
}
"""

# inst pokes p, which notes it; inst may drop p from the roster and then
# register it again, both by writing hasSpec directly rather than through
# remAg and newAg
DIRECT_ROSTER = """
message poke()
message leave()
message back()

agent p : worker

spec instSpec institutional {
  relation Left()
  relation Back()

  a = p & !Left() enables poke() to a
  MyName(m) & !Left() enables leave() to m
  MyName(m) & Left() & !Back() enables back() to m

  action drop() {
    true ~> del { hasSpec(p, worker) } add { Left() }
  }
  action readd() {
    true ~> add { hasSpec(p, worker), Back() }
  }

  on leave() from x if true then drop()
  on back() from x if true then readd()
}

spec worker {
  relation W()
  relation Poked()
  init W()

  action poked() {
    true ~> add { Poked() }
  }

  on poke() from s if true then poked()
}
"""


class _Forgetful(dict):
    """A memo that keeps nothing, so every lookup computes afresh."""

    def __setitem__(self, key, value) -> None:
        pass


def _kept_and_uncached_successors(spec, cfg, states):
    """Each state's successors from one builder that meets the states in
    order, and from one that keeps no answer at all."""
    kept, uncached = Builder(spec, cfg), Builder(spec, cfg)
    uncached._memo = _Forgetful()
    return ([list(map(state_key, kept.step_successors(s))) for s in states],
            [list(map(state_key, uncached.step_successors(s))) for s in states])


class _NoSymmetry(Builder):
    """A builder that forms no group of interchangeable agents, so it
    expands every state whose core its layer has not met."""

    def _prepare(self):
        super()._prepare()
        self._groups = ()


class TestMemoAndInterning:
    """A builder keeps one database per fact set, the answers of its
    agent-local calls, each exchange participant's next database and each
    situation's service-call branches for its whole life."""

    @pytest.mark.parametrize("name", ["ticket3-abstract", "ticket-flat-200", "ping-ordered",
                                      "registry-abstract"])
    def test_memoized_answers_equal_fresh_ones(self, ticket_spec, ping_spec, name):
        spec, cfg = _flat_builds(ticket_spec, ping_spec, name)
        warm = Builder(spec, cfg)
        ts = warm.build()
        want = [_local_answers(warm, s) for s in ts.states]
        # the fresh builder meets the states in reverse, so its answer to a
        # key comes from the last state that has the key, the build's from
        # the first: a key that left out something a call reads would differ
        fresh = Builder(spec, cfg)
        got = [_local_answers(fresh, s) for s in reversed(ts.states)][::-1]
        assert got == want
        assert sum(len(a) for a in want) > 2 * len(ts.states)

    @pytest.mark.parametrize("name", ["ticket3-abstract", "ping-ordered"])
    def test_kept_branches_equal_fresh_ones(self, ping_spec, name):
        spec = _ticket3_spec() if name == "ticket3-abstract" else _ping_ordered(ping_spec)
        cfg = BuildConfig(mode=MODE_ABSTRACT)
        ts = build_transition_system(spec, cfg)
        warm = Builder(spec, cfg)
        consts = {t: set(objs) for t, objs in warm.const_domain.items()}
        used = {t: set(objs) for t, objs in consts.items()}
        noted: set = set()
        for s in ts.states:
            warm._note_used(used, s, noted)

        def successors(b, states, snapshot):
            return [list(map(state_key, b.step_successors(s, snapshot))) for s in states]

        # the warm builder keeps each step's branches under the constants
        # alone first, where nothing is passive, then meets every state again
        # with every object used; the fresh builder meets the states in
        # reverse: a branch key that left out what the branches depend on
        # would hand one situation's branches to another
        under_consts = successors(warm, ts.states, consts)
        want = successors(warm, ts.states, used)
        got = successors(Builder(spec, cfg), ts.states[::-1], used)[::-1]
        assert got == want
        assert under_consts != want  # the passive pool changes some branches

    @pytest.mark.parametrize("name", [
        "ticket3-abstract", "ticket-flat-200", "ping-ordered", "registry-abstract",
        "self-and-other", "switched-spec", "direct-roster"])
    def test_kept_next_databases_equal_uncached_ones(self, ticket_spec, ping_spec, name):
        # an answer kept under a key that left out something the participant
        # reads would reach a later state, or a later exchange of the same
        # state, that the uncached builder answers afresh
        spec, cfg = {
            "self-and-other": (install_institutional(parse_spec(SELF_AND_OTHER)),
                               BuildConfig(mode=MODE_CONCRETE)),
            "switched-spec": (install_institutional(parse_spec(SWITCHED_SPEC)),
                              BuildConfig(mode=MODE_CONCRETE)),
            "direct-roster": (install_institutional(parse_spec(DIRECT_ROSTER)),
                              BuildConfig(mode=MODE_CONCRETE)),
        }.get(name) or _flat_builds(ticket_spec, ping_spec, name)
        ts = build_transition_system(spec, cfg)
        kept, uncached = _kept_and_uncached_successors(spec, cfg, ts.states)
        assert kept == uncached

    def test_an_agent_sends_one_message_to_itself_and_to_another(self):
        # to itself, p notes the payload as sender and itself as receiver;
        # p's send reaction to m(p) to q and its receive reaction to m(p)
        # from q read the same database, payload and peer, yet differ
        spec = install_institutional(parse_spec(SELF_AND_OTHER))
        ts = build_transition_system(spec, BuildConfig(mode=MODE_CONCRETE))
        assert (len(ts.states), len(ts.edges)) == (14, 53)

        def noted(s):
            return tuple(tuple(sorted(args[0].value for rel, args in d.facts if rel == "Noted"))
                         for a, d in s.agent_dbs if a.value != "inst")

        b = Builder(spec, BuildConfig(mode=MODE_CONCRETE))
        assert [a.value for a, _ in b.initial_state().agent_dbs] == ["inst", "p", "q"]
        assert sorted(map(noted, b.step_successors(b.initial_state()))) == sorted([
            (("p",), ()),            # p -> p: m(p)
            (("p", "q"), ()),        # p -> p: m(q)
            (("p",), ("p",)),        # p -> q: m(p)
            (("q",), ("p",)),        # p -> q: m(q)
            (("q",), ("p",)),        # q -> p: m(p)
            (("q",), ("q",)),        # q -> p: m(q)
            ((), ("p", "q")),        # q -> q: m(p)
            ((), ("q",)),            # q -> q: m(q)
        ])

    def test_a_guard_alone_reads_the_order(self):
        # late(t) triggers judge whatever the order, and judge's guard alone
        # compares tickets: the same inst database under two orders gives
        # two answers
        text = (CORPUS / "ticket_mutex.rmas").read_text().replace(
            "message exitC()\n", "message exitC()\nmessage late(RF)\n").replace(
            "  relation inCritical(AF)\n", "  relation inCritical(AF)\n  relation Late(AF)\n"
            "  action judge(a: AF, t: RF) {\n"
            "    exists t2. hasTicket(_, t2) & t2 < t ~> add { Late(a) }\n  }\n"
            "  on late(t) from a if true then judge(a, t)\n").replace(
            "spec client {\n", "spec client {\n  HasT(t) & a = inst enables late(t) to a\n")
        spec = install_institutional(parse_spec(text))
        cfg = BuildConfig(mode=MODE_FB_FLAT)
        s0 = Builder(spec, cfg).initial_state()
        dbs = dict(s0.agent_dbs)
        dbs[agent("inst")] = s0.inst_db().apply(adds=[
            ("hasTicket", (agent("c1"), rt(1))), ("hasTicket", (agent("c2"), rt(2)))], dels=[])
        dbs[agent("c1")] = dbs[agent("c1")].apply(adds=[("HasT", (rt(1),))], dels=[])
        lt = lessthan_rel("Real")
        states = [make_state(dbs, Database.of([(lt, (a, b))])) for a, b in
                  [(rt(1), rt(2)), (rt(2), rt(1))]]
        kept, uncached = _kept_and_uncached_successors(spec, cfg, states)
        assert kept == uncached
        late = [[any(f[0] == "Late" for _, d in key[0] for f in d) for key in keys]
                for keys in kept]
        assert list(map(any, late)) == [False, True]  # c1's ticket is late only where 2 < 1

    def test_the_key_keeps_the_order(self, ticket_spec):
        lt = lessthan_rel("Real")
        b = Builder(ticket_spec, BuildConfig(mode=MODE_FB_FLAT))
        s0 = b.initial_state()
        dbs = dict(s0.agent_dbs)
        dbs[agent("inst")] = s0.inst_db().apply(adds=[
            ("hasTicket", (agent("c1"), rt(1))), ("hasTicket", (agent("c2"), rt(2)))], dels=[])

        def reactions(order_facts):
            state = make_state(dbs, Database.of(order_facts))
            return b.collect_reactions(B._StepCache(b, state), agent("inst"), "instSpec",
                                       ON_RECEIVE,
                                       "cMsg", (rt(1),), agent("c1"))

        # c1 holds the least ticket only where 1 < 2
        assert reactions([(lt, (rt(1), rt(2)))]) == [
            ("enterCritical", (agent("c1"), rt(1)))]
        assert reactions([(lt, (rt(2), rt(1)))]) == []

    def test_the_dense_order_key_keeps_the_active_objects(self, ticket_spec):
        # the same order facts in both states, but only the second one holds
        # ticket 3: keyed by the order facts alone, it would get the first
        # one's sequence
        lt = lessthan_rel("Real")
        b = Builder(ticket_spec, BuildConfig(mode=MODE_FB_FLAT))
        s0 = b.initial_state()
        order = Database.of((lt, (rt(x), rt(y))) for x, y in [(1, 2), (1, 3), (2, 3)])

        def dense_order(*tickets):
            dbs = dict(s0.agent_dbs)
            dbs[agent("inst")] = s0.inst_db().apply(
                adds=[("hasTicket", (agent("c1"), rt(t))) for t in tickets], dels=[])
            return B._StepCache(b, make_state(dbs, order)).dense_order()

        two, three = dense_order(1, 2), dense_order(1, 2, 3)
        assert two[0]["Real"] == [rt(1), rt(2)]
        assert two[1].facts == {(lt, (rt(1), rt(2)))}
        assert three[0]["Real"] == [rt(1), rt(2), rt(3)]
        assert three[1].facts == order.facts
        # another state with the first one's key gets its answer
        assert dense_order(2, 1) is two

    def test_the_branch_key_keeps_the_calls_and_dense_active_objects(self):
        # each client may poke inst, which then calls getTok on the poker's
        # name: two exchanges of one step issue different calls in the same
        # situation.  Two states have the same order facts, and only the
        # second holds ticket 2: keyed without the tickets, its branches
        # would carry the first one's rebuilt order
        text = (CORPUS / "ticket_mutex.rmas").read_text().replace(
            "message askTicket()\n", "message askTicket()\nmessage poke()\n"
            "type Tok symbolic\nfacet TF of Tok\nservice getTok(AF) -> TF\n").replace(
            "  relation inCritical(AF)\n", "  relation inCritical(AF)\n  relation Stamp(TF)\n"
            "  action stamp(a: AF) {\n    true ~> add { Stamp(getTok(a)) }\n  }\n"
            "  on poke() from a if true then stamp(a)\n").replace(
            "spec client {\n", "spec client {\n  a = inst enables poke() to a\n")
        spec = install_institutional(parse_spec(text))
        order = Database.of([(lessthan_rel("Real"), (rt(1), rt(2)))])

        def successors(b, *holders):
            s0 = b.initial_state()
            dbs = dict(s0.agent_dbs)
            dbs[agent("inst")] = s0.inst_db().apply(adds=[
                ("hasTicket", (agent(c), rt(t))) for t, c in enumerate(holders, 1)], dels=[])
            return [state_key(s) for s in b.step_successors(make_state(dbs, order))]

        cfg = BuildConfig(mode=MODE_FB_FLAT)
        warm = Builder(spec, cfg)
        successors(warm, "c1")
        assert successors(warm, "c1", "c2") == successors(Builder(spec, cfg), "c1", "c2")

    def test_a_bad_roster_raises_on_every_call(self, ticket_spec):
        b = Builder(ticket_spec, BuildConfig(mode=MODE_ABSTRACT))
        s0 = b.initial_state()
        dbs = dict(s0.agent_dbs)
        dbs[agent("inst")] = s0.inst_db().apply(
            adds=[("hasSpec", (agent("c1"), mk_symbol("spec", "instSpec")))], dels=[])
        twice = make_state(dbs, s0.order_db)
        for _ in range(2):
            with pytest.raises(BuildError, match="two specs"):
                b.current_agents(twice.inst_db())
        roster = b.current_agents(s0.inst_db())
        roster.clear()  # each caller gets its own list
        assert [a for a, _ in b.current_agents(s0.inst_db())] == [
            agent("c1"), agent("c2"), agent("inst")]

    def test_an_unknown_spec_has_one_message(self, ticket_spec):
        # the initial state and a later inst database meet it in one reader
        inst = ticket_spec.inst_spec
        initial_db = inst.initial_db.apply(
            adds=[("hasSpec", (agent("c3"), mk_symbol("spec", "nope")))], dels=[])
        spec = replace(ticket_spec, agent_specs={**ticket_spec.agent_specs,
                                                 inst.name: replace(inst, initial_db=initial_db)})
        message = "^agent 'c3':agent has unknown spec 'nope'$"
        with pytest.raises(BuildError, match=message):
            Builder(spec, BuildConfig(mode=MODE_ABSTRACT)).initial_state()
        with pytest.raises(BuildError, match=message):
            Builder(ticket_spec, BuildConfig(mode=MODE_ABSTRACT)).current_agents(initial_db)

    def test_a_second_spec_fails_the_exchange_that_registers_it(self):
        # flip registers p under right as well as left
        text = SWITCHED_SPEC.replace("del { hasSpec(p, left) } add", "add")
        b = Builder(install_institutional(parse_spec(text)), BuildConfig(mode=MODE_CONCRETE))
        with pytest.raises(BuildError, match="registered under two specs"):
            b.step_successors(b.initial_state())

    def test_an_agent_registered_again_gets_its_first_database(self):
        # readd writes hasSpec without newAg: p comes back with W() and its
        # name, not with the Poked() it held before drop removed it
        spec = install_institutional(parse_spec(DIRECT_ROSTER))
        b = Builder(spec, BuildConfig(mode=MODE_CONCRETE))
        ts = b.build()
        first = b.initial_state().db(agent("p"))
        assert first.facts == {("MyName", (agent("p"),)), ("W", ())}

        def inst_has(s, rel):
            return any(f[0] == rel for f in s.inst_db().facts)

        left = [s for s in ts.states if inst_has(s, "Left") and not inst_has(s, "Back")]
        back = [s for s in ts.states if inst_has(s, "Back")]
        assert left and all(s.db(agent("p")) is None for s in left)
        assert back and all(s.db(agent("p")) is first for s in back)
        # p was poked before it left on some path
        assert any(("Poked", ()) in s.db(agent("p")).facts
                   for s in ts.states if not inst_has(s, "Left"))
        assert (len(ts.states), len(ts.edges)) == (4, 5)

    def test_databases_are_interned(self, ticket_spec, ping_spec, registry_spec):
        builds = _dedup_builds(ticket_spec, ping_spec) + [
            ("registry-abstract", registry_spec, BuildConfig(mode=MODE_ABSTRACT)),
            ("ticket-concrete-60", ticket_spec, BuildConfig(
                mode=MODE_CONCRETE, max_states=60, pools=rational_pool("Real", [1, 2]))),
        ]
        for name, spec, cfg in builds:
            ts = build_transition_system(spec, cfg)
            dbs = {id(d): d for s in ts.states
                   for d in [db for _, db in s.agent_dbs] + [s.order_db] if d is not None}
            assert len({d.facts for d in dbs.values()}) == len(dbs), name


# p sends the judge q a bid of each ticket it has; q notes a bid below its
# best one (the condition compares the payload with q's objects) and a bid
# below the constant 5 (the guard compares the payload with a constant)
BIDS = """
type Real rational with less
facet RF of Real
message bid(RF)

agent p : bidder
agent q : judge

spec bidder {
  relation Has(RF)
  relation Kept(RF)

  Has(t) & a = q enables bid(t) to a
}

spec judge {
  relation Best(RF)
  relation Beaten()
  relation Cheap()

  action beaten() {
    true ~> add { Beaten() }
  }
  action weigh(t: RF) {
    t < 5 ~> add { Cheap() }
  }

  on bid(t) from s if exists b. Best(b) & t < b then beaten()
  on bid(t) from s if true then weigh(t)
}
"""


class TestSeenOrder:
    """An "enabled", "participant" or "accept" key carries only the order
    facts between objects its evaluation sees: the database's, the dense
    constants and a participant's payload."""

    @staticmethod
    def _states(b, orders, has=(), kept=(), best=()):
        """One state per order (a sequence of tickets, lowest first) with
        the same databases: p has and keeps the tickets given, q holds its
        best ones."""
        s0 = b.initial_state()
        dbs = dict(s0.agent_dbs)
        dbs[agent("p")] = dbs[agent("p")].apply(
            adds=[("Has", (rt(t),)) for t in has] + [("Kept", (rt(t),)) for t in kept], dels=[])
        dbs[agent("q")] = dbs[agent("q")].apply(adds=[("Best", (rt(t),)) for t in best], dels=[])
        return [make_state(dbs, B._order_db({"Real": [rt(t) for t in seq]})) for seq in orders]

    @staticmethod
    def _judge_entries(b):
        return {k for k in b._memo if k[0] == "participant" and k[1] == "judge"}

    @staticmethod
    def _judge_facts(states):
        return [sorted(f[0] for f in s.db(agent("q")).facts if f[0] != "MyName")
                for s in states]

    def _step_each(self, states, text=BIDS):
        """Each state's successors from one builder, the judge entries it
        keeps after each step, and the successors of a builder that keeps
        no answer."""
        spec = install_institutional(parse_spec(text))
        cfg = BuildConfig(mode=MODE_FB_FLAT)
        b = Builder(spec, cfg)
        succs, entries = [], []
        for s in self._states(b, **states):
            succs.append(b.step_successors(s))
            entries.append(self._judge_entries(b))
        kept, uncached = _kept_and_uncached_successors(
            spec, cfg, self._states(b, **states))
        assert kept == uncached
        return succs, entries

    def test_a_rank_the_database_cannot_see_shares_the_entry(self):
        # p keeps ticket 7, which q never sees: the two orders differ only
        # in its rank, so q's entry for the bid of 1 is shared
        succs, entries = self._step_each(dict(
            orders=[[1, 2, 5, 7], [7, 1, 2, 5]], has=[1], kept=[7], best=[2]))
        assert len(entries[0]) == 1 and entries[1] == entries[0]
        (first,), (second,) = succs
        assert first.agent_dbs == second.agent_dbs
        assert first.order_db != second.order_db
        assert self._judge_facts([first]) == [["Beaten", "Best", "Cheap"]]

    def test_a_payload_outside_the_database_decides_the_condition(self):
        # q holds 2 and reads the bid of 1 against it: the orders differ on
        # the payload alone
        succs, entries = self._step_each(dict(
            orders=[[1, 2, 5], [2, 1, 5]], has=[1], best=[2]))
        assert len(entries[0]) == 1 and len(entries[1]) == 2
        assert self._judge_facts([s for (s,) in succs]) == [
            ["Beaten", "Best", "Cheap"], ["Best", "Cheap"]]

    def test_a_constant_decides_the_guard(self):
        # q holds nothing: the bid of 1 is compared with the constant 5
        succs, entries = self._step_each(dict(orders=[[1, 5], [5, 1]], has=[1]))
        assert len(entries[0]) == 1 and len(entries[1]) == 2
        assert self._judge_facts([s for (s,) in succs]) == [["Cheap"], []]

    def test_the_senders_objects_decide_an_enabling_comparison(self):
        # p bids a ticket only if it keeps a greater one
        text = BIDS.replace("Has(t) & a = q enables", "Has(t) & Kept(k) & t < k & a = q enables")
        succs, _ = self._step_each(dict(orders=[[1, 5, 7], [7, 1, 5]], has=[1], kept=[7]), text)
        assert list(map(len, succs)) == [1, 0]

    def test_an_order_no_database_reads_adds_no_entries(self, ping_spec):
        # the ordered form of ping ranks the buffered message ids of every
        # agent; each agent's entries see only its own, as in the
        # disordered form, which keeps the same databases
        counts = []
        for form in (ASYNC_ORDERED, ASYNC_DISORDERED):
            b = Builder(compile_shallow(async_to_sync(ping_spec, form)),
                        BuildConfig(mode=MODE_ABSTRACT))
            b.build()
            counts.append(collections.Counter(k[0] for k in b._memo))
        assert counts[0] == counts[1]
        assert (counts[0]["enabled"], counts[0]["accept"], counts[0]["participant"]) == (
            59, 56, 82)

    def test_a_participant_no_rule_reacts_to_adds_no_entries(self):
        # no client rule reacts to a client's own askTicket or cMsg, and no
        # inst rule to inst's goCritical: those participants keep their
        # databases without a key.  Pinned on a builder that expands every
        # state, as `Builder` did before it derived states from their class
        b = _NoSymmetry(_ticket3_spec(), BuildConfig(mode=MODE_ABSTRACT))
        b.build()
        counts = collections.Counter(k[0] for k in b._memo)
        assert (counts["enabled"], counts["accept"], counts["participant"]) == (
            205, 508, 1278)
        groups = {k[1:4] for k in b._memo if k[0] == "participant"}
        assert all(any((s, d, m) in b.rules_by_msg for d in dirs) for s, dirs, m in groups)
        silent = {("client", (ON_SEND,), "askTicket"), ("client", (ON_SEND,), "cMsg"),
                  ("instSpec", (ON_SEND,), "goCritical")}
        assert not any((s, d, m) in b.rules_by_msg for s, (d,), m in silent)
        assert not groups & silent

    def test_derived_states_add_no_entries(self):
        # the 113 classes of the 895 states are expanded, the other states
        # derived from them: they read no memo key
        b = Builder(_ticket3_spec(), BuildConfig(mode=MODE_ABSTRACT))
        b.build()
        counts = collections.Counter(k[0] for k in b._memo)
        assert (counts["enabled"], counts["accept"], counts["participant"]) == (
            84, 144, 316)
        assert len(b._classes) == 113


class TestFlatOrder:
    """In the flat modes a successor's order totally orders exactly the dense
    objects that persist: those of the state it came from, those of its own
    databases and the constants."""

    @pytest.mark.parametrize("name", ["ticket3-abstract", "ticket-flat-200", "ping-ordered"])
    def test_order_relates_the_objects_of_both_ends(self, ticket_spec, ping_spec, name):
        spec, cfg = _flat_builds(ticket_spec, ping_spec, name)
        b = Builder(spec, cfg)
        ts = b.build()
        assert b.dense_types and len(ts.edges) > 100
        for src, dst in ts.edges:
            s, t = ts.states[src], ts.states[dst]
            for ty in b.dense_types:
                objs = b.const_domain.get(ty, frozenset()) | s.adom(ty) | t.adom(ty)
                pairs = t.order_db.facts_for(lessthan_rel(ty))
                assert {o for pair in pairs for o in pair} == (objs if len(objs) > 1 else set())
                assert len(pairs) == len(objs) * (len(objs) - 1) // 2, (name, src, dst)


class _KeepNoCore(Builder):
    """A builder whose layer memo keeps nothing, so it expands every state."""

    def step_successors(self, state, used_snapshot=None, layer=None):
        return super().step_successors(state, used_snapshot, _Forgetful())


class TestLayerMemo:
    """In the flat modes a state's successors read its core, the agents'
    databases and the dense order over its active objects, and the layer's
    used objects; `build` expands each core once per layer."""

    @pytest.mark.parametrize("name", ["ticket3-abstract", "ticket-flat-200", "ping-ordered"])
    def test_the_core_order_is_the_order_among_active_objects(
            self, ticket_spec, ping_spec, name):
        b = Builder(*_flat_builds(ticket_spec, ping_spec, name))
        ts = b.build()
        residue = 0
        for s in ts.states:
            active = s.adom() | set().union(*b.const_domain.values())
            among = {f for f in s.order_db.facts if set(f[1]) <= active}
            assert B._StepCache(b, s).dense_order()[1].facts == among
            residue += among != s.order_db.facts
        assert residue  # some state keeps the order facts of objects that left

    @pytest.mark.parametrize("name", ["ticket3-abstract", "ticket-flat-200", "ping-ordered"])
    def test_sharing_a_core_changes_no_build(self, ticket_spec, ping_spec, name):
        spec, cfg = _flat_builds(ticket_spec, ping_spec, name)
        b = Builder(spec, cfg)
        lists = []
        step = b.step_successors

        def note(*args):
            lists.append(step(*args))
            return lists[-1]

        b.step_successors = note
        ts = b.build()
        plain = _KeepNoCore(spec, cfg).build()
        assert [state_key(s) for s in ts.states] == [state_key(s) for s in plain.states]
        assert ts.edges == plain.edges
        # some expansions were shared, each with every state of its core
        assert len({id(got) for got in lists}) < len(lists) == len(ts.states)

    @pytest.mark.parametrize("name", ["ticket3-abstract", "ping-ordered"])
    def test_one_core_under_other_passive_pools_is_expanded_again(self, ping_spec, name):
        # as in `test_kept_branches_equal_fresh_ones`: the pools come from the
        # constants alone, then from every object used; each state is met
        # after its twin without the order facts of the objects that left,
        # so with the twin's core
        spec, cfg = _flat_builds(None, ping_spec, name)
        ts = build_transition_system(spec, cfg)
        kept, fresh = Builder(spec, cfg), Builder(spec, cfg)
        consts = {t: set(objs) for t, objs in kept.const_domain.items()}
        used = {t: set(objs) for t, objs in consts.items()}
        for s in ts.states:
            kept._note_used(used, s, set())
        pairs = [(B.SystemState(s.agent_dbs, B._StepCache(kept, s).dense_order()[1]), s)
                 for s in ts.states]
        assert any(twin.order_db.facts != s.order_db.facts for twin, s in pairs)
        got = {}
        for label, snapshot in (("consts", consts), ("used", used)):
            layer: dict = {}
            got[label] = []
            for twin, s in pairs:
                first = kept.step_successors(twin, snapshot, layer)
                assert kept.step_successors(s, snapshot, layer) is first
                want = fresh.step_successors(s, snapshot)
                assert list(map(state_key, first)) == list(map(state_key, want))
                got[label].append(list(map(state_key, first)))
        assert got["consts"] != got["used"]  # the passive pool changes some successors

    def test_a_direct_call_shares_nothing(self, ping_spec):
        spec, cfg = _flat_builds(None, ping_spec, "ping-ordered")
        b = Builder(spec, cfg)
        s0 = b.initial_state()
        assert b.step_successors(s0) is not b.step_successors(s0)

    @pytest.mark.parametrize("name", ["ticket3-abstract", "ticket-flat-200", "ping-ordered"])
    def test_a_build_makes_no_reference_cycle(self, ticket_spec, ping_spec, name):
        # so a build with the collector paused leaves nothing for it
        b = Builder(*_flat_builds(ticket_spec, ping_spec, name))
        gc.collect()
        assert b.build().states
        assert gc.collect() == 0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_build_pauses_the_collector_and_restores_it(self, ticket_spec, enabled):
        was = gc.isenabled()
        seen = []
        b = Builder(ticket_spec, BuildConfig(mode=MODE_ABSTRACT))
        step = b.step_successors

        def note(*args):
            seen.append(gc.isenabled())
            return step(*args)

        b.step_successors = note
        try:
            (gc.enable if enabled else gc.disable)()
            assert b.build().states
            assert gc.isenabled() is enabled
            with pytest.raises(StateBoundExceeded):
                build_transition_system(
                    ticket_spec, BuildConfig(mode=MODE_ABSTRACT, state_bound=3))
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen and not any(seen)

    def test_a_build_hands_its_objects_to_the_oldest_generation(self, ticket_spec):
        # so the first young collection after the build does not walk them
        assert gc.get_freeze_count() <= B._frozen_unasked  # no caller froze any
        was = gc.isenabled()
        try:
            gc.enable()
            ts = build_transition_system(ticket_spec, BuildConfig(mode=MODE_ABSTRACT))
            oldest = {id(o) for o in gc.get_objects(generation=2)}
        finally:
            (gc.enable if was else gc.disable)()
        assert len(ts.states) > 10 and all(id(s) in oldest for s in ts.states)

    def test_objects_frozen_before_the_import_do_not_stop_the_hand_off(
            self, ticket_spec, monkeypatch):
        # as on Python 3.12, which starts with objects frozen: the first
        # hand-off thaws them too, and every later build hands off again
        was = gc.isenabled()
        gc.enable()
        gc.freeze()
        try:
            monkeypatch.setattr(B, "_frozen_unasked", gc.get_freeze_count())
            assert B._frozen_unasked > 0
            builds = []
            for _ in range(2):
                ts = build_transition_system(ticket_spec, BuildConfig(mode=MODE_ABSTRACT))
                oldest = {id(o) for o in gc.get_objects(generation=2)}
                assert gc.get_freeze_count() == 0
                builds.append((ts, oldest))
        finally:
            gc.unfreeze()
            (gc.enable if was else gc.disable)()
        for ts, oldest in builds:
            assert len(ts.states) > 10 and all(id(s) in oldest for s in ts.states)

    def test_a_callers_frozen_objects_stay_frozen(self, ticket_spec):
        was = gc.isenabled()
        gc.enable()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert build_transition_system(ticket_spec, BuildConfig(mode=MODE_ABSTRACT)).states
            assert gc.isenabled() and gc.get_freeze_count() == frozen > 0
        finally:
            gc.unfreeze()
            (gc.enable if was else gc.disable)()


class _EveryUnchanged(Builder):
    """A builder that adds the unchanged successor once for each exchange
    that calls no service and changes no database."""

    def _exchange(self, step, *args):
        out = super()._exchange(step, *args)
        return [step.unchanged()] if out is None else out


class _EvaluatesTrue(Builder):
    """A builder that evaluates a condition or guard that is the literal
    true like any other."""

    def _prepare(self):
        super()._prepare()
        true = Q.compile_query(Q.TrueQ(), {})
        self.rules_by_msg = {k: [(rule, p or true) for rule, p in ps]
                             for k, ps in self.rules_by_msg.items()}
        self.guard_plans = {k: [p or true for p in ps] for k, ps in self.guard_plans.items()}


class TestSkippedWork:
    """A step skips what cannot change a successor: a second exchange that
    changes nothing, the evaluation of a literal true, and the acceptance
    check of a spec with nothing to check."""

    def test_a_step_adds_its_unchanged_successor_once(self):
        # c1 is critical, c2 and c3 busy-wait with cMsg, and inst tells c1
        # to go critical again: three exchanges change nothing
        spec, cfg = _ticket3_spec(), BuildConfig(mode=MODE_ABSTRACT)

        def successors(b):
            s0 = b.initial_state()
            dbs = dict(s0.agent_dbs)
            dbs[agent("inst")] = s0.inst_db().apply(adds=[
                ("inCritical", (agent("c1"),)), ("hasTicket", (agent("c2"), rt(2))),
                ("hasTicket", (agent("c3"), rt(3)))], dels=[])
            dbs[agent("c1")] = dbs[agent("c1")].apply(adds=[("InC", ())], dels=[])
            for c, t in (("c2", 2), ("c3", 3)):
                dbs[agent(c)] = dbs[agent(c)].apply(adds=[("HasT", (rt(t),))], dels=[])
            # a database the build meets is the builder's one with its facts
            state = make_state({a: b._intern(d) for a, d in dbs.items()},
                               B._order_db({"Real": [rt(2), rt(3)]}))
            same = state_key(B._StepCache(b, state).unchanged())
            return same, list(map(state_key, b.step_successors(state)))

        same, got = successors(Builder(spec, cfg))
        _, every = successors(_EveryUnchanged(spec, cfg))
        assert got.count(same) == 1 and every.count(same) == 3
        first = every.index(same)
        assert got == [k for i, k in enumerate(every) if k != same or i == first]
        assert len(got) > 1

    def test_a_literal_true_is_never_evaluated(self, monkeypatch):
        # the plans of true by id; holding them keeps each id unique
        trues, evaluated = {}, collections.Counter()
        compile_query, eval_query = Q.compile_query, Q.eval_query

        def compile_(q, var_types, inputs=()):
            plan = compile_query(q, var_types, inputs)
            if isinstance(q, Q.TrueQ):
                trues[id(plan)] = plan
            return plan

        def eval_(plan, *args, **kwargs):
            evaluated[id(plan) in trues] += 1
            return eval_query(plan, *args, **kwargs)

        monkeypatch.setattr(Q, "compile_query", compile_)
        monkeypatch.setattr(Q, "eval_query", eval_)
        spec, cfg = _ticket3_spec(), BuildConfig(mode=MODE_ABSTRACT)
        ts = Builder(spec, cfg).build()
        assert evaluated[False] > 0 and evaluated[True] == 0
        skipped = evaluated[False]
        both = _EvaluatesTrue(spec, cfg).build()
        assert evaluated[True] > 0 and evaluated[False] == 2 * skipped
        assert [state_key(s) for s in ts.states] == [state_key(s) for s in both.states]
        assert ts.edges == both.edges

    def test_a_spec_without_constraints_keeps_no_acceptance(self, ticket_spec):
        b = Builder(_ticket3_spec(), BuildConfig(mode=MODE_ABSTRACT))
        b.build()
        accepted = {k[1] for k in b._memo if k[0] == "accept"}
        assert not b.spec.agent_specs["client"].constraints
        assert accepted == {"instSpec"}
        # under conformance a client's candidate is still checked
        b = Builder(ticket_spec, BuildConfig(mode=MODE_CONCRETE,
                                             pools=rational_pool("Real", [1, 2])))
        c1 = b.initial_state().db(agent("c1"))
        bogus = c1.apply(adds=[("Bogus", (agent("c1"),))], dels=[])
        assert b._acceptable("client", c1, Q.CarrierOrder())
        assert not b._acceptable("client", bogus, Q.CarrierOrder())
        assert {k[1] for k in b._memo if k[0] == "accept"} == {"client"}

    @pytest.mark.parametrize("name", ["contract_net", "ping", "registry", "ticket_mutex"])
    def test_max_agent_adom_is_the_most_any_state_stores(self, name):
        spec = load_corpus(name)
        pools = {**rational_pool("Real", [1, 2]), **rational_pool("Price", [1, 2]),
                 "agent": (agent("w1"), agent("w2"))}
        for mode in B.MODES:
            cfg = BuildConfig(mode=mode, max_states=300, pools=pools)
            ts = build_transition_system(spec if mode == MODE_CONCRETE else compile_shallow(spec),
                                         cfg)
            assert ts.stats["max_agent_adom"] == max(
                B._stored(db) for s in ts.states for _, db in s.agent_dbs), (name, mode)

    @pytest.mark.parametrize("name,bound,size", [
        ("ticket_mutex", 4, 5), ("ticket_mutex", 5, 6), ("registry", 3, 4)])
    def test_a_state_bound_raises_where_it_did(self, name, bound, size):
        # the initial state breaks the first bound, a successor the others
        spec, cfg = load_corpus(name), BuildConfig(mode=MODE_ABSTRACT)
        with pytest.raises(StateBoundExceeded) as err:
            build_transition_system(spec, replace(cfg, state_bound=bound))
        assert (err.value.agent, err.value.size) == ("inst", size)
        # a bound that every state meets changes nothing
        ts = build_transition_system(spec, cfg)
        bounded = build_transition_system(
            spec, replace(cfg, state_bound=ts.stats["max_agent_adom"]))
        assert export_jsonl(bounded) == export_jsonl(ts)


def _ticket_clients(names, text=None):
    """The ticket corpus spec (or text) with clients of these names."""
    text = text or (CORPUS / "ticket_mutex.rmas").read_text()
    decl = "agent c1 : client\nagent c2 : client\n"
    assert decl in text
    return install_institutional(parse_spec(text.replace(
        decl, "".join(f"agent {n} : client\n" for n in names))))


def _renamed_state(state, rho):
    """state's facts with each agent a renamed rho.get(a, a), as sets: the
    agents with their facts, and the order's facts."""
    return (frozenset((rho.get(a, a), symmetry.renamed(db.facts, rho.get))
                      for a, db in state.agent_dbs),
            None if state.order_db is None else state.order_db.facts)


class _Counting(Builder):
    """A builder that counts the steps it expands, and the kept expansions
    it derives successors from and those it refuses."""

    expanded = refused = derived = 0

    def _expand(self, step, exchanges=None):
        self.expanded += 1
        return super()._expand(step, exchanges)

    def _derive(self, step, got, labels):
        out = super()._derive(step, got, labels)
        if out is None:
            self.refused += 1
        else:
            self.derived += 1
        return out


class _InstBlindLabeler(symmetry.Labeler):
    """A labeler whose class keys leave out the hash of the other agents'
    facts."""

    def label(self, agents, order_facts):
        labels, key = super().label(agents, order_facts)
        return labels, key[:-1]


class _InstBlindKeys(_Counting):
    def _prepare(self):
        super()._prepare()
        self._labeler = _InstBlindLabeler(self._groups)


class TestSymmetry:
    """In the flat modes a state whose class, the states equal to it up to
    renaming interchangeable agents, was expanded already gets its
    successors by renaming that expansion: the build is the same."""

    @pytest.mark.parametrize("name,members", [
        ("contract_net", [("anna", "bert")]), ("ping", []), ("registry", []),
        ("ticket_mutex", [("c1", "c2")])])
    @pytest.mark.parametrize("mode,cap", [(MODE_ABSTRACT, None), (MODE_FB_FLAT, 300)])
    def test_every_corpus_spec_exports_the_same_bytes(self, name, members, mode, cap):
        # ping's agents run two specs, and registry's reactions write hasSpec
        spec, cfg = compile_shallow(load_corpus(name)), BuildConfig(mode=mode, max_states=cap)
        b = Builder(spec, cfg)
        assert b._groups == tuple(tuple(map(agent, g)) for g in members)
        ts = b.build()
        assert export_jsonl(ts) == export_jsonl(_NoSymmetry(spec, cfg).build())
        # with a group, some state is derived
        assert (0 < len(b._classes) < len(ts.states)) == bool(members)

    def test_a_state_of_another_class_under_one_key_is_expanded(self):
        # keys without the hash of inst's facts: the states whose clients
        # hold the same databases share one, and each expansion checks inst
        spec, cfg = _ticket3_spec(), BuildConfig(mode=MODE_ABSTRACT)
        b = _InstBlindKeys(spec, cfg)
        ts = b.build()
        assert b.refused and b.derived
        assert export_jsonl(ts) == export_jsonl(_NoSymmetry(spec, cfg).build())

    @pytest.mark.parametrize("clients", [3, 4])
    def test_more_clients_export_the_same_bytes(self, clients):
        spec = _ticket_clients([f"c{i}" for i in range(1, clients + 1)])
        cfg = BuildConfig(mode=MODE_ABSTRACT)
        b = Builder(spec, cfg)
        ts = b.build()
        assert len(b._groups[0]) == clients
        assert len(b._classes) * 4 < len(ts.states)  # most states are derived
        assert export_jsonl(ts) == export_jsonl(_NoSymmetry(spec, cfg).build())

    def test_a_client_that_a_rule_names_is_in_no_group(self):
        text = (CORPUS / "ticket_mutex.rmas").read_text()
        rule = "on exitC() from a if inCritical(a) then leaveCritical(a)"
        assert rule in text
        spec = _ticket_clients(["c1", "c2", "c3"], text.replace(
            rule, "on exitC() from a if inCritical(a) | a = c1 then leaveCritical(a)"))
        cfg = BuildConfig(mode=MODE_ABSTRACT)
        b = Builder(spec, cfg)
        assert b._groups == ((agent("c2"), agent("c3")),)
        assert export_jsonl(b.build()) == export_jsonl(_NoSymmetry(spec, cfg).build())

    def test_a_service_that_takes_an_agent_forms_no_group(self):
        text = (CORPUS / "ticket_mutex.rmas").read_text()
        for old, new in [("service getTicket() -> RF", "service getTicket(AF) -> RF"),
                         ("Assigned(a, getTicket())", "Assigned(a, getTicket(a))")]:
            assert old in text
            text = text.replace(old, new)
        spec = _ticket_clients(["c1", "c2", "c3"], text)
        assert Builder(spec, BuildConfig(mode=MODE_ABSTRACT))._groups == ()
        assert Builder(_ticket3_spec(), BuildConfig(mode=MODE_ABSTRACT))._groups

    def test_a_roster_that_changes_forms_no_group(self):
        # inst retires a client once it leaves the critical section
        text = (CORPUS / "ticket_mutex.rmas").read_text()
        rule = "on exitC() from a if inCritical(a) then leaveCritical(a)"
        assert rule in text
        spec = _ticket_clients(["c1", "c2", "c3"], text.replace(
            rule, rule + "\n  on exitC() from a if inCritical(a) then remAg(a)"))
        cfg = BuildConfig(mode=MODE_ABSTRACT)
        b = Builder(spec, cfg)
        assert b._groups == ()
        ts = b.build()
        assert any(len(s.agent_dbs) < 4 for s in ts.states)
        assert export_jsonl(ts) == export_jsonl(_NoSymmetry(spec, cfg).build())

    def test_a_class_met_under_other_passive_pools_is_expanded_again(self):
        # each state's class is expanded under the constants' pools, then
        # its mirror (c1 and c2 swapped) is met under the pools of every
        # object the build used; met again under the constants' pools, the
        # state derives from the expansion kept for those
        spec, cfg = _ticket3_spec(), BuildConfig(mode=MODE_ABSTRACT)
        ts = build_transition_system(spec, cfg)
        kept, fresh = _Counting(spec, cfg), Builder(spec, cfg)
        consts = {t: set(objs) for t, objs in kept.const_domain.items()}
        used = {t: set(objs) for t, objs in consts.items()}
        for s in ts.states:
            kept._note_used(used, s, set())
        swap = {agent("c1"): agent("c2"), agent("c2"): agent("c1")}

        def mirror(b, s):
            # a state the build of b could meet holds b's databases
            return make_state({swap.get(a, a): b._intern(Database(
                symmetry.renamed(db.facts, swap.get))) for a, db in s.agent_dbs},
                b._intern(s.order_db))

        differ = 0
        for s in ts.states:
            first = kept.step_successors(mirror(kept, mirror(kept, s)), consts, {})
            got = list(map(state_key, kept.step_successors(mirror(kept, s), used, {})))
            assert got == list(map(state_key, fresh.step_successors(mirror(fresh, s), used)))
            differ += got != list(map(state_key, fresh.step_successors(mirror(fresh, s), consts)))
            expanded = kept.expanded
            again = kept.step_successors(mirror(kept, mirror(kept, s)), consts, {})
            assert kept.expanded == expanded
            assert list(map(state_key, again)) == list(map(state_key, first))
        assert differ  # the pools change some successors

    @pytest.mark.parametrize("mode", [MODE_CONCRETE, MODE_SHALLOW, MODE_FB])
    def test_modes_that_are_not_flat_form_no_group(self, mode):
        cfg = BuildConfig(mode=mode, pools=rational_pool("Real", [1, 2]))
        assert Builder(_ticket3_spec(), cfg)._groups == ()

    def test_two_namings_build_one_system_up_to_the_renaming(self):
        # the names are drawn so that their order is not the clients' own:
        # the BFS then meets the states in another order
        drawn = ["zu", "ba", "mo"]
        random.Random(25).shuffle(drawn)
        rho = {agent(d): agent(f"c{i}") for i, d in enumerate(drawn, 1)}
        cfg = BuildConfig(mode=MODE_ABSTRACT)
        plain = build_transition_system(_ticket_clients(["c1", "c2", "c3"]), cfg)
        other = build_transition_system(_ticket_clients(drawn), cfg)
        ids = {_renamed_state(s, {}): i for i, s in enumerate(plain.states)}
        back = [ids[_renamed_state(s, rho)] for s in other.states]
        assert sorted(back) == list(range(len(plain.states)))
        assert back != list(range(len(back)))
        assert sorted((back[a], back[b]) for a, b in other.edges) == plain.edges
        assert back[other.initial] == plain.initial
