import pytest

import rmas.builder as B
from rmas import queries as Q
from rmas.builder import (
    BuildConfig,
    Builder,
    MODE_ABSTRACT,
    MODE_CONCRETE,
    build_transition_system,
    make_state,
)
from rmas.data import Database, DataObject, mk_symbol
from rmas.dsl import parse_spec, serialize_spec
from rmas.generators import (
    ASYNC_DISORDERED,
    ASYNC_ORDERED,
    CounterProgram,
    GeneratorError,
    Halt,
    Inc,
    MBUFFER,
    NEWM,
    OLDM,
    async_to_sync,
    counter_machine_to_rmas,
    parse_counter_program,
)
from rmas.model import ON_RECEIVE, install_institutional
from rmas.mucalc import model_check, parse_property
from rmas.shallow import compile_shallow
from rmas.wellformed import check_well_formed

from oracles import project_system_state, queue_simulate
from conftest import CORPUS, load_corpus

HALT_REACH = "mu Z. Halted@inst | <>Z"


def int_pool(hi):
    return {"Int": tuple(DataObject("Int", i) for i in range(hi + 1))}


class TestCounterMachine:
    def test_program_validation(self):
        with pytest.raises(GeneratorError):
            CounterProgram((Inc(1, 1),))  # no halt
        with pytest.raises(GeneratorError):
            CounterProgram((Inc(3, 2), Halt()))  # bad counter
        with pytest.raises(GeneratorError):
            CounterProgram((Inc(1, 9), Halt()))  # target out of range
        with pytest.raises(GeneratorError):
            parse_counter_program("bogus 1\n")

    def test_unary_relations_only(self):
        spec = counter_machine_to_rmas(parse_counter_program("inc 1 2\nhalt\n"))
        user_rels = ("C1", "C1p", "C2", "C2p", "PC", "Op", "Target", "Halted")
        for rel in user_rels:
            assert spec.inst_spec.schema[rel].arity <= 1

    def test_well_formed_and_marked(self):
        spec = counter_machine_to_rmas(parse_counter_program("halt\n"))
        assert check_well_formed(spec).ok
        assert "unsafe-succ" in spec.mode_flags
        assert spec.uses_succ()

    def test_halt_only_program_reaches_halted_in_one_step(self):
        spec = counter_machine_to_rmas(parse_counter_program("halt\n"))
        ts = build_transition_system(
            spec, BuildConfig(mode=MODE_CONCRETE, pools=int_pool(2)))
        assert ts.stats["states"] == 2
        assert model_check(ts, spec, parse_property(HALT_REACH, spec)).truth

    def test_increment_then_halt(self):
        # hand simulation: inc c1 (constraints force value 1), then halt
        spec = counter_machine_to_rmas(parse_counter_program("inc 1 2\nhalt\n"))
        ts = build_transition_system(
            spec, BuildConfig(mode=MODE_CONCRETE, pools=int_pool(50), max_depth=50))
        assert not ts.truncated
        assert model_check(ts, spec, parse_property(HALT_REACH, spec)).truth
        halted = [
            s for s in ts.states
            if ("Halted", ()) in s.inst_db()
        ]
        assert halted
        for s in halted:
            assert s.inst_db().facts_for("C1") == [(DataObject("Int", 1),)]

    def test_looping_program_never_halts(self):
        spec = counter_machine_to_rmas(parse_counter_program("dec 1 1 1\nhalt\n"))
        ts = build_transition_system(
            spec, BuildConfig(mode=MODE_CONCRETE, pools=int_pool(50), max_depth=50))
        assert not model_check(ts, spec, parse_property(HALT_REACH, spec)).truth

    def test_full_program_halts(self):
        text = "inc 1 2\ninc 2 3\ndec 1 4 4\nhalt\n"
        spec = counter_machine_to_rmas(parse_counter_program(text))
        ts = build_transition_system(
            spec, BuildConfig(mode=MODE_CONCRETE, pools=int_pool(50), max_depth=50))
        assert model_check(ts, spec, parse_property(HALT_REACH, spec)).truth

    def test_roundtrip(self):
        spec = counter_machine_to_rmas(parse_counter_program("inc 2 2\nhalt\n"))
        assert install_institutional(parse_spec(serialize_spec(spec))) == spec


HIDE = frozenset({MBUFFER, NEWM, OLDM})


@pytest.fixture(scope="module")
def ping():
    return load_corpus("ping")


class TestAsyncToSync:

    @pytest.mark.parametrize("mode", (ASYNC_DISORDERED, ASYNC_ORDERED))
    def test_output_well_formed(self, ping, mode):
        out = async_to_sync(ping, mode)
        assert check_well_formed(out).ok

    @pytest.mark.parametrize("mode", (ASYNC_DISORDERED, ASYNC_ORDERED))
    def test_roundtrip(self, ping, mode):
        out = async_to_sync(ping, mode)
        assert install_institutional(parse_spec(serialize_spec(out))) == out

    def test_renaming_the_payload_spares_bound_names(self):
        # the condition's own g is bound, not the payload: it keeps its name
        text = (CORPUS / "ping.rmas").read_text().replace(
            "on ping(g) from s if true then note(g)",
            "on ping(g) from s if !(exists g. Seen(g)) then note(g)")
        out = async_to_sync(install_institutional(parse_spec(text)), ASYNC_ORDERED)
        guards = [eff.guard for act in out.agent_specs["ponger"].actions.values()
                  if act.name.startswith("react_") for eff in act.effects]
        negated = [n for g in guards for n in g.parts if isinstance(n, Q.Not)]
        assert negated and all(n.body == Q.Exists("g", Q.RelAtom("Seen", (Q.Var("g"),)), "Str")
                               for n in negated)

    def test_no_on_receive_rules_only_buffering(self):
        text = """
message poke()
spec instSpec institutional {
  relation Sent()
  MyName(a) & !Sent() enables poke() to a
  on poke() to t if true then mark()
  action mark() {
    true ~> add { Sent() }
  }
}
"""
        spec = install_institutional(parse_spec(text))
        out = async_to_sync(spec, ASYNC_DISORDERED)
        inst = out.agent_specs["instSpec"]
        new_rules = [r for r in inst.update_rules if r.direction == ON_RECEIVE]
        # buffering for each message plus the removeM cleanup; no reaction
        # wrappers since there were no on-receive rules
        actions = {r.action for r in new_rules}
        assert actions == {"buffer_poke", "removeM"}

    def test_ordered_extraction_picks_the_least_key(self, ping):
        out = async_to_sync(ping, ASYNC_ORDERED)
        sh = compile_shallow(out)
        b = Builder(sh, BuildConfig(mode=MODE_ABSTRACT))
        s0 = b.initial_state()
        bob = mk_symbol("agent", "bob")
        mid = lambda v: DataObject("MsgId", v)
        hi = DataObject("Str", "hi")
        undef_a = DataObject("agent", __import__("rmas.data", fromlist=["UNDEF"]).UNDEF)
        undef_s = DataObject("Str", __import__("rmas.data", fromlist=["UNDEF"]).UNDEF)
        alice = mk_symbol("agent", "alice")
        row = lambda k, g: (MBUFFER, (mid(k), DataObject("MsgFlag", "t"), alice, g,
                                      DataObject("MsgFlag", "f"), undef_a, undef_s))
        from fractions import Fraction
        dbs = {a: d for a, d in s0.agent_dbs}
        dbs[bob] = dbs[bob].apply(adds=[
            row(Fraction(1), hi), row(Fraction(2), DataObject("Str", "yo")),
            (OLDM, (mid(Fraction(1)),)), (OLDM, (mid(Fraction(2)),)),
        ], dels=[])
        from rmas.queries import lessthan_rel
        order = Database(list(() if s0.order_db is None else s0.order_db) + [
            (lessthan_rel("MsgId"), (mid(Fraction(1)), mid(Fraction(2)))),
        ])
        state = make_state(dbs, order)
        active = {a for a, _ in b.current_agents(state.inst_db())}
        enabled = b.enabled_messages(B._StepCache(b, state), bob, "ponger", active)
        next_msgs = [(m, p) for m, p, t in enabled if m == "nextM"]
        assert next_msgs == [("nextM", (mid(Fraction(1)),))]

    def test_transform_handles_service_bearing_specs(self):
        # the contract net has services, six message kinds, and both rule
        # directions; the transformed spec must stay well-formed and
        # serializable
        contract = load_corpus("contract_net")
        out = async_to_sync(contract, ASYNC_ORDERED)
        assert check_well_formed(out).ok
        assert install_institutional(parse_spec(serialize_spec(out))) == out
        inst = out.agent_specs["instSpec"]
        assert inst.schema[MBUFFER].arity == 1 + sum(
            2 + m.arity for m in contract.messages.values())

    @pytest.mark.parametrize("mode", (ASYNC_DISORDERED, ASYNC_ORDERED))
    def test_projection_matches_queue_oracle(self, ping, mode):
        # simulation at desk scale: projected reachable-state sets coincide
        out = compile_shallow(async_to_sync(ping, mode))
        ts = build_transition_system(out, BuildConfig(mode=MODE_ABSTRACT,
                                                      max_states=50000))
        assert not ts.truncated
        got = {project_system_state(s, HIDE) for s in ts.states}
        want = queue_simulate(ping, ordered=(mode == ASYNC_ORDERED), buffer_cap=2)
        assert got == want
