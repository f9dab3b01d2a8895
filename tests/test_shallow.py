import pytest

from rmas import queries as Q
from rmas.dsl import parse_spec, serialize_spec
from rmas.model import install_institutional
from rmas.queries import Var
from rmas.shallow import compile_shallow, input_rel, is_shallow, output_rel
from rmas.wellformed import check_well_formed

from conftest import load_corpus


class TestIsShallow:
    def test_base_facets_only(self, ticket_spec):
        assert is_shallow(ticket_spec)

    def test_registry_is_shallow(self, registry_spec):
        assert is_shallow(registry_spec)

    def test_enum_facet_breaks_shallowness(self, ping_spec):
        assert not is_shallow(ping_spec)

    def test_contract_not_shallow(self, contract_spec):
        assert not is_shallow(contract_spec)


class TestCompile:
    def test_output_is_shallow(self, contract_spec, ping_spec):
        assert is_shallow(compile_shallow(contract_spec))
        assert is_shallow(compile_shallow(ping_spec))

    def test_already_shallow_is_identity(self, ticket_spec, registry_spec):
        assert compile_shallow(ticket_spec) == ticket_spec
        assert compile_shallow(registry_spec) == registry_spec

    def test_idempotent(self, contract_spec, ping_spec):
        for spec in (contract_spec, ping_spec):
            once = compile_shallow(spec)
            assert compile_shallow(once) == once

    def test_well_formed_preserved(self, contract_spec, ping_spec):
        for spec in (contract_spec, ping_spec):
            assert check_well_formed(compile_shallow(spec)).ok

    def test_component_constraint_added(self):
        # a relation over a range facet gains the matching constraint
        text = """
type Num rational with less
facet Age of Num: (0 < x & x < 18) | 65 < x
spec instSpec institutional {
  relation P(Age)
}
"""
        spec = install_institutional(parse_spec(text))
        out = compile_shallow(spec)
        inst = out.inst_spec
        added = [c for c in inst.constraints if c not in spec.inst_spec.constraints]
        assert len(added) == 1
        c = added[0]
        assert isinstance(c, Q.Forall)
        assert any(isinstance(a, Q.RelAtom) and a.name == "P" for a in Q.atoms(c))
        assert any(isinstance(a, Q.LessAtom) for a in Q.atoms(c))

    def test_service_output_constraint_added(self):
        # a positively-faceted service output gains an Output_f constraint
        text = """
type Str string
type Num rational with less
facet SF of Str
facet PF of Num: 0 < x
service getPrice(SF) -> PF
message m(SF)
spec instSpec institutional {
  relation Quote(SF, PF)
  action q(t: SF) {
    true ~> add { Quote(t, getPrice(t)) }
  }
  on m(t) from s if true then q(t)
}
"""
        spec = install_institutional(parse_spec(text))
        out = compile_shallow(spec)
        inst = out.inst_spec
        assert output_rel("getPrice") in inst.schema
        assert input_rel("getPrice") in inst.schema
        matching = [
            c for c in inst.constraints
            if any(isinstance(a, Q.RelAtom) and a.name == output_rel("getPrice")
                   for a in Q.atoms(c))
        ]
        assert len(matching) == 1
        # effects now also record the call's input and output
        act = inst.actions["q"]
        rels = {tpl.rel for eff in act.effects for tpl in eff.adds}
        assert input_rel("getPrice") in rels and output_rel("getPrice") in rels
        # and every action cleans the accessory facts up a step later
        del_rels = {tpl.rel for eff in act.effects for tpl in eff.dels}
        assert input_rel("getPrice") in del_rels and output_rel("getPrice") in del_rels

    def test_comm_rule_gains_payload_facet_checks(self, ping_spec):
        out = compile_shallow(ping_spec)
        rule = out.agent_specs["pinger"].comm_rules[0]
        # the GreetF enumeration formula is now conjoined onto the query
        eqs = [a for a in Q.atoms(rule.query) if isinstance(a, Q.EqAtom)]
        consts = {getattr(a.right, "obj", None) for a in eqs}
        values = {getattr(o, "value", None) for o in consts}
        assert {"hi", "yo"} <= values

    def test_tautological_constraints_omitted(self, ticket_spec):
        out = compile_shallow(ticket_spec)
        for name, ag in out.agent_specs.items():
            assert ag.constraints == ticket_spec.agent_specs[name].constraints

    def test_compiled_spec_serializes(self, contract_spec):
        out = compile_shallow(contract_spec)
        assert install_institutional(parse_spec(serialize_spec(out))) == out


class TestFormulaQuery:
    def test_translation_shapes(self):
        spec = install_institutional(parse_spec(
            "type Num rational with less\n"
            "facet F of Num: 65 < x | x = 0\n"
            "facet NF of Num\n"
            "message m(F, NF)\n"
            "agent a : s\n"
            "spec s {\n  relation R(NF)\n  R(v) & R(w) & t = a enables m(v, w) to t\n}\n"))
        rule = compile_shallow(spec).agent_specs["s"].comm_rules[0]
        # F's formula is renamed onto the payload variable v; the base facet
        # NF of w adds no conjunct
        original, check = rule.query.parts
        assert original == spec.agent_specs["s"].comm_rules[0].query
        assert isinstance(check, Q.Or)
        less, eq = check.parts
        assert isinstance(less, Q.LessAtom) and less.type_name == "Num"
        assert less.right == Var("v")
        assert isinstance(eq, Q.EqAtom) and eq.left == Var("v")
