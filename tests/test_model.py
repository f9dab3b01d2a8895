import pytest

from rmas import queries as Q
from rmas.data import Database, TypedRelationSchema, mk_integer, mk_symbol
from rmas.dsl import parse_spec
from rmas.generators import counter_machine_to_rmas, parse_counter_program
from rmas.model import (
    AGENT_REL,
    HASSPEC_REL,
    MYNAME_REL,
    SPEC_REL,
    ConflictingDeclaration,
    initial_data_domain,
    install_institutional,
)

from conftest import load_corpus


class TestInstallInstitutional:
    def test_empty_system_gains_creation_machinery(self):
        spec = install_institutional(parse_spec(""))
        inst = spec.inst_spec
        assert {"newAg", "remAg"} <= set(inst.actions)
        assert {AGENT_REL, SPEC_REL, HASSPEC_REL, "OldAg", "FreshAg"} <= set(inst.schema)
        inst_obj = mk_symbol("agent", "inst")
        assert (AGENT_REL, (inst_obj,)) in inst.initial_db
        assert (MYNAME_REL, (inst_obj,)) in inst.initial_db
        assert (HASSPEC_REL, (inst_obj, mk_symbol("spec", "instSpec"))) in inst.initial_db
        assert (SPEC_REL, (mk_symbol("spec", "instSpec"),)) in inst.initial_db

    def test_idempotent(self):
        spec = install_institutional(parse_spec(""))
        assert install_institutional(spec) == spec

    def test_idempotent_on_corpus(self, ticket_spec):
        assert install_institutional(ticket_spec) == ticket_spec

    def test_conflicting_relation_arity(self):
        # programmatically built spec with Agent/2 clashes with the built-in
        base = parse_spec("")
        inst = base.inst_spec
        schema = dict(inst.schema)
        schema["Agent"] = TypedRelationSchema("Agent", ("AF", "AF"))
        from dataclasses import replace
        clashing = replace(base, agent_specs={
            "instSpec": replace(inst, schema=schema)})
        with pytest.raises(ConflictingDeclaration):
            install_institutional(clashing)
        # the parser refuses the same clash up front
        with pytest.raises(Exception):
            parse_spec("spec instSpec institutional {\n  relation Agent(AF, AF)\n}\n")

    def test_spec_names_registered(self, ticket_spec):
        inst = ticket_spec.inst_spec
        names = {args[0].value for args in inst.initial_db.facts_for(SPEC_REL)}
        assert names == {"instSpec", "client"}

    def test_initial_agents_materialized(self, ticket_spec):
        inst = ticket_spec.inst_spec
        pairs = {
            (a.value, s.value) for a, s in inst.initial_db.facts_for(HASSPEC_REL)
        }
        assert ("c1", "client") in pairs and ("c2", "client") in pairs


class TestInitialDataDomain:
    def test_counter_machine_constants(self):
        prog = parse_counter_program("inc 1 2\ninc 2 3\nhalt\n")  # n = 3
        spec = counter_machine_to_rmas(prog)
        dom = initial_data_domain(spec)
        ints = {o.value for o in dom["Int"]}
        assert ints == {0, 1, 2, 3}  # {0..max(2, n)}
        assert mk_symbol("agent", "inst") in dom["agent"]

    def test_spec_with_no_constants(self):
        spec = install_institutional(parse_spec(""))
        dom = initial_data_domain(spec)
        assert dom["agent"] == frozenset({mk_symbol("agent", "inst")})
        assert dom["spec"] == frozenset({mk_symbol("spec", "instSpec")})

    def test_ticket_constants(self, ticket_spec):
        dom = initial_data_domain(ticket_spec)
        # the ticket rules mention no rational constants
        assert dom["Real"] == frozenset()
        agents = {o.value for o in dom["agent"]}
        assert agents == {"inst", "c1", "c2"}
        specs = {o.value for o in dom["spec"]}
        assert specs == {"instSpec", "client"}

    def test_facet_seeds_included(self, contract_spec):
        dom = initial_data_domain(contract_spec)
        strs = {o.value for o in dom["Str"]}
        assert {"todo", "assigned", "done", "job"} <= strs
