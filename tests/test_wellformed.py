from dataclasses import replace

import pytest

from rmas.dsl import parse_spec
from rmas.model import install_institutional
from rmas.wellformed import check_well_formed

from conftest import load_corpus


def wf(text: str):
    return check_well_formed(install_institutional(parse_spec(text)))


def codes(report):
    return {f.code for f in report.findings}


@pytest.mark.parametrize("name", ("ticket_mutex", "contract_net", "ping", "registry"))
def test_corpus_is_well_formed(name):
    report = check_well_formed(load_corpus(name))
    assert report.ok, [str(f) for f in report.findings]


BASE = """
type Str string
type Num rational with less
facet SF of Str
facet NF of Num
message m(SF)
service mk(SF) -> NF
"""


class TestCommRules:
    def test_target_not_agent_typed(self):
        text = BASE + """
spec instSpec institutional {
  relation W(SF)
  W(t) & W(g) enables m(g) to t
}
"""
        assert "WF-COMM-TARGET" in codes(wf(text))

    def test_payload_type_mismatch(self):
        text = BASE + """
spec instSpec institutional {
  relation P(NF)
  MyName(t) & P(g) enables m(g) to t
}
"""
        assert "WF-COMM-PAYLOAD" in codes(wf(text))

    def test_target_typed_only_by_the_message(self):
        # the message types t for the comparison, but no atom binds it to an agent
        text = BASE + """
spec instSpec institutional {
  relation W(SF)
  t = t & W(g) enables m(g) to t
}
"""
        assert "WF-COMM-TARGET" in codes(wf(text))

    def test_free_variable_leak(self):
        text = BASE + """
spec instSpec institutional {
  relation W(SF)
  MyName(t) & W(g) & W(other) enables m(g) to t
}
"""
        assert "WF-COMM-VARS" in codes(wf(text))

    @pytest.mark.parametrize("facets,findings", [
        ("AF, NF", [("WF-COMM-PAYLOAD", "payload variable 'u' is at position 1 of type "
                     "agent and at position 2 of type Num")]),
        ("NF, NF", [])])
    def test_payload_variable_repeated(self, facets, findings):
        # one variable cannot carry an agent and a number
        text = BASE.replace("message m(SF)", f"message m({facets})") + """
spec instSpec institutional {
  relation W(NF)
  W(u) & MyName(t) enables m(u, u) to t
}
"""
        assert [(f.code, f.message) for f in wf(text).findings] == findings


class TestEffects:
    def test_service_input_type_mismatch(self):
        text = BASE + """
spec instSpec institutional {
  relation P(NF)
  action bad() {
    P(x) ~> add { P(mk(x)) }
  }
}
"""
        assert "WF-EFFECT-SVC-IN" in codes(wf(text))

    def test_service_output_type_mismatch(self):
        text = BASE + """
spec instSpec institutional {
  relation W(SF)
  action bad() {
    W(x) ~> add { W(mk(x)) }
  }
}
"""
        assert "WF-EFFECT-SVC-OUT" in codes(wf(text))

    def test_add_fact_type_mismatch(self):
        text = BASE + """
spec instSpec institutional {
  relation W(SF)
  relation P(NF)
  action bad() {
    W(x) ~> add { P(x) }
  }
}
"""
        r = wf(text)
        assert "WF-EFFECT-PARAM" in codes(r) or "WF-EFFECT-ADD" in codes(r)

    def test_unbound_template_variable(self):
        text = BASE + """
spec instSpec institutional {
  relation W(SF)
  action bad() {
    true ~> add { W(x) }
  }
}
"""
        assert "WF-EFFECT-UNBOUND" in codes(wf(text))

    def test_service_call_in_delete(self):
        text = BASE + """
spec instSpec institutional {
  relation P(NF)
  action bad(x: SF) {
    true ~> del { P(mk(x)) }
  }
}
"""
        assert "WF-EFFECT-DEL" in codes(wf(text))

    def test_parameter_added_at_another_type(self):
        text = BASE + """
spec instSpec institutional {
  relation W(SF)
  action bad(p: NF) {
    true ~> add { W(p) }
  }
}
"""
        assert [(f.code, f.message) for f in wf(text).findings] == [
            ("WF-EFFECT-ADD", "parameter 'p' has type Num, W[1] wants Str")]


class TestUpdateRules:
    def test_payload_used_at_another_type_in_the_condition(self):
        text = BASE + """
spec instSpec institutional {
  relation N(NF)
  relation Done()
  action note() {
    true ~> add { Done() }
  }
  on m(g) from s if N(g) then note()
}
"""
        assert [(f.code, f.message) for f in wf(text).findings] == [
            ("WF-RULE-COND-TYPE", "payload variable 'g' used at Num, message says Str")]

    def test_scope_violation(self):
        text = BASE + """
spec instSpec institutional {
  relation W(SF)
  action noop() {
  }
  on m(g) from s if W(other) then noop()
}
"""
        assert "WF-RULE-SCOPE" in codes(wf(text))

    def test_peer_used_at_non_agent_type(self):
        text = BASE + """
spec instSpec institutional {
  relation W(SF)
  action noop() {
  }
  on m(g) from s if W(s) then noop()
}
"""
        assert "WF-RULE-PEER" in codes(wf(text))

    def test_peer_typed_only_by_the_message(self):
        text = BASE + """
spec instSpec institutional {
  action noop() {
  }
  on m(g) from s if s = s then noop()
}
"""
        assert "WF-RULE-PEER" in codes(wf(text))

    def test_action_argument_type(self):
        text = BASE + """
spec instSpec institutional {
  relation P(NF)
  action take(v: NF) {
    true ~> add { P(v) }
  }
  on m(g) from s if true then take(g)
}
"""
        assert "WF-RULE-ACTION-TYPE" in codes(wf(text))

    def test_peer_into_non_agent_param(self):
        text = BASE + """
spec instSpec institutional {
  relation W(SF)
  action take(v: SF) {
    true ~> add { W(v) }
  }
  on m(g) from s if true then take(s)
}
"""
        assert "WF-RULE-PEER-PARAM" in codes(wf(text))

    def test_payload_variable_repeated_at_two_types(self):
        text = BASE.replace("message m(SF)", "message m(SF, NF)") + """
spec instSpec institutional {
  relation W(SF)
  action note(v: SF) {
    true ~> add { W(v) }
  }
  on m(g, g) from s if true then note(g)
}
"""
        assert [(f.code, f.message) for f in wf(text).findings] == [
            ("WF-RULE-COND-TYPE", "payload variable 'g' is at position 1 of type Str "
             "and at position 2 of type Num")]


class TestInitialData:
    def test_nonconforming_initial_fact(self):
        text = """
type Str string
facet Bool of Str: x = "t" | x = "f"
spec instSpec institutional {
  relation Flag(Bool)
  init Flag("maybe")
}
"""
        assert "WF-INIT-CONFORM" in codes(wf(text))

    def test_initial_constraint_violation(self):
        text = """
type Str string
facet SF of Str
spec instSpec institutional {
  relation W(SF)
  constraint forall x. W(x) -> false
  init W("boom")
}
"""
        assert "WF-INIT-CONSTRAINT" in codes(wf(text))

    def test_untyped_constraint_is_typed_before_it_is_evaluated(self):
        # a spec built by hand may leave its binder types to inference; x
        # ranges over every live string, "other" among them
        spec = install_institutional(parse_spec("""
type Str string
facet SF of Str
spec instSpec institutional {
  relation W(SF)
  relation V(SF)
  constraint forall x. W(x)
  init W("boom")
  init V("other")
}
"""))
        inst = spec.agent_specs["instSpec"]
        untyped = tuple(replace(c, type_name="?") for c in inst.constraints)
        spec = replace(spec, agent_specs={"instSpec": replace(inst, constraints=untyped)})
        assert [f.code for f in check_well_formed(spec).findings] == ["WF-INIT-CONSTRAINT"]


    def test_open_constraint(self):
        text = BASE + """
spec instSpec institutional {
  relation W(SF)
  constraint W(x)
}
"""
        assert [(f.code, f.message) for f in wf(text).findings] == [
            ("WF-QUERY", "constraints must be closed formulas")]


class TestLinearity:
    def test_work_grows_linearly_with_copies(self, ticket_spec):
        def with_copies(k: int):
            spec = ticket_spec
            copies = dict(spec.agent_specs)
            client = spec.agent_specs["client"]
            for i in range(k):
                name = f"client{i}"
                copies[name] = replace(client, name=name)
            return replace(spec, agent_specs=copies)

        w2 = check_well_formed(with_copies(2)).work
        w4 = check_well_formed(with_copies(4)).work
        w8 = check_well_formed(with_copies(8)).work
        # doubling the spec roughly doubles the work: compare increments
        d1, d2 = w4 - w2, w8 - w4
        assert d1 > 0 and abs(d2 - 2 * d1) <= max(8, 0.15 * d2)
