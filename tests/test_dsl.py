import time

import pytest
from hypothesis import given, seed, settings, strategies as st

from rmas import cli, queries as Q
from rmas.builder import (BuildConfig, MODE_ABSTRACT, build_transition_system,
                          export_jsonl)
from rmas.dsl import ParseError, ResolutionError, parse_spec, serialize_spec, tokenize
from rmas.model import install_institutional, institutional_actions
from rmas.mucalc import parse_property
from rmas.queries import Var
from rmas.shallow import compile_shallow
from rmas.wellformed import check_well_formed

from conftest import CORPUS, ROOT, load_corpus
from oracles import reference_tokenize

CORPUS_NAMES = ("ticket_mutex", "contract_net", "ping", "registry")


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_parse_serialize_roundtrip_raw(name):
    text = (CORPUS / f"{name}.rmas").read_text()
    spec = parse_spec(text)
    assert parse_spec(serialize_spec(spec)) == spec


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_roundtrip_installed(name):
    spec = load_corpus(name)
    assert install_institutional(parse_spec(serialize_spec(spec))) == spec


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_serialize_is_a_fixpoint(name):
    spec = load_corpus(name)
    text = serialize_spec(spec)
    assert serialize_spec(install_institutional(parse_spec(text))) == text


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_roundtrip_compiled(name):
    spec = compile_shallow(load_corpus(name))
    assert install_institutional(parse_spec(serialize_spec(spec))) == spec


class TestTicketGolden:
    def test_actions_present(self, ticket_spec):
        inst = ticket_spec.inst_spec
        assert "genTicket" in inst.actions
        assert "bindTicket" in inst.actions

    def test_ticket_constraint_shape(self, ticket_spec):
        # forall tn, t. Assigned(_, tn) & hasTicket(_, t) -> tn > t
        inst = ticket_spec.inst_spec
        found = False
        for c in inst.constraints:
            if isinstance(c, Q.Forall):
                for a in Q.atoms(c):
                    if isinstance(a, Q.LessAtom) and a.type_name == "Real":
                        found = True
        assert found

    def test_gen_ticket_issues_service_call(self, ticket_spec):
        act = ticket_spec.inst_spec.actions["genTicket"]
        adds = [t for eff in act.effects for t in eff.adds]
        assert any(
            any(getattr(term, "service", None) == "getTicket" for term in tpl.terms)
            for tpl in adds
        )


# a number literal written with an Arabic-Indic digit three
ARABIC_THREE = ("type Num rational\nfacet NF of Num\nspec instSpec institutional {\n"
                "  relation R(NF)\n  init R(\u0663)\n}\n")


class TestErrors:
    def test_malformed_rule_keyword_location(self):
        text = "spec instSpec institutional {\n  on ping(g) mangled a if true then x(g)\n}\n"
        with pytest.raises(ParseError) as err:
            parse_spec(text)
        assert err.value.line == 2

    def test_unknown_relation(self):
        text = "spec instSpec institutional {\n  init Nope(inst)\n}\n"
        with pytest.raises(ResolutionError):
            parse_spec(text)

    def test_unknown_facet_in_relation(self):
        with pytest.raises(ResolutionError):
            parse_spec("spec s { \n relation R(Mystery)\n }\n")

    def test_duplicate_relation(self):
        text = "spec s {\n relation R(AF)\n relation R(AF, AF)\n}\n"
        with pytest.raises(ParseError):
            parse_spec(text)

    def test_spec_that_ends_early(self):
        # the error points just past the last token, not at the lines after it
        text = "spec instSpec institutional {\n  relation R(\n\n# a comment\n"
        with pytest.raises(ParseError) as err:
            parse_spec(text)
        assert (err.value.line, err.value.col) == (2, 14)
        assert err.value.msg == "expected identifier, found end of input"

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse_spec("type ^ string\n")
        assert (err.value.line, err.value.col) == (1, 6)
        assert err.value.msg == "unexpected character '^'"

    @pytest.mark.parametrize("text, where", [
        ("type\t^ string\n", (1, 6)),
        ("# a comment\n  ^\n", (2, 3)),
        ("type T string\n^", (2, 1)),
    ], ids=["after-a-tab", "after-a-comment-line", "last-line-without-newline"])
    def test_unexpected_character_position(self, text, where):
        with pytest.raises(ParseError) as err:
            parse_spec(text)
        assert (err.value.line, err.value.col, err.value.msg) == (*where, "unexpected character '^'")

    def test_unexpected_character_after_a_long_blank_run(self):
        # a lexer that searches ahead from each offset after a failed match
        # takes time quadratic in the blank run: tens of seconds for this one
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            tokenize(" " * 20_000 + "$")
        assert (err.value.line, err.value.col) == (1, 20_001)
        assert time.perf_counter() - start < 2.0

    def test_unexpected_character_in_a_property(self):
        with pytest.raises(ParseError) as err:
            parse_property("mu Z.\n  ^ | <>Z", load_corpus("ping"))
        assert (err.value.line, err.value.col, err.value.msg) == (2, 3, "unexpected character '^'")

    def test_a_non_ascii_digit_is_an_unexpected_character(self):
        # numbers take ASCII digits only, as identifiers do: an Arabic-Indic
        # three is not read as 3, and ends a number that precedes it
        with pytest.raises(ParseError) as err:
            parse_spec(ARABIC_THREE)
        assert (err.value.line, err.value.col, err.value.msg) == (
            5, 10, "unexpected character '\u0663'")
        with pytest.raises(ParseError) as err:
            tokenize("x = 1\u0663")
        assert (err.value.line, err.value.col) == (1, 6)


class TestDesugaring:
    def test_anonymous_variable_scopes_to_its_atom(self, ticket_spec):
        # on askTicket() from a if !hasTicket(a, _) & !Assigned(_, _) ...
        rule = next(r for r in ticket_spec.inst_spec.update_rules
                    if r.message == "askTicket")
        # both negations must contain the existential inside, not outside
        assert isinstance(rule.condition, Q.And)
        for part in rule.condition.parts:
            assert isinstance(part, Q.Not)
            assert isinstance(part.body, Q.Exists)

    def test_constant_payload_desugars_to_fresh_variable(self):
        text = """
message m(AF)
spec instSpec institutional {
  MyName(a) & t = inst enables m(inst) to t
}
"""
        spec = install_institutional(parse_spec(text))
        rule = spec.inst_spec.comm_rules[0]
        (v,) = rule.payload_vars
        assert v.startswith("_p")
        assert v in Q.free_vars(rule.query)

    @pytest.mark.parametrize("rule, name", [
        ("W(_p1) & MyName(t) enables m(_p1, 3) to t", "_p1"),  # a literal payload
        ("W(_p2) & MyName(t) enables m(_p2, 3) to t", "_p2"),
        ("Friend(_pc1) & MyName(t) enables n(a1, _pc1) to t", "_pc1"),  # a constant one
        ("Friend(_p1) & MyName(t) enables n(a1, _p1) to t", "_p1"),
        ("Friend(_pt) enables n(_pt, _pt) to a1", "_pt"),  # a constant target
        ("Pair(_, _1) & MyName(t) enables m(_1, 3) to t", "_1"),  # "_" beside "_1"
    ])
    def test_a_desugared_name_captures_no_variable(self, rule, name):
        # the rule builds what its twin with u for name builds
        def run(rule):
            spec = install_institutional(parse_spec(CAPTURE.replace("RULE", rule)))
            assert check_well_formed(spec).ok
            ts = build_transition_system(spec, BuildConfig(mode=MODE_ABSTRACT))
            return len(ts.states), len(ts.edges)

        twin = run(rule.replace(name, "u"))
        assert twin[1] > 0
        assert run(rule) == twin

    def test_empty_spec_defaults(self):
        spec = install_institutional(parse_spec(""))
        assert spec.institutional == "instSpec"
        assert list(spec.agent_specs) == ["instSpec"]

    def test_mode_flag_roundtrip(self):
        spec = parse_spec('mode "unsafe-succ"\n')
        assert "unsafe-succ" in spec.mode_flags
        assert parse_spec(serialize_spec(spec)).mode_flags == spec.mode_flags


# each agent may send itself m or n (RULE); a received m notes its second
# payload, a received n its second one
CAPTURE = """
type Num rational with less
facet NF of Num
message m(NF, NF)
message n(AF, AF)

agent a1 : s
agent a2 : s

spec s {
  relation W(NF)
  relation Pair(NF, NF)
  relation Friend(AF)
  relation Got(NF)
  relation Met(AF)

  init W(2)
  init Pair(1, 2)
  init Friend(a2)

  RULE

  action got(k: NF) {
    true ~> add { Got(k) }
  }
  action met(y: AF) {
    true ~> add { Met(y) }
  }

  on m(x, k) from p if true then got(k)
  on n(x, y) from p if true then met(y)
}
"""


def check_exit(tmp_path, capsys, text):
    """The exit code of `rmas check` on text, and its error line."""
    path = tmp_path / "spec.rmas"
    path.write_text(text)
    code = cli.main(["check", str(path)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, next((l for l in err.splitlines() if l.startswith("error: ")), None)


INST = "spec instSpec institutional {{\n  {}\n}}\n"
WORKER = "spec w {{\n  {}\n}}\n"


class TestRedeclaration:
    # a conflicting and an identical redeclaration of each built-in kind,
    # and the text without either
    BUILTINS = {
        "type": ("type agent string\n", "type agent symbolic\n", ""),
        "facet": ("facet AF of spec\n", "facet AF of agent\n", ""),
        "service": ("service getN() -> BF\n", "service getN() -> AF\n", ""),
        "MyName": (WORKER.format("relation MyName(AF, AF)"),
                   WORKER.format("relation MyName(AF)"), WORKER.format("")),
        "hasSpec": (INST.format("relation hasSpec(AF)"),
                    INST.format("relation hasSpec(AF, BF)"), INST.format("")),
    }

    @pytest.mark.parametrize("kind", BUILTINS)
    def test_conflicting_builtin_exits_two(self, kind, tmp_path, capsys):
        code, error = check_exit(tmp_path, capsys, self.BUILTINS[kind][0])
        assert code == 2
        assert error.endswith("already declared")

    @pytest.mark.parametrize("kind", BUILTINS)
    def test_identical_builtin_parses(self, kind):
        _, identical, without = self.BUILTINS[kind]
        assert parse_spec(identical) == parse_spec(without)

    NEW_AG = "action newAg(s: BF) {{\n    true ~> add {{ {} }}\n  }}"

    def test_builtin_action_body_replaced_once(self):
        once = INST.format(self.NEW_AG.format("Agent(getN())"))
        act = parse_spec(once).inst_spec.actions["newAg"]
        assert act != institutional_actions()["newAg"]
        assert len(act.effects) == 1
        twice = INST.format(self.NEW_AG.format("Agent(getN())") + "\n  "
                            + self.NEW_AG.format("FreshAg(getN())"))
        with pytest.raises(ParseError, match="action 'newAg' already declared"):
            parse_spec(twice)

    def test_user_declarations_repeat_only_identically(self):
        parse_spec("type T string\ntype T string\nmessage m(AF)\nmessage m(AF)\n")
        with pytest.raises(ParseError, match="message 'm' already declared"):
            parse_spec("message m(AF)\nmessage m(BF)\n")

    def test_bad_type_relation_exits_two(self, tmp_path, capsys):
        code, error = check_exit(tmp_path, capsys, "type T string with less\n")
        assert code == 2
        assert error.endswith("1:8: type T: dense order requires the rational carrier")


class TestBuiltinActions:
    def test_parsed_bodies_are_the_builtins(self):
        inst = parse_spec("agent w : worker\nspec worker {\n}\n").inst_spec
        assert {n: inst.actions[n] for n in ("newAg", "remAg")} == institutional_actions()

    @pytest.mark.parametrize("name", ("a", "s"))
    def test_names_of_builtin_variables_leave_the_bodies_alone(self, name):
        for text in (f"agent {name} : worker\nspec worker {{\n}}\n",
                     f"agent w : {name}\nspec {name} {{\n}}\n"):
            inst = parse_spec(text).inst_spec
            assert {n: inst.actions[n] for n in ("newAg", "remAg")} == institutional_actions()

    @pytest.mark.parametrize("name", ("a", "s", "b"))
    def test_a_replaced_body_reads_back_beside_an_agent_named_like_its_variables(self, name):
        # the worker's price facet is checked at run time, so the facet
        # compiler adds effects to every action, newAg and remAg included;
        # written with their variables a and s, the bodies would read back
        # with the agent in their place
        text = (CORPUS / "registry.rmas").read_text()
        for old, new in (("(a", "(w"), ("a)", "w)"), ("a.", "w."), ("(s", "(v"), ("s)", "v)"),
                         ("s =", "v =")):
            text = text.replace(old, new)
        text = text.replace("message mkAg(BF)\n", "type P rational with less\n"
                            "facet PF of P: 0 < x\nservice price() -> PF\nmessage tick()\n"
                            "message mkAg(BF)\n").replace("spec worker {\n}", (
                                "spec worker {\n  relation Price(PF)\n"
                                "  action tick() {\n    true ~> add { Price(price()) }\n  }\n"
                                "  MyName(m) enables tick() to m\n"
                                "  on tick() from x if true then tick()\n}"))
        spec = compile_shallow(install_institutional(
            parse_spec(text + f"agent {name} : worker\n")))
        assert spec.inst_spec.actions["newAg"] != institutional_actions()["newAg"]
        written = serialize_spec(spec)
        back = install_institutional(parse_spec(written))
        assert serialize_spec(back) == written
        cfg = BuildConfig(mode=MODE_ABSTRACT, max_states=60)
        assert export_jsonl(build_transition_system(back, cfg)) == export_jsonl(
            build_transition_system(spec, cfg))

    def test_spec_named_a_passes_check(self, tmp_path, capsys):
        assert check_exit(tmp_path, capsys, "spec a {\n}\nagent w : a\n") == (0, None)


class TestLists:
    def test_trailing_comma(self):
        text = INST.format("relation R(AF, AF,)\n  R(a, b,) enables m(a,) to b")
        spec = parse_spec("message m(AF,)\n" + text)
        assert spec.messages["m"].payload_facets == ("AF",)
        assert spec.inst_spec.schema["R"].facets == ("AF", "AF")
        assert spec == parse_spec("message m(AF)\n" + INST.format(
            "relation R(AF, AF)\n  R(a, b) enables m(a) to b"))

    @pytest.mark.parametrize("query, where, msg", [
        ("R(a b)", (2, 18), "expected ')', found 'b'"),
        ("R(a,", (2, 18), "expected a term, found end of input"),
    ])
    def test_unchanged_errors(self, query, where, msg):
        with pytest.raises(ParseError) as err:
            parse_spec("spec instSpec institutional {\n  constraint " + query)
        assert (err.value.line, err.value.col, err.value.msg) == (*where, msg)


# ---------------------------------------------------------------------------
# The one-pass lexer against the reference lexer in `oracles`

LEXED_FILES = sorted([*CORPUS.glob("*.rmas"), *CORPUS.glob("props/**/*.mlp"),
                      *(ROOT / "tests" / "golden").glob("**/*.rmas"),
                      *(ROOT / "tests" / "golden").glob("**/*.mlp")])

# pieces of text the lexer takes, and characters it must refuse
ACCEPTED = [
    "spec", "x_1", "_", "A9", "exists", "inst", "0", "-12", "3.25", "-1/2", "1.5/2",
    "1/0", '"a b"', '""', '"#"', "~>", "->", "!=", "<=", ">=", "<>", "[]", "(", ")",
    "{", "}", "[", "]", ",", ".", ":", "=", "<", ">", "!", "&", "|", "@",
    " ", "   ", "\t", "\r", "\x0b", "\xa0", "\n", "\r\n", "\n\n", "# note", "#", "# (\t) ]",
]
REJECTED = ["$", "^", "?", "'", '"open', "-", "~", "é", "٣", "\x00", "\u2028x$"]


def lexed(tokenize, text: str):
    try:
        return [(t.kind, t.value, t.line, t.col) for t in tokenize(text)]
    except ParseError as e:
        return ("ParseError", e.msg, e.line, e.col)


@pytest.mark.parametrize("path", LEXED_FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_lexer_matches_the_reference_on_file(path):
    text = path.read_text()
    assert lexed(tokenize, text) == lexed(reference_tokenize, text)
    assert lexed(tokenize, text)[-1][0] == "eof"


@seed(7)
@settings(max_examples=400, deadline=None)
@given(st.tuples(st.lists(st.sampled_from(ACCEPTED), max_size=30),
                 st.lists(st.sampled_from(REJECTED), max_size=1),
                 st.lists(st.sampled_from(ACCEPTED), max_size=30)).map(
                     lambda parts: "".join(parts[0] + parts[1] + parts[2])))
def test_lexer_matches_the_reference(text):
    assert lexed(tokenize, text) == lexed(reference_tokenize, text)

