import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rmas import cli, queries as Q
from rmas.builder import BuildConfig, BuildError, build_transition_system, export_jsonl
from rmas.commitments import InconsistentOrder, ReservoirExhausted
from rmas.dsl import parse_spec
from rmas.model import install_institutional
from rmas.queries import MissingOrderFacts
from rmas.shallow import compile_shallow

from conftest import CORPUS, ROOT, prop_paths, run_cli, ticket_with_names

TICKET = str(CORPUS / "ticket_mutex.rmas")
PING = str(CORPUS / "ping.rmas")
SAFETY = str(CORPUS / "props" / "ticket_mutex" / "safety.mlp")
REACH_GOT = str(CORPUS / "props" / "ping" / "reach_got.mlp")
NO_AGENTS = str(CORPUS / "props" / "ticket_mutex" / "no_agents.mlp")
FIFO = str(CORPUS / "props" / "ticket_mutex" / "fifo.mlp")
HALTS = str(CORPUS / "programs" / "halts.cm")
LOOPS = str(CORPUS / "programs" / "loops.cm")


SWAP = """
type Str string
type Num rational
facet SF of Str
facet NF of Num
message swap(SF, SF)
spec instSpec institutional {{
  relation Note(SF)
  action note(v: SF) {{
    true ~> add {{ Note(v) }}
  }}
  {enable} enables swap(a, b) to t
  on swap(a, b) from s if {cond} then note(a)
}}
"""


NOTE = """
type Str string
facet GreetF of Str: x = "hi" | x = "yo"
message ping(GreetF)
agent alice : pinger
agent bob : ponger

spec pinger {
  relation Got(GreetF)
  t = bob & g = "hi" enables ping(g) to t
  action note(p: GreetF) {
    x = p & !Got(x) ~> add { Got(x) }
  }
  on ping(g) to t if true then note(g)
}

spec ponger {
}
"""


class TestCheck:
    def test_clean_spec_exit_zero(self):
        assert run_cli("check", TICKET).returncode == 0

    def test_findings_exit_code(self, tmp_path):
        bad = tmp_path / "bad.rmas"
        bad.write_text("""
type Str string
facet SF of Str
message m(SF)
spec instSpec institutional {
  relation W(SF)
  W(t) & W(g) enables m(g) to t
}
""")
        out = run_cli("check", str(bad))
        assert out.returncode == 6
        assert b"WF-COMM-TARGET" in out.stderr

    def test_parse_failure_exit_two(self, tmp_path):
        bad = tmp_path / "broken.rmas"
        bad.write_text("type ^ string\n")
        assert run_cli("check", str(bad)).returncode == 2

    def test_a_non_ascii_digit_exits_two(self, tmp_path):
        bad = tmp_path / "digit.rmas"
        # an Arabic-Indic digit three, which is not read as 3
        bad.write_text("type Num rational\nfacet NF of Num\nspec instSpec institutional {\n"
                       "  relation R(NF)\n  init R(\u0663)\n}\n", encoding="utf-8")
        out = run_cli("check", str(bad))
        assert out.returncode == 2
        assert "5:10: unexpected character '\u0663'" in out.stderr.decode()

    def test_package_runs_as_a_module(self):
        # `python -m rmas` is the `rmas` command, report and exit code alike
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
                                   else [])))
        out = subprocess.run([sys.executable, "-m", "rmas", "check", "corpus/ping.rmas"],
                             capture_output=True, cwd=str(ROOT), env=env)
        assert out.returncode == 0, out.stderr
        assert out.stderr == run_cli("check", "corpus/ping.rmas").stderr

    def test_missing_file_usage_error(self):
        out = run_cli("check", "no-such-file.rmas")
        assert out.returncode == 1
        assert b"\nerror: cannot read no-such-file.rmas: " in out.stderr

    @pytest.mark.parametrize("role", ["spec", "property"])
    @pytest.mark.parametrize("content, code", [
        ("1/0", 2),  # a zero denominator is a parse error at the literal
        ("latin-1", 1),  # neither a directory nor a non-UTF-8 file can be read
        ("directory", 1),
    ])
    def test_unreadable_input_ends_in_a_report(self, tmp_path, role, content, code):
        path = tmp_path / "input"
        if content == "directory":
            path.mkdir()
        elif content == "latin-1":
            path.write_bytes("# caf\u00e9\n".encode("latin-1"))
        elif role == "spec":
            path.write_text("type Price rational with less\nfacet PF of Price: x > 1/0\n")
        else:
            path.write_text("exists x: Real. x < 1/0\n")
        out = run_cli(*(("check", str(path)) if role == "spec" else ("verify", TICKET, str(path))))
        assert out.returncode == code, out.stderr
        assert b"Traceback" not in out.stderr
        assert b"\nerror: " in out.stderr
        assert out.stderr.endswith(f"exit: {code}\n".encode())

    def test_template_variable_bound_only_in_the_guard_is_unbound(self, tmp_path):
        # the effect's h is bound inside its guard, so the template cannot use it
        text = (CORPUS / "ping.rmas").read_text().replace(
            "true ~> add { Got(g), Idle() } del { Waiting() }",
            "true ~> add { Got(g), Idle() } del { Waiting() }\n"
            "    exists h. Got(h) ~> del { Got(h) }")
        spec = tmp_path / "ping_h.rmas"
        spec.write_text(text)
        out = run_cli("check", str(spec))
        assert out.returncode == 6
        assert b"WF-EFFECT-UNBOUND" in out.stderr and b"'h'" in out.stderr

    def test_payload_variables_compared_only_with_each_other(self, tmp_path):
        # a and b are typed by the message alone, in both kinds of rule
        spec = tmp_path / "swap.rmas"
        spec.write_text(SWAP.format(enable="MyName(t) & a = b", cond="!(a = b)"))
        out = run_cli("check", str(spec))
        assert out.returncode == 0, out.stderr
        out = run_cli("build", "--mode", "abstract-recycle", str(spec))
        assert out.returncode == 0, out.stderr

    def test_payload_variables_compared_at_two_types(self, tmp_path):
        spec = tmp_path / "mix.rmas"
        spec.write_text(SWAP.replace("swap(SF, SF)", "swap(SF, NF)").format(
            enable="MyName(t) & a = b", cond="a = b"))
        out = run_cli("check", str(spec))
        assert out.returncode == 6
        assert b"[WF-COMM-PAYLOAD]" in out.stderr and b"[WF-RULE-COND-TYPE]" in out.stderr

    def test_payload_variable_at_two_types(self, tmp_path):
        # built, the rule would send m(2, 2): a number in an agent slot
        spec = tmp_path / "twice.rmas"
        spec.write_text("""
type Num rational
facet NF of Num
message m(AF, NF)
spec instSpec institutional {
  relation W(NF)
  init W(2)
  W(u) & MyName(t) enables m(u, u) to t
}
""")
        out = run_cli("check", str(spec))
        assert out.returncode == 6
        assert b"findings: [WF-COMM-PAYLOAD] instSpec: comm rule #1 (m): payload variable 'u' " \
            b"is at position 1 of type agent and at position 2 of type Num\n" in out.stderr

    def test_untypeable_comparison_names_its_variables(self, tmp_path):
        spec = tmp_path / "untyped.rmas"
        spec.write_text(ticket_with_names("forall a, b. a = b"))
        out = run_cli("check", str(spec))
        assert out.returncode == 2
        assert b"variables 'a' and 'b'" in out.stderr
        assert b"EqAtom" not in out.stderr


class TestBinderScopes:
    """Each binder has its own type: a name may be reused at another type in
    another scope, and equality chains are typed whatever their length."""

    SHADOWED = "(exists x. HasT(x)) | (exists x. Name(x))"

    def check(self, tmp_path, constraint, name="spec.rmas"):
        spec = tmp_path / name
        spec.write_text(ticket_with_names(constraint))
        return spec, run_cli("check", str(spec))

    def test_shadowed_binder_passes_check_and_builds_as_renamed(self, tmp_path):
        shadowed, out = self.check(tmp_path, self.SHADOWED, "shadowed.rmas")
        assert out.returncode == 0, out.stderr
        renamed, out = self.check(tmp_path, "(exists x. HasT(x)) | (exists y. Name(y))",
                                  "renamed.rmas")
        assert out.returncode == 0, out.stderr
        for mode in (["abstract-recycle"], ["fb-flat", "--max-states", "60"]):
            exports = []
            for spec in (shadowed, renamed):
                export = tmp_path / f"{spec.stem}.jsonl"
                run_cli("build", str(spec), "--mode", *mode, "--out", str(export))
                exports.append(export.read_bytes())
            assert exports[0] == exports[1] and exports[0], mode

    def test_compile_keeps_the_variable_names(self, tmp_path):
        spec, _ = self.check(tmp_path, self.SHADOWED)
        out = run_cli("compile", str(spec))
        assert out.returncode == 0, out.stderr
        assert f"constraint {self.SHADOWED}\n".encode() in out.stdout

    def test_six_variable_equality_chain_passes_check(self, tmp_path):
        _, out = self.check(
            tmp_path, "forall a, b, c, d, e, f. (a = b & b = c & c = d & d = e & e = f & HasT(f))"
                      " -> a = b")
        assert out.returncode == 0, out.stderr


class TestBuild:
    def test_abstract_build_closes(self, tmp_path):
        out_file = tmp_path / "ts.jsonl"
        out = run_cli("build", TICKET, "--mode", "abstract-recycle",
                      "--out", str(out_file))
        assert out.returncode == 0
        assert out_file.exists()
        lines = out_file.read_text().splitlines()
        assert any('"kind": "meta"' in l for l in lines)

    def test_out_file_is_the_jsonl_export(self, tmp_path):
        # --out streams the export line by line; the bytes are export_jsonl's
        out_file = tmp_path / "ts.jsonl"
        out = run_cli("build", TICKET, "--mode", "abstract-recycle", "--out", str(out_file))
        assert out.returncode == 0
        spec = compile_shallow(install_institutional(parse_spec(Path(TICKET).read_text())))
        ts = build_transition_system(spec, BuildConfig(mode="abstract-recycle"))
        assert out_file.read_bytes() == export_jsonl(ts)

    def test_counter_machine_rejected_exit_five(self, tmp_path):
        spec_file = tmp_path / "cm.rmas"
        assert run_cli("gen-cm", HALTS, "--out", str(spec_file)).returncode == 0
        out = run_cli("build", str(spec_file), "--mode", "abstract-recycle")
        assert out.returncode == 5

    def test_max_states_truncates_exit_three(self):
        out = run_cli("build", TICKET, "--mode", "abstract-recycle",
                      "--max-states", "1")
        assert out.returncode == 3

    @pytest.mark.parametrize("cap", ["0", "1"])
    def test_the_initial_state_counts_toward_the_cap(self, cap):
        # a cap of 0 still keeps the initial state
        out = run_cli("build", PING, "--mode", "abstract-recycle", "--max-states", cap)
        assert out.returncode == 3
        assert b"\nstates: 1\n" in out.stderr and b"\ntruncated: True\n" in out.stderr

    def test_state_bound_exit_four(self):
        out = run_cli("build", TICKET, "--mode", "abstract-recycle",
                      "--state-bound", "3")
        assert out.returncode == 4

    def test_dot_export(self, tmp_path):
        out_file = tmp_path / "ts.dot"
        out = run_cli("build", PING, "--mode", "concrete-bounded",
                      "--out", str(out_file), "--format", "dot")
        assert out.returncode == 0
        assert out_file.read_text().startswith("digraph")

    def test_guard_variable_typed_only_by_a_parameter(self, tmp_path):
        # x is free in the guard of note and typed by nothing but `x = p`,
        # or by nothing at all where the plan ranges x over a universe: no
        # message or rule types it, so the build must infer it
        for guard, got in [("x = p & !Got(x)", ["hi"]), ("!Got(x)", ["hi", "yo"])]:
            spec = tmp_path / "note.rmas"
            spec.write_text(NOTE.replace("x = p & !Got(x)", guard))
            ts = tmp_path / "ts.jsonl"
            out = run_cli("build", str(spec), "--mode", "abstract-recycle", "--out", str(ts))
            assert out.returncode == 0, out.stderr
            assert b"states: 2\n" in out.stderr
            (state,) = [r for r in map(json.loads, ts.read_text().splitlines())
                        if r.get("id") == 1]
            (alice,) = [db for name, db in state["agents"] if name["v"] == "alice"]
            assert sorted(args[0]["v"] for rel, args in alice if rel == "Got") == got, guard


class TestFacetFormulas:
    """A facet formula is a query over x with =, <, succ, !, & and |; every
    other formula is refused with exit 2 and the reason."""

    TYPES = "type T string\ntype R rational with less\ntype I integer\n"

    def run(self, tmp_path, facet):
        spec = tmp_path / "facet.rmas"
        spec.write_text(self.TYPES + facet + "\n")
        return str(spec), run_cli("check", str(spec))

    @pytest.mark.parametrize("facet, message", [
        ('facet F of T: y = "a"', "facet formulas may only use the variable x, found 'y'"),
        ("facet F of T: R(x)", "facet formulas allow only true, atoms, !, &, |"),
        ("facet F of T: exists y. x = y", "facet formulas allow only true, atoms, !, &, |"),
        ("facet F of T: x = _", "facet formulas allow only true, atoms, !, &, |"),
        ('facet F of T: x < "a"', "type 'T' has no dense order"),
        ("facet F of I: succ(x, 1)", "type 'I' has no successor relation"),
    ])
    def test_refused(self, tmp_path, facet, message):
        path, out = self.run(tmp_path, facet)
        assert out.returncode == 2
        assert f"error: {path}: {message}\n".encode() in out.stderr

    def test_comparison_of_literals_on_an_ordered_type(self, tmp_path):
        assert self.run(tmp_path, "facet F of R: 1 < 2")[1].returncode == 0
        (less,) = Q.atoms(parse_spec(self.TYPES + "facet F of R: 1 < 2\n").facets["F"].formula)
        assert less.type_name == "R"

    def test_true_is_a_base_facet(self, tmp_path):
        assert self.run(tmp_path, "facet F of T: true")[1].returncode == 0
        assert parse_spec(self.TYPES + "facet F of T: true\n").facets["F"].is_base()


class TestVerify:
    def test_safety_holds_exit_zero(self):
        out = run_cli("verify", TICKET, SAFETY, "--mode", "abstract-recycle")
        assert out.returncode == 0

    def test_false_property_exit_ten(self):
        out = run_cli("verify", TICKET, NO_AGENTS, "--mode", "abstract-recycle")
        assert out.returncode == 10

    def test_open_property_exits_two_before_the_build(self, tmp_path):
        prop_file = tmp_path / "open.mlp"
        prop_file.write_text("Got@alice(g)\n")
        out = run_cli("--report", "json", "verify", PING, str(prop_file),
                      "--mode", "abstract-recycle")
        assert out.returncode == 2
        assert b"Traceback" not in out.stderr
        report = json.loads(out.stderr)
        assert report["exit"] == 2
        assert "must be closed" in report["result"]["error"]
        assert "'g'" in report["result"]["error"]
        assert "states" not in report["result"]  # refused before the build

    # two specs declare R with different typings; a client declares its own
    # hasSpec, which inst declares with two components
    TWO_TYPINGS = ("type A symbolic\ntype B symbolic\nfacet AF2 of A\nfacet BF2 of B\n"
                   "agent u : x\nagent v : y\n"
                   "spec x {\n  relation R(AF2)\n}\n"
                   "spec y {\n  relation R(BF2)\n  relation hasSpec(AF)\n}\n")

    @pytest.mark.parametrize("prop, code, error", [
        ("true", 0, None),
        ("exists a: agent. Agent@inst(a)", 0, None),
        ("exists x: A. R@u(x)", 2, "relation 'R' is declared with different typings"),
        ("exists a: agent. hasSpec@v(a)", 2,
         "relation 'hasSpec' is declared with different typings"),
    ])
    def test_a_relation_typed_two_ways(self, tmp_path, prop, code, error):
        spec = tmp_path / "two.rmas"
        spec.write_text(self.TWO_TYPINGS)
        prop_file = tmp_path / "p.mlp"
        prop_file.write_text(prop + "\n")
        assert run_cli("check", str(spec)).returncode == 0
        out = run_cli("--report", "json", "verify", str(spec), str(prop_file),
                      "--mode", "abstract-recycle")
        assert b"Traceback" not in out.stderr
        report = json.loads(out.stderr)
        assert out.returncode == report["exit"] == code
        if error:
            assert report["result"]["error"] == f"{prop_file}: {error}"
        else:
            assert report["result"]["verdict"] is True

    def test_many_properties_on_one_build(self, capsys):
        props = [str(p) for p in prop_paths("ticket_mutex")]

        def verify(*paths):
            code = cli.main(["--report", "json", "verify", TICKET, *paths,
                             "--mode", "abstract-recycle"])
            return code, json.loads(capsys.readouterr().err)

        code, report = verify(*props)
        assert code == 10  # no_agents is false
        assert report["exit"] == 10
        assert sorted(report["inputs"]) == sorted([TICKET] + props)
        assert "verdict" not in report["result"]
        assert list(report["result"]["verdicts"]) == sorted(props)
        for path in props:
            _, one = verify(path)
            assert report["result"]["verdicts"][path] == {
                "verdict": one["result"]["verdict"], "iterations": one["result"]["iterations"]}

    def test_many_true_properties_exit_zero(self):
        out = run_cli("verify", TICKET, SAFETY, FIFO, "--mode", "abstract-recycle")
        assert out.returncode == 0
        lines = [l for l in out.stderr.decode().splitlines() if l.startswith("verdicts: ")]
        assert [l.split()[1] for l in lines] == sorted([SAFETY, FIFO])
        assert all(l.endswith(" verdict=True") for l in lines)

    def test_every_property_parses_before_the_build(self, tmp_path, capsys):
        bad = tmp_path / "bad.mlp"
        bad.write_text("mu Z. (\n")
        code = cli.main(["--report", "json", "verify", TICKET, SAFETY, str(bad),
                         "--mode", "abstract-recycle"])
        report = json.loads(capsys.readouterr().err)
        assert code == report["exit"] == 2
        assert report["result"]["error"].startswith(f"{bad}: ")
        assert "states" not in report["result"]
        assert cli.main(["verify", TICKET, SAFETY, str(tmp_path / "missing.mlp")]) == 1

    def test_counter_machine_halting_pipeline(self, tmp_path):
        spec_file = tmp_path / "cm.rmas"
        prop_file = tmp_path / "halted.mlp"
        prop_file.write_text("mu Z. Halted@inst | <>Z\n")
        assert run_cli("gen-cm", HALTS, "--out", str(spec_file)).returncode == 0
        pool = "Int=" + ",".join(str(i) for i in range(51))
        out = run_cli("verify", str(spec_file), str(prop_file),
                      "--mode", "concrete-bounded", "--max-depth", "50",
                      "--pool", pool)
        assert out.returncode == 0

    def test_looping_machine_never_spuriously_true(self, tmp_path):
        spec_file = tmp_path / "cm.rmas"
        prop_file = tmp_path / "halted.mlp"
        prop_file.write_text("mu Z. Halted@inst | <>Z\n")
        assert run_cli("gen-cm", LOOPS, "--out", str(spec_file)).returncode == 0
        pool = "Int=" + ",".join(str(i) for i in range(51))
        out = run_cli("verify", str(spec_file), str(prop_file),
                      "--mode", "concrete-bounded", "--max-depth", "50",
                      "--pool", pool)
        assert out.returncode in (3, 10)


class TestEngineErrors:
    ERRORS = [
        InconsistentOrder("1:Real and 2:Real are ordered both ways"),
        ReservoirExhausted("need 2 distinct values, pool offers 1"),
        MissingOrderFacts("no order fact relating 1:Real and 2:Real in Real"),
        BuildError("institutional agent was removed"),
    ]

    @pytest.mark.parametrize("cmd", ["build", "verify"])
    @pytest.mark.parametrize("error", ERRORS, ids=lambda e: type(e).__name__)
    def test_engine_failure_exits_seven_with_a_report(self, cmd, error, monkeypatch,
                                                       capsys):
        def failing_build(spec, config):
            raise error

        monkeypatch.setattr(cli, "build_transition_system", failing_build)
        # ping has facets, so both commands compile it before the build
        args = ["--report", "json", cmd, PING] + ([REACH_GOT] if cmd == "verify" else [])
        assert cli.main(args + ["--mode", "abstract-recycle"]) == 7
        err = capsys.readouterr().err
        assert "Traceback" not in err
        report = json.loads(err)
        assert report["exit"] == 7
        assert report["result"]["error"] == f"{type(error).__name__}: {error}"
        # only build reports that it compiled the facets away, as before
        assert ("compiled" in report["result"]) == (cmd == "build")


class TestOutOfResources:
    """Input nested past the interpreter's recursion limit, and a build or
    check that runs out of memory, end in a report."""

    @pytest.mark.parametrize("prop", [
        "(" * 1000 + "true" + ")" * 1000,  # too deep to parse
        "!" * 300 + "true",  # parses; too deep to resolve
        "<>" * 600 + "true",
    ], ids=["parentheses", "negations", "diamonds"])
    def test_deep_property_exits_two(self, prop, tmp_path):
        path = tmp_path / "deep.mlp"
        path.write_text(prop)
        out = run_cli("--report", "json", "verify", PING, str(path), "--mode", "abstract-recycle")
        assert out.returncode == 2
        assert b"Traceback" not in out.stderr
        assert json.loads(out.stderr)["result"]["error"] == f"{path}: input nested too deeply"

    def test_deep_constraint_exits_two(self, tmp_path):
        path = tmp_path / "deep.rmas"
        path.write_text(Path(PING).read_text().replace(
            "  init Idle()\n", "  init Idle()\n  constraint " + "(" * 400 + "Idle()" + ")" * 400 + "\n"))
        out = run_cli("--report", "json", "check", str(path))
        assert out.returncode == 2
        assert b"Traceback" not in out.stderr
        assert json.loads(out.stderr)["result"]["error"] == f"{path}: input nested too deeply"

    @pytest.mark.parametrize("cmd, stage", [
        ("build", "build_transition_system"),
        ("verify", "build_transition_system"),
        ("verify", "model_check"),
    ])
    @pytest.mark.parametrize("error, why", [
        (MemoryError, "out of memory"),
        (RecursionError, "input nested too deeply"),
    ], ids=["memory", "recursion"])
    def test_build_or_check_exits_seven(self, cmd, stage, error, why, monkeypatch, capsys):
        def failing(*args):
            raise error()

        monkeypatch.setattr(cli, stage, failing)
        args = ["--report", "json", cmd, PING] + ([REACH_GOT] if cmd == "verify" else [])
        assert cli.main(args + ["--mode", "abstract-recycle"]) == 7
        report = json.loads(capsys.readouterr().err)
        assert report["exit"] == 7
        assert report["result"]["error"] == f"{error.__name__}: {why}"


class TestUnwritableOut:
    @pytest.mark.parametrize("args", [
        ["build", PING, "--mode", "abstract-recycle"],
        ["compile", PING],
        ["gen-cm", HALTS],
        ["async2sync", PING],
    ], ids=lambda a: a[0])
    def test_exits_one_with_a_report(self, args, tmp_path, capsys):
        path = str(tmp_path / "missing" / "out")
        assert cli.main(["--report", "json", *args, "--out", path]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        report = json.loads(err)
        assert report["exit"] == 1
        assert report["result"]["error"].startswith(f"cannot write {path}: ")


class TestTransforms:
    def test_compile_emits_reparsable_spec(self, tmp_path):
        out_file = tmp_path / "shallow.rmas"
        contract = str(CORPUS / "contract_net.rmas")
        assert run_cli("compile", contract, "--out", str(out_file)).returncode == 0
        assert run_cli("check", str(out_file)).returncode == 0

    def test_async2sync_emits_wellformed_spec(self, tmp_path):
        out_file = tmp_path / "async.rmas"
        out = run_cli("async2sync", PING, "--async-mode", "ordered",
                      "--out", str(out_file))
        assert out.returncode == 0
        assert run_cli("check", str(out_file)).returncode == 0

    @pytest.mark.parametrize("names", [{"alice": "m"}, {"alice": "a", "bob": "s"}],
                             ids=["m", "a-s"])
    def test_async2sync_output_keeps_its_variables_beside_agents_named_alike(
            self, tmp_path, capsys, names):
        # the generated rules and actions use the variables m, a and s
        text = Path(PING).read_text()
        for old, new in names.items():
            text = text.replace(old, new)
        spec, out_file = tmp_path / "ping.rmas", tmp_path / "sync.rmas"
        spec.write_text(text)
        for mode in ("ordered", "disordered"):
            assert cli.main(["async2sync", str(spec), "--async-mode", mode,
                             "--out", str(out_file)]) == 0
            capsys.readouterr()
            assert cli.main(["--report", "json", "build", str(out_file),
                             "--mode", "abstract-recycle"]) == 0
            result = json.loads(capsys.readouterr().err)["result"]
            assert (result["states"], result["edges"]) == (902, 1600)

    def test_compile_twice_is_stable(self, tmp_path):
        once = tmp_path / "once.rmas"
        twice = tmp_path / "twice.rmas"
        contract = str(CORPUS / "contract_net.rmas")
        assert run_cli("compile", contract, "--out", str(once)).returncode == 0
        assert run_cli("compile", str(once), "--out", str(twice)).returncode == 0
        assert once.read_bytes() == twice.read_bytes()


class TestDeterminism:
    def test_reports_and_exports_byte_identical(self, tmp_path):
        f1, f2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        r1 = run_cli("--report", "json", "build", TICKET,
                     "--mode", "abstract-recycle", "--out", str(f1))
        r2 = run_cli("--report", "json", "build", TICKET,
                     "--mode", "abstract-recycle", "--out", str(f2))
        assert r1.stderr == r2.stderr
        assert f1.read_bytes() == f2.read_bytes()

    def test_hash_seed_does_not_change_output(self, tmp_path):
        # data objects hash by identity, so set order follows memory
        # addresses as well as the hash seed; no output may depend on it
        runs = []
        for seed in ("0", "12345"):
            out = tmp_path / f"ts{seed}.jsonl"
            env = {"PYTHONHASHSEED": seed}
            build = run_cli("--report", "json", "build", TICKET, "--mode", "abstract-recycle",
                            "--out", str(out), env_extra=env)
            verify = run_cli("--report", "json", "verify", TICKET,
                             *map(str, prop_paths("ticket_mutex")),
                             "--mode", "abstract-recycle", env_extra=env)
            assert build.returncode == 0, build.stderr
            assert verify.returncode == 10, verify.stderr
            runs.append((build.stderr, out.read_bytes(), verify.stderr))
        assert runs[0] == runs[1]

    def test_thread_count_does_not_change_output(self, tmp_path):
        f1, f2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        r1 = run_cli("--report", "json", "build", TICKET,
                     "--mode", "abstract-recycle", "--out", str(f1),
                     env_extra={"RMAS_THREADS": "1"})
        r2 = run_cli("--report", "json", "build", TICKET,
                     "--mode", "abstract-recycle", "--out", str(f2),
                     env_extra={"RMAS_THREADS": "4"})
        assert f1.read_bytes() == f2.read_bytes()
        assert r1.stderr == r2.stderr

    def test_thread_variable_is_ignored(self, tmp_path):
        # exploration is single-threaded; a stale RMAS_THREADS, even one
        # that is not a number, changes nothing
        out = tmp_path / "ts.jsonl"
        r = run_cli("--report", "json", "build", TICKET, "--mode", "abstract-recycle",
                    "--out", str(out), env_extra={"RMAS_THREADS": "two"})
        assert r.returncode == 0, r.stderr
        rec = json.loads(r.stderr)
        assert rec["exit"] == 0
        assert rec["result"]["states"] > 1
        assert out.read_bytes()

    def test_verify_reports_identical(self):
        r1 = run_cli("--report", "json", "verify", TICKET, SAFETY,
                     "--mode", "abstract-recycle")
        r2 = run_cli("--report", "json", "verify", TICKET, SAFETY,
                     "--mode", "abstract-recycle")
        assert r1.stderr == r2.stderr
        rec = json.loads(r1.stderr)
        assert rec["result"]["verdict"] is True
        assert rec["exit"] == 0


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "abstract-recycle", "max_states": 1}))
        out = run_cli("build", TICKET, "--config", str(cfg))
        assert out.returncode == 3  # truncated by the config's cap
        out = run_cli("build", TICKET, "--config", str(cfg), "--max-states", "100000")
        assert out.returncode == 0

    @pytest.mark.parametrize("text, why", [
        ("[1, 2]", "the top level must be an object"),
        ('{"max_states": "ten"}',
         "state_bound, max_states and max_depth must each be an integer or null"),
        ('{"pools": 5}', "pools must be a list of strings"),
    ], ids=["list", "string-cap", "number-pools"])
    @pytest.mark.parametrize("cmd", ["build", "verify"])
    def test_wrong_shape_is_a_usage_error(self, tmp_path, cmd, text, why):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        props = [SAFETY] if cmd == "verify" else []
        out = run_cli(cmd, TICKET, *props, "--config", str(cfg))
        assert out.returncode == 1
        assert f"error: bad config file: {why}\n".encode() in out.stderr
        assert b"Traceback" not in out.stderr

    @pytest.mark.parametrize("cmd", ["build", "verify"])
    def test_unknown_key_is_a_usage_error(self, tmp_path, cmd):
        # a typo for max_states must not leave the build uncapped
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"mode": "abstract-recycle", "max_state": 1}')
        props = [SAFETY] if cmd == "verify" else []
        out = run_cli(cmd, TICKET, *props, "--config", str(cfg))
        assert out.returncode == 1
        assert b"error: bad config file: unknown key 'max_state'\n" in out.stderr

    @pytest.mark.parametrize("cap, at_zero", [
        ("state_bound", 4), ("max_states", 3), ("max_depth", 3)])
    def test_negative_cap_is_a_usage_error(self, tmp_path, cap, at_zero):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "abstract-recycle", cap: -1}))
        flag = "--" + cap.replace("_", "-")
        for how in (["--config", str(cfg)], ["--mode", "abstract-recycle", flag, "-1"]):
            out = run_cli("build", TICKET, *how)
            assert out.returncode == 1
            assert f"error: {cap} must not be negative, got -1\n".encode() in out.stderr
        # zero is a cap like any other: over the bound, or truncated
        out = run_cli("build", TICKET, "--mode", "abstract-recycle", flag, "0")
        assert out.returncode == at_zero
