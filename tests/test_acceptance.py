"""Acceptance criteria, one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
tolerance is exact (verdict agreement means 100% agreement).
"""

import itertools
import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import rmas.model as M
from rmas.builder import BuildConfig, build_transition_system, SuccRejected, export_jsonl
from rmas.commitments import (
    CallToken,
    enumerate_dense_commitments,
    enumerate_equality_commitments,
)
from rmas.data import DataObject, carrier_less, mk_symbol
from rmas.dsl import parse_spec
from rmas.generators import (
    ASYNC_DISORDERED,
    ASYNC_ORDERED,
    async_to_sync,
    counter_machine_to_rmas,
    parse_counter_program,
)
from rmas.model import install_institutional
from rmas.mucalc import model_check, parse_property
from rmas.shallow import compile_shallow
from rmas.generators import MBUFFER, NEWM, OLDM

from conftest import CORPUS, load_corpus, prop_paths, rational_pool, run_cli
from oracles import (
    ag_oracle,
    bell,
    ef_oracle,
    ordered_bell,
    project_system_state,
    queue_simulate,
)


def report(criterion: int, description: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {description}")
    assert ok, f"criterion {criterion}: {description}"


def pools_for(name: str):
    if name == "ticket_mutex":
        return rational_pool("Real", [1, 2, 3, 4])
    if name == "contract_net":
        return rational_pool("Price", [1, 2])
    return {}


def corpus_verdicts(spec, ts, names):
    out = {}
    for path in names:
        out[path.name] = model_check(ts, spec, parse_property(path.read_text(), spec)).truth
    return out


def test_criterion_1_commitment_combinatorics():
    eq_expected = {1: 1, 2: 2, 3: 5, 4: 15}
    dn_expected = {1: 1, 2: 3, 3: 13, 4: 75}
    ok = True
    for k in range(1, 5):
        S = [CallToken(f"f{i}", ()) for i in range(k)]
        n_eq = len(list(enumerate_equality_commitments(S)))
        n_dn = len(list(enumerate_dense_commitments(S, carrier_less)))
        ok &= n_eq == eq_expected[k] == bell(k)
        ok &= n_dn == dn_expected[k] == ordered_bell(k)
        ok &= n_dn <= bell(k) * math.factorial(k)
    report(1, "commitment counts match Bell / ordered-Bell oracles (k=1..4)", ok)


def test_criterion_2_facet_compilation_equivalence(
        ticket_spec, contract_spec, ping_spec,
        ticket_shallow, contract_shallow, ping_shallow):
    pairs = 0
    agree = 0
    for name, spec, shallow in (
        ("ticket_mutex", ticket_spec, ticket_shallow),
        ("contract_net", contract_spec, contract_shallow),
        ("ping", ping_spec, ping_shallow),
    ):
        pools = pools_for(name)
        ts_c = build_transition_system(
            spec, BuildConfig(mode="concrete-bounded", pools=pools))
        ts_s = build_transition_system(
            shallow, BuildConfig(mode="shallow", pools=pools))
        vc = corpus_verdicts(spec, ts_c, prop_paths(name))
        vs = corpus_verdicts(shallow, ts_s, prop_paths(name))
        assert len(vc) >= 5
        for prop in vc:
            pairs += 1
            agree += vc[prop] == vs[prop]
    report(2, f"facet-compiled verdicts agree on {agree}/{pairs} pairs "
              f"(3 specs, >=5 properties each)", agree == pairs and pairs >= 15)


def test_criterion_3_flattening_equivalence(ticket_spec, contract_spec,
                                            ticket_shallow, contract_shallow):
    pairs = 0
    agree = 0
    for name, shallow, depth in (
        ("ticket_mutex", ticket_shallow, 6),
        ("contract_net", contract_shallow, 5),
    ):
        ts_fb = build_transition_system(shallow, BuildConfig(mode="fb-commitments",
                                                             max_depth=depth))
        ts_fl = build_transition_system(shallow, BuildConfig(mode="fb-flat",
                                                             max_depth=depth))
        v1 = corpus_verdicts(shallow, ts_fb, prop_paths(name))
        v2 = corpus_verdicts(shallow, ts_fl, prop_paths(name))
        for prop in v1:
            pairs += 1
            agree += v1[prop] == v2[prop]
    report(3, f"fb-commitments and fb-flat verdicts agree on {agree}/{pairs} "
              f"dense (spec, property) pairs", agree == pairs and pairs >= 10)


def test_criterion_4_recycling_sound_and_complete(ticket_spec, ping_spec, ping_shallow,
                                                  contract_spec, contract_shallow):
    pairs = 0
    agree = 0
    for name, spec, shallow in (
        ("ticket_mutex", ticket_spec, ticket_spec),
        ("ping", ping_spec, ping_shallow),
        ("contract_net", contract_spec, contract_shallow),
    ):
        ts_c = build_transition_system(
            spec, BuildConfig(mode="concrete-bounded", pools=pools_for(name)))
        ts_a = build_transition_system(shallow, BuildConfig(mode="abstract-recycle"))
        assert not ts_c.truncated and not ts_a.truncated
        vc = corpus_verdicts(spec, ts_c, prop_paths(name))
        va = corpus_verdicts(shallow, ts_a, prop_paths(name))
        for prop in vc:
            pairs += 1
            agree += vc[prop] == va[prop]
    ts = build_transition_system(ticket_spec, BuildConfig(mode="abstract-recycle"))
    closed = not ts.truncated and ts.stats["states"] > 0
    print(f"  2-client ticket abstraction closes at {ts.stats['states']} states")
    report(4, f"abstract-recycle verdicts equal exhaustive concrete verdicts "
              f"({agree}/{pairs}); ticket abstraction closes", agree == pairs and closed)


def test_criterion_5_ticket_protocol(ticket_spec):
    safety = run_cli("verify", str(CORPUS / "ticket_mutex.rmas"),
                     str(CORPUS / "props" / "ticket_mutex" / "safety.mlp"),
                     "--mode", "abstract-recycle")
    ts = build_transition_system(ticket_spec, BuildConfig(mode="abstract-recycle"))
    liveness = model_check(
        ts, ticket_spec,
        parse_property((CORPUS / "props" / "ticket_mutex" / "liveness.mlp").read_text(),
                       ticket_spec))
    fifo_text = (CORPUS / "props" / "ticket_mutex" / "fifo.mlp").read_text()
    fifo_orig = model_check(ts, ticket_spec, parse_property(fifo_text, ticket_spec))
    # mutation: drop the ticket-ordering constraint
    inst = ticket_spec.inst_spec
    fresh = M.freshness_constraint()
    mutated = replace(ticket_spec, agent_specs={
        **ticket_spec.agent_specs,
        "instSpec": replace(inst, constraints=tuple(
            c for c in inst.constraints if c == fresh)),
    })
    ts_mut = build_transition_system(mutated, BuildConfig(mode="abstract-recycle"))
    fifo_mut = model_check(ts_mut, mutated, parse_property(fifo_text, mutated))
    ok = (safety.returncode == 0 and liveness.truth
          and fifo_orig.truth and not fifo_mut.truth)
    report(5, "safety exit 0, liveness true on the abstraction, constraint "
              "mutation flips the ticket-order property to false", ok)


def test_criterion_6_undecidability_witness(tmp_path):
    spec_halt = tmp_path / "halts.rmas"
    spec_loop = tmp_path / "loops.rmas"
    prop = tmp_path / "halted.mlp"
    prop.write_text("mu Z. Halted@inst | <>Z\n")
    assert run_cli("gen-cm", str(CORPUS / "programs" / "halts.cm"),
                   "--out", str(spec_halt)).returncode == 0
    assert run_cli("gen-cm", str(CORPUS / "programs" / "loops.cm"),
                   "--out", str(spec_loop)).returncode == 0
    pool = "Int=" + ",".join(str(i) for i in range(51))
    halt_run = run_cli("verify", str(spec_halt), str(prop),
                       "--mode", "concrete-bounded", "--max-depth", "50",
                       "--pool", pool)
    rejected = all(
        run_cli("build", str(spec_halt), "--mode", mode).returncode == 5
        for mode in ("fb-commitments", "fb-flat", "abstract-recycle")
    )
    loop_run = run_cli("verify", str(spec_loop), str(prop),
                       "--mode", "concrete-bounded", "--max-depth", "50",
                       "--pool", pool)
    ok = (halt_run.returncode == 0 and rejected
          and loop_run.returncode in (3, 10))
    report(6, "halting program reaches Halted (exit 0); commitment modes "
              "reject succ (exit 5); looping program never spuriously true", ok)


def test_criterion_7_async_simulation(ping_spec):
    hide = frozenset({MBUFFER, NEWM, OLDM})
    ok = True
    for mode in (ASYNC_DISORDERED, ASYNC_ORDERED):
        transformed = compile_shallow(async_to_sync(ping_spec, mode))
        ts = build_transition_system(
            transformed, BuildConfig(mode="abstract-recycle", max_states=50000))
        got = {project_system_state(s, hide) for s in ts.states}
        want = queue_simulate(ping_spec, ordered=(mode == ASYNC_ORDERED), buffer_cap=2)
        ok &= got == want
    report(7, "projected reachable states of both async transformations equal "
              "the queue-semantics oracle exactly", ok)


def test_criterion_8_model_checker_oracle():
    from test_mucalc import PROP_SPEC, make_ts, random_prop_ts

    rng = random.Random(2024)
    ef = parse_property("mu Z. p@inst | <>Z", PROP_SPEC)
    ag = parse_property("nu Z. p@inst & []Z", PROP_SPEC)
    agree = 0
    for _ in range(200):
        ts, labels = random_prop_ts(rng, rng.randint(1, 6))
        succ = {}
        for a, b in ts.edges:
            succ.setdefault(a, []).append(b)
        sat = {i for i, ls in enumerate(labels) if "p" in ls}
        okx = model_check(ts, PROP_SPEC, ef).truth == ef_oracle(succ, 0, sat)
        oky = model_check(ts, PROP_SPEC, ag).truth == ag_oracle(succ, 0, sat)
        agree += okx and oky
    # duality spot-check on the same random systems
    from rmas.mucalc import PMu, PNu, PVar, PDiamond, LocAtom
    from rmas.queries import And, Const, Not

    inst = mk_symbol("agent", "inst")
    body = And((LocAtom("p", (), Const(inst)), PDiamond((), PVar("Z"))))
    dual_body = And((LocAtom("p", (), Const(inst)), PDiamond((), Not(PVar("Z")))))
    duality = True
    for _ in range(50):
        ts, _ = random_prop_ts(rng, rng.randint(1, 5))
        lhs = model_check(ts, PROP_SPEC, Not(PMu("Z", body))).truth
        rhs = model_check(ts, PROP_SPEC, PNu("Z", Not(dual_body))).truth
        duality &= lhs == rhs
    report(8, f"model checker agrees with reachability/safety oracles on "
              f"{agree}/200 randomized systems; duality holds", agree == 200 and duality)


def test_criterion_9_determinism(tmp_path):
    ticket = str(CORPUS / "ticket_mutex.rmas")
    safety = str(CORPUS / "props" / "ticket_mutex" / "safety.mlp")
    exports = []
    reports = []
    for i, threads in enumerate(("1", "4", "1", "4")):
        out = tmp_path / f"ts{i}.jsonl"
        r = run_cli("--report", "json", "build", ticket,
                    "--mode", "abstract-recycle", "--out", str(out),
                    env_extra={"RMAS_THREADS": threads})
        exports.append(out.read_bytes())
        reports.append(r.stderr)
    verify_reports = [
        run_cli("--report", "json", "verify", ticket, safety,
                "--mode", "abstract-recycle",
                env_extra={"RMAS_THREADS": threads}).stderr
        for threads in ("1", "4")
    ]
    ok = (len(set(exports)) == 1 and len(set(reports)) == 1
          and len(set(verify_reports)) == 1)
    report(9, "build and verify runs are byte-identical across repeats and "
              "RMAS_THREADS=1 vs 4", ok)
