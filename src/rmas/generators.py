"""Spec-to-spec generators: counter machines and asynchronous buffering.

`counter_machine_to_rmas` encodes a two-counter machine as a single-agent
system over unary relations and a successor-equipped integer type; reaching
`Halted` is equivalent to the machine halting, which is why every
commitment-based pipeline refuses such specs.

`async_to_sync` simulates message queues inside agent databases: every
incoming message is parked in an `MBuffer` row under a fresh dense key and
processed later via a self-addressed `nextM` message, FIFO in ordered mode,
arbitrarily in disordered mode.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

from .data import (
    DataTypeDef,
    Facet,
    RATIONAL,
    STRING,
    TypedRelationSchema,
    mk_string,
    mk_undef,
)
from . import model as M
from . import queries as Q
from .dsl import parse_spec
from .model import (
    AgentSpec,
    CallTerm,
    CommRule,
    FactTemplate,
    MessageDef,
    RmasSpec,
    ServiceDef,
    UpdateAction,
    UpdateEffect,
    UpdateRule,
)
from .queries import Const, Param, Var


class GeneratorError(Exception):
    pass


# ---------------------------------------------------------------------------
# Two-counter machines


@dataclass(frozen=True)
class Inc:
    counter: int
    goto: int


@dataclass(frozen=True)
class CDec:
    counter: int
    goto_zero: int
    goto_nonzero: int


@dataclass(frozen=True)
class Halt:
    pass


Instr = Union[Inc, CDec, Halt]


@dataclass(frozen=True)
class CounterProgram:
    instructions: tuple[Instr, ...]

    def __post_init__(self) -> None:
        n = len(self.instructions)
        if n == 0 or not isinstance(self.instructions[-1], Halt):
            raise GeneratorError("the last instruction must be halt")
        for k, ins in enumerate(self.instructions, start=1):
            if isinstance(ins, Halt):
                continue
            if ins.counter not in (1, 2):
                raise GeneratorError(f"instruction {k}: counter must be 1 or 2")
            targets = (ins.goto,) if isinstance(ins, Inc) else (ins.goto_zero, ins.goto_nonzero)
            for t in targets:
                if not 1 <= t <= n:
                    raise GeneratorError(f"instruction {k}: goto target {t} out of range")


def parse_counter_program(text: str) -> CounterProgram:
    """Line format: `inc C GOTO` | `dec C ZERO NONZERO` | `halt`; 1-based
    instruction numbers; '#' comments."""
    instrs: list[Instr] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "inc" and len(parts) == 3:
                instrs.append(Inc(int(parts[1]), int(parts[2])))
            elif parts[0] == "dec" and len(parts) == 4:
                instrs.append(CDec(int(parts[1]), int(parts[2]), int(parts[3])))
            elif parts[0] == "halt" and len(parts) == 1:
                instrs.append(Halt())
            else:
                raise ValueError
        except ValueError:
            raise GeneratorError(f"line {lineno}: cannot parse {raw!r}")
    return CounterProgram(tuple(instrs))


# The encoding's fixed part; ZF_INIT is replaced by the facet's initial
# integers, and one `on go()` rule per instruction step closes the spec.
_CM_SPEC = """\
mode "unsafe-succ"
type Int integer with succ
facet ZF of Int init { ZF_INIT }
service input() -> ZF
message go()

spec instSpec institutional {
  relation C1(ZF)
  relation C1p(ZF)
  relation C2(ZF)
  relation C2p(ZF)
  relation PC(ZF)
  relation Op(ZF)
  relation Target(ZF)
  relation Halted()
  constraint Op(0) & Target(1) -> forall xp, x. C1(x) & C1p(xp) -> succ(x, xp)
  constraint Op(0) & Target(2) -> forall xp, x. C2(x) & C2p(xp) -> succ(x, xp)
  constraint Op(1) & Target(1) -> forall xp, x. C1(x) & C1p(xp) -> succ(xp, x)
  constraint Op(1) & Target(2) -> forall xp, x. C2(x) & C2p(xp) -> succ(xp, x)
  init C1(0), C2(0), PC(1)
  action set_pc(next: ZF) {
    PC(x) ~> del { PC(x) }
    true ~> add { PC(next) }
  }
  action set_op(o: ZF, t: ZF) {
    Op(x) ~> del { Op(x) }
    Target(x) ~> del { Target(x) }
    true ~> add { Op(o) }
    true ~> add { Target(t) }
  }
  action u_c(c: ZF) {
    c = 1 & C1p(x) ~> del { C1p(x) }
    c = 1 & C1(x) ~> add { C1p(x) } del { C1(x) }
    c = 1 ~> add { C1(input()) }
    c = 2 & C2p(x) ~> del { C2p(x) }
    c = 2 & C2(x) ~> add { C2p(x) } del { C2(x) }
    c = 2 ~> add { C2(input()) }
  }
  action stop() {
    true ~> add { Halted() }
  }
  MyName(a) & !Halted() enables go() to a
"""


def counter_machine_to_rmas(prog: CounterProgram) -> RmasSpec:
    """The single-agent encoding: constraints force each counter update to be
    the successor (increment) or predecessor (decrement) of the old value."""
    rules: list[tuple[str, str]] = []
    for j, ins in enumerate(prog.instructions, start=1):
        pc = f"PC({j})"
        if isinstance(ins, Inc):
            rules += [(pc, f"set_pc({ins.goto})"), (pc, f"set_op(0, {ins.counter})"),
                      (pc, f"u_c({ins.counter})")]
        elif isinstance(ins, CDec):
            zero = f"C{ins.counter}(0)"
            nonzero = f"{pc} & !{zero}"
            rules += [(f"{pc} & {zero}", f"set_pc({ins.goto_zero})"),
                      (nonzero, f"set_pc({ins.goto_nonzero})"),
                      (nonzero, f"set_op(1, {ins.counter})"), (nonzero, f"u_c({ins.counter})")]
        else:
            rules.append((pc, "stop()"))
    zf = ", ".join(map(str, range(max(2, len(prog.instructions)) + 1)))
    text = _CM_SPEC.replace("ZF_INIT", zf) + "".join(
        f"  on go() from src if {cond} then {call}\n" for cond, call in rules) + "}\n"
    return M.install_institutional(parse_spec(text))


# ---------------------------------------------------------------------------
# Asynchronous communication via buffers


ASYNC_ORDERED = "ordered"
ASYNC_DISORDERED = "disordered"

MSGID_TYPE = "MsgId"
MSGID_FACET = "MsgIdF"
FLAG_TYPE = "MsgFlag"
FLAG_FACET = "FlagF"
GETRN = "getRN"
MBUFFER = "MBuffer"
NEWM = "NewM"
OLDM = "OldM"
NEXTM = "nextM"
REMOVEM = "removeM"


def async_to_sync(spec: RmasSpec, mode: str = ASYNC_DISORDERED) -> RmasSpec:
    """Simulate queue-based asynchronous communication synchronously."""
    if mode not in (ASYNC_ORDERED, ASYNC_DISORDERED):
        raise GeneratorError(f"unknown async mode {mode!r}")
    for name in (MSGID_TYPE, FLAG_TYPE):
        if name in spec.types:
            raise GeneratorError(f"type name {name!r} is reserved by the transformation")
    for name in (MBUFFER, NEWM, OLDM):
        for ag in spec.agent_specs.values():
            if name in ag.schema:
                raise GeneratorError(f"relation {name!r} is reserved by the transformation")
    if NEXTM in spec.messages or GETRN in spec.services:
        raise GeneratorError("nextM/getRN are reserved by the transformation")

    msgs = list(spec.messages.values())  # fixed declaration order

    types = dict(spec.types)
    types[MSGID_TYPE] = DataTypeDef(MSGID_TYPE, RATIONAL, has_less=True)
    types[FLAG_TYPE] = DataTypeDef(FLAG_TYPE, STRING)

    facets = dict(spec.facets)
    facets[MSGID_FACET] = Facet(MSGID_FACET, MSGID_TYPE)
    flags = (mk_string(FLAG_TYPE, "t"), mk_string(FLAG_TYPE, "f"))
    facets[FLAG_FACET] = Facet(FLAG_FACET, FLAG_TYPE,
                               Q.Or(tuple(Q.EqAtom(Var("x"), Const(o)) for o in flags)),
                               frozenset(flags))
    base_by_type: dict[str, str] = {}
    for fname, f in facets.items():
        if f.is_base() and f.base_type not in base_by_type:
            base_by_type[f.base_type] = fname

    def base_facet(type_name: str) -> str:
        if type_name not in base_by_type:
            name = f"{type_name}_base"
            facets[name] = Facet(name, type_name)
            base_by_type[type_name] = name
        return base_by_type[type_name]

    # buffer layout: key, then per message [flag, sender, payload...]
    buffer_facets: list[str] = [MSGID_FACET]
    slot_of: dict[str, int] = {}
    for msg in msgs:
        slot_of[msg.name] = len(buffer_facets)
        buffer_facets.append(FLAG_FACET)
        buffer_facets.append(M.AGENT_FACET)
        for f in msg.payload_facets:
            buffer_facets.append(base_facet(spec.facets[f].base_type))
    arity = len(buffer_facets)

    services = dict(spec.services)
    services[GETRN] = ServiceDef(GETRN, (), MSGID_FACET)
    messages = dict(spec.messages)
    messages[NEXTM] = MessageDef(NEXTM, (MSGID_FACET,))

    def undef_of(facet_name: str) -> Const:
        return Const(mk_undef(spec.facets.get(facet_name, facets[facet_name]).base_type))

    def flag(v: str) -> Const:
        return Const(mk_string(FLAG_TYPE, v))

    def buffer_action(msg: MessageDef) -> UpdateAction:
        params = tuple((f"x{i + 1}", f) for i, f in enumerate(msg.payload_facets))
        params += (("s", M.AGENT_FACET),)
        slots: list = [CallTerm(GETRN, ())]
        for other in msgs:
            if other.name == msg.name:
                slots.append(flag("t"))
                slots.append(Param("s"))
                slots += [Param(f"x{i + 1}") for i in range(msg.arity)]
            else:
                slots.append(flag("f"))
                slots.append(undef_of(M.AGENT_FACET))
                slots += [
                    Const(mk_undef(spec.facets[f].base_type)) for f in other.payload_facets
                ]
        row_vars = tuple(Var(f"__w{i}") for i in range(arity - 1))
        return UpdateAction(f"buffer_{msg.name}", params, (
            UpdateEffect(Q.RelAtom(OLDM, (Var("m"),)),
                         dels=(FactTemplate(OLDM, (Var("m"),)),)),
            UpdateEffect(Q.RelAtom(NEWM, (Var("m"),)),
                         dels=(FactTemplate(NEWM, (Var("m"),)),)),
            UpdateEffect(Q.TrueQ(), adds=(
                FactTemplate(NEWM, (CallTerm(GETRN, ()),)),
                FactTemplate(MBUFFER, tuple(slots)),
            )),
            UpdateEffect(Q.RelAtom(MBUFFER, (Var("m"),) + row_vars),
                         adds=(FactTemplate(OLDM, (Var("m"),)),)),
        ))

    def remove_action() -> UpdateAction:
        row_vars = tuple(Var(f"__r{i}") for i in range(arity - 1))
        return UpdateAction(REMOVEM, (("m", MSGID_FACET),), (
            UpdateEffect(Q.RelAtom(MBUFFER, (Param("m"),) + row_vars),
                         dels=(FactTemplate(MBUFFER, (Param("m"),) + row_vars),)),
        ))

    def buffer_row_atom(m_term, msg: MessageDef, sender_term, payload_terms) -> Q.Query:
        """MBuffer(m, ..., "t", sender, payload, ...) with fresh slack vars."""
        terms: list = [m_term]
        slack: list[tuple[str, str]] = []
        for other in msgs:
            if other.name == msg.name:
                terms.append(flag("t"))
                terms.append(sender_term)
                terms.extend(payload_terms)
            else:
                for _ in range(2 + other.arity):
                    slack.append((f"__v{len(slack)}", facets[buffer_facets[len(terms)]].base_type))
                    terms.append(Var(slack[-1][0]))
        atom: Q.Query = Q.RelAtom(MBUFFER, tuple(terms))
        for v, t in reversed(slack):
            atom = Q.Exists(v, atom, t)
        return atom

    def any_row_atom(m_term) -> Q.Query:
        terms: list = [m_term]
        for i in range(arity - 1):
            terms.append(Var(f"__u{i}"))
        atom: Q.Query = Q.RelAtom(MBUFFER, tuple(terms))
        for i in range(arity - 2, -1, -1):
            atom = Q.Exists(f"__u{i}", atom, facets[buffer_facets[i + 1]].base_type)
        return atom

    id_constraint_body = (
        Q.LessAtom(MSGID_TYPE, Var("ido"), Var("idn"))
        if mode == ASYNC_ORDERED
        else Q.Not(Q.EqAtom(Var("ido"), Var("idn")))
    )
    id_constraint = Q.Forall("idn", Q.Forall("ido", Q.q_implies(
        Q.q_and(Q.RelAtom(NEWM, (Var("idn"),)), Q.RelAtom(OLDM, (Var("ido"),))),
        id_constraint_body,
    ), MSGID_TYPE), MSGID_TYPE)

    agent_specs: dict[str, AgentSpec] = {}
    for sname, ag in spec.agent_specs.items():
        schema = dict(ag.schema)
        schema[MBUFFER] = TypedRelationSchema(MBUFFER, tuple(buffer_facets))
        schema[NEWM] = TypedRelationSchema(NEWM, (MSGID_FACET,))
        schema[OLDM] = TypedRelationSchema(OLDM, (MSGID_FACET,))

        actions = dict(ag.actions)
        for msg in msgs:
            act = buffer_action(msg)
            actions[act.name] = act
        actions[REMOVEM] = remove_action()

        rules: list[UpdateRule] = [
            r for r in ag.update_rules if r.direction == M.ON_SEND
        ]
        # immediate processing of self-addressed messages
        for r in ag.update_rules:
            if r.direction == M.ON_RECEIVE:
                rules.append(replace(r, condition=Q.q_and(
                    Q.RelAtom(M.MYNAME_REL, (Var(r.peer_var),)), r.condition)))
        # buffering of messages from other agents
        for msg in msgs:
            payload = tuple(f"x{i + 1}" for i in range(msg.arity))
            rules.append(UpdateRule(
                M.ON_RECEIVE, msg.name, payload, "s",
                Q.Not(Q.RelAtom(M.MYNAME_REL, (Var("s"),))),
                f"buffer_{msg.name}", tuple(Var(v) for v in payload) + (Var("s"),),
            ))
        # deferred reactions, reformulated over the buffer
        for idx, r in enumerate(ag.update_rules):
            if r.direction != M.ON_RECEIVE:
                continue
            msg = spec.messages[r.message]
            act = ag.actions[r.action]
            # rename the original payload/peer variables apart
            ren = {v: f"__b{i}" for i, v in enumerate(r.payload_vars)}
            ren[r.peer_var] = "__bs"

            def rn(term):
                if isinstance(term, Var) and term.name in ren:
                    return Var(ren[term.name])
                return term

            cond = Q.map_free(r.condition, rn)
            arg_terms = tuple(rn(a) for a in r.args)
            row = buffer_row_atom(
                Param("m"), msg, Var("__bs"),
                tuple(Var(ren[v]) for v in r.payload_vars))
            effects = []
            for eff in act.effects:
                sub = {p: a for (p, _), a in zip(act.params, arg_terms)}

                def subst(term):
                    if isinstance(term, Param) and term.name in sub:
                        return sub[term.name]
                    if isinstance(term, CallTerm):
                        return CallTerm(term.service, tuple(subst(a) for a in term.args))
                    return term

                guard = Q.q_and(row, cond, Q.map_terms(eff.guard, subst))
                adds = tuple(FactTemplate(t.rel, tuple(subst(x) for x in t.terms))
                             for t in eff.adds)
                dels = tuple(FactTemplate(t.rel, tuple(subst(x) for x in t.terms))
                             for t in eff.dels)
                effects.append(UpdateEffect(guard, adds, dels))
            react = UpdateAction(f"react_{r.message}_{idx}", (("m", MSGID_FACET),),
                                 tuple(effects))
            actions[react.name] = react
            rules.append(UpdateRule(
                M.ON_RECEIVE, NEXTM, ("m",), "a",
                Q.RelAtom(M.MYNAME_REL, (Var("a"),)),
                react.name, (Var("m"),),
            ))
        # buffer cleanup on processing
        rules.append(UpdateRule(
            M.ON_RECEIVE, NEXTM, ("m",), "a",
            Q.RelAtom(M.MYNAME_REL, (Var("a"),)),
            REMOVEM, (Var("m"),),
        ))

        # message extraction
        comm = list(ag.comm_rules)
        extract = Q.q_and(
            Q.RelAtom(M.MYNAME_REL, (Var("a"),)),
            any_row_atom(Var("m")),
        )
        if mode == ASYNC_ORDERED:
            extract = Q.q_and(extract, Q.Not(Q.Exists("m2", Q.q_and(
                any_row_atom(Var("m2")),
                Q.LessAtom(MSGID_TYPE, Var("m2"), Var("m")),
            ), MSGID_TYPE)))
        comm.append(CommRule(extract, NEXTM, ("m",), "a"))

        agent_specs[sname] = AgentSpec(
            name=sname,
            schema=schema,
            constraints=ag.constraints + (id_constraint,),
            initial_db=ag.initial_db,
            comm_rules=tuple(comm),
            actions=actions,
            update_rules=tuple(rules),
        )

    return replace(
        spec,
        types=types,
        facets=facets,
        services=services,
        messages=messages,
        agent_specs=agent_specs,
    )
