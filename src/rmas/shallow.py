"""Compile facets away: from an arbitrary specification to a shallow one.

Every component facet becomes the base facet of its type; the dropped facet
formulas reappear as conjuncts on rule conditions and as database constraints,
including per-service input/output constraints mediated by accessory
`__input_f` / `__output_f` relations that actions populate and clean up one
step later.  Verdicts of any property are preserved.
"""

from __future__ import annotations

from dataclasses import replace

from .data import Facet, TypedRelationSchema
from . import queries as Q
from .model import (
    AgentSpec,
    CallTerm,
    FactTemplate,
    MessageDef,
    RmasSpec,
    ServiceDef,
    UpdateAction,
    UpdateEffect,
    UpdateRule,
)
from .queries import Query, Var


INPUT_PREFIX = "__input_"
OUTPUT_PREFIX = "__output_"


def is_shallow(spec: RmasSpec) -> bool:
    """True iff every facet used by schemas, services, messages, or action
    parameters has the trivially-true formula."""
    used: set[str] = set()
    for ag in spec.agent_specs.values():
        for rs in ag.schema.values():
            used.update(rs.facets)
        for act in ag.actions.values():
            used.update(f for _, f in act.params)
    for svc in spec.services.values():
        used.update(svc.input_facets)
        used.add(svc.output_facet)
    for msg in spec.messages.values():
        used.update(msg.payload_facets)
    return all(spec.facets[f].is_base() for f in used)


def input_rel(service: str) -> str:
    return INPUT_PREFIX + service


def output_rel(service: str) -> str:
    return OUTPUT_PREFIX + service


def is_accessory(rel: str) -> bool:
    return rel.startswith(INPUT_PREFIX) or rel.startswith(OUTPUT_PREFIX)


class _Compiler:
    def __init__(self, spec: RmasSpec) -> None:
        self.spec = spec
        self.base_of_type: dict[str, str] = {}
        for fname, f in spec.facets.items():
            if f.is_base() and f.base_type not in self.base_of_type:
                self.base_of_type[f.base_type] = fname
        # services that still need runtime facet checks
        self.checked_services = [
            name for name, svc in sorted(spec.services.items())
            if not all(spec.facets[f].is_base() for f in svc.input_facets)
            or not spec.facets[svc.output_facet].is_base()
        ]

    def base_name(self, type_name: str) -> str:
        if type_name not in self.base_of_type:
            self.base_of_type[type_name] = f"{type_name}_base"
        return self.base_of_type[type_name]

    def base_facets(self) -> dict[str, Facet]:
        # one base facet per type, absorbing every facet's initial objects
        out: dict[str, Facet] = {}
        for fname, f in self.spec.facets.items():
            bname = self.base_name(f.base_type)
            prev = out.get(bname)
            seeds = set(f.initial_objects)
            if not f.is_base():
                seeds |= Q.constants(f.formula)
            if prev is None:
                out[bname] = Facet(bname, f.base_type, initial_objects=frozenset(seeds))
            else:
                out[bname] = replace(prev, initial_objects=prev.initial_objects | seeds)
        return out

    def remap(self, facet_name: str) -> str:
        return self.base_name(self.spec.facets[facet_name].base_type)

    def facet_check(self, facet_name: str, var_or_term) -> Query:
        f = self.spec.facets[facet_name]
        if f.is_base():
            return Q.TrueQ()
        if isinstance(var_or_term, Var):
            return Q.map_free(f.formula, lambda x: var_or_term)
        # ground argument: the membership test is decidable right now
        if Q.facet_member(f, var_or_term.obj, self.spec.types):
            return Q.TrueQ()
        return Q.q_false()

    # -- per-spec pieces -----------------------------------------------------

    def compile_schema(self, ag: AgentSpec) -> dict[str, TypedRelationSchema]:
        schema = {
            name: TypedRelationSchema(name, tuple(self.remap(f) for f in rs.facets))
            for name, rs in ag.schema.items()
        }
        for name in self.checked_services:
            svc = self.spec.services[name]
            schema[input_rel(name)] = TypedRelationSchema(
                input_rel(name), tuple(self.remap(f) for f in svc.input_facets))
            schema[output_rel(name)] = TypedRelationSchema(
                output_rel(name), (self.remap(svc.output_facet),))
        return schema

    def component_constraints(self, ag: AgentSpec) -> list[Query]:
        out: list[Query] = []
        for rel in ag.schema:
            rs = ag.schema[rel]
            for i, fname in enumerate(rs.facets):
                f = self.spec.facets[fname]
                if f.is_base():
                    continue
                others = [f"_c{j}" for j in range(rs.arity)]
                terms = [Var("x") if j == i else Var(others[j]) for j in range(rs.arity)]
                atom: Query = Q.RelAtom(rel, tuple(terms))
                for j in range(rs.arity - 1, -1, -1):
                    if j != i:
                        atom = Q.Exists(others[j], atom, self.spec.facets[rs.facets[j]].base_type)
                out.append(Q.Forall("x", Q.q_implies(atom, self.facet_check(fname, Var("x"))),
                                    f.base_type))
        return out

    def service_constraints(self) -> list[Query]:
        out: list[Query] = []
        for name in self.checked_services:
            svc = self.spec.services[name]
            in_vars = [Var(f"x{i + 1}") for i in range(svc.arity)]
            checks = [self.facet_check(f, v) for f, v in zip(svc.input_facets, in_vars)]
            checks = [c for c in checks if not isinstance(c, Q.TrueQ)]
            if checks:
                body = Q.q_implies(Q.RelAtom(input_rel(name), tuple(in_vars)), Q.q_and(*checks))
                for v, f in reversed(list(zip(in_vars, svc.input_facets))):
                    body = Q.Forall(v.name, body, self.spec.facets[f].base_type)
                out.append(body)
            ocheck = self.facet_check(svc.output_facet, Var("x"))
            if not isinstance(ocheck, Q.TrueQ):
                out.append(Q.Forall("x", Q.q_implies(
                    Q.RelAtom(output_rel(name), (Var("x"),)), ocheck),
                    self.spec.facets[svc.output_facet].base_type))
        return out

    def compile_comm_rule(self, rule) -> Query:
        msg = self.spec.messages[rule.message]
        checks = [
            self.facet_check(fname, Var(v))
            for v, fname in zip(rule.payload_vars, msg.payload_facets)
        ]
        return Q.q_and(rule.query, *checks)

    def compile_update_rule(self, rule: UpdateRule, ag: AgentSpec) -> UpdateRule:
        act = ag.actions[rule.action]
        checks = [
            self.facet_check(fname, arg)
            for arg, (_, fname) in zip(rule.args, act.params)
        ]
        return replace(rule, condition=Q.q_and(rule.condition, *checks))

    def compile_action(self, act: UpdateAction) -> UpdateAction:
        params = tuple((p, self.remap(f)) for p, f in act.params)
        effects = []
        for eff in act.effects:
            adds = list(eff.adds)
            extra: list[FactTemplate] = []
            for tpl in eff.adds:
                for term in tpl.terms:
                    if isinstance(term, CallTerm) and term.service in self.checked_services:
                        in_tpl = FactTemplate(input_rel(term.service), term.args)
                        out_tpl = FactTemplate(output_rel(term.service), (term,))
                        if in_tpl not in extra:
                            extra.append(in_tpl)
                        if out_tpl not in extra:
                            extra.append(out_tpl)
            effects.append(replace(eff, adds=tuple(adds + extra)))
        # accessory facts are transient: every action clears the previous batch
        for name in self.checked_services:
            svc = self.spec.services[name]
            in_vars = tuple(Var(f"_i{i + 1}") for i in range(svc.arity))
            effects.append(UpdateEffect(
                guard=Q.RelAtom(input_rel(name), in_vars),
                dels=(FactTemplate(input_rel(name), in_vars),),
            ))
            effects.append(UpdateEffect(
                guard=Q.RelAtom(output_rel(name), (Var("_o"),)),
                dels=(FactTemplate(output_rel(name), (Var("_o"),)),),
            ))
        return UpdateAction(act.name, params, tuple(effects))

    def compile(self) -> RmasSpec:
        spec = self.spec
        agent_specs: dict[str, AgentSpec] = {}
        for name, ag in spec.agent_specs.items():
            constraints = list(ag.constraints)
            constraints += self.component_constraints(ag)
            constraints += self.service_constraints()
            agent_specs[name] = AgentSpec(
                name=name,
                schema=self.compile_schema(ag),
                constraints=tuple(constraints),
                initial_db=ag.initial_db,
                comm_rules=tuple(
                    replace(r, query=self.compile_comm_rule(r)) for r in ag.comm_rules
                ),
                actions={n: self.compile_action(a) for n, a in ag.actions.items()},
                update_rules=tuple(self.compile_update_rule(r, ag) for r in ag.update_rules),
            )
        facets = self.base_facets()
        services = {
            name: ServiceDef(name, tuple(self.remap(f) for f in svc.input_facets),
                             self.remap(svc.output_facet))
            for name, svc in spec.services.items()
        }
        messages = {
            name: MessageDef(name, tuple(self.remap(f) for f in msg.payload_facets))
            for name, msg in spec.messages.items()
        }
        return replace(
            spec,
            facets=facets,
            services=services,
            messages=messages,
            agent_specs=agent_specs,
        )


def compile_shallow(spec: RmasSpec) -> RmasSpec:
    """Rebuild the specification over base facets only; equivalent for every
    property once accessory relations are projected away."""
    if is_shallow(spec):
        return spec
    return _Compiler(spec).compile()
