"""The system specification model: services, messages, rules, agents.

An agent specification bundles a typed schema with constraints, an initial
database, proactive communicative rules, and reactive update rules that fire
update actions.  The institutional agent is an ordinary specification with
reserved relations for tracking agents and their specifications.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from .data import (
    AGENT_TYPE,
    INST_NAME,
    SPEC_TYPE,
    Database,
    DataObject,
    DataTypeDef,
    Facet,
    TypedRelationSchema,
    builtin_types,
    mk_symbol,
)
from . import queries as Q
from .queries import Const, Param, Query, Term, Var


class ModelError(Exception):
    pass


class ConflictingDeclaration(ModelError):
    pass


MYNAME_REL = "MyName"
AGENT_REL = "Agent"
SPEC_REL = "Spec"
HASSPEC_REL = "hasSpec"
OLDAG_REL = "OldAg"
FRESHAG_REL = "FreshAg"
GETN_SERVICE = "getN"
AGENT_FACET = "AF"
SPEC_FACET = "BF"


@dataclass(frozen=True)
class ServiceDef:
    """An abstract external function returning a fresh typed value."""

    name: str
    input_facets: tuple[str, ...]
    output_facet: str

    @property
    def arity(self) -> int:
        return len(self.input_facets)


@dataclass(frozen=True)
class MessageDef:
    name: str
    payload_facets: tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.payload_facets)

    def var_types(self, payload_vars, peer_var: str, facets) -> dict[str, str]:
        """The types an exchange of this message gives a rule's variables:
        the peer is an agent, each payload variable its facet's base type."""
        return {peer_var: AGENT_TYPE,
                **{v: facets[f].base_type for v, f in zip(payload_vars, self.payload_facets)}}


@dataclass(frozen=True)
class CommRule:
    """Q(t, x) enables M(x) to t."""

    query: Query
    message: str
    payload_vars: tuple[str, ...]
    target_var: str


@dataclass(frozen=True)
class CallTerm:
    """A service-call term f(args) usable in add-fact templates."""

    service: str
    args: tuple[Term, ...]


TemplateTerm = Union[Var, Param, Const, CallTerm]


@dataclass(frozen=True)
class FactTemplate:
    rel: str
    terms: tuple[TemplateTerm, ...]


@dataclass(frozen=True)
class UpdateEffect:
    """guard ~> add A del D, applied in parallel with priority to adds."""

    guard: Query
    adds: tuple[FactTemplate, ...] = ()
    dels: tuple[FactTemplate, ...] = ()


@dataclass(frozen=True)
class UpdateAction:
    name: str
    params: tuple[tuple[str, str], ...]  # (param name, facet name)
    effects: tuple[UpdateEffect, ...]


ON_SEND = "send"
ON_RECEIVE = "receive"


@dataclass(frozen=True)
class UpdateRule:
    """on M(x) to t / from s  if Q then action(args)."""

    direction: str  # ON_SEND | ON_RECEIVE
    message: str
    payload_vars: tuple[str, ...]
    peer_var: str
    condition: Query
    action: str
    args: tuple[Term, ...]  # Var or Const arguments


@dataclass(frozen=True)
class AgentSpec:
    name: str
    schema: dict[str, TypedRelationSchema]
    constraints: tuple[Query, ...]
    initial_db: Database
    comm_rules: tuple[CommRule, ...]
    actions: dict[str, UpdateAction]
    update_rules: tuple[UpdateRule, ...]

    def __hash__(self) -> int:
        return hash(self.name)


@dataclass(frozen=True)
class RmasSpec:
    types: dict[str, DataTypeDef]
    facets: dict[str, Facet]
    services: dict[str, ServiceDef]
    messages: dict[str, MessageDef]
    agent_specs: dict[str, AgentSpec]  # includes the institutional spec
    institutional: str  # name of the institutional spec
    initial_agents: tuple[tuple[str, str], ...] = ()  # (agent name, spec name)
    mode_flags: frozenset[str] = frozenset()

    @property
    def inst_spec(self) -> AgentSpec:
        return self.agent_specs[self.institutional]

    def uses_succ(self) -> bool:
        return any(t.has_succ for t in self.types.values()) or "unsafe-succ" in self.mode_flags

    def dense_types(self) -> list[DataTypeDef]:
        return [t for t in sorted(self.types.values(), key=lambda t: t.name) if t.has_less]

    def union_schema(self) -> dict[str, Optional[TypedRelationSchema]]:
        """Every spec's relations by name, None for a name that two specs
        declare with different typings: no property can type it."""
        out: dict[str, Optional[TypedRelationSchema]] = {}
        for spec in self.agent_specs.values():
            for name, rs in spec.schema.items():
                out[name] = rs if out.get(name, rs) == rs else None
        return out

    def schema_context(self, spec: Optional[AgentSpec] = None) -> Q.SchemaContext:
        schema = spec.schema if spec is not None else self.union_schema()
        return Q.SchemaContext(schema=schema, facets=self.facets, types=self.types)


def spec_constants(spec: RmasSpec, registry: bool = True) -> set[DataObject]:
    """Every data object textually mentioned anywhere in the specification;
    with registry False, not those that only the agent declarations and the
    institutional agent's initial Agent and hasSpec facts mention."""
    out: set[DataObject] = set()
    for f in spec.facets.values():
        out |= f.initial_objects
        if not f.is_base():
            out |= Q.constants(f.formula)
    for sname, ag in spec.agent_specs.items():
        for rel, args in ag.initial_db:
            if registry or sname != spec.institutional or rel not in (AGENT_REL, HASSPEC_REL):
                out |= set(args)
        for c in ag.constraints:
            out |= Q.constants(c)
        for r in ag.comm_rules:
            out |= Q.constants(r.query)
        for r in ag.update_rules:
            out |= Q.constants(r.condition)
            out |= {t.obj for t in r.args if isinstance(t, Const)}
        for act in ag.actions.values():
            for eff in act.effects:
                out |= Q.constants(eff.guard)
                for tpl in eff.adds + eff.dels:
                    out |= _template_constants(tpl)
    out.add(mk_symbol(AGENT_TYPE, INST_NAME))
    for name, _ in spec.initial_agents if registry else ():
        out.add(mk_symbol(AGENT_TYPE, name))
    for sname in spec.agent_specs:
        out.add(mk_symbol(SPEC_TYPE, sname))
    return out


def _template_constants(tpl: FactTemplate) -> set[DataObject]:
    out: set[DataObject] = set()
    for t in tpl.terms:
        if isinstance(t, Const):
            out.add(t.obj)
        elif isinstance(t, CallTerm):
            out |= {a.obj for a in t.args if isinstance(a, Const)}
    return out


def initial_data_domain(spec: RmasSpec) -> dict[str, frozenset[DataObject]]:
    """Per-type initial data objects: facet seeds closed over all constants
    mentioned in initial databases, rules, actions, and facet formulas."""
    per_type: dict[str, set[DataObject]] = {t: set() for t in spec.types}
    for obj in spec_constants(spec):
        per_type.setdefault(obj.type_name, set()).add(obj)
    return {t: frozenset(objs) for t, objs in per_type.items()}


# ---------------------------------------------------------------------------
# Built-in declarations: the parser seeds them, the serializer leaves them
# out and install_institutional completes a spec with them


def builtin_declarations() -> tuple[dict[str, DataTypeDef], dict[str, Facet],
                                    dict[str, ServiceDef]]:
    """The types, facets and services of every system, by name."""
    facets = {AGENT_FACET: Facet(AGENT_FACET, AGENT_TYPE), SPEC_FACET: Facet(SPEC_FACET, SPEC_TYPE)}
    return builtin_types(), facets, {GETN_SERVICE: ServiceDef(GETN_SERVICE, (), AGENT_FACET)}


def spec_relations(institutional: bool) -> dict[str, TypedRelationSchema]:
    """The relations every spec declares: MyName, and in the institutional
    spec the registry as well."""
    myname = {MYNAME_REL: TypedRelationSchema(MYNAME_REL, (AGENT_FACET,))}
    return {**myname, **institutional_relations()} if institutional else myname


def institutional_relations() -> dict[str, TypedRelationSchema]:
    return {
        AGENT_REL: TypedRelationSchema(AGENT_REL, (AGENT_FACET,)),
        SPEC_REL: TypedRelationSchema(SPEC_REL, (SPEC_FACET,)),
        HASSPEC_REL: TypedRelationSchema(HASSPEC_REL, (AGENT_FACET, SPEC_FACET)),
        OLDAG_REL: TypedRelationSchema(OLDAG_REL, (AGENT_FACET,)),
        FRESHAG_REL: TypedRelationSchema(FRESHAG_REL, (AGENT_FACET,)),
    }


def institutional_actions() -> dict[str, UpdateAction]:
    """The built-in `newAg` and `remAg` bodies of the institutional agent,
    by name; a spec may replace either."""
    getn = CallTerm(GETN_SERVICE, ())
    new_ag = UpdateAction(
        name="newAg",
        params=(("s", SPEC_FACET),),
        effects=(
            UpdateEffect(
                guard=Q.RelAtom(OLDAG_REL, (Var("a"),)),
                dels=(FactTemplate(OLDAG_REL, (Var("a"),)),),
            ),
            UpdateEffect(
                guard=Q.RelAtom(FRESHAG_REL, (Var("a"),)),
                dels=(FactTemplate(FRESHAG_REL, (Var("a"),)),),
            ),
            UpdateEffect(
                guard=Q.TrueQ(),
                adds=(
                    FactTemplate(FRESHAG_REL, (getn,)),
                    FactTemplate(AGENT_REL, (getn,)),
                    FactTemplate(HASSPEC_REL, (getn, Param("s"))),
                ),
            ),
            UpdateEffect(
                guard=Q.RelAtom(AGENT_REL, (Var("a"),)),
                adds=(FactTemplate(OLDAG_REL, (Var("a"),)),),
            ),
        ),
    )
    rem_ag = UpdateAction(
        name="remAg",
        params=(("a", AGENT_FACET),),
        effects=(
            UpdateEffect(
                guard=Q.RelAtom(HASSPEC_REL, (Param("a"), Var("s"))),
                dels=(
                    FactTemplate(AGENT_REL, (Param("a"),)),
                    FactTemplate(HASSPEC_REL, (Param("a"), Var("s"))),
                ),
            ),
        ),
    )
    return {new_ag.name: new_ag, rem_ag.name: rem_ag}


def freshness_constraint() -> Query:
    return Q.Forall(
        "a",
        Q.q_implies(
            Q.q_and(Q.RelAtom(OLDAG_REL, (Var("a"),)), Q.RelAtom(FRESHAG_REL, (Var("a"),))),
            Q.q_false(),
        ),
        AGENT_TYPE,
    )


def _complete(declared: dict, builtin: dict, kind: str) -> dict:
    """declared with each built-in it lacks; one it declares differently
    raises ConflictingDeclaration."""
    out = dict(declared)
    for name, b in builtin.items():
        if out.setdefault(name, b) != b:
            raise ConflictingDeclaration(f"built-in {kind} {name!r} redeclared differently")
    return out


def install_institutional(spec: RmasSpec) -> RmasSpec:
    """Complete the built-in machinery of the institutional agent.

    Adds the built-in types, facets and services, each spec's MyName and the
    institutional Agent/Spec/hasSpec registry with OldAg/FreshAg
    bookkeeping, the newAg/remAg actions with the freshness constraint, and
    the initialization facts.  Idempotent; raises ConflictingDeclaration
    when a declaration clashes with a built-in.
    """
    b_types, b_facets, b_services = builtin_declarations()
    types = _complete(spec.types, b_types, "type")
    facets = _complete(spec.facets, b_facets, "facet")
    services = _complete(spec.services, b_services, "service")
    agent_specs = {
        name: replace(ag, schema=_complete(
            ag.schema, spec_relations(name == spec.institutional), "relation"))
        for name, ag in spec.agent_specs.items()}

    inst = agent_specs[spec.institutional]
    # a spec may carry customized newAg/remAg bodies (e.g. facet-compiled ones)
    actions = dict(inst.actions)
    for name, act in institutional_actions().items():
        actions.setdefault(name, act)

    constraints = list(inst.constraints)
    fresh_c = freshness_constraint()
    if fresh_c not in constraints:
        constraints.append(fresh_c)

    inst_obj = mk_symbol(AGENT_TYPE, INST_NAME)
    init = set(inst.initial_db)
    init.add((AGENT_REL, (inst_obj,)))
    init.add((MYNAME_REL, (inst_obj,)))
    init.add((HASSPEC_REL, (inst_obj, mk_symbol(SPEC_TYPE, spec.institutional))))
    for sname in spec.agent_specs:
        init.add((SPEC_REL, (mk_symbol(SPEC_TYPE, sname),)))
    for ag_name, spec_name in spec.initial_agents:
        if spec_name not in spec.agent_specs:
            raise ModelError(f"initial agent {ag_name!r} uses undeclared spec {spec_name!r}")
        init.add((AGENT_REL, (mk_symbol(AGENT_TYPE, ag_name),)))
        init.add((HASSPEC_REL, (mk_symbol(AGENT_TYPE, ag_name), mk_symbol(SPEC_TYPE, spec_name))))

    agent_specs[spec.institutional] = replace(
        inst,
        actions=actions,
        constraints=tuple(constraints),
        initial_db=Database(init),
    )

    return replace(
        spec,
        types=types,
        facets=facets,
        services=services,
        agent_specs=agent_specs,
    )
