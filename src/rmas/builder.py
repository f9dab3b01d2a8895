"""Transition-system construction: one engine, five modes.

The modes differ only in how they validate candidate databases (schema
conformance vs. constraints alone), how service results are chosen (finite
pools vs. commitment tuples), whether dense comparisons run on the carrier or
on maintained lessThan facts, and where fresh values come from (synthesis vs.
recycling of passive objects).  Exploration is a breadth-first closure that
merges equal states, each a tuple of frozensets of facts and its own dedup
key; repeated builds are byte-identical.

What a builder keeps for its whole life: one plan per distinct typed query
(with its variables' types and inputs), compiled when the builder is made,
so specs that repeat a guard or a constraint share its plan, with whether
each group of plans reads the order's facts (never where comparisons run on
the carrier); for each exchange participant's spec, direction(s) and
message, whether any update rule reacts and whether the actions it calls
write hasSpec (`_reacting`), so that `_exchange` skips a participant no rule
reacts to and reads the roster again only after an action that writes
hasSpec; one `Database` per distinct fact set (`_intern`), so states
share equal databases; each database's objects by type and each order's
ranked objects; and, keyed by the facts they read, the answers of
`enabled_messages` and `_acceptable`, the roster of registered agents
(`current_agents`, the one reader of inst's hasSpec facts, read once per
inst fact set) and the ranked dense order.  Two more kinds serve
`_exchange`: a participant's next database ("participant"), keyed by its
spec, direction(s), the message, payload and peer and its database's
facts; an entry whose facts carry call tokens also keeps its substitution
table, the interned candidate for each tuple of results of its calls.  And
a step's service-call branches ("branches"), keyed by the call tokens, the
dense order's key (order facts and each dense type's active objects), each
result type's active objects and, in abstract-recycle, its passive pool.
The "enabled", "participant" and "accept" keys carry the order only if
their plans read it, and then only the part the evaluation can see
(`_seen_order`): the lessThan facts between the database's objects (for
"accept", the candidate's under its branch's order), the dense constants
and, for a participant, the payload.  So states that rank other agents'
objects differently share an agent's entries.
What lives for one BFS layer only, in flat modes: each state core's
successors, where a core is the agents' databases and the dense order over
the active objects (`_StepCache.dense_order`).  States that differ only in
the lessThan facts of objects that have just left share one expansion; the
memo cannot outlive the layer, since the passive pools that recycling draws
from come from the layer's snapshot of the objects used so far.
What lives for one step only (`_StepCache`): the state's databases by agent,
its active objects and passive pools, the indexes over the databases the
step's queries read, and its dense order and that order's key.
`step_successors` makes the step and passes it to every per-step method
(`enabled_messages`, `collect_reactions`, `get_facts`, `_exchange` and the
service-result branches); a caller outside a build makes its own.
Skipped, since it cannot change a successor: (1) the unchanged successor of
all but a step's first exchange that changes nothing; (2) evaluating a true
condition or guard; (3) the acceptance check (and memo entry) of a spec with
no constraints, unless conformance is checked; (4) an unset state bound.
Symmetry: a flat build expands one state per class of states equal up to
renaming interchangeable agents (`symmetry`) and derives the other states'
successors by renaming (`_by_symmetry`).  It builds the system that
expanding every state builds, with the same steps and successors but fewer
messages, query evaluations and acceptance checks.
"""

from __future__ import annotations

import gc
import itertools
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .data import (
    AGENT_TYPE,
    INST_NAME,
    Database,
    DataObject,
    Fact,
    UNDEF,
    UnknownRelation,
    carrier_less,
    mk_symbol,
)
from . import model as M
from . import queries as Q
from . import symmetry
from .commitments import (
    CallToken,
    CommitmentTuple,
    InconsistentOrder,
    MIDPOINT,
    OPAQUE,
    PoolReservoir,
    SynthesisReservoir,
    assign_results,
    cell_object,
    check_total_order,
    enumerate_dense_commitments,
    enumerate_equality_commitments,
)
from .model import CallTerm, CommRule, RmasSpec, UpdateRule, initial_data_domain
from .queries import (CarrierOrder, Const, FactOrder, MissingOrderFacts, Param, Var, conforms,
                      facet_member, lessthan_rel)
from .shallow import is_accessory, is_shallow


MODE_CONCRETE = "concrete-bounded"
MODE_SHALLOW = "shallow"
MODE_FB = "fb-commitments"
MODE_FB_FLAT = "fb-flat"
MODE_ABSTRACT = "abstract-recycle"

MODES = (MODE_CONCRETE, MODE_SHALLOW, MODE_FB, MODE_FB_FLAT, MODE_ABSTRACT)

INST = mk_symbol(AGENT_TYPE, INST_NAME)


class BuildError(Exception):
    pass


class ConfigError(BuildError):
    pass


class SuccRejected(BuildError):
    pass


class StateBoundExceeded(BuildError):
    def __init__(self, agent: str, size: int) -> None:
        super().__init__(f"agent {agent!r} stores {size} objects, over the bound")
        self.agent = agent
        self.size = size


@dataclass(frozen=True)
class BuildConfig:
    mode: str = MODE_CONCRETE
    state_bound: Optional[int] = None
    max_states: Optional[int] = None
    max_depth: Optional[int] = None
    # finite result pools per type name (concrete-bounded / shallow modes)
    pools: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")

    @property
    def uses_commitments(self) -> bool:
        return self.mode in (MODE_FB, MODE_FB_FLAT, MODE_ABSTRACT)

    @property
    def flat(self) -> bool:
        return self.mode in (MODE_FB_FLAT, MODE_ABSTRACT)

    @property
    def check_conformance(self) -> bool:
        return self.mode == MODE_CONCRETE


class SystemState(NamedTuple):
    """Databases of the active agents (inst always present) plus, in flat
    modes, the explicit order-fact database; its own dedup key."""

    agent_dbs: tuple[tuple[DataObject, Database], ...]  # sorted by agent key
    order_db: Optional[Database] = None

    def db(self, agent: DataObject) -> Optional[Database]:
        for name, d in self.agent_dbs:
            if name == agent:
                return d
        return None

    def inst_db(self) -> Database:
        d = self.db(INST)
        if d is None:
            raise BuildError("institutional agent missing from state")
        return d

    def adom(self, type_name: Optional[str] = None) -> set[DataObject]:
        out: set[DataObject] = set()
        for _, d in self.agent_dbs:
            out |= d.adom(type_name)
        return out


def make_state(dbs: dict[DataObject, Database], order_db: Optional[Database]) -> SystemState:
    items = tuple(sorted(dbs.items(), key=lambda kv: kv[0].sort_key()))
    return SystemState(items, order_db)


# the objects frozen that no caller froze: from Python 3.12 on, the
# interpreter's start-up objects until a hand-off thaws them; else none
_frozen_unasked = gc.get_freeze_count()


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the body with the cyclic garbage collector paused.  A build or a
    check makes many objects and no reference cycles, so a collection would
    only walk its heap.  Then a freeze and a thaw hand every object to the
    oldest generation unwalked, unless a caller has frozen objects.  On
    Python 3.12 the first thaw also thaws the interpreter's start-up
    objects, which it froze itself."""
    global _frozen_unasked
    was_enabled = gc.isenabled()
    hand_off = gc.get_freeze_count() <= _frozen_unasked
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            if hand_off:
                gc.freeze()
                gc.unfreeze()
                _frozen_unasked = 0
            gc.enable()


def state_key(state: SystemState) -> SystemState:
    """Dedup key: the state itself.  Two states are equal iff the same
    agents hold the same facts and the order facts are the same, and a
    database reused from the parent state hashes at no cost: a frozenset
    caches its hash.  The function stays only because the benchmark's span
    tracer wraps it and counts one call per successor and per build; ROADMAP
    item 1 can drop it together with `mucalc.flatten_property`."""
    return state


@dataclass
class TransitionSystem:
    states: list[SystemState] = field(default_factory=list)
    edges: list[tuple[int, int]] = field(default_factory=list)
    initial: int = 0
    truncated: bool = False
    mode: str = MODE_CONCRETE
    stats: dict = field(default_factory=dict)
    # the model checker's tables (`mucalc.SystemTables`), made by the first
    # check on the system and shared by every later one
    check_tables: Optional[object] = field(default=None, repr=False, compare=False)


# ---------------------------------------------------------------------------
# Pending facts: facts that may still embed service-call tokens

PendingArg = Union[DataObject, CallToken]
PendingFact = tuple[str, tuple[PendingArg, ...]]


def _substitute(facts: Iterable[PendingFact], sigma: dict[CallToken, DataObject]) -> set[Fact]:
    return {(rel, tuple(sigma[a] if isinstance(a, CallToken) else a for a in args))
            for rel, args in facts}


# ---------------------------------------------------------------------------
# The engine


class Builder:
    def __init__(self, spec: RmasSpec, config: BuildConfig) -> None:
        self.spec = spec
        self.config = config
        if config.uses_commitments and spec.uses_succ():
            raise SuccRejected(
                "successor-equipped types admit no finite abstraction; "
                "use concrete-bounded exploration")
        if config.mode != MODE_CONCRETE and not is_shallow(spec):
            raise ConfigError(f"mode {config.mode!r} requires a shallow-typed spec; "
                              "run the facet compiler first")
        self.const_domain = initial_data_domain(spec)
        self.flat = config.flat
        self._prepare()

    # -- static preparation ---------------------------------------------------

    def _prepare(self) -> None:
        spec = self.spec
        self.types = spec.types
        self.dense_types = [t.name for t in spec.dense_types()]
        self.unordered_types = [
            t for t in sorted(spec.types) if t not in self.dense_types
        ]
        # every query is typed here and each distinct typed query (with its
        # variables' types and inputs) compiled once: `step_successors` only
        # runs plans
        plans: dict[tuple, Q.Plan] = {}

        def plan(q, ctx, seeds, param_types=None, inputs=(), literal=False) -> Optional[Q.Plan]:
            typed, var_types = Q.typecheck_query(q, ctx, param_types=param_types,
                                                 seed_types=seeds)
            if literal and isinstance(typed, Q.TrueQ):
                return None
            key = (typed, tuple(sorted(var_types.items())), frozenset(inputs))
            got = plans.get(key)
            if got is None:
                got = plans[key] = Q.compile_query(typed, var_types, inputs)
            return got

        self.comm_plans: dict[str, list[tuple[CommRule, Q.Plan]]] = {}
        # a literal true condition or guard has the plan None
        self.rules_by_msg: dict[tuple[str, str, str],
                                list[tuple[UpdateRule, Optional[Q.Plan]]]] = {}
        self.guard_plans: dict[tuple[str, str], list[Optional[Q.Plan]]] = {}
        self.constraint_plans: dict[str, list[Q.Plan]] = {}
        # for the builder's life: one database per fact set, each one's
        # objects by type, each order's ranked objects, and the answers of
        # the agent-local calls
        self._dbs: dict[Database, Database] = {}
        self._adoms: dict[Database, dict[str, tuple[DataObject, ...]]] = {}
        self._memo: dict[tuple, object] = {}
        self._ranked: dict[Database, frozenset[DataObject]] = {}
        self._dense_consts = frozenset().union(
            *(self.const_domain.get(t, ()) for t in self.dense_types))
        for sname, ag in spec.agent_specs.items():
            ctx = spec.schema_context(ag)
            self.comm_plans[sname] = [
                (rule, plan(rule.query, ctx, spec.messages[rule.message].var_types(
                    rule.payload_vars, rule.target_var, spec.facets)))
                for rule in ag.comm_rules
            ]
            for rule in ag.update_rules:
                seeds = spec.messages[rule.message].var_types(
                    rule.payload_vars, rule.peer_var, spec.facets)
                self.rules_by_msg.setdefault((sname, rule.direction, rule.message), []).append(
                    (rule, plan(rule.condition, ctx, seeds, inputs=seeds, literal=True)))
            for aname, act in ag.actions.items():
                ptypes = {p: spec.facets[f].base_type for p, f in act.params}
                self.guard_plans[(sname, aname)] = [
                    plan(eff.guard, ctx, {}, ptypes, literal=True) for eff in act.effects
                ]
            self.constraint_plans[sname] = [plan(c, ctx, {}) for c in ag.constraints]
        # specs whose candidates have nothing to check
        self._unchecked = frozenset() if self.config.check_conformance else frozenset(
            s for s, ps in self.constraint_plans.items() if not ps)
        # whether a group of plans reads the order's facts, by the memo kind
        # and the key of the group's plans (see `_seen_order`): never where
        # comparisons run on the carrier
        groups = [(("enabled", s), [p for _, p in ps]) for s, ps in self.comm_plans.items()]
        groups += [(("accept", s), ps) for s, ps in self.constraint_plans.items()]
        self._reads_order = {k: self.flat and any(p.reads_order for p in ps) for k, ps in groups}
        # per participant group (spec, direction(s), message) that some rule
        # reacts to: whether its rules read the order through their
        # conditions or the guards of the actions they call, and whether
        # those actions write hasSpec, the only facts that change the roster
        self._reacting: dict[tuple[str, tuple[str, ...], str], tuple[bool, bool]] = {}
        for (s, d, m), ps in self.rules_by_msg.items():
            reads = self.flat and (any(p and p.reads_order for _, p in ps) or any(
                g and g.reads_order for rule, _ in ps for g in self.guard_plans[(s, rule.action)]))
            writes = any(tpl.rel == M.HASSPEC_REL for rule, _ in ps
                         for eff in spec.agent_specs[s].actions[rule.action].effects
                         for tpl in eff.adds + eff.dels)
            for dirs in ((d,), (M.ON_SEND, M.ON_RECEIVE)):
                old = self._reacting.get((s, dirs, m), (False, False))
                self._reacting[(s, dirs, m)] = (old[0] or reads, old[1] or writes)
        # the groups of interchangeable agents and their labeler; the kept
        # expansions of each class of states equal up to renaming them, by
        # the passive pools they read; each renaming between two labelings,
        # and by renaming the images of the fact sets met so far
        self._groups = symmetry.groups(spec, self.flat and not any(
            writes for _, writes in self._reacting.values()))
        self._labeler = symmetry.Labeler(self._groups)
        self._classes: dict[tuple, dict[frozenset, _Expansion]] = {}
        self._renamings: dict[tuple, tuple] = {}
        self._images: dict[tuple, dict[Database, Database]] = {}

    # -- initial state ----------------------------------------------------------

    def initial_state(self) -> SystemState:
        """Each agent that inst's initial database registers, inst among
        them, with its first database."""
        dbs = {agent: self._newcomer(agent, sname)
               for agent, sname in self.current_agents(self.spec.inst_spec.initial_db)}
        order_db = self._intern(self._initial_order_db()) if self.flat else None
        return make_state(dbs, order_db)

    def _initial_order_db(self) -> Database:
        # on a dense type's carrier the canonical sort is the carrier order
        return _order_db({t: sorted(self.const_domain.get(t, frozenset()),
                                    key=DataObject.sort_key)
                          for t in self.dense_types})

    # -- what the builder keeps -------------------------------------------------------

    def _intern(self, db: Database) -> Database:
        """The builder's one database with db's facts."""
        return self._dbs.setdefault(db, db)

    def _objects_by_type(self, db: Database) -> dict[str, tuple[DataObject, ...]]:
        """db's objects by type, read once per fact set; do not mutate."""
        objs = self._adoms.get(db)
        if objs is None:
            objs = self._adoms[db] = {
                t: tuple(o) for t, o in Q.objects_by_type(db).items()}
        return objs

    def _seen_order(self, order: FactOrder, db: Database,
                    extra: tuple[DataObject, ...] = ()) -> frozenset[Fact]:
        """The part of order that an evaluation over db can read: its
        lessThan facts between two of the objects the evaluation sees, db's,
        the dense constants and extra.  That is the order's own fact set when
        they include every object it ranks, and no fact when they include at
        most one, since `FactOrder.less` never reads a fact to compare an
        object with itself."""
        facts = order.order_db
        ranked = self._ranked.get(facts)
        if ranked is None:
            ranked = self._ranked[facts] = frozenset(o for _, args in facts for o in args)
        objs = self._objects_by_type(db)
        hidden = ranked.difference(self._dense_consts, extra,
                                   *map(objs.get, self.dense_types, itertools.repeat(())))
        if not hidden:
            return facts
        if len(ranked) - len(hidden) < 2:
            return frozenset()
        return frozenset(f for f in facts if f[1][0] not in hidden and f[1][1] not in hidden)

    # -- figure building blocks ----------------------------------------------------

    def current_agents(self, inst_db: Database) -> list[tuple[DataObject, str]]:
        """The agents that inst_db registers and their specs, in agent
        order; read once per fact set, a failing one on every call."""
        key = ("agents", inst_db)
        got = self._memo.get(key)
        if got is None:
            out = []
            bound: dict[DataObject, str] = {}
            for agent, spec_obj in sorted(inst_db.facts_for(M.HASSPEC_REL),
                                          key=lambda a: tuple(x.sort_key() for x in a)):
                sname = spec_obj.value
                if sname not in self.spec.agent_specs:
                    raise BuildError(f"agent {agent!r} has unknown spec {sname!r}")
                if bound.get(agent, sname) != sname:
                    raise BuildError(f"agent {agent!r} is registered under two specs")
                if agent not in bound:
                    bound[agent] = sname
                    out.append((agent, sname))
            got = self._memo[key] = tuple(out)
        return list(got)

    def _newcomer(self, agent: DataObject, sname: str) -> Database:
        """A newly registered agent's first database: its spec's initial
        database and its name."""
        return self._intern(self.spec.agent_specs[sname].initial_db.apply(
            adds=[(M.MYNAME_REL, (agent,))], dels=[]))

    def enabled_messages(
        self, step: _StepCache, sender: DataObject, sname: str,
        active: set[DataObject],
    ) -> list[tuple[str, tuple[DataObject, ...], DataObject]]:
        db = step.dbs[sender]
        key = ("enabled", sender, sname, db,
               self._seen_order(step.order, db) if self._reads_order[("enabled", sname)]
               else None)
        msgs = self._memo.get(key)
        if msgs is None:
            ix = step.index(db)
            out: set[tuple[str, tuple[DataObject, ...], DataObject]] = set()
            for rule, plan in self.comm_plans[sname]:
                msg = self.spec.messages[rule.message]
                for theta in Q.eval_query(plan, ix, step.order):
                    target = theta.get(rule.target_var)
                    if target is None:
                        continue
                    payload = tuple(theta[v] for v in rule.payload_vars)
                    if self.config.check_conformance:
                        if not all(
                            _member(self.spec, f, o)
                            for f, o in zip(msg.payload_facets, payload)
                        ):
                            continue
                    out.add((rule.message, payload, target))
            msgs = self._memo[key] = tuple(sorted(
                out, key=lambda m: (m[0], tuple(o.sort_key() for o in m[1]),
                                    m[2].sort_key())))
        return [m for m in msgs if m[2] in active]

    def collect_reactions(
        self, step: _StepCache, agent: DataObject, sname: str, direction: str,
        message: str, payload: tuple[DataObject, ...], peer: DataObject,
    ) -> list[tuple[str, tuple[DataObject, ...]]]:
        ix = step.index(step.dbs[agent])
        ag = self.spec.agent_specs[sname]
        out: set[tuple[str, tuple[DataObject, ...]]] = set()
        for rule, plan in self.rules_by_msg.get((sname, direction, message), ()):
            binding = {rule.peer_var: peer}
            binding.update(dict(zip(rule.payload_vars, payload)))
            if plan and not Q.eval_query(plan, ix, step.order, binding=binding):
                continue
            act = ag.actions[rule.action]
            args = tuple(
                binding[a.name] if isinstance(a, Var) else a.obj for a in rule.args
            )
            if self.config.check_conformance:
                if not all(_member(self.spec, f, o)
                           for (_, f), o in zip(act.params, args)):
                    continue
            out.add((rule.action, args))
        return sorted(out, key=_instance_key)

    def get_facts(
        self, step: _StepCache, agent: DataObject, sname: str,
        instances: list[tuple[str, tuple[DataObject, ...]]],
    ) -> tuple[frozenset[Fact], frozenset[PendingFact]]:
        ix = step.index(step.dbs[agent])
        ag = self.spec.agent_specs[sname]
        to_del: set[Fact] = set()
        to_add: set[PendingFact] = set()
        for aname, args in instances:
            act = ag.actions[aname]
            values = {p: v for (p, _), v in zip(act.params, args)}
            for eff, plan in zip(act.effects, self.guard_plans[(sname, aname)]):
                for theta in Q.eval_query(plan, ix, step.order, params=values) if plan else ({},):
                    for tpl in eff.adds:
                        to_add.add(_ground_template(tpl, theta, values))
                    for tpl in eff.dels:
                        fact = _ground_template(tpl, theta, values)
                        if any(isinstance(a, CallToken) for a in fact[1]):
                            raise BuildError(f"service call in delete fact {fact[0]!r}")
                        to_del.add(fact)  # type: ignore[arg-type]
        return frozenset(to_del), frozenset(to_add)

    # -- service results -------------------------------------------------------------

    def _sigma_branches(
        self, step: _StepCache, calls: set[CallToken],
    ) -> Iterable[tuple[dict[CallToken, DataObject], Optional[Database]]]:
        """All choices of service results, with the rebuilt full order DB in
        flat modes (None otherwise); do not mutate."""
        if not self.config.uses_commitments:
            return self._pool_branches(calls)
        return self._commitment_branches(step, calls)

    def _pool_branches(self, calls):
        tokens = sorted(calls, key=CallToken.sort_key)
        choices: list[list[DataObject]] = []
        for tok in tokens:
            svc = self.spec.services[tok.service]
            out_facet = self.spec.facets[svc.output_facet]
            pool = self.config.pools.get(out_facet.base_type)
            if pool is None:
                raise ConfigError(
                    f"mode {self.config.mode!r} needs a finite pool for type "
                    f"{out_facet.base_type!r} (service {tok.service!r})")
            cands = [o for o in pool]
            if self.config.check_conformance:
                cands = [o for o in cands if _member(self.spec, svc.output_facet, o)]
            choices.append(sorted(cands, key=DataObject.sort_key))
        for combo in itertools.product(*choices):
            yield dict(zip(tokens, combo)), None

    def _commitment_branches(self, step, calls):
        """One branch per commitment tuple over the types that receive a call
        result.  A step without calls has the one branch that substitutes
        nothing and keeps the step's order.  The branches depend only on the
        calls, the step's dense order, each result type's active objects and,
        when recycling, its passive pool, which the reservoir draws from: the
        builder keeps them by those (a raising enumeration keeps nothing)."""
        seqs, order_now = step.dense_order()
        if not calls:
            return (({}, order_now),)
        spec = self.spec
        toks: dict[str, list[CallToken]] = {}
        for tok in sorted(calls, key=CallToken.sort_key):
            t = spec.facets[spec.services[tok.service].output_facet].base_type
            toks.setdefault(t, []).append(tok)
        types = [t for t in self.unordered_types + self.dense_types if t in toks]
        passive = {t: step.passive(t) for t in types} if self.config.mode == MODE_ABSTRACT else {}
        key = ("branches", frozenset(calls), step.dense_key(),
               tuple(step.active(t) for t in types), tuple(passive.values()))
        got = self._memo.get(key)
        if got is not None:
            return got

        per_type: list[tuple[str, bool, list]] = []
        for t in types:
            elems = sorted(step.active(t), key=DataObject.sort_key) + toks[t]
            dense = t in seqs
            per_type.append((t, dense, list(
                enumerate_dense_commitments(elems, step.less(t)) if dense
                else enumerate_equality_commitments(elems))))

        policy = MIDPOINT if self.config.mode == MODE_FB else OPAQUE
        out = []
        for combo in itertools.product(*(cs for _, _, cs in per_type)):
            h = CommitmentTuple()
            for (t, is_dense, _), c in zip(per_type, combo):
                if is_dense:
                    h.dense[t] = c
                else:
                    h.equality[t] = c
            reservoirs = {t: self._reservoir(t, h, passive.get(t)) for t in types}
            sigma = assign_results(h, reservoirs, policy)
            out.append((sigma, self._rebuild_order(h, sigma, seqs) if self.flat else None))
        got = self._memo[key] = tuple(out)
        return got

    def _reservoir(self, t: str, h: CommitmentTuple, passive: Optional[frozenset[DataObject]]):
        """Recycle t's passive objects (given in abstract-recycle only) if
        they suffice for the free cells of h; synthesize otherwise."""
        carrier = self.spec.types[t].carrier
        if passive is None:
            return SynthesisReservoir(t, carrier)
        commitment = h.dense.get(t)
        cells = commitment.partition.cells if commitment else h.equality[t].cells
        free = sum(1 for c in cells if cell_object(c) is None)
        if free <= len(passive) and free > 0:
            return PoolReservoir(passive)
        return SynthesisReservoir(t, carrier)

    def _rebuild_order(self, h: CommitmentTuple, sigma, seqs) -> Database:
        """The order after one branch: each committed dense type in its
        committed order, every other one as the step's `seqs` order it."""
        seqs = dict(seqs)
        for t, commitment in h.dense.items():
            seq = []
            for cell in commitment.pos:
                obj = cell_object(cell)
                if obj is None:
                    obj = sigma[next(e for e in cell if isinstance(e, CallToken))]
                seq.append(obj)
            seqs[t] = seq
        return self._intern(_order_db(seqs))

    # -- one exploration step ------------------------------------------------------------

    def step_successors(
        self, state: SystemState, used_snapshot: Optional[dict[str, set[DataObject]]] = None,
        layer: Optional[dict[tuple, list[SystemState]]] = None,
    ) -> list[SystemState]:
        """state's successors, from one `_StepCache` that every per-step
        method takes.  layer, if given, holds the successors of each state
        core already expanded under used_snapshot: a state whose core is
        there gets them, and a state expanded here adds its own.  With
        layer, a state whose class of interchangeable agents' renamings was
        expanded gets them by renaming (`_by_symmetry`); a direct call
        shares nothing.  Only the first exchange that changes nothing adds
        the unchanged successor."""
        step = _StepCache(self, state, used_snapshot)
        core = step.core() if layer is not None else None
        out = layer.get(core) if core is not None else None
        if out is not None:
            return out
        if core is not None and self._groups:
            out = self._by_symmetry(step, core)
        else:
            out = self._expand(step)
        if core is not None:
            layer[core] = out
        return out

    def _expand(self, step: _StepCache, exchanges: Optional[list] = None) -> list[SystemState]:
        """The step's successors, exchange by exchange; exchanges, if given,
        gets each as its sender, message, payload, target and successors,
        or None for those where it calls no service and changes no
        database."""
        cur_as = self.current_agents(step.state.inst_db())
        specs = dict(cur_as)
        active = set(specs)
        out = []
        noop = False  # whether out holds the unchanged successor
        for sender, s_spec in cur_as:
            for message, payload, target in self.enabled_messages(
                    step, sender, s_spec, active):
                succs = self._exchange(
                    step, sender, s_spec, target, specs[target], message, payload)
                if exchanges is not None:
                    exchanges.append((sender, message, payload, target, succs))
                if succs is None:
                    succs, noop = [] if noop else [step.unchanged()], True
                out.extend(succs)
        return out

    def _by_symmetry(self, step: _StepCache, core: tuple) -> list[SystemState]:
        """The step's successors.  Its class is the states equal to it up to
        renaming the members of each group; the builder keeps one expansion
        per class key (`symmetry.Labeler.label`) and passive pools read.
        One made under the passive pools the step reads, of a state in the
        step's class, gives them by renaming (`_derive`); else the step is
        expanded, and its expansion kept."""
        labels, key = self._labeler.label(*core)
        kept = self._classes.setdefault(key, {})
        for pools, got in kept.items():
            if all(step.passive(t) == pool for t, pool in pools):
                out = self._derive(step, got, labels)
                if out is not None:
                    return out
                break
        exchanges: list[tuple] = []
        out = self._expand(step, exchanges)
        flats = []
        for sender, message, payload, target, succs in exchanges:
            if succs is not None:
                flat: list = []
                for succ in succs:
                    flat.append(succ.order_db)
                    flat += [db for _, db in succ.agent_dbs]
                succs = tuple(flat)
            flats.append((sender, message, payload, target, succs))
        kept[frozenset(step._passive.items())] = _Expansion(
            labels, step.state.agent_dbs, tuple(flats))
        return out

    def _derive(self, step: _StepCache, got: _Expansion,
                labels: tuple) -> Optional[list[SystemState]]:
        """The step's successors from got, an expansion kept under the
        step's class key, renamed by sigma (`symmetry.Labeler.sigma`): the
        exchanges in the order of the step's own (by sender, then message,
        payload and target), each changed database renamed and the others
        the step's own.  None unless sigma maps the other agents' databases
        of got's state onto the step's too (the key holds only their hash).
        Kept by the two labelings: sigma as to(a, a), the position of each
        agent's image (the roster is static, so they hold for every state)
        and, by fact set, the interned database of its image met so far."""
        agent_dbs = step.state.agent_dbs
        renaming = self._renamings.get((got.labels, labels))
        if renaming is None:
            sigma = self._labeler.sigma(got.labels, labels)
            at = {a: i for i, (a, _) in enumerate(agent_dbs)}
            renaming = self._renamings[(got.labels, labels)] = (
                sigma.get, {a: at[sigma.get(a, a)] for a in at},
                self._images.setdefault(tuple(sigma.items()), {}))
        to, at, images = renaming
        for a, old in got.dbs:
            if a in self._labeler.members:
                continue
            db = agent_dbs[at[a]][1]
            if images.get(old) is not db:
                if symmetry.renamed(old, to) != db:
                    return None
                images[old] = db
        out: list[SystemState] = []
        noop = False
        width = len(agent_dbs) + 1
        for *_, succs in sorted(got.exchanges, key=lambda x: (
                at[x[0]], x[1], tuple([to(o, o).sort_key() for o in x[2]]), at[x[3]])):
            if succs is None:
                if not noop:
                    out.append(step.unchanged())
                    noop = True
                continue
            for k in range(0, len(succs), width):
                new = list(agent_dbs)
                for (a, old), nxt in zip(got.dbs, succs[k + 1:k + width]):
                    if nxt is not old:
                        name, db = agent_dbs[at[a]]
                        img = images.get(nxt)
                        if img is None:
                            # db is old renamed: rename what the exchange changed
                            facts = db.difference(symmetry.renamed(old - nxt, to)).union(
                                symmetry.renamed(nxt - old, to))
                            img = self._dbs.get(facts)
                            img = images[nxt] = (
                                img if img is not None else self._intern(Database(facts)))
                        new[at[a]] = name, img
                out.append(SystemState(tuple(new), succs[k]))
        return out

    def _exchange(
        self, step, sender, s_spec, target, t_spec, message, payload,
    ) -> Optional[list[SystemState]]:
        """The successors of one exchange, or None where it calls no service
        and changes no database."""
        if sender == target:
            participants = [(sender, s_spec, (M.ON_SEND, M.ON_RECEIVE), sender)]
        else:
            participants = [(sender, s_spec, (M.ON_SEND,), target),
                            (target, t_spec, (M.ON_RECEIVE,), sender)]

        # per participant that some rule reacts to: its next database if no
        # fact carries a call token, otherwise its next facts but those, those
        # facts, their calls and the candidates substituted so far by the
        # calls' results; kept by what its reactions and their effects read.
        # A participant that no rule reacts to keeps its database
        pend: dict[DataObject, Union[Database, tuple]] = {}
        calls: set[CallToken] = set()
        roster = False  # whether a reacting action writes hasSpec
        for agent, sname, dirs, peer in participants:
            group = self._reacting.get((sname, dirs, message))
            if group is None:
                continue
            reads, writes = group
            roster = roster or writes
            db = step.dbs[agent]
            key = ("participant", sname, dirs, message, payload, peer, db,
                   self._seen_order(step.order, db, payload) if reads else None)
            nxt = self._memo.get(key)
            if nxt is None:
                acts = sorted({a for d in dirs for a in self.collect_reactions(
                    step, agent, sname, d, message, payload, peer)}, key=_instance_key)
                to_del, to_add = self.get_facts(step, agent, sname, acts)
                ground = set(db - to_del)
                tokened, toks = [], set()
                for fact in to_add:
                    fact_toks = [a for a in fact[1] if isinstance(a, CallToken)]
                    if fact_toks:
                        tokened.append(fact)
                        toks.update(fact_toks)
                    else:
                        ground.add(fact)
                nxt = self._memo[key] = (
                    (frozenset(ground), tuple(tokened), tuple(toks), {}) if tokened
                    else self._intern(Database(ground)))
            if not isinstance(nxt, Database):
                calls.update(nxt[2])
            elif nxt is db:
                continue
            pend[agent] = nxt
        if not calls and not pend:
            return None

        if self.config.check_conformance:
            for tok in sorted(calls, key=CallToken.sort_key):
                svc = self.spec.services[tok.service]
                if not all(_member(self.spec, f, o)
                           for f, o in zip(svc.input_facets, tok.args)):
                    return []  # inputs break the service typing: no successor here

        out: list[SystemState] = []
        for sigma, order_full in self._sigma_branches(step, calls):
            # a participant whose candidate breaks a constraint keeps its
            # database; an unchanged one keeps it either way
            dbs = dict(step.dbs)
            order = FactOrder(order_full) if self.flat else CarrierOrder()
            for agent, sname, _, _ in participants:
                cand = pend.get(agent)
                if cand is None:
                    continue
                if not isinstance(cand, Database):
                    ground, tokened, toks, subs = cand
                    results = tuple(sigma[t] for t in toks)
                    cand = subs.get(results)
                    if cand is None:
                        cand = subs[results] = self._intern(
                            Database(ground | _substitute(tokened, sigma)))
                if cand is not dbs[agent] and self._acceptable(sname, cand, order):
                    dbs[agent] = cand
            # only a change to inst's hasSpec facts can change the active
            # agents, and only a reacting action that writes hasSpec makes one
            same_agents = not roster or dbs[INST] is step.dbs[INST]
            if not same_agents:
                dbs = self._registered(dbs, step.dbs)

            order_db = order_full
            if self.flat and sigma:
                # the order keeps the objects of the previous state, of the
                # next one and the constants; it holds no others but results
                changed = [self._objects_by_type(d) for agent, d in dbs.items()
                           if d is not step.dbs.get(agent)]
                drop = {o for o in sigma.values() if o not in step.active(o.type_name) and not any(
                    o in objs.get(o.type_name, ()) for objs in changed)}
                if drop:
                    order_db = self._intern(Database(
                        f for f in order_full
                        if f[1][0] not in drop and f[1][1] not in drop))
            # the same agents are still in the state's order
            out.append(SystemState(tuple(dbs.items()), order_db) if same_agents
                       else make_state(dbs, order_db))
        return out

    def _registered(self, dbs, cur_dbs):
        """The databases of the agents that inst's new database registers;
        a newcomer gets its first one."""
        out = {agent: dbs[agent] if agent in cur_dbs else self._newcomer(agent, sname)
               for agent, sname in self.current_agents(dbs[INST])}
        if INST not in out:
            raise BuildError("institutional agent was removed")
        return out

    def _acceptable(self, sname: str, cand: Database, order) -> bool:
        if sname in self._unchecked:
            return True
        key = ("accept", sname, cand, self._seen_order(order, cand)
               if self._reads_order[("accept", sname)] else None)
        ok = self._memo.get(key)
        if ok is None:
            ag = self.spec.agent_specs[sname]
            try:
                ok = not (self.config.check_conformance and conforms(
                    ag.schema, cand, self.spec.facets, self.spec.types))
            except UnknownRelation:
                ok = False
            db = Q.DbIndex(cand, self.const_domain)
            ok = self._memo[key] = ok and all(
                Q.eval_query(plan, db, order) for plan in self.constraint_plans[sname])
        return ok

    def _note_used(self, used: dict[str, set[DataObject]], state: SystemState,
                   noted: set[Database]) -> int:
        """Add the objects of state's databases to used, reading only the
        fact sets not in noted, which it then holds; the most any of those
        stores (`_stored`)."""
        most = 0
        for _, db in state.agent_dbs:
            if db not in noted:
                noted.add(db)
                most = max(most, _stored(db))
                for t, objs in self._objects_by_type(db).items():
                    used[t].update(objs)
        return most

    def _check_bound(self, state: SystemState) -> None:
        b = self.config.state_bound
        if b is None:
            return
        for name, db in state.agent_dbs:
            if _stored(db) > b:
                raise StateBoundExceeded(str(name.value), _stored(db))

    # -- closure ---------------------------------------------------------------------------

    def build(self) -> TransitionSystem:
        """The closure, with the cyclic garbage collector paused."""
        with collector_paused():
            return self._closure()

    def _closure(self) -> TransitionSystem:
        ts = TransitionSystem(mode=self.config.mode)
        s0 = self.initial_state()
        self._check_bound(s0)
        index: dict[SystemState, int] = {state_key(s0): 0}
        ts.states.append(s0)
        edges: set[tuple[int, int]] = set()
        # const_domain has a key for every type of the spec
        used = {t: set(objs) for t, objs in self.const_domain.items()}
        noted: set[Database] = set()  # the databases read into used
        max_adom = self._note_used(used, s0, noted)

        bounded = self.config.state_bound is not None
        frontier = [0]
        depth = 0
        peak = 1
        truncated = False
        while frontier:
            if self.config.max_depth is not None and depth >= self.config.max_depth:
                truncated = True
                break
            snapshot = {t: set(s) for t, s in used.items()}
            layer: dict[tuple, list[SystemState]] = {}
            next_frontier: list[int] = []
            for sid in frontier:
                for succ in self.step_successors(ts.states[sid], snapshot, layer):
                    if bounded:
                        self._check_bound(succ)
                    key = state_key(succ)
                    tid = index.get(key)
                    if tid is None:
                        if self.config.max_states is not None and \
                                len(ts.states) >= self.config.max_states:
                            truncated = True
                            continue
                        tid = len(ts.states)
                        ts.states.append(succ)
                        index[key] = tid
                        next_frontier.append(tid)
                        max_adom = max(max_adom, self._note_used(used, succ, noted))
                    edges.add((sid, tid))
            frontier = next_frontier
            peak = max(peak, len(frontier))
            depth += 1

        ts.edges = sorted(edges)
        ts.truncated = truncated
        ts.stats = {
            "states": len(ts.states),
            "edges": len(ts.edges),
            "max_agent_adom": max_adom,
            "peak_frontier": peak,
            "depth": depth,
        }
        return ts


class _StepCache:
    """What one exploration step reuses: the state's databases by agent, its
    order source, an index per database it reads, the order of its dense
    objects and its key, and each type's passive pool, each built on first
    use and dropped with the step, so no retained state carries them."""

    def __init__(self, builder: Builder, state: SystemState,
                 used: Optional[dict[str, set[DataObject]]] = None) -> None:
        self.builder = builder
        self.state = state
        self._used = used or {}
        self.dbs = dict(state.agent_dbs)
        order = Database() if state.order_db is None else state.order_db
        self.order = FactOrder(order) if builder.flat else CarrierOrder()
        self._indexes: dict[int, Q.DbIndex] = {}  # by id; each index holds its database
        self._active: dict[str, frozenset[DataObject]] = {}
        self._dense_order: Optional[tuple[dict[str, list[DataObject]], Optional[Database]]] = None
        self._passive: dict[str, frozenset[DataObject]] = {}
        self._dense_key: Optional[tuple] = None

    def index(self, db: Database) -> Q.DbIndex:
        ix = self._indexes.get(id(db))
        if ix is None:
            ix = self._indexes[id(db)] = Q.DbIndex(db, self.builder.const_domain)
        return ix

    def active(self, t: str) -> frozenset[DataObject]:
        """Objects of type t in the state or among the constants."""
        objs = self._active.get(t)
        if objs is None:
            objs = self._active[t] = self.builder.const_domain.get(t, frozenset()).union(
                *(self.builder._objects_by_type(db).get(t, ()) for db in self.dbs.values()))
        return objs

    def passive(self, t: str) -> frozenset[DataObject]:
        """Objects of type t used so far in the build but not active."""
        objs = self._passive.get(t)
        if objs is None:
            objs = self._passive[t] = frozenset(self._used.get(t, set()) - self.active(t))
        return objs

    def unchanged(self) -> SystemState:
        """The successor of an exchange that calls no service and changes no
        database: the state under its dense order in flat modes, the state
        itself otherwise."""
        if self.builder.flat:
            return SystemState(self.state.agent_dbs, self.dense_order()[1])
        return self.state

    def dense_order(self) -> tuple[dict[str, list[DataObject]], Optional[Database]]:
        """The active objects of each dense type, lowest first, and in flat
        modes the lessThan database over them; do not mutate.  Raises
        InconsistentOrder (or MissingOrderFacts) if the state does not order
        them totally.  The builder keeps the answer by the order's facts and
        each dense type's active objects; a failure is not kept."""
        b = self.builder
        if self._dense_order is None:
            key = ("dense",) + self.dense_key()
            got = b._memo.get(key)
            if got is None:
                seqs = {t: check_total_order(sorted(self.active(t), key=DataObject.sort_key),
                                             self.less(t))
                        for t in b.dense_types}
                got = b._memo[key] = (seqs, b._intern(_order_db(seqs)) if b.flat else None)
            self._dense_order = got
        return self._dense_order

    def core(self) -> Optional[tuple]:
        """In flat modes, what the step's successors read besides the used
        objects: the state's (agent, database) pairs and the dense order over
        the active objects, which drops the order facts of objects that have
        left.  None in the other modes, or where the state does not order
        its dense objects totally."""
        if not self.builder.flat:
            return None
        try:
            order = self.dense_order()[1]
        except (InconsistentOrder, MissingOrderFacts):
            return None
        return self.state.agent_dbs, order

    def dense_key(self) -> tuple:
        """What the dense order is read from: the order's facts in flat
        modes, and each dense type's active objects; built once per step."""
        if self._dense_key is None:
            b = self.builder
            self._dense_key = (self.order.order_db if b.flat else None,
                               tuple(self.active(t) for t in b.dense_types))
        return self._dense_key

    def less(self, t: str):
        """The state's strict order on dense type t."""
        if self.builder.flat:
            return lambda a, b: self.order.less(t, a, b)
        return carrier_less


class _Expansion(NamedTuple):
    """The expansion of a state kept for its class: the state's labeling,
    its agents' databases and its exchanges in order.  An exchange is its
    sender, message, payload and target, and the order and the databases in
    agent order of each successor, one after the other; or None for
    successors where it calls no service and changes no database."""

    labels: tuple[tuple[DataObject, DataObject], ...]
    dbs: tuple[tuple[DataObject, Database], ...]
    exchanges: tuple[tuple, ...]


def _order_db(seqs: dict[str, list[DataObject]]) -> Database:
    """The lessThan facts of each dense type's sequence, lowest first."""
    facts: set[Fact] = set()
    for t, seq in seqs.items():
        rel = lessthan_rel(t)
        for i, a in enumerate(seq):
            for b in seq[i + 1:]:
                if a != b:
                    facts.add((rel, (a, b)))
    return Database(facts)


def _stored(db: Database) -> int:
    """How many objects db stores outside accessory relations."""
    return len({o for rel, args in db if not is_accessory(rel) for o in args})


def _instance_key(inst: tuple[str, tuple[DataObject, ...]]) -> tuple:
    """Sort key of a ground action instance: action name, then arguments."""
    return inst[0], tuple(o.sort_key() for o in inst[1])


def _member(spec: RmasSpec, facet_name: str, obj: DataObject) -> bool:
    return facet_member(spec.facets[facet_name], obj, spec.types)


def _ground_template(tpl, theta, values) -> PendingFact:
    args: list[PendingArg] = []
    for term in tpl.terms:
        args.append(_ground_term(term, theta, values))
    return (tpl.rel, tuple(args))


def _ground_term(term, theta, values) -> PendingArg:
    if isinstance(term, Var):
        if term.name not in theta:
            raise BuildError(f"unbound template variable {term.name!r}")
        return theta[term.name]
    if isinstance(term, Param):
        return values[term.name]
    if isinstance(term, Const):
        return term.obj
    if isinstance(term, CallTerm):
        args = tuple(
            _ground_term(a, theta, values) for a in term.args
        )
        if any(isinstance(a, CallToken) for a in args):
            raise BuildError("nested service calls are not allowed")
        return CallToken(term.service, args)  # type: ignore[arg-type]
    raise BuildError(f"unknown template term {term!r}")


def build_transition_system(spec: RmasSpec, config: BuildConfig) -> TransitionSystem:
    """Breadth-first closure of the step relation from the initial state."""
    return Builder(spec, config).build()


# ---------------------------------------------------------------------------
# Export / import


def _obj_json(o: DataObject):
    if o.is_undef():
        return {"t": o.type_name, "k": "u"}
    if isinstance(o.value, str):
        return {"t": o.type_name, "k": "s", "v": o.value}
    if isinstance(o.value, int):
        return {"t": o.type_name, "k": "i", "v": str(o.value)}
    return {"t": o.type_name, "k": "q", "v": str(o.value)}


def _obj_from_json(d) -> DataObject:
    if d["k"] == "u":
        return DataObject(d["t"], UNDEF)
    if d["k"] == "s":
        return DataObject(d["t"], d["v"])
    if d["k"] == "i":
        return DataObject(d["t"], int(d["v"]))
    return DataObject(d["t"], Fraction(d["v"]))


def _db_json(db: Database):
    return [[rel, [_obj_json(a) for a in args]] for rel, args in db.canonical()]


def _db_from_json(rows) -> Database:
    return Database(
        (rel, tuple(_obj_from_json(a) for a in args)) for rel, args in rows
    )


def jsonl_lines(ts: TransitionSystem) -> Iterator[bytes]:
    """The jsonl export one line at a time, each with its newline, so a
    writer never holds more than one line and each database's text."""
    texts: dict[int, str] = {}  # by id: states share their databases

    def db_text(db: Database) -> str:
        if id(db) not in texts:
            texts[id(db)] = json.dumps(_db_json(db), sort_keys=True)
        return texts[id(db)]

    yield json.dumps({
        "kind": "meta", "mode": ts.mode, "initial": ts.initial,
        "truncated": ts.truncated, "stats": ts.stats,
    }, sort_keys=True).encode() + b"\n"
    for i, s in enumerate(ts.states):
        # what json.dumps(record, sort_keys=True) writes, keys in sorted order
        agents = ", ".join(f"[{json.dumps(_obj_json(name), sort_keys=True)}, {db_text(db)}]"
                           for name, db in s.agent_dbs)
        order = "" if s.order_db is None else f', "order": {db_text(s.order_db)}'
        yield f'{{"agents": [{agents}], "id": {i}, "kind": "state"{order}}}\n'.encode()
    for (a, b) in ts.edges:
        yield json.dumps({"kind": "edge", "src": a, "dst": b}, sort_keys=True).encode() + b"\n"


def export_jsonl(ts: TransitionSystem) -> bytes:
    return b"".join(jsonl_lines(ts))


def import_jsonl(data: bytes) -> TransitionSystem:
    ts = TransitionSystem()
    states: dict[int, SystemState] = {}
    for line in data.decode().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec["kind"] == "meta":
            ts.mode = rec["mode"]
            ts.initial = rec["initial"]
            ts.truncated = rec["truncated"]
            ts.stats = rec.get("stats", {})
        elif rec["kind"] == "state":
            dbs = {
                _obj_from_json(name): _db_from_json(rows) for name, rows in rec["agents"]
            }
            order = _db_from_json(rec["order"]) if "order" in rec else None
            states[rec["id"]] = make_state(dbs, order)
        else:
            ts.edges.append((rec["src"], rec["dst"]))
    ts.states = [states[i] for i in sorted(states)]
    ts.edges.sort()
    return ts


def export_dot(ts: TransitionSystem) -> bytes:
    lines = ["digraph ts {"]
    for i, s in enumerate(ts.states):
        label = f"s{i}\\n{len(s.agent_dbs)} agents"
        shape = ' shape=doublecircle' if i == ts.initial else ''
        lines.append(f'  s{i} [label="{label}"{shape}];')
    for (a, b) in ts.edges:
        lines.append(f"  s{a} -> s{b};")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode()


def export(ts: TransitionSystem, fmt: str) -> bytes:
    if fmt == "jsonl":
        return export_jsonl(ts)
    if fmt == "dot":
        return export_dot(ts)
    raise ConfigError(f"unknown export format {fmt!r}")
