"""Linear-time well-formedness checking of parsed specifications.

Findings are data, not exceptions: each carries a machine-readable code so
tests can assert on the exact violated bullet.  The checker also counts the
elementary checks it performs (`Report.work`) so linearity in the spec size
is assertable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .data import AGENT_TYPE, UnknownRelation
from . import model as M
from . import queries as Q
from .model import AgentSpec, RmasSpec, CallTerm, FactTemplate
from .queries import CarrierOrder, IncompatibleQuery, Param, Var, conforms


@dataclass(frozen=True)
class Finding:
    code: str
    spec: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.spec}: {self.where}: {self.message}"


@dataclass
class Report:
    findings: list[Finding] = field(default_factory=list)
    work: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


class _Checker:
    def __init__(self, spec: RmasSpec) -> None:
        self.spec = spec
        self.report = Report()
        self.const_domain = M.initial_data_domain(spec)
        self.contexts = {name: Q.SchemaContext(ag.schema, spec.facets, spec.types)
                         for name, ag in spec.agent_specs.items()}

    def tick(self, n: int = 1) -> None:
        self.report.work += n

    def find(self, code: str, spec: str, where: str, message: str) -> None:
        self.report.findings.append(Finding(code, spec, where, message))

    def base_type(self, facet_name: str) -> str:
        return self.spec.facets[facet_name].base_type

    def payload_retyped(self, ag: AgentSpec, where: str, msg: M.MessageDef,
                        payload_vars: tuple[str, ...], code: str) -> bool:
        """Whether a payload variable repeats at positions of different
        base types, which one variable cannot take; reported as `code`."""
        seen: dict[str, tuple[int, str]] = {}  # variable -> its first position, type
        for i, (v, f) in enumerate(zip(payload_vars, msg.payload_facets), 1):
            t = self.base_type(f)
            first, ft = seen.setdefault(v, (i, t))
            if ft != t:
                self.find(code, ag.name, where, f"payload variable {v!r} is at position "
                          f"{first} of type {ft} and at position {i} of type {t}")
                return True
        return False

    # -- query typing ---------------------------------------------------------

    def type_query(
        self,
        ag: AgentSpec,
        q: Q.Query,
        where: str,
        param_types: Optional[dict[str, str]] = None,
        code: str = "WF-QUERY",
        gaps: Optional[dict[str, str]] = None,
        gap_code: str = "WF-QUERY",
    ) -> tuple[Optional[Q.Typing], Optional[dict[str, str]]]:
        """q's solved typing and the types q itself gives its free
        variables, or Nones after a finding.  `gaps` types the variables q
        leaves untyped (a message's payload and peer, whose use at another
        type the caller reports); two of them that q compares at different
        types are a `gap_code` finding.  A binder or comparison left untyped
        is a finding, so that every query the checker passes compiles."""
        self.tick(sum(1 for _ in Q.atoms(q)) + 1)
        ctx = self.contexts[ag.name]
        typing = Q.Typing(Q.children, ctx.demands, ctx.types, param_types)
        failing = code
        try:
            types = typing.visit(q).free_types()
            failing = gap_code
            typing.fill({v: t for v, t in (gaps or {}).items() if v not in types})
            failing = code
            typing.check()
            return typing, types
        except IncompatibleQuery as e:
            self.find(failing, ag.name, where, str(e))
            return None, None

    # -- communicative rules --------------------------------------------------

    def check_comm_rules(self, ag: AgentSpec) -> None:
        for idx, rule in enumerate(ag.comm_rules):
            where = f"comm rule #{idx + 1} ({rule.message})"
            msg = self.spec.messages.get(rule.message)
            self.tick()
            if msg is None:
                self.find("WF-COMM-MSG", ag.name, where, f"unknown message {rule.message!r}")
                continue
            if len(rule.payload_vars) != msg.arity:
                self.find("WF-COMM-PAYLOAD", ag.name, where,
                          f"payload has {len(rule.payload_vars)} variables, message arity is {msg.arity}")
                continue
            if self.payload_retyped(ag, where, msg, rule.payload_vars, "WF-COMM-PAYLOAD"):
                continue
            gaps = msg.var_types(rule.payload_vars, rule.target_var, self.spec.facets)
            expected = set(gaps)
            fv = Q.free_vars(rule.query)
            self.tick(len(fv))
            if fv != expected:
                self.find("WF-COMM-VARS", ag.name, where,
                          f"free variables {sorted(fv)} differ from payload+target {sorted(expected)}")
            _, types = self.type_query(ag, rule.query, where, gaps=gaps,
                                       gap_code="WF-COMM-PAYLOAD")
            if types is None:
                continue
            t_type = types.get(rule.target_var)
            if t_type != AGENT_TYPE:
                self.find("WF-COMM-TARGET", ag.name, where,
                          f"target {rule.target_var!r} bound to {t_type or 'nothing'}, not an agent name")
            for v in rule.payload_vars:
                self.tick()
                vt = types.get(v)
                if vt is not None and vt != gaps[v]:
                    self.find("WF-COMM-PAYLOAD", ag.name, where,
                              f"payload variable {v!r} has type {vt}, message wants {gaps[v]}")

    # -- actions ---------------------------------------------------------------

    def check_actions(self, ag: AgentSpec) -> None:
        for act in ag.actions.values():
            names = [p for p, _ in act.params]
            self.tick(len(names))
            if len(set(names)) != len(names):
                self.find("WF-ACTION-PARAMS", ag.name, f"action {act.name}",
                          "parameter names are not distinct")
                continue
            param_types = {p: self.base_type(f) for p, f in act.params}
            for eidx, eff in enumerate(act.effects):
                where = f"action {act.name} effect #{eidx + 1}"
                _, types = self.type_query(ag, eff.guard, where, param_types=param_types,
                                           code="WF-EFFECT-PARAM")
                if types is None:
                    continue
                known = {**param_types, **types}
                for tpl in eff.dels:
                    self.check_template(ag, tpl, where, known, param_types, is_add=False)
                for tpl in eff.adds:
                    self.check_template(ag, tpl, where, known, param_types, is_add=True)

    def check_template(
        self,
        ag: AgentSpec,
        tpl: FactTemplate,
        where: str,
        known: dict[str, str],
        param_types: dict[str, str],
        is_add: bool,
    ) -> None:
        """`known` types the guard's free variables and the parameters."""
        code = "WF-EFFECT-ADD" if is_add else "WF-EFFECT-DEL"
        self.tick()
        try:
            comp = self.contexts[ag.name].component_types(tpl.rel, len(tpl.terms))
        except IncompatibleQuery as e:
            self.find(code, ag.name, where, str(e))
            return
        for i, (term, want) in enumerate(zip(tpl.terms, comp)):
            self.tick()
            at = f"{tpl.rel}[{i + 1}]"
            if isinstance(term, CallTerm):
                if not is_add:
                    self.find("WF-EFFECT-DEL", ag.name, where,
                              f"service call {term.service!r} in a delete fact ({at})")
                    continue
                self.check_call_term(ag, term, where, at, want, known, param_types)
            elif isinstance(term, Var):
                got = known.get(term.name)
                if got is None:
                    self.find("WF-EFFECT-UNBOUND", ag.name, where,
                              f"variable {term.name!r} in {at} is not bound by the guard")
                elif got != want:
                    self.find(code, ag.name, where,
                              f"variable {term.name!r} has type {got}, {at} wants {want}")
            elif isinstance(term, Param):
                got = param_types.get(term.name)
                if got is None:
                    self.find("WF-EFFECT-UNBOUND", ag.name, where,
                              f"unknown parameter {term.name!r} in {at}")
                elif got != want:
                    self.find(code, ag.name, where,
                              f"parameter {term.name!r} has type {got}, {at} wants {want}")
            else:
                if term.obj.type_name != want:
                    self.find(code, ag.name, where,
                              f"constant {term.obj!r} in {at} of type {want}")

    def check_call_term(
        self,
        ag: AgentSpec,
        term: CallTerm,
        where: str,
        at: str,
        want: str,
        known: dict[str, str],
        param_types: dict[str, str],
    ) -> None:
        svc = self.spec.services.get(term.service)
        self.tick()
        if svc is None:
            self.find("WF-EFFECT-SVC-IN", ag.name, where, f"unknown service {term.service!r}")
            return
        if len(term.args) != svc.arity:
            self.find("WF-EFFECT-SVC-IN", ag.name, where,
                      f"service {term.service!r} used with wrong arity")
            return
        for j, (arg, fname) in enumerate(zip(term.args, svc.input_facets)):
            self.tick()
            want_in = self.base_type(fname)
            if isinstance(arg, Var):
                if arg.name not in known:
                    self.find("WF-EFFECT-UNBOUND", ag.name, where,
                              f"variable {arg.name!r} in {term.service} input is unbound")
                elif known[arg.name] != want_in:
                    self.find("WF-EFFECT-SVC-IN", ag.name, where,
                              f"input {j + 1} of {term.service!r} wants {want_in}")
            elif isinstance(arg, Param):
                if param_types.get(arg.name) != want_in:
                    self.find("WF-EFFECT-SVC-IN", ag.name, where,
                              f"input {j + 1} of {term.service!r} wants {want_in}")
            else:
                if arg.obj.type_name != want_in:
                    self.find("WF-EFFECT-SVC-IN", ag.name, where,
                              f"input {j + 1} of {term.service!r} wants {want_in}")
        out_type = self.base_type(svc.output_facet)
        if out_type != want:
            self.find("WF-EFFECT-SVC-OUT", ag.name, where,
                      f"{term.service!r} returns {out_type}, {at} wants {want}")

    # -- update rules -----------------------------------------------------------

    def check_update_rules(self, ag: AgentSpec) -> None:
        for idx, rule in enumerate(ag.update_rules):
            kind = "on-send" if rule.direction == M.ON_SEND else "on-receive"
            where = f"{kind} rule #{idx + 1} ({rule.message})"
            msg = self.spec.messages.get(rule.message)
            self.tick()
            if msg is None:
                self.find("WF-RULE-MSG", ag.name, where, f"unknown message {rule.message!r}")
                continue
            if len(rule.payload_vars) != msg.arity:
                self.find("WF-RULE-COND-TYPE", ag.name, where,
                          f"payload has {len(rule.payload_vars)} variables, arity is {msg.arity}")
                continue
            if self.payload_retyped(ag, where, msg, rule.payload_vars, "WF-RULE-COND-TYPE"):
                continue
            act = ag.actions.get(rule.action)
            if act is None:
                self.find("WF-RULE-ACTION", ag.name, where, f"unknown action {rule.action!r}")
                continue
            if len(rule.args) != len(act.params):
                self.find("WF-RULE-ACTION", ag.name, where,
                          f"action {rule.action!r} takes {len(act.params)} arguments")
                continue

            gaps = msg.var_types(rule.payload_vars, rule.peer_var, self.spec.facets)
            scope = set(gaps)
            cond_vars = Q.free_vars(rule.condition)
            arg_vars = {a.name for a in rule.args if isinstance(a, Var)}
            self.tick(len(cond_vars) + len(arg_vars))
            outside = (cond_vars | arg_vars) - scope
            if outside:
                self.find("WF-RULE-SCOPE", ag.name, where,
                          f"variables {sorted(outside)} not in payload or peer")

            _, types = self.type_query(ag, rule.condition, where, gaps=gaps,
                                       gap_code="WF-RULE-COND-TYPE")
            if types is None:
                continue
            # (i) the peer variable, when queried, must be an agent name
            pt = types.get(rule.peer_var)
            if rule.peer_var in cond_vars and pt != AGENT_TYPE:
                self.find("WF-RULE-PEER", ag.name, where,
                          f"peer {rule.peer_var!r} bound to {pt or 'nothing'}, not an agent name")
            # (iii) payload variables used in the condition match the message typing
            for v in rule.payload_vars:
                self.tick()
                if v in cond_vars and types.get(v) is not None and types[v] != gaps[v]:
                    self.find("WF-RULE-COND-TYPE", ag.name, where,
                              f"payload variable {v!r} used at {types[v]}, message says {gaps[v]}")
            # (ii)+(iv) action arguments against the action parameter typing
            for j, arg in enumerate(rule.args):
                self.tick()
                want = self.base_type(act.params[j][1])
                if isinstance(arg, Var):
                    if arg.name == rule.peer_var:
                        got = AGENT_TYPE
                        code = "WF-RULE-PEER-PARAM"
                    elif arg.name in gaps:
                        got = gaps[arg.name]
                        code = "WF-RULE-ACTION-TYPE"
                    else:
                        got = types.get(arg.name)
                        code = "WF-RULE-ACTION-TYPE"
                    if got is not None and got != want:
                        self.find(code, ag.name, where,
                                  f"argument {j + 1} of {rule.action!r} has type {got}, wants {want}")
                else:
                    if arg.obj.type_name != want:
                        self.find("WF-RULE-ACTION-TYPE", ag.name, where,
                                  f"argument {j + 1} of {rule.action!r} wants {want}")

    # -- initial data ------------------------------------------------------------

    def check_initial(self, ag: AgentSpec) -> None:
        self.tick(len(ag.initial_db))
        try:
            violations = conforms(ag.schema, ag.initial_db, self.spec.facets, self.spec.types)
        except UnknownRelation as e:
            self.find("WF-INIT-CONFORM", ag.name, "initial database", str(e))
            return
        for v in violations:
            rel, args = v.fact
            self.find("WF-INIT-CONFORM", ag.name, "initial database",
                      f"{rel}({', '.join(map(repr, args))}) violates facet {v.facet} at {v.position}")
        order = CarrierOrder()
        for i, c in enumerate(ag.constraints):
            typing, types = self.type_query(ag, c, f"constraint #{i + 1}")
            if types is None:
                continue
            if Q.free_vars(c):
                self.find("WF-QUERY", ag.name, f"constraint #{i + 1}",
                          "constraints must be closed formulas")
                continue
            # a constraint the parser or a generator typed is used as it is
            typed = Q.typecheck_query(c, self.contexts[ag.name])[0] if typing.stale else c
            if not Q.eval_query(typed, ag.initial_db, order, const_domain=self.const_domain):
                self.find("WF-INIT-CONSTRAINT", ag.name, f"constraint #{i + 1}",
                          "initial database violates this constraint")

    # -- institutional bookkeeping -------------------------------------------------

    def check_institutional(self) -> None:
        inst = self.spec.inst_spec
        for rel, rs in M.institutional_relations().items():
            self.tick()
            if inst.schema.get(rel) != rs:
                self.find("WF-INST-SCHEMA", inst.name, rel,
                          "missing or mistyped institutional relation")
        for ag in self.spec.agent_specs.values():
            self.tick()
            myname = ag.schema.get(M.MYNAME_REL)
            if myname is None or myname.arity != 1 or self.base_type(myname.facets[0]) != AGENT_TYPE:
                self.find("WF-SCHEMA-MYNAME", ag.name, M.MYNAME_REL,
                          "missing or mistyped MyName relation")

    def run(self) -> Report:
        self.check_institutional()
        for ag in self.spec.agent_specs.values():
            self.check_comm_rules(ag)
            self.check_actions(ag)
            self.check_update_rules(ag)
            self.check_initial(ag)
        return self.report


def check_well_formed(spec: RmasSpec) -> Report:
    """Check all typing bullets of every agent specification.

    The spec should have been completed with install_institutional first.
    """
    return _Checker(spec).run()
