"""Independent brute-force oracles used to cross-check the implementation.

Everything here recomputes results by naive enumeration, on purpose sharing
as little code as possible with the paths under test.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from rmas import mucalc, queries as Q
from rmas.dsl import ParseError, Token
from rmas.builder import BuildConfig, Builder, SystemState, _StepCache, make_state
from rmas.data import (AGENT_TYPE, INST_NAME, Database, DataObject, carrier_less,
                       carrier_succ, mk_symbol)
from rmas.model import ON_RECEIVE, ON_SEND, RmasSpec
import rmas.model as M


# ---------------------------------------------------------------------------
# Set partitions and ordered partitions


def all_partitions(items: list) -> list[list[list]]:
    """Every set partition of `items`, by plain recursion."""
    if not items:
        return [[]]
    head, rest = items[0], items[1:]
    out = []
    for part in all_partitions(rest):
        for i in range(len(part)):
            out.append(part[:i] + [part[i] + [head]] + part[i + 1:])
        out.append(part + [[head]])
    return out


def partitions_max_one_object(items: list, is_object) -> list[list[list]]:
    return [
        p for p in all_partitions(items)
        if all(sum(1 for e in cell if is_object(e)) <= 1 for cell in p)
    ]


def ordered_partitions(items: list) -> list[tuple[tuple, ...]]:
    """Every (partition, total order of cells) pair, as ordered cell tuples."""
    out = []
    for part in all_partitions(items):
        for perm in itertools.permutations(part):
            out.append(tuple(tuple(sorted(c, key=repr)) for c in perm))
    return out


def bell(n: int) -> int:
    return len(all_partitions(list(range(n))))


def ordered_bell(n: int) -> int:
    return len(ordered_partitions(list(range(n))))


# ---------------------------------------------------------------------------
# Naive query evaluation: enumerate every substitution, then test


def naive_eval(q, db: Database, order, var_types, const_domain, binding=None):
    """var_types types the free variables of q; its binders carry their own."""
    fv = sorted(Q.free_vars(q))
    binding = dict(binding or {})
    fv = [v for v in fv if v not in binding]

    def universe(v):
        t = var_types[v]
        return sorted(db.adom(t) | set(const_domain.get(t, frozenset())),
                      key=DataObject.sort_key)

    out = []
    for combo in itertools.product(*(universe(v) for v in fv)):
        theta = dict(binding)
        theta.update(dict(zip(fv, combo)))
        if _naive_holds(q, db, order, const_domain, theta):
            out.append({v: theta[v] for v in Q.free_vars(q)})
    return out


def substitute_params(q, values: dict[str, DataObject]):
    """q with each parameter named in `values` replaced by its constant."""
    return Q.map_terms(q, lambda t: Q.Const(values[t.name])
                       if isinstance(t, Q.Param) and t.name in values else t)


def _naive_holds(q, db, order, const_domain, theta) -> bool:
    def val(t):
        if isinstance(t, Q.Var):
            return theta[t.name]
        return t.obj

    if isinstance(q, Q.TrueQ):
        return True
    if isinstance(q, Q.RelAtom):
        return (q.name, tuple(val(t) for t in q.terms)) in db.facts
    if isinstance(q, Q.EqAtom):
        return val(q.left) == val(q.right)
    if isinstance(q, Q.LessAtom):
        return order.less(q.type_name, val(q.left), val(q.right))
    if isinstance(q, Q.SuccAtom):
        return carrier_succ(val(q.left), val(q.right))
    if isinstance(q, Q.Not):
        return not _naive_holds(q.body, db, order, const_domain, theta)
    if isinstance(q, Q.And):
        return all(_naive_holds(p, db, order, const_domain, theta) for p in q.parts)
    if isinstance(q, Q.Or):
        return any(_naive_holds(p, db, order, const_domain, theta) for p in q.parts)
    if isinstance(q, (Q.Exists, Q.Forall)):
        t = q.type_name
        pool = db.adom(t) | set(const_domain.get(t, frozenset()))
        results = []
        for o in sorted(pool, key=DataObject.sort_key):
            theta2 = dict(theta)
            theta2[q.var] = o
            results.append(_naive_holds(q.body, db, order, const_domain, theta2))
        return any(results) if isinstance(q, Q.Exists) else all(results)
    raise AssertionError(f"unknown node {q!r}")


# ---------------------------------------------------------------------------
# Naive mu-calculus model checking: every extension is a set of
# (state id, assignment) pairs over the global object universe


def naive_model_check(ts, spec: RmasSpec, prop) -> "mucalc.Verdict":
    """The property at the initial state, by Kleene iteration over sets of
    (state, assignment) pairs; same `truth`, `extension` and `iterations`
    contract as `mucalc.model_check`."""
    checker = NaiveChecker(ts, spec)
    ext = checker.eval(prop, (), {})
    verdict = mucalc.Verdict(truth=(ts.initial, ()) in ext,
                             mask=sum(1 << sid for sid, _ in ext),
                             iterations=checker.iterations)
    # the pairs read back from the mask are the oracle's own
    assert verdict.extension == ext
    return verdict


class NaiveChecker:
    """`eval` returns the set of (state id, assignment) pairs where a
    formula holds; assignments are tuples over `dom`, the (variable, type)
    of each binder around the formula, where an inner binder shadows an
    outer one of the same name."""

    def __init__(self, ts, spec: RmasSpec) -> None:
        self.ts = ts
        self.n = len(ts.states)
        self.succ: dict[int, list[int]] = {i: [] for i in range(self.n)}
        for a, b in ts.edges:
            self.succ[a].append(b)
        objs: dict[str, set[DataObject]] = {}
        for t, cs in M.initial_data_domain(spec).items():
            objs.setdefault(t, set()).update(cs)
        for s in ts.states:
            for o in s.adom():
                objs.setdefault(o.type_name, set()).add(o)
        self.universe = {t: sorted(os, key=DataObject.sort_key) for t, os in objs.items()}
        self.live: list[dict[str, set[DataObject]]] = []
        self.active: list[set[DataObject]] = []
        inst = mk_symbol(AGENT_TYPE, INST_NAME)
        for s in ts.states:
            per: dict[str, set[DataObject]] = {}
            for o in s.adom():
                per.setdefault(o.type_name, set()).add(o)
            self.live.append(per)
            inst_db = s.db(inst)
            self.active.append(
                {args[0] for args in inst_db.facts_for(M.AGENT_REL)} if inst_db else set())
        self.iterations = 0

    def space(self, dom) -> set:
        pools = [self.universe.get(t, []) for _, t in dom]
        return {(sid, combo) for sid in range(self.n) for combo in itertools.product(*pools)}

    def atom_rows(self, atom, sid: int, dom) -> list[dict[str, DataObject]]:
        s = self.ts.states[sid]
        out: list[dict[str, DataObject]] = []
        if isinstance(atom, mucalc.LocAtom):
            agents = [atom.loc.obj] if isinstance(atom.loc, Q.Const) else self.active[sid]
            for agent in agents:
                db = s.db(agent) if agent in self.active[sid] else None
                for args in (db.facts_for(atom.name) if db is not None else ()):
                    theta: dict[str, DataObject] = {}
                    if isinstance(atom.loc, Q.Var):
                        theta[atom.loc.name] = agent
                    ok = True
                    for t, obj in zip(atom.terms, args):
                        if isinstance(t, Q.Const):
                            ok = ok and t.obj == obj
                        elif theta.setdefault(t.name, obj) != obj:
                            ok = False
                    if ok and theta not in out:
                        out.append(theta)
            return out
        if isinstance(atom, mucalc.LiveAtom):
            return [{atom.var: o} for o in self.live[sid].get(atom.type_name, ())]
        if isinstance(atom, (Q.EqAtom, Q.LessAtom)):
            vars_ = []
            for side in (atom.left, atom.right):
                if isinstance(side, Q.Var) and side.name not in vars_:
                    vars_.append(side.name)
            # an equality compares at the type of its variables' innermost binder
            t = atom.type_name if isinstance(atom, Q.LessAtom) else \
                next((t for v, t in reversed(dom) if v in vars_), None)
            pool = self.universe.get(t, [])
            for combo in itertools.product(*(pool for _ in vars_)):
                theta = dict(zip(vars_, combo))
                a, b = (theta[t.name] if isinstance(t, Q.Var) else t.obj
                        for t in (atom.left, atom.right))
                if isinstance(atom, Q.EqAtom):
                    holds = a == b
                elif s.order_db is None:
                    holds = carrier_less(a, b)
                else:
                    holds = a != b and s.order_db.has(Q.lessthan_rel(atom.type_name), (a, b))
                if holds:
                    out.append(theta)
            return out
        raise AssertionError(f"not an atom: {atom!r}")

    def eval(self, p, dom, env) -> set:
        pools = [self.universe.get(t, []) for _, t in dom]
        # the position each variable name denotes: its innermost binder's
        pos = {v: i for i, (v, _) in enumerate(dom)}
        if isinstance(p, Q.TrueQ):
            return self.space(dom)
        if isinstance(p, (mucalc.LocAtom, Q.EqAtom, Q.LessAtom, mucalc.LiveAtom)):
            out = set()
            for sid in range(self.n):
                for theta in self.atom_rows(p, sid, dom):
                    assert set(theta) <= set(pos), "unbound atom variable"
                    picks = [[theta[v]] if v in theta and pos[v] == i else pool
                             for i, ((v, _), pool) in enumerate(zip(dom, pools))]
                    out |= {(sid, combo) for combo in itertools.product(*picks)}
            return out
        if isinstance(p, Q.Not):
            return self.space(dom) - self.eval(p.body, dom, env)
        if isinstance(p, Q.And):
            if not p.parts:
                return self.space(dom)
            return set.intersection(*(self.eval(c, dom, env) for c in p.parts))
        if isinstance(p, Q.Or):
            out = set()
            for c in p.parts:
                out |= self.eval(c, dom, env)
            return out
        if isinstance(p, (Q.Exists, Q.Forall)):
            body = self.eval(p.body, dom + ((p.var, p.type_name),), env)
            if isinstance(p, Q.Exists):
                return {(sid, combo[:-1]) for (sid, combo) in body
                        if combo[-1] in self.live[sid].get(p.type_name, ())}
            return {(sid, combo) for sid in range(self.n)
                    for combo in itertools.product(*pools)
                    if all((sid, combo + (o,)) in body
                           for o in self.live[sid].get(p.type_name, ()))}
        if isinstance(p, (mucalc.PDiamond, mucalc.PBox)):
            body = self.eval(p.body, dom, env)
            some = isinstance(p, mucalc.PDiamond)
            out = set()
            for sid in range(self.n):
                for combo in itertools.product(*pools):
                    if not all(combo[pos[v]] in self.live[sid].get(t, ()) for v, t in p.guards):
                        continue
                    hits = [(n2, combo) in body for n2 in self.succ[sid]]
                    if (any(hits) if some else all(hits)):
                        out.add((sid, combo))
            return out
        if isinstance(p, mucalc.PVar):
            bdom, ext = env[p.name]
            k = len(bdom)
            assert dom[:k] == bdom
            return {(sid, combo + extra) for (sid, combo) in ext
                    for extra in itertools.product(*pools[k:])}
        if isinstance(p, (mucalc.PMu, mucalc.PNu)):
            cur = set() if isinstance(p, mucalc.PMu) else self.space(dom)
            while True:
                self.iterations += 1
                nxt = self.eval(p.body, dom, {**env, p.var: (dom, cur)})
                if nxt == cur:
                    return cur
                cur = nxt
        raise AssertionError(f"unknown property node {p!r}")


# ---------------------------------------------------------------------------
# State identity as a canonical byte string


def _obj_token(o: DataObject) -> str:
    if o.is_undef():
        return f"{o.type_name}#?"
    if isinstance(o.value, str):
        return f"{o.type_name}#s{o.value}"
    return f"{o.type_name}#n{o.value}"


def canonical_state_bytes(state: SystemState) -> bytes:
    """Every agent's facts and the order facts, sorted and serialised: two
    states are the same state iff these bytes are equal."""
    parts: list[str] = []
    for name, db in state.agent_dbs:
        parts.append("@" + _obj_token(name))
        for rel, args in db.canonical():
            parts.append(rel + "(" + ",".join(_obj_token(a) for a in args) + ")")
    if state.order_db is not None:
        parts.append("@<")
        for rel, args in state.order_db.canonical():
            parts.append(rel + "(" + ",".join(_obj_token(a) for a in args) + ")")
    return "\n".join(parts).encode()


# ---------------------------------------------------------------------------
# Graph reachability / safety over a transition system


def reachable_ids(succ: dict[int, list[int]], start: int) -> set[int]:
    seen = {start}
    work = [start]
    while work:
        s = work.pop()
        for n in succ.get(s, ()):
            if n not in seen:
                seen.add(n)
                work.append(n)
    return seen


def ef_oracle(succ: dict[int, list[int]], start: int, satisfying: set[int]) -> bool:
    """EF p: some reachable state satisfies p."""
    return bool(reachable_ids(succ, start) & satisfying)


def ag_oracle(succ: dict[int, list[int]], start: int, satisfying: set[int]) -> bool:
    """AG p: every reachable state satisfies p."""
    return reachable_ids(succ, start) <= satisfying


# ---------------------------------------------------------------------------
# Direct queue-semantics simulator for asynchronous communication


@dataclass(frozen=True)
class QState:
    dbs: tuple[tuple[DataObject, Database], ...]
    buffers: tuple[tuple[DataObject, tuple], ...]  # per-agent message sequences

    def db_map(self):
        return dict(self.dbs)

    def buf_map(self):
        return dict(self.buffers)


def _freeze(dbs: dict, bufs: dict, ordered: bool) -> QState:
    def keyfun(entry):
        name, payload, sender = entry
        return (name, tuple(o.sort_key() for o in payload), sender.sort_key())

    frozen_bufs = []
    for agent in sorted(bufs, key=DataObject.sort_key):
        seq = tuple(bufs[agent]) if ordered else tuple(sorted(bufs[agent], key=keyfun))
        frozen_bufs.append((agent, seq))
    return QState(
        tuple(sorted(dbs.items(), key=lambda kv: kv[0].sort_key())),
        tuple(frozen_bufs),
    )


def queue_simulate(spec: RmasSpec, ordered: bool, buffer_cap: int = 2,
                   max_states: int = 50000) -> set:
    """Reachable states of the asynchronous queue semantics.

    Works on service-free specs with a fixed agent population; returns the
    set of projected states (per-agent fact sets, buffers dropped).
    """
    for ag in spec.agent_specs.values():
        for act in ag.actions.values():
            if act.name in ("newAg", "remAg"):
                continue
            for eff in act.effects:
                for tpl in eff.adds:
                    for t in tpl.terms:
                        assert not isinstance(t, M.CallTerm), \
                            "queue oracle requires a service-free spec"

    helper = Builder(spec, BuildConfig(mode="concrete-bounded"))
    s0 = helper.initial_state()
    agents = [(a, s) for a, s in helper.current_agents(s0.inst_db())]
    dbs0 = {a: s0.db(a) for a, _ in agents}
    bufs0 = {a: () for a, _ in agents}
    start = _freeze(dbs0, bufs0, ordered)

    def apply_actions(dbs, participants):
        # participants: list of (agent, spec name, ground action instances)
        step = _StepCache(helper, make_state(dict(dbs), None))
        new = dict(dbs)
        for agent, sname, acts in participants:
            to_del, to_add = helper.get_facts(step, agent, sname, acts)
            assert not any(isinstance(x, tuple) and any(
                not isinstance(a, DataObject) for a in x[1]) for x in to_add) or True
            ground_adds = set()
            for rel, args in to_add:
                assert all(isinstance(a, DataObject) for a in args)
                ground_adds.add((rel, args))
            cand = Database(frozenset(
                (f for f in dbs[agent].facts if f not in to_del)) | ground_adds)
            if helper._acceptable(sname, cand, Q.CarrierOrder()):
                new[agent] = cand
        return new

    spec_of = dict(agents)
    seen = {start}
    work = [start]
    while work and len(seen) < max_states:
        st = work.pop()
        dbs = st.db_map()
        bufs = {a: list(seq) for a, seq in st.buffers}
        step = _StepCache(helper, make_state(dict(dbs), None))
        active = {a for a, _ in agents}
        nexts = []
        # (a) a sender emits an enabled message
        for sender, sname in agents:
            for msg, payload, target in helper.enabled_messages(step, sender, sname, active):
                if target == sender:
                    acts = sorted(set(
                        helper.collect_reactions(step, sender, sname, ON_SEND,
                                                 msg, payload, target)
                    ) | set(
                        helper.collect_reactions(step, sender, sname, ON_RECEIVE,
                                                 msg, payload, sender)
                    ))
                    new_dbs = apply_actions(dbs, [(sender, sname, acts)])
                    nexts.append((new_dbs, bufs))
                else:
                    if len(bufs[target]) >= buffer_cap:
                        continue
                    acts = helper.collect_reactions(step, sender, sname, ON_SEND,
                                                    msg, payload, target)
                    new_dbs = apply_actions(dbs, [(sender, sname, acts)])
                    new_bufs = {a: list(b) for a, b in bufs.items()}
                    new_bufs[target] = list(new_bufs[target]) + [(msg, payload, sender)]
                    nexts.append((new_dbs, new_bufs))
        # (b) a target processes a buffered message
        for agent, sname in agents:
            buf = bufs[agent]
            if not buf:
                continue
            indices = [0] if ordered else range(len(buf))
            for i in indices:
                msg, payload, sender = buf[i]
                acts = helper.collect_reactions(step, agent, sname, ON_RECEIVE,
                                                msg, payload, sender)
                new_dbs = apply_actions(dbs, [(agent, sname, acts)])
                new_bufs = {a: list(b) for a, b in bufs.items()}
                del new_bufs[agent][i]
                nexts.append((new_dbs, new_bufs))
        for new_dbs, new_bufs in nexts:
            fs = _freeze(new_dbs, {a: tuple(b) for a, b in new_bufs.items()}, ordered)
            if fs not in seen:
                seen.add(fs)
                work.append(fs)
    return {project_qstate(s) for s in seen}


def project_qstate(s: QState):
    return tuple(
        (agent, frozenset(db.facts)) for agent, db in s.dbs
    )


def project_system_state(s: SystemState, hide: frozenset[str]):
    out = []
    for agent, db in s.agent_dbs:
        facts = frozenset(f for f in db.facts if f[0] not in hide)
        out.append((agent, facts))
    return tuple(out)


# ---------------------------------------------------------------------------
# A lexer that matches each whitespace run, comment and token on its own and
# counts columns as it goes: the reference for `dsl.tokenize`, kept as written
# but for its digit class, which takes ASCII digits only, like the lexer's.

TOKEN_RE = re.compile(
    r"""
    (?P<ws>[^\S\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<number>-?[0-9]+(?:\.[0-9]+)?(?:/[0-9]+)?)
  | (?P<string>"[^"\n]*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>~>|->|!=|<=|>=|<>|\[\]|[(){}\[\],.:=<>!&|@_])
    """,
    re.VERBOSE,
)


def reference_tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    depth = 0
    end = (1, 1)  # just after the last token but a newline: where input ends
    while pos < len(text):
        m = TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind == "newline":
            if depth == 0:
                tokens.append(Token("newline", value, line, col))
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                if value == "(":
                    depth += 1
                elif value == ")":
                    depth = max(0, depth - 1)
                k = "op" if kind == "op" else kind
                tokens.append(Token(k, value, line, col))
                end = (line, col + len(value))
            col += len(value)
        pos = m.end()
    tokens.append(Token("eof", "", *end))
    return tokens
