"""Spans around calls into each rmas layer, recorded from outside `src/`.

Each wrapper is bound where its caller looks the name up: the builder calls
`Q.eval_query` through the queries module, imports the commitment
enumerators, `assign_results` and `state_key` by name, and calls its own
methods through `self`; the model checker recurses through `self.eval`.  A
binding that misses shows up as a span count that disagrees with an exact
count, which `self_test` turns into a failed run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# A span is [name, tag, parent index (-1 for none), seconds, count]; count is
# the wrapper's measure of the work done (answers, items, pairs, ...).
NAME, TAG, PARENT, SECONDS, COUNT = range(5)

ATOMS = {"LocAtom", "CmpAtom", "LiveAtom"}
BOOLS = {"PTrue", "PNot", "PAnd", "POr"}
QUANTS = {"PExists", "PForall"}
MODALS = {"PDiamond", "PBox"}
FIXPOINTS = {"PMu", "PNu", "PVar"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._keys: set[bytes] = set()  # state keys seen in the current build

    def _record(self, name: str, tag) -> list:
        rec = [name, tag, self._stack[-1] if self._stack else -1, 0.0, 0]
        self.spans.append(rec)
        return rec

    def _open(self, name: str, tag) -> list:
        rec = self._record(name, tag)
        self._stack.append(len(self.spans) - 1)
        return rec

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call into a layer."""
        if name == "builder.build":
            self._keys = set()
        rec = self._open(name, None)
        t0 = time.perf_counter()
        try:
            yield rec
        finally:
            rec[SECONDS] = time.perf_counter() - t0
            self._stack.pop()

    def wrap(self, name: str, fn, count=len, tag=None):
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = self._open(name, tag(args) if tag else None)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[SECONDS] = clock() - t0
                stack.pop()
            rec[COUNT] = count(out)
            return out

        return wrapper

    def wrap_generator(self, name: str, fn):
        """Time the consumption of a generator, not its creation."""
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = self._record(name, None)
            idx = len(self.spans) - 1
            it = fn(*args, **kwargs)
            while True:
                stack.append(idx)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec[SECONDS] += clock() - t0
                    stack.pop()
                rec[COUNT] += 1
                yield item

        return wrapper

    def _key_seen(self, key: bytes) -> int:
        if key in self._keys:
            return 1
        self._keys.add(key)
        return 0

    def install(self) -> None:
        """Bind the wrappers into the rmas modules of this process."""
        from rmas import builder, mucalc, queries

        B = builder.Builder
        queries.eval_query = self.wrap("queries.eval", queries.eval_query)
        builder.enumerate_dense_commitments = self.wrap_generator(
            "commitments.enum", builder.enumerate_dense_commitments)
        builder.enumerate_equality_commitments = self.wrap_generator(
            "commitments.enum", builder.enumerate_equality_commitments)
        builder.assign_results = self.wrap(
            "commitments.assign", builder.assign_results, count=lambda _: 1)
        builder.state_key = self.wrap(
            "builder.state_key", builder.state_key, count=self._key_seen)
        B.step_successors = self.wrap("builder.step", B.step_successors)
        B.enabled_messages = self.wrap("builder.enabled", B.enabled_messages)
        B.collect_reactions = self.wrap("builder.reactions", B.collect_reactions)
        B.get_facts = self.wrap("builder.facts", B.get_facts, count=lambda _: 0)
        C = mucalc.ModelChecker
        C.__init__ = self.wrap("mucalc.init", C.__init__, count=lambda _: 0)
        C.eval = self.wrap("mucalc.eval", C.eval, tag=lambda a: type(a[1]).__name__)

    # -- derived metrics ------------------------------------------------------

    def layers(self) -> dict[str, float]:
        """Per-layer totals of one run: busy seconds, self seconds, counts."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_s[rec[PARENT]] += rec[SECONDS]

        def total(name, field=SECONDS, where=lambda r: True):
            return sum(r[field] for r in spans if r[NAME] == name and where(r))

        def calls(name, where=lambda r: True):
            return sum(1 for r in spans if r[NAME] == name and where(r))

        def parent_is(name):
            return lambda r: r[PARENT] >= 0 and spans[r[PARENT]][NAME] == name

        def self_s(name, tags=None):
            return sum(r[SECONDS] - child_s[i] for i, r in enumerate(spans)
                       if r[NAME] == name and (tags is None or r[TAG] in tags))

        evals = calls("queries.eval")
        # The only eval_query calls made directly under step_successors are
        # constraint acceptance (Builder._acceptable): rule queries, reaction
        # conditions and effect guards run under their own traced methods.
        accept = parent_is("builder.step")
        accept_evals = calls("queries.eval", accept)
        successors = total("builder.step", COUNT)
        return {
            "builder.step_s": total("builder.step"),
            "builder.step_self_s": self_s("builder.step"),
            "builder.steps": calls("builder.step"),
            "builder.enabled_s": total("builder.enabled"),
            "builder.messages": total("builder.enabled", COUNT),
            "builder.reactions_s": total("builder.reactions"),
            "builder.facts_s": total("builder.facts"),
            "builder.accept_s": total("queries.eval", where=accept),
            "builder.accept_evals": accept_evals,
            "builder.accept_pass_share": (
                calls("queries.eval", lambda r: accept(r) and r[COUNT] > 0)
                / accept_evals if accept_evals else 0.0),
            "builder.state_key_s": total("builder.state_key"),
            "builder.successors": successors,
            "builder.dedup_hit_share": (
                total("builder.state_key", COUNT) / successors if successors else 0.0),
            "queries.eval_s": total("queries.eval"),
            "queries.evals": evals,
            "queries.answers_per_eval": (
                total("queries.eval", COUNT) / evals if evals else 0.0),
            "commitments.enum_s": total("commitments.enum"),
            "commitments.enumerated": total("commitments.enum", COUNT),
            "commitments.assign_s": total("commitments.assign"),
            "commitments.branches": calls("commitments.assign"),
            "mucalc.check_s": total("mucalc.check"),
            "mucalc.init_s": total("mucalc.init"),
            "mucalc.ext_pairs": total("mucalc.eval", COUNT),
            "mucalc.atom_s": self_s("mucalc.eval", ATOMS),
            "mucalc.bool_s": self_s("mucalc.eval", BOOLS),
            "mucalc.quant_s": self_s("mucalc.eval", QUANTS),
            "mucalc.modal_s": self_s("mucalc.eval", MODALS),
            "mucalc.fixpoint_s": self_s("mucalc.eval", FIXPOINTS),
        }

    def self_test(self, states: int, checks: int) -> list[str]:
        """Exact counts the span counts must match; a missed binding fails here.

        `states` is the number of states of every build in the run and
        `checks` the number of model_check calls.
        """
        spans = self.spans
        layers = self.layers()
        problems = []

        def expect(what, got, want):
            if got != want:
                problems.append(f"span self-test: {what}: {got} != {want}")

        builds = sum(1 for r in spans if r[NAME] == "builder.build")
        # every state is expanded once, capped builds included: a state
        # over the cap is never added, so never expanded
        expect("step spans vs states", layers["builder.steps"], states)
        # one key for each initial state and each successor
        expect("state_key spans vs successors + builds",
               sum(1 for r in spans if r[NAME] == "builder.state_key"),
               layers["builder.successors"] + builds)
        # each workload commits one type per exchange, so every commitment
        # enumerated is one branch handed to assign_results
        expect("commitments enumerated vs assign calls",
               layers["commitments.enumerated"], layers["commitments.branches"])
        expect("ModelChecker constructions vs checks",
               sum(1 for r in spans if r[NAME] == "mucalc.init"), checks)
        expect("top-level eval spans vs checks",
               sum(1 for r in spans if r[NAME] == "mucalc.eval"
                   and r[PARENT] >= 0 and spans[r[PARENT]][NAME] == "mucalc.check"),
               checks)
        inside = {"builder.step", "builder.enabled", "builder.reactions", "builder.facts"}
        expect("eval_query calls outside the traced builder methods",
               sum(1 for r in spans if r[NAME] == "queries.eval"
                   and (r[PARENT] < 0 or spans[r[PARENT]][NAME] not in inside)), 0)
        if states and not layers["queries.evals"]:
            problems.append("span self-test: no eval_query span in a build")
        return problems
