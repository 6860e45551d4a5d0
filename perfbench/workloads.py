"""The three benchmark workloads.

Each workload makes its inputs from the seed, builds the system from a
JSON-shaped payload (:meth:`Workload.setup`, timed), and then runs a closed
loop in whole *cycles* until the window has passed.  Every write is a
paired change that the same cycle undoes, so the instance is stationary and
a run of any length sees the same mix.  Each cycle does the same work in a
seed-chosen order, so two runs differ by their data and order, not by their
mix of operations.

Correctness: a seeded sample of the explanations a run produced is compared,
after the window, with a from-scratch reference over the same instance state
(ranked cause tuples and exact responsibilities).
"""

from __future__ import annotations

import bisect
import gc
import itertools
import math
import random
import threading
import time
from typing import Any, Dict, List, Sequence, Tuple

from repro import DatabaseDelta, ExplanationSession, Tuple as Fact
from repro import database_from_dict, parse_query
from repro.engine import WhyNoBatchExplainer
from repro.exceptions import AdmissionError, ReproError
from repro.server import SessionConfig
from repro.server.testing import ServerHarness
from repro.workloads import burton_genre_query, generate_imdb

#: ``(relation, values, responsibility as an exact fraction string)``.
Canonical = List[Tuple[str, Tuple[Any, ...], str]]


def canonical(explanation: Any) -> Canonical:
    """Ranked causes with exact responsibilities, comparable across runs."""
    return [(cause.tuple.relation, tuple(cause.tuple.values),
             str(cause.responsibility)) for cause in explanation.ranked()]


def wire_canonical(wire: Dict[str, Any]) -> Canonical:
    """The same shape, read off the service's wire explanation."""
    return [(cause["relation"], tuple(cause["values"]),
             cause["responsibility"]) for cause in wire["causes"]]


def payload_of(database: Any, endogenous: Sequence[str]) -> Dict[str, Any]:
    """The JSON-shaped payload ``{"relations": ..., "endogenous_relations"}``."""
    return {
        "relations": {relation: [list(t.values)
                                 for t in sorted(database.tuples_of(relation))]
                      for relation in sorted(database.relations())},
        "endogenous_relations": list(endogenous),
    }


def load(payload: Dict[str, Any]) -> Any:
    return database_from_dict(
        {name: [tuple(row) for row in rows]
         for name, rows in payload["relations"].items()},
        endogenous_relations=payload["endogenous_relations"])


class LoopResult:
    """What one measurement window observed."""

    def __init__(self) -> None:
        self.read_ms: List[float] = []
        self.write_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        self.cycles = 0
        self.setup_s: List[float] = []
        self.elapsed_s = 0.0
        # Completion instants of the operations that succeeded, and the
        # stretches of the window (set-ups taken in the window are off it).
        self.done_at: List[float] = []
        self.windows: List[Tuple[float, float]] = []
        self.memo_hits = 0
        self.memo_misses = 0
        # (changed tuple, or None for the generated instance; target;
        #  observed canonical explanation)
        self.samples: List[Tuple[Any, Any, Canonical]] = []
        self._lock = threading.Lock()

    def timed(self, kind: str, fn: Any, *args: Any) -> Any:
        """Run one operation; a failure counts and misses every limit."""
        start = time.perf_counter()
        try:
            result = fn(*args)
        except AdmissionError:
            self._done(kind, math.inf, failed=True, rejected=True)
            return None
        except ReproError:
            self._done(kind, math.inf, failed=True)
            return None
        self._done(kind, 1e3 * (time.perf_counter() - start))
        return result

    def _done(self, kind: str, ms: float, failed: bool = False,
              rejected: bool = False) -> None:
        now = time.perf_counter()
        with self._lock:
            if not failed:
                self.done_at.append(now)
            (self.read_ms if kind == "read" else self.write_ms).append(ms)
            self.attempted += 1
            self.failed += failed
            self.rejected += rejected

    @property
    def ops(self) -> int:
        """Operations completed (a failed one is timed as infinite)."""
        return sum(math.isfinite(ms) for ms in self.read_ms + self.write_ms)

    def window_times(self) -> List[float]:
        """Each completion's instant on the window's own clock, which runs
        only during its stretches."""
        done = sorted(self.done_at)
        times: List[float] = []
        base = 0.0
        for start, end in sorted(self.windows):
            first = bisect.bisect_left(done, start)
            last = bisect.bisect_right(done, end)
            times.extend(base + t - start for t in done[first:last])
            base += end - start
        return times


class Workload:
    """One named workload: inputs from a seed, set-up, loop, reference."""

    name = ""
    why = ""
    #: One fresh set-up is timed before the window (it becomes the loop's
    #: state) and ``setup_samples`` more at evenly spaced points of the
    #: window, between cycles and off the clock; ``setup_s`` is the median
    #: of them all.  Back-to-back set-ups would all land in one phase of a
    #: CPU whose speed shifts by half for seconds at a time.
    setup_samples = 5
    #: share of reads whose explanation is compared with the reference.
    sample_rate = 0.05
    #: run every thread of the benchmark process on one CPU.
    one_cpu = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)

    def setup(self) -> Any:
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        state.close()

    def prepare(self, state: Any) -> None:
        """Untimed: bring the state to the loop's steady state."""

    #: the tuples a cycle changes and changes back, in the seed's order.
    flips: List[Fact] = []

    def change(self, tup: Fact) -> DatabaseDelta:
        """The write that takes the instance away from its generated state."""
        raise NotImplementedError

    def undo(self, tup: Fact) -> DatabaseDelta:
        raise NotImplementedError

    def stale(self, report: Any) -> List[Any]:
        """The targets a refresh report says must be explained again."""
        raise NotImplementedError

    def reference(self, database: Any) -> Any:
        """A from-scratch explainer over ``database``."""
        raise NotImplementedError

    def cycle(self, state: Any, result: LoopResult,
              sampler: random.Random) -> None:
        """Change and restore every flip tuple, re-explaining after each."""
        for tup in self.flips:
            for changed, delta in ((tup, self.change(tup)),
                                   (None, self.undo(tup))):
                report = result.timed("write", state.refresh, delta)
                if report is None:
                    continue
                for target in self.stale(report):
                    explanation = result.timed("read", state.explain, target)
                    if explanation is not None \
                            and sampler.random() < self.sample_rate:
                        result.samples.append(
                            (changed, target, canonical(explanation)))

    def timed_setup(self) -> Tuple[Any, float]:
        """One fresh set-up and its duration in seconds."""
        gc.collect()
        start = time.perf_counter()
        state = self.setup()
        return state, time.perf_counter() - start

    def sample_setup(self, result: LoopResult) -> None:
        fresh, took = self.timed_setup()
        result.setup_s.append(took)
        self.teardown(fresh)

    def run(self, state: Any, seconds: float, result: LoopResult,
            sample_setups: bool = False) -> None:
        """Whole cycles until ``seconds`` have passed (at least one).

        With ``sample_setups``, the ``setup_samples`` set-ups are taken
        between cycles, spread evenly over the window.
        """
        sampler = random.Random(self.seed + 1)
        memo = self.memo_counts(state)
        samples = self.setup_samples if sample_setups else 0
        taken = 0
        elapsed = 0.0
        while elapsed < seconds or not result.cycles:
            start = time.perf_counter()
            self.cycle(state, result, sampler)
            end = time.perf_counter()
            result.windows.append((start, end))
            elapsed += end - start
            result.cycles += 1
            while taken < samples and elapsed >= taken * seconds / samples:
                self.sample_setup(result)
                taken += 1
        for _ in range(taken, samples):
            self.sample_setup(result)
        result.elapsed_s += elapsed
        hits, misses = self.memo_counts(state)
        result.memo_hits += hits - memo[0]
        result.memo_misses += misses - memo[1]

    def memo_counts(self, state: Any) -> Tuple[int, int]:
        raise NotImplementedError

    def live_targets(self, explainer: Any) -> List[Any]:
        """Every target (answer or non-answer) the explainer serves."""
        raise NotImplementedError

    def check(self, state: Any, result: LoopResult) -> int:
        """After the window, with the instance back in its generated state,
        explain every live target once more, then compare (see
        :meth:`compare`)."""
        live = self.live_targets(state)
        for target in live:
            result.attempted += 1
            try:
                explanation = state.explain(target)
            except ReproError:
                result.failed += 1
                continue
            result.samples.append((None, target, canonical(explanation)))
        return self.compare(result, live)

    def compare(self, result: LoopResult, live: List[Any]) -> int:
        """Mismatches of the samples, and of the live target set, against a
        from-scratch reference over the same instance state."""
        references: Dict[Any, Any] = {}

        def reference_for(changed: Any) -> Any:
            if changed not in references:
                database = load(self.payload)
                if changed is not None:
                    self.change(changed).apply_to(database)
                references[changed] = self.reference(database)
            return references[changed]

        mismatches = sorted(live) != sorted(
            self.live_targets(reference_for(None)))
        for changed, target, observed in result.samples:
            try:
                expected = canonical(reference_for(changed).explain(target))
            except ReproError:  # the reference does not serve the target
                expected = None
            mismatches += expected != observed
        for reference in references.values():
            reference.close()
        return mismatches


# --------------------------------------------------------------------------- #
# imdb-interactive: the paper's loop over Algorithm 1
# --------------------------------------------------------------------------- #
class ImdbInteractive(Workload):
    """Ex. 1.1 / Fig. 2: delete a suspect tuple, re-explain, restore."""

    name = "imdb-interactive"
    why = ("Algorithm 1 over |D| far above the lineage; hitting-set and "
           "LineageCache idle")
    # Its set-up takes milliseconds: sample about three per cycle.
    setup_samples = 45
    #: non-Burton directors; |D| grows ~13 tuples per director.
    padding_directors = 30

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        scenario = generate_imdb(padding_directors=self.padding_directors,
                                 seed=seed)
        self.payload = payload_of(scenario.database, ("Director", "Movie"))
        # The endogenous tuples of the Burton answers' lineage.
        targets = sorted(scenario.directors.values()) \
            + sorted(scenario.movies.values())
        self.rng.shuffle(targets)
        self.flips = targets

    def setup(self) -> ExplanationSession:
        session = ExplanationSession(burton_genre_query(), load(self.payload))
        session.answers()
        return session

    def prepare(self, state: ExplanationSession) -> None:
        for answer in state.answers():
            state.explain(answer)

    def memo_counts(self, state: ExplanationSession) -> Tuple[int, int]:
        stats = state.engine_stats()
        return stats["whyso_memo_hits"], stats["whyso_memo_misses"]

    def change(self, tup: Fact) -> DatabaseDelta:
        return DatabaseDelta(deletes=[tup])

    def undo(self, tup: Fact) -> DatabaseDelta:
        return DatabaseDelta(inserts=[(tup, True)])

    def stale(self, report: Any) -> List[Any]:
        return sorted(report["why-so"].stale)

    def reference(self, database: Any) -> ExplanationSession:
        return ExplanationSession(burton_genre_query(), database)

    def live_targets(self, explainer: ExplanationSession) -> List[Any]:
        return explainer.answers()


# --------------------------------------------------------------------------- #
# whyno-sqlite: batched Why-No over the SQLite backend, write-heavy
# --------------------------------------------------------------------------- #
class WhyNoSqlite(Workload):
    """Flip each non-answer to an answer and back; re-explain what refresh
    marks stale."""

    name = "whyno-sqlite"
    why = ("SQL pass, SQLite lineage-index twin and non-answer rediscovery "
           "per refresh; Algorithm 1 and the columnar pass idle")
    query_text = "q(x) :- R(x, y), S(y)"
    n_x = 120
    n_y = 40

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = self.rng
        ys = [f"y{i}" for i in range(self.n_y)]
        in_s = sorted(rng.sample(ys, self.n_y // 2))
        out_s = [y for y in ys if y not in set(in_s)]
        rows = set()
        non_answers = []
        for i in range(self.n_x):
            x = f"x{i}"
            # Every other x joins only values outside S: a non-answer.
            pool = ys if i % 2 == 0 else out_s
            for y in rng.sample(pool, 3):
                rows.add((x, y))
            if i % 2:
                non_answers.append(x)
        self.payload = {
            "relations": {"R": [list(r) for r in sorted(rows)],
                          "S": [[y] for y in in_s]},
            "endogenous_relations": ["R", "S"],
        }
        self.domains = {"x": [f"x{i}" for i in range(self.n_x)], "y": ys}
        # One flip per non-answer: a real R(x, b) with b in S makes x an
        # answer; deleting it makes x a non-answer again.
        self.flips = [Fact("R", (x, rng.choice(in_s))) for x in non_answers]
        rng.shuffle(self.flips)

    def setup(self) -> WhyNoBatchExplainer:
        explainer = WhyNoBatchExplainer.for_missing_answers(
            parse_query(self.query_text), load(self.payload),
            domains=self.domains, backend="sqlite")
        explainer.explain_all()
        return explainer

    def memo_counts(self, state: WhyNoBatchExplainer) -> Tuple[int, int]:
        return state.memo_hits, state.memo_misses

    def change(self, tup: Fact) -> DatabaseDelta:
        return DatabaseDelta(inserts=[(tup, True)])

    def undo(self, tup: Fact) -> DatabaseDelta:
        return DatabaseDelta(deletes=[tup])

    def stale(self, report: Any) -> List[Any]:
        return sorted(report.stale | report.new_answers)

    def reference(self, database: Any) -> WhyNoBatchExplainer:
        return WhyNoBatchExplainer.for_missing_answers(
            parse_query(self.query_text), database, domains=self.domains,
            backend="memory")

    def live_targets(self, explainer: WhyNoBatchExplainer) -> List[Any]:
        return list(explainer.non_answers)


# --------------------------------------------------------------------------- #
# serve-hot: the resident service with a warm memo
# --------------------------------------------------------------------------- #
class ServeHot(Workload):
    """A closed-loop client: Zipf reads of memo-resident answers plus a
    paired delta per client cycle.

    The query binds to the NP-hard star h1* (Thm 4.1) for every answer, so
    ``auto`` serves cold reads with the exact hitting-set engine and its
    LineageCache: cheap enough to warm every answer in the set-up.
    """

    name = "serve-hot"
    why = ("server path on memo hits: NDJSON framing, event loop, thread "
           "hop, RW lock, admission")
    sample_rate = 0.005
    query_text = "q(w) :- A(w, x), B(w, y), C(w, z), W(x, y, z)"
    session = "hot"
    # The client, the event loop and the session worker hand the interpreter
    # lock on at every request.  With two clients, the two client threads
    # also contend for it; spread over two shared vCPUs, each hand-off also
    # waits for a wake-up on the other vCPU, which a busy neighbour on the
    # host delays.  Either put the spread of identical runs past the bound.
    clients = 1
    one_cpu = True
    reads_per_cycle = 98
    n_answers = 200
    n_values = 40
    writable_per_client = 20
    zipf_s = 1.1

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = self.rng
        values = [f"v{i}" for i in range(self.n_values)]
        rows: Dict[str, set] = {"A": set(), "B": set(), "C": set(),
                                "W": set()}
        self.answers = [f"w{i}" for i in range(self.n_answers)]
        deletable = {}
        for w in self.answers:
            (x1, x2), (y1, y2), (z1, z2) = (rng.sample(values, 2)
                                            for _ in range(3))
            rows["A"] |= {(w, x1), (w, x2)}
            rows["B"] |= {(w, y1), (w, y2)}
            rows["C"] |= {(w, z1), (w, z2)}
            rows["W"] |= {(x1, y1, z1), (x1, y2, z2), (x2, y2, z1)}
            # A(w, x2) is in one witness only: w stays an answer without it.
            deletable[w] = Fact("A", (w, x2))
        self.payload = {
            "relations": {name: [list(r) for r in sorted(found)]
                          for name, found in rows.items()},
            "endogenous_relations": ["A", "B", "C"],
        }
        popularity = list(self.answers)
        rng.shuffle(popularity)
        self.popularity = popularity
        weights = [1.0 / (rank ** self.zipf_s)
                   for rank in range(1, len(popularity) + 1)]
        self.cum_weights = list(itertools.accumulate(weights))
        writable = rng.sample(self.answers,
                              self.clients * self.writable_per_client)
        self.owned = [[deletable[w] for w in writable[c::self.clients]]
                      for c in range(self.clients)]
        self.written = frozenset(writable)

    def setup(self) -> ServerHarness:
        harness = ServerHarness([SessionConfig(
            self.session, self.query_text, self.payload)]).start()
        with harness.client() as client:
            client.explain_batch(self.session,
                                 answers=[[x] for x in self.answers])
        return harness

    def teardown(self, state: ServerHarness) -> None:
        state.stop()

    def memo_counts(self, state: ServerHarness) -> Tuple[int, int]:
        with state.client() as client:
            engines = client.stats(self.session)[self.session]["engines"]
        return engines["whyso_memo_hits"], engines["whyso_memo_misses"]

    def _zipf(self, rng: random.Random) -> str:
        point = rng.random() * self.cum_weights[-1]
        return self.popularity[bisect.bisect_left(self.cum_weights, point)]

    def _client_loop(self, harness: ServerHarness, index: int,
                     deadline: float, rng: random.Random,
                     sampler: random.Random, result: LoopResult,
                     cycles: List[int]) -> None:
        owned = self.owned[index]
        with harness.client() as client:
            # Request ids unique across clients, so a traced span on the
            # server's session worker names the one request it served.
            client._ids = itertools.count(
                1 + index * 1_000_000_000 + cycles[index] * 1_000)
            while True:
                for _ in range(self.reads_per_cycle):
                    answer = self._zipf(rng)
                    frame = result.timed("read", client.explain,
                                         self.session, [answer])
                    if frame is not None and answer not in self.written \
                            and sampler.random() < self.sample_rate:
                        result.samples.append(
                            (None, (answer,),
                             wire_canonical(frame["explanation"])))
                tup = rng.choice(owned)
                rows = {tup.relation: [list(tup.values)]}
                for change in ({"delete": {"relations": rows}},
                               {"insert": {"relations": rows}}):
                    result.timed("write", client.delta, self.session, change)
                cycles[index] += 1
                if time.perf_counter() >= deadline:
                    return

    def run(self, state: ServerHarness, seconds: float,
            result: LoopResult, sample_setups: bool = False) -> None:
        """Every client, each in whole cycles, in ``setup_samples`` stretches
        of equal length; with ``sample_setups`` a set-up is timed after each
        stretch, while the clients are stopped."""
        memo = self.memo_counts(state)
        cycles = [0] * self.clients
        rngs = [(random.Random(self.seed * 1000 + i + 1),
                 random.Random(self.seed * 1000 + i + 101))
                for i in range(self.clients)]
        errors: List[BaseException] = []

        def client_main(index: int, deadline: float) -> None:
            try:
                self._client_loop(state, index, deadline, *rngs[index],
                                  result, cycles)
            except BaseException as error:  # reported after join
                errors.append(error)

        for _ in range(self.setup_samples):
            start = time.perf_counter()
            deadline = start + seconds / self.setup_samples
            threads = [threading.Thread(target=client_main, args=(i, deadline))
                       for i in range(self.clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            end = time.perf_counter()
            result.windows.append((start, end))
            result.elapsed_s += end - start
            if errors:
                raise errors[0]
            if sample_setups:
                self.sample_setup(result)
        result.cycles += sum(cycles)
        hits, misses = self.memo_counts(state)
        result.memo_hits += hits - memo[0]
        result.memo_misses += misses - memo[1]

    def check(self, state: ServerHarness, result: LoopResult) -> int:
        """In-window samples of never-written answers, then every written
        answer and a seeded sample of the rest, read after the window."""
        checker = random.Random(self.seed + 2)
        after = sorted(self.written) + checker.sample(
            sorted(set(self.answers) - self.written), 20)
        with state.client() as client:
            live = [tuple(a) for a in client.answers(self.session)["answers"]]
            for answer in after:
                result.attempted += 1
                try:
                    frame = client.explain(self.session, [answer])
                except ReproError:
                    result.failed += 1
                    continue
                result.samples.append(
                    (None, (answer,), wire_canonical(frame["explanation"])))
        return self.compare(result, live)

    def reference(self, database: Any) -> ExplanationSession:
        return ExplanationSession(parse_query(self.query_text), database)

    def live_targets(self, explainer: ExplanationSession) -> List[Any]:
        return explainer.answers()


WORKLOADS = {workload.name: workload
             for workload in (ImdbInteractive, WhyNoSqlite, ServeHot)}

