"""Parallel fan-out for the batch explainers.

Both :class:`~repro.engine.batch.BatchExplainer` and
:class:`~repro.engine.whyno_batch.WhyNoBatchExplainer` parallelise the same
way: the parent finishes the expensive shared work (the open-query valuation
pass, candidate generation, the combined instance), and only the cheap
per-target explanation step is fanned out.  Workers therefore *inherit* the
parent's shared state instead of re-deriving it — the historical pool
shipped each worker a bound query and had it re-run everything.

The seam has three pieces:

* :class:`FanOutSpec` — what a worker does: an optional per-worker ``setup``
  turning the shared state into a worker context, a per-target ``compute``,
  and an optional ``finalize`` returning a picklable extra (e.g. cache
  entries to merge back).  All three must be module-level functions so they
  pickle by reference.
* one process pool.  The shared state, the chunk list and a shared claim
  index reach every worker through the pool's ``initializer``.  The start
  method is the platform's: under ``fork`` (POSIX) the workers inherit that
  state copy-on-write, under ``spawn`` (everywhere else) it is pickled once
  per worker — never once per chunk.  Targets are split into fine-grained
  chunks (several per worker) behind the claim index; each worker loops:
  lock, read-and-increment the index, run the claimed chunk.  Fast workers
  drain what slow ones never reach, so one skewed target (an answer with
  100× the lineage) delays only its own chunk.  A worker that claims
  nothing never runs ``setup`` (and skips ``finalize``).  One worker or one
  target runs ``serial``: in the parent, with no processes at all.
* :class:`FanOutResult` — a plain dict of per-target results (keyed in the
  serial target order, independent of the worker count and of which worker
  claimed what) that additionally reports what actually ran:
  :attr:`~FanOutResult.transport` (``serial``, ``fork`` or ``spawn``),
  :attr:`~FanOutResult.requested_workers` and
  :attr:`~FanOutResult.effective_workers` (the pool shrinks to
  ``min(workers, len(targets))`` only when targets are scarcer than
  workers; the result makes the actual count visible so benchmarks and
  tests can assert on it).

Failures are typed, never hung and never half-merged: a worker that raises
surfaces as a :class:`~repro.exceptions.FanOutWorkerError` naming the
offending target; a worker *process* that dies surfaces the same error
naming the chunks that never reported back.  A failing worker stops
claiming; its siblings drain the remaining chunks, so the wait is bounded
by the slowest chunk.  On any failure no result (and no ``finalize`` extra)
is handed to the caller, so the parent's caches stay exactly as they were.

**Streaming**: ``fan_out(..., on_chunk=...)`` reports each *successful*
chunk the moment its worker returns — ``on_chunk(chunk_targets,
chunk_results)`` runs in the parent, in completion order — instead of
making the consumer wait for the full merged dict.  The failure contract
extends to the stream: a failed chunk is **never** delivered through
``on_chunk`` (no partial chunks, no silently shorter stream) and the run
still raises its typed :class:`~repro.exceptions.FanOutWorkerError`, so a
streaming consumer can mark the delivered prefix as partial — every target
is accounted for as either delivered, named by the error, or undelivered
(= requested minus the other two).  Successful sibling chunks completing
after a failure are still delivered before the raise.

Examples
--------
The serial path runs in-process, so it also serves as the reference
semantics for the pool:

>>> spec = FanOutSpec(compute=lambda state, target: state * target)
>>> result = fan_out([1, 2, 3], 10, spec, workers=1)
>>> dict(result)
{1: 10, 2: 20, 3: 30}
>>> result.transport, result.requested_workers, result.effective_workers
('serial', 1, 1)

``setup`` runs once per worker, ``finalize`` once per worker after its
last chunk; the extras are collected on the result:

>>> spec = FanOutSpec(setup=lambda state: {"base": state, "seen": []},
...                   compute=lambda ctx, t: ctx["seen"].append(t) or ctx["base"] + t,
...                   finalize=lambda ctx: tuple(ctx["seen"]))
>>> result = fan_out(["a", "b"], "!", spec, workers=1)
>>> dict(result), result.extras
({'a': '!a', 'b': '!b'}, [('a', 'b')])
"""

from __future__ import annotations

import concurrent.futures
import itertools
import multiprocessing
import pickle
import traceback
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar
from typing import Tuple as TypingTuple

from ..exceptions import FanOutError, FanOutWorkerError

Key = TypeVar("Key")

#: Parent-side streaming callback: ``on_chunk(chunk_targets, chunk_results)``
#: per successfully completed chunk, in completion order.  Never pickled and
#: never shipped to a worker, so any callable works.
OnChunk = Callable[[List[Any], Dict[Any, Any]], None]

#: The pool's process start method: ``fork`` where the platform has it,
#: ``spawn`` otherwise.  Not a caller option — tests monkeypatch it to run
#: the spawn path on POSIX.
_START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() \
    else "spawn"

#: Fine-grained chunks per worker.  Higher values level skew better but pay
#: one claim-lock round-trip per chunk; 4 keeps the slowest worker's tail at
#: ~1/4 of an even share while the lock stays cold.
_STEAL_CHUNK_FACTOR = 4


class FanOutSpec:
    """What each fan-out worker runs, as three module-level functions.

    Parameters
    ----------
    compute:
        ``compute(context, target) -> value`` — the per-target work.
    setup:
        Optional ``setup(shared_state) -> context``, run once per worker
        before its first target (build the worker-side explainer here).
        When omitted the shared state itself is the context.
    finalize:
        Optional ``finalize(context) -> extra``, run once per worker after
        its last target; the picklable extras are collected on
        :attr:`FanOutResult.extras` (merge caches back from here).

    For the process pool all three must be importable module-level
    functions (a spawn worker unpickles them by reference); the serial path
    also accepts lambdas, which keeps doctests and tests lightweight.
    """

    __slots__ = ("compute", "setup", "finalize")

    def __init__(self, compute: Callable[[Any, Any], Any],
                 setup: Optional[Callable[[Any], Any]] = None,
                 finalize: Optional[Callable[[Any], Any]] = None) -> None:
        self.compute = compute
        self.setup = setup
        self.finalize = finalize


class FanOutResult(Dict[Any, Any]):
    """Per-target results plus a report of what actually ran.

    A plain ``dict`` (key order = serial target order), extended with:

    Attributes
    ----------
    transport:
        What ran: ``"serial"`` (in the parent) or the pool's start method,
        ``"fork"`` or ``"spawn"``.
    requested_workers:
        The worker count the caller asked for (1 when unspecified).
    effective_workers:
        The number of worker processes that actually ran,
        ``min(requested_workers, len(targets))`` (see
        :func:`effective_pool_size`).  The serial path always reports 1.
    extras:
        The per-worker ``finalize`` returns, in worker submission order
        (empty when the spec has no ``finalize``).
    state_bytes:
        Pickled size of the staged ``(spec, shared_state)`` pair — what a
        spawn worker receives; fork and serial runs measure the identical
        pickle without shipping it, so ``--cache-stats`` lines stay
        comparable.  ``None`` when the state is unpicklable (e.g. lambda
        specs on the serial path) or on engine fast paths that never stage
        state for a pool at all.
    """

    def __init__(self, results: Dict[Any, Any], transport: str,
                 requested_workers: int, effective_workers: int,
                 extras: Optional[List[Any]] = None,
                 state_bytes: Optional[int] = None) -> None:
        super().__init__(results)
        self.transport = transport
        self.requested_workers = requested_workers
        self.effective_workers = effective_workers
        self.extras: List[Any] = [] if extras is None else extras
        self.state_bytes = state_bytes

    def __repr__(self) -> str:
        return (f"FanOutResult({len(self)} target(s), "
                f"transport={self.transport!r}, "
                f"workers={self.effective_workers}/{self.requested_workers})")


def resolve_transport(workers: Optional[int], n_targets: int) -> str:
    """What a request runs on: ``"serial"`` or the pool's start method.

    Examples
    --------
    >>> resolve_transport(None, 10)
    'serial'
    >>> resolve_transport(4, 1)
    'serial'
    >>> resolve_transport(4, 10) == _START_METHOD
    True
    """
    if workers is None or workers <= 1 or n_targets <= 1:
        return "serial"
    return _START_METHOD


def effective_pool_size(n_targets: int, workers: int) -> int:
    """Workers that actually run for a request: ``min(workers, n_targets)``.

    A request is only ever shrunk when there are fewer targets than
    workers.  This is the number :attr:`FanOutResult.effective_workers`
    reports.

    Examples
    --------
    >>> effective_pool_size(5, 4)
    4
    >>> effective_pool_size(2, 7)
    2
    >>> effective_pool_size(1, 4)
    1
    """
    if n_targets <= 1 or workers <= 1:
        return 1
    return min(workers, n_targets)


def _chunked(targets: Sequence[Any], n_chunks: int) -> List[List[Any]]:
    """Balanced contiguous chunks, exactly ``n_chunks`` of them.

    The first ``len(targets) % n_chunks`` chunks carry one extra target
    (floor + remainder split), so chunk sizes differ by at most one.

    >>> _chunked(list(range(5)), 4)
    [[0, 1], [2], [3], [4]]
    >>> _chunked(list(range(8)), 4)
    [[0, 1], [2, 3], [4, 5], [6, 7]]
    """
    base, extra = divmod(len(targets), n_chunks)
    chunks: List[List[Any]] = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(list(targets[start:start + size]))
        start += size
    return chunks


# --------------------------------------------------------------------------- #
# worker side (module-level so a spawn worker unpickles it by reference)
# --------------------------------------------------------------------------- #
# (spec, shared_state, chunks, claim index), installed by the pool
# initializer: inherited copy-on-write under fork, unpickled once under spawn.
_WORKER_STATE: Any = None


def _init_worker(spec: FanOutSpec, state: Any, chunks: List[List[Any]],
                 claim: Any) -> None:
    global _WORKER_STATE
    _WORKER_STATE = (spec, state, chunks, claim)


def _claim_next(claim: Any) -> int:
    with claim.get_lock():
        index = claim.value
        claim.value = index + 1
    return int(index)


def _pool_worker() -> Dict[str, Any]:
    spec, state, chunks, claim = _WORKER_STATE
    return _claim_loop(spec, state, chunks, lambda: _claim_next(claim))


def _claim_loop(spec: FanOutSpec, state: Any, chunks: List[List[Any]],
                claim_next: Callable[[], int]) -> Dict[str, Any]:
    """One worker's claim-run loop; never raises — failures return as data.

    The worker repeatedly claims the next unclaimed chunk and runs it.
    ``setup`` is lazy (first claimed chunk only), so a worker the siblings
    starve out pays nothing and produces no extra.  On a per-target failure
    the worker stops claiming and returns early — siblings drain the
    remaining chunks, and the parent raises with the offending target.  A
    ``finalize`` failure voids the worker's entire contribution (its
    per-chunk results cannot be merged without the extra they were
    computed alongside), reported against every target it ran.
    """
    outcomes: List[TypingTuple[int, Dict[str, Any]]] = []
    context: Any = None
    started = False
    claimed: List[Any] = []
    first_index = len(chunks)
    while True:
        index = claim_next()
        if index >= len(chunks):
            break
        chunk = chunks[index]
        first_index = min(first_index, index)
        if not started:
            started = True
            try:
                context = state if spec.setup is None else spec.setup(state)
            except Exception as error:
                # setup failures cannot be pinned on one target.
                outcomes.append((index, _failure(tuple(chunk), error)))
                return {"outcomes": outcomes}
        results: Dict[Any, Any] = {}
        for target in chunk:
            try:
                results[target] = spec.compute(context, target)
            except Exception as error:
                outcomes.append((index, _failure((target,), error)))
                return {"outcomes": outcomes}
        claimed.extend(chunk)
        outcomes.append((index, {"results": results}))
    extra = None
    if started and spec.finalize is not None:
        try:
            extra = spec.finalize(context)
        except Exception as error:
            return {"outcomes": [(first_index, _failure(tuple(claimed),
                                                        error))]}
    return {"outcomes": outcomes, "extra": extra}


def _failure(targets: TypingTuple[Any, ...],
             error: Exception) -> Dict[str, Any]:
    return {"failed": targets,
            "detail": f"{type(error).__name__}: {error}\n"
                      + traceback.format_exc()}


# --------------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------------- #
def _collect(
    futures: Sequence[Any],
    chunks: List[List[Any]],
    transport: str,
    on_chunk: Optional[OnChunk] = None,
) -> TypingTuple[Dict[Any, Any], List[Any]]:
    """Gather worker payloads; raise typed errors, merge nothing on failure.

    Every future is drained before deciding what to raise: a dead worker
    process breaks the *whole* pool, failing innocent futures too, so a
    per-target failure report from any worker (precise attribution) wins
    over the broken-pool signal.  Each worker returns the ``(chunk_index,
    outcome)`` pairs it ran; a chunk no worker reported (possible only when
    the pool broke) is what the broken-pool error names.  With
    ``on_chunk``, a worker's successful chunks stream the moment its future
    lands, in completion order; failed chunks are never streamed.

    Returns the merged per-target results and the ``finalize`` extras in
    worker submission order.
    """
    position = {future: slot for slot, future in enumerate(futures)}
    ran: Dict[int, Dict[str, Any]] = {}
    extras_slots: List[Any] = [None] * len(futures)
    broken_error: Optional[BaseException] = None
    for future in concurrent.futures.as_completed(position):
        try:
            payload = future.result()
        except BrokenProcessPool as error:
            broken_error = error
            continue
        for index, outcome in payload["outcomes"]:
            ran[index] = outcome
            if on_chunk is not None and "failed" not in outcome:
                on_chunk(list(chunks[index]), dict(outcome["results"]))
        extras_slots[position[future]] = payload.get("extra")
    failures = sorted((index, outcome) for index, outcome in ran.items()
                      if "failed" in outcome)
    if failures:
        _, outcome = failures[0]
        raise FanOutWorkerError(
            f"a fan-out worker failed on target "
            f"{_describe_targets(outcome['failed'])}: "
            f"{outcome['detail'].splitlines()[0]}",
            targets=outcome["failed"], transport=transport,
            detail=outcome["detail"])
    unreported = [target for index, chunk in enumerate(chunks)
                  if index not in ran for target in chunk]
    if broken_error is not None:
        raise FanOutWorkerError(
            f"a fan-out worker process died; unfinished chunk(s): "
            f"{_describe_targets(unreported)}",
            targets=unreported, transport=transport,
            detail=repr(broken_error)) from broken_error
    if unreported:  # invariant guard: no error, yet chunks went unrun
        raise FanOutError(
            f"fan-out pool lost chunk(s) without reporting an error: "
            f"{_describe_targets(unreported)}")
    results: Dict[Any, Any] = {}
    for index in sorted(ran):
        results.update(ran[index]["results"])
    return results, [extra for extra in extras_slots if extra is not None]


def _describe_targets(targets: Sequence[Any]) -> str:
    listed = ", ".join(repr(t) for t in list(targets)[:5])
    if len(targets) > 5:
        listed += f", ... ({len(targets)} targets)"
    return listed if len(targets) != 1 else repr(list(targets)[0])


def fan_out(targets: Sequence[Key], shared_state: Any, spec: FanOutSpec,
            workers: Optional[int] = None,
            on_chunk: Optional[OnChunk] = None) -> FanOutResult:
    """Run ``spec`` over ``targets`` with workers sharing ``shared_state``.

    ``min(workers, len(targets))`` worker processes receive the *whole*
    shared state once, through the pool initializer, and claim
    fine-grained chunks of targets off a shared index (see the module
    docstring).  One worker or one target runs serially in the parent.
    Results come back as a :class:`FanOutResult` keyed in the serial
    target order either way.

    ``on_chunk`` streams each successful chunk to the parent the moment its
    worker returns (completion order); the serial path reports its single
    chunk once it completes.  The callback runs in the parent and is never
    shipped to a worker; an exception it raises propagates to the caller.

    Raises :class:`~repro.exceptions.FanOutWorkerError` when a worker raises
    or dies; in that case nothing is merged, so the caller's state is
    untouched (sibling workers still drain the remaining chunks, and their
    successful ones are still streamed before the raise).
    """
    requested = 1 if workers is None else workers
    transport = resolve_transport(workers, len(targets))
    pool_size = effective_pool_size(len(targets), requested)
    state_bytes = _measure_staged_bytes(spec, shared_state)
    if transport == "serial":
        chunks = [list(targets)]
        done: concurrent.futures.Future[Dict[str, Any]] = \
            concurrent.futures.Future()
        done.set_result(_claim_loop(spec, shared_state, chunks,
                                    itertools.count().__next__))
        results, extras = _collect([done], chunks, transport, on_chunk)
    else:
        chunks = _chunked(targets, min(len(targets),
                                       pool_size * _STEAL_CHUNK_FACTOR))
        context = multiprocessing.get_context(transport)
        claim = context.Value("l", 0)
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=pool_size, mp_context=context,
                initializer=_init_worker,
                initargs=(spec, shared_state, chunks, claim)) as pool:
            futures = [pool.submit(_pool_worker) for _ in range(pool_size)]
            results, extras = _collect(futures, chunks, transport, on_chunk)
    ordered = {target: results[target] for target in targets}
    return FanOutResult(ordered, transport, requested, pool_size, extras,
                        state_bytes)


def _measure_staged_bytes(spec: FanOutSpec, shared_state: Any
                          ) -> Optional[int]:
    """Pickled size of the staged state, without shipping it anywhere.

    Falls back to the state alone when the spec is unpicklable (the serial
    path accepts lambda specs), and to ``None`` when even the state will
    not pickle.
    """
    try:
        return len(pickle.dumps((spec, shared_state),
                                protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        try:
            return len(pickle.dumps(shared_state,
                                    protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:
            return None
