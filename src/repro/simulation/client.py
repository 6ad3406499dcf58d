"""The masking-quorum client protocol of [MR98a].

A client performs each operation at a single quorum of replicas:

* **write(v)** — query a quorum for timestamps, pick a timestamp strictly
  larger than every answer, then send ``(v, ts)`` to every member of a
  quorum and wait for their acknowledgements.
* **read()** — query a quorum for ``(value, timestamp)`` pairs, keep only the
  pairs returned by at least ``b + 1`` replicas (so that at least one honest
  replica vouches for each surviving pair), and return the value with the
  highest surviving timestamp.

Consistency relies exactly on the ``2b + 1`` intersection of masking quorum
systems: the read quorum shares at least ``2b + 1`` replicas with the last
complete write's quorum, of which at least ``b + 1`` are honest and report
the written pair, while any value fabricated by the at most ``b`` Byzantine
replicas is reported at most ``b`` times and filtered out.

The protocol is written once and does no I/O (https://sans-io.readthedocs.io/):
:class:`_ProtocolCore`'s ``read_protocol`` / ``write_protocol`` generators
yield ``(quorum, request)`` and are resumed with the replies that arrived,
keyed by server id (a missing member was silent).  Three drivers only move
requests and replies: :class:`QuorumClient` over the synchronous network,
:class:`AsyncQuorumClient` over the event-driven network (many of them
interleave in one scheduler run, producing the concurrent histories
:mod:`repro.simulation.history` checks) and
:class:`~repro.service.client.ServiceQuorumClient` over TCP sockets.  Running
the same generators, all three draw from the client rng in the same order
for the same history.  :func:`vouched_pair` is the ``b + 1`` rule itself.

Accounting (aligned with the vectorised engine):

* ``attempts`` in an :class:`OperationResult` is the *real* number of quorum
  probes the operation made — the timestamp/read phase's probes plus, for
  writes that lost a quorum member between the two phases, the write-phase
  retry probes.
* ``successful_access_counts`` / ``attempted_access_counts`` tally per-server
  quorum accesses of successful operations and of every probe respectively,
  mirroring the engine's ``per_server_load`` / ``per_server_attempted``
  split, so the message-level and vectorised paths measure the same
  Definition 3.8 quantity.  :func:`pooled_loads` normalises them over a
  pool of clients.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Generator, Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.quorum_system import QuorumSystem
from repro.core.rng import ensure_rng
from repro.core.strategy import Strategy
from repro.exceptions import SimulationError
from repro.simulation.events import EventNetwork
from repro.simulation.messages import (
    ReadRequest,
    Timestamp,
    TimestampRequest,
    ValueTimestampPair,
    WriteRequest,
)
from repro.simulation.network import SynchronousNetwork

if TYPE_CHECKING:  # circular at runtime: history records client results
    from repro.simulation.history import HistoryRecorder

__all__ = [
    "AsyncQuorumClient",
    "OperationResult",
    "QuorumClient",
    "RetryPolicy",
    "pooled_loads",
    "vouched_pair",
]

#: A running protocol: yields ``(quorum, request)``, is resumed with the
#: replies that arrived, returns the :class:`OperationResult`.
Steps = Generator[tuple[frozenset, object], dict, "OperationResult"]


@dataclass(frozen=True)
class OperationResult:
    """Outcome of a single client operation.

    Attributes
    ----------
    success:
        Whether a fully responsive quorum was found and the protocol
        completed.
    value:
        For reads, the returned value (``None`` on failure or when no
        sufficiently vouched pair exists).
    timestamp:
        For reads, the timestamp of the returned value; for writes, the
        timestamp that was installed.
    quorum:
        The quorum used by the successful attempt (``None`` on failure).
    attempts:
        How many quorum probes the operation actually made: the
        timestamp/read phase's probes, plus write-phase retry probes when
        the first write broadcast lost a quorum member.
    latency:
        Time from invocation to completion on the driver's clock (simulated
        time for event-driven clients, wall-clock seconds for the service
        client; ``0.0`` under the synchronous layer, where operations are
        instantaneous).
    """

    success: bool
    value: object = None
    timestamp: Timestamp | None = None
    quorum: frozenset | None = None
    attempts: int = 0
    latency: float = 0.0


@dataclass(frozen=True)
class RetryPolicy:
    """How a client waits and retries.

    Attributes
    ----------
    max_attempts:
        Quorum probes per probing phase before the operation is declared
        failed (unavailability).
    request_timeout:
        How long a probe waits for the slowest quorum member before
        declaring the silent members suspected and moving to another quorum
        (simulated time for event-driven clients, seconds for the service
        client; the synchronous layer detects silence at once).
    retry_unvouched_reads:
        When a read finds no pair vouched by ``b + 1`` replicas (possible
        under concurrency with an interleaved write), retry the read phase
        at a fresh quorum instead of reporting an unsuccessful read.  Off by
        default, which is what the synchronous client always uses.
    """

    max_attempts: int = 10
    request_timeout: float = 1.0
    retry_unvouched_reads: bool = False

    def __post_init__(self):
        if self.max_attempts < 1:
            raise SimulationError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.request_timeout <= 0:
            raise SimulationError(
                f"request_timeout must be positive, got {self.request_timeout}"
            )


def vouched_pair(
    pairs: Iterable[ValueTimestampPair], b: int
) -> ValueTimestampPair | None:
    """The highest-timestamp pair reported at least ``b + 1`` times, or ``None``.

    The masking read rule: at most ``b`` Byzantine sources can report a
    fabricated pair at most ``b`` times, so every pair that reaches ``b + 1``
    reports is vouched for by an honest one.
    """
    votes = Counter(pairs)
    return max(
        (pair for pair, count in votes.items() if count > b),
        key=lambda pair: pair.timestamp,
        default=None,
    )


def pooled_loads(clients: Sequence, universe: Iterable) -> tuple[dict, dict]:
    """Per-server ``(load, attempted)`` rates summed over a pool of clients.

    ``load`` is the empirical load of Definition 3.8: accesses by successful
    operations over successful operations, never above 1 (the engine's
    ``per_server_load``).  ``attempted`` counts every probe, failed
    operations included, over every started operation; it may exceed 1
    under heavy faults (the engine's ``per_server_attempted``).
    """
    successful = max(1, sum(client.successful_operations for client in clients))
    started = max(1, sum(client.operations_started for client in clients))
    load = {
        server_id: sum(client.successful_access_counts[server_id] for client in clients)
        / successful
        for server_id in universe
    }
    attempted = {
        server_id: sum(client.attempted_access_counts[server_id] for client in clients)
        / started
        for server_id in universe
    }
    return load, attempted


class _ProtocolCore:
    """The read and write protocols and all the state a client keeps.

    Subclasses are drivers: they send each yielded request to every member
    of the yielded quorum, resume the generator with the replies, and
    override :meth:`_now` with their clock.
    """

    def __init__(
        self,
        client_id: int,
        system: QuorumSystem,
        *,
        b: int,
        policy: RetryPolicy | None,
        rng: np.random.Generator | None,
        strategy: Strategy | None,
        history: "HistoryRecorder | None" = None,
    ):
        if b < 0:
            raise SimulationError(f"masking parameter must be >= 0, got {b}")
        self.client_id = client_id
        self.system = system
        self.b = b
        self.policy = policy if policy is not None else RetryPolicy()
        self.rng = ensure_rng(rng)
        self.strategy = strategy
        self.history = history
        #: The largest timestamp this client has observed or produced.
        self.last_timestamp = Timestamp.zero()
        #: Servers observed to be unresponsive; used as a simple failure
        #: detector so that retries steer towards live quorums (this is what
        #: makes the client achieve the system's resilience ``f`` instead of
        #: blindly resampling quorums that contain known-dead servers).
        self.suspected: set = set()
        #: Per-server quorum accesses of *successful* operations (the
        #: empirical-load numerator of Definition 3.8) and of *every* probe.
        self.successful_access_counts: Counter = Counter()
        self.attempted_access_counts: Counter = Counter()
        #: Operations completed successfully / started, for normalisation.
        self.successful_operations = 0
        self.operations_started = 0
        #: Probes that found a silent quorum member (diagnostic).
        self.timeouts = 0
        self._busy = False

    def _now(self) -> float:
        """The driver's clock; the synchronous layer has none."""
        return 0.0

    def _choose_quorum(self) -> frozenset:
        """Sample a quorum, preferring one that avoids all suspected servers."""
        if self.strategy is not None:
            return self._choose_from_strategy()
        if not self.suspected:
            return self.system.sample_quorum(self.rng)
        return self.system.sample_quorum_avoiding(self.rng, frozenset(self.suspected))

    def _choose_from_strategy(self, *, attempts: int = 50) -> frozenset:
        """Sample the access strategy, steering away from suspected servers.

        Mirrors ``QuorumSystem.sample_quorum_avoiding``: resample the strategy
        until a quorum avoids every suspected server, falling back to the last
        sample when avoidance keeps failing.
        """
        quorum = self.strategy.sample(self.rng)
        if not self.suspected:
            return quorum
        for _ in range(attempts):
            if not quorum & self.suspected:
                return quorum
            quorum = self.strategy.sample(self.rng)
        return quorum

    def _fresh_timestamp(self, replies: dict) -> Timestamp:
        """Pick a timestamp strictly larger than every answer and all past picks.

        Advancing ``last_timestamp`` *here* — before the install completes —
        means a client never reuses a counter even when the install fails
        half-way, so every write operation in a history carries a unique
        timestamp (the property the history checker asserts).
        """
        highest = self.last_timestamp
        for reply in replies.values():
            if reply.timestamp > highest:
                highest = reply.timestamp
        fresh = highest.next_for(self.client_id)
        self.last_timestamp = fresh
        return fresh

    # ------------------------------------------------------------------
    # The protocols.
    # ------------------------------------------------------------------
    def write_protocol(self, value: object) -> Steps:
        """Write ``value``: query a quorum for timestamps, then install."""
        invoked_at = self._start()
        quorum, replies, attempts = yield from self._probe(
            TimestampRequest(client_id=self.client_id)
        )
        if quorum is None:
            return self._finish("write", invoked_at, success=False, attempts=attempts)

        timestamp = self._fresh_timestamp(replies)
        pair = ValueTimestampPair(value=value, timestamp=timestamp)
        request = WriteRequest(client_id=self.client_id, pair=pair)
        if not self._settle(quorum, (yield quorum, request)):
            # The quorum answered the timestamp query but lost a member before
            # the install; retry the install through fresh quorums.
            quorum, _replies, retry_attempts = yield from self._probe(request)
            attempts += retry_attempts
            if quorum is None:
                return self._finish("write", invoked_at, pair, success=False, attempts=attempts)
        return self._finish(
            "write",
            invoked_at,
            pair,
            success=True,
            value=value,
            timestamp=timestamp,
            quorum=quorum,
            attempts=attempts,
        )

    def read_protocol(self) -> Steps:
        """Read the register, masking up to ``b`` Byzantine replies."""
        invoked_at = self._start()
        request = ReadRequest(client_id=self.client_id)
        attempts = 0
        while True:
            quorum, replies, probes = yield from self._probe(request)
            attempts += probes
            if quorum is None:
                return self._finish("read", invoked_at, success=False, attempts=attempts)
            best = vouched_pair((reply.pair for reply in replies.values()), self.b)
            if best is not None:
                break
            # An interleaved write can split the votes below b + 1; the retry
            # policy decides whether to try a fresh quorum or report the
            # unsuccessful read rather than return an unvouched value.
            if not self.policy.retry_unvouched_reads or attempts >= self.policy.max_attempts:
                return self._finish(
                    "read", invoked_at, success=False, quorum=quorum, attempts=attempts
                )
        if best.timestamp > self.last_timestamp:
            self.last_timestamp = best.timestamp
        return self._finish(
            "read",
            invoked_at,
            success=True,
            value=best.value,
            timestamp=best.timestamp,
            quorum=quorum,
            attempts=attempts,
        )

    # ------------------------------------------------------------------
    # Shared by both protocols.
    # ------------------------------------------------------------------
    def _start(self) -> float:
        if self._busy:
            raise SimulationError(
                f"client {self.client_id} already has an operation in flight; "
                "a register client is a single sequential process"
            )
        self._busy = True
        self.operations_started += 1
        return self._now()

    def _probe(self, request: object):
        """Try up to ``max_attempts`` quorums until one answers in full.

        Returns ``(quorum, replies, attempts)`` with the real probe count, or
        ``(None, None, max_attempts)`` when the budget is exhausted.
        """
        for attempt in range(1, self.policy.max_attempts + 1):
            quorum = self._choose_quorum()
            self.attempted_access_counts.update(quorum)
            replies = yield quorum, request
            if self._settle(quorum, replies):
                return quorum, replies, attempt
        return None, None, self.policy.max_attempts

    def _settle(self, quorum: frozenset, replies: dict) -> bool:
        """Feed one phase's replies to the failure detector; all answered?

        An answer exonerates: suspicion from lost messages or a crash window
        that has since ended must not permanently remove a correct server
        from quorum selection.  Silent members join :attr:`suspected` before
        the next quorum is drawn.
        """
        self.suspected.difference_update(replies)
        if len(replies) == len(quorum):
            return True
        self.timeouts += 1
        self.suspected |= quorum - replies.keys()
        return False

    def _finish(
        self,
        kind: str,
        invoked_at: float,
        attempted_pair: ValueTimestampPair | None = None,
        **fields,
    ) -> OperationResult:
        responded_at = self._now()
        result = OperationResult(latency=responded_at - invoked_at, **fields)
        self._busy = False
        if result.success:
            self.successful_operations += 1
            self.successful_access_counts.update(result.quorum)
        if self.history is not None:
            self.history.record(
                client_id=self.client_id,
                kind=kind,
                invoked_at=invoked_at,
                responded_at=responded_at,
                result=result,
                attempted_pair=attempted_pair,
            )
        return result


class QuorumClient(_ProtocolCore):
    """A blocking client of the replicated register (synchronous network).

    Parameters
    ----------
    client_id:
        Unique integer identity, embedded in timestamps for uniqueness.
    system:
        The quorum system governing which replica sets constitute a quorum.
    network:
        The message layer connecting to the replicas.
    b:
        The number of Byzantine failures the deployment is meant to mask;
        reads require each accepted pair to be vouched by ``b + 1`` replicas.
    max_attempts:
        How many quorums to try before declaring an operation failed
        (unavailability).
    rng:
        Randomness source for quorum sampling.
    strategy:
        Optional access strategy (Definition 3.8) to sample quorums from —
        e.g. the load-optimal strategy of :func:`~repro.core.load.exact_load`,
        so clients access the system at its actual ``L(Q)`` instead of the
        construction's default sampling.  When omitted, quorums come from
        ``system.sample_quorum`` as before.
    """

    def __init__(
        self,
        client_id: int,
        system: QuorumSystem,
        network: SynchronousNetwork,
        *,
        b: int,
        max_attempts: int = 10,
        rng: np.random.Generator | None = None,
        strategy: Strategy | None = None,
    ):
        super().__init__(
            client_id,
            system,
            b=b,
            policy=RetryPolicy(max_attempts=max_attempts),
            rng=rng,
            strategy=strategy,
        )
        self.network = network

    def _drive(self, protocol: Steps) -> OperationResult:
        replies = None
        while True:
            try:
                quorum, request = protocol.send(replies)
            except StopIteration as done:
                return done.value
            answers = self.network.broadcast(quorum, request)
            replies = {
                server_id: reply
                for server_id, reply in answers.items()
                if reply is not None
            }

    def write(self, value: object) -> OperationResult:
        """Write ``value`` to the register (query timestamps, then install)."""
        return self._drive(self.write_protocol(value))

    def read(self) -> OperationResult:
        """Read the register, masking up to ``b`` Byzantine replies."""
        return self._drive(self.read_protocol())


class AsyncQuorumClient(_ProtocolCore):
    """A resumable client over the event-driven network.

    ``read``/``write`` start the operation and return immediately; the
    operation advances as replies arrive through the scheduler and completes
    by calling ``on_complete(OperationResult)``.  Because nothing blocks,
    any number of clients interleave their operations within one scheduler
    run — the concurrency the synchronous layer structurally cannot express.

    Parameters
    ----------
    client_id / system / b / rng / strategy:
        As for :class:`QuorumClient`.
    network:
        The :class:`~repro.simulation.events.EventNetwork` to speak over.
    policy:
        Timeout and retry behaviour (:class:`RetryPolicy`).
    history:
        Optional :class:`~repro.simulation.history.HistoryRecorder`; every
        completed operation is recorded with its invocation/response times
        for the concurrent-history consistency checker.
    """

    def __init__(
        self,
        client_id: int,
        system: QuorumSystem,
        network: EventNetwork,
        *,
        b: int,
        policy: RetryPolicy | None = None,
        rng: np.random.Generator | None = None,
        strategy: Strategy | None = None,
        history: "HistoryRecorder | None" = None,
    ):
        super().__init__(
            client_id,
            system,
            b=b,
            policy=policy,
            rng=rng,
            strategy=strategy,
            history=history,
        )
        self.network = network

    def _now(self) -> float:
        return self.network.scheduler.now

    def _drive(
        self,
        protocol: Steps,
        on_complete: Callable[[OperationResult], None] | None,
    ) -> None:
        """Run ``protocol`` one phase per broadcast, resuming from callbacks.

        Each phase collects replies by server id (duplicate deliveries
        collapse) until the quorum is complete, or until its one timeout
        fires and the partial set goes back to the protocol.
        """
        network = self.network
        scheduler = network.scheduler
        request_timeout = self.policy.request_timeout

        def advance(replies: dict | None) -> None:
            try:
                quorum, request = protocol.send(replies)
            except StopIteration as done:
                if on_complete is not None:
                    on_complete(done.value)
                return
            collected: dict = {}

            def on_reply(server_id, reply) -> None:
                if timeout.cancelled or server_id in collected:
                    return
                collected[server_id] = reply
                if len(collected) == len(quorum):
                    timeout.cancel()
                    advance(collected)

            def on_timeout() -> None:
                # Marked cancelled so that late replies find the phase closed.
                timeout.cancel()
                advance(collected)

            network.broadcast(quorum, request, on_reply)
            timeout = scheduler.schedule(request_timeout, on_timeout)

        advance(None)

    def write(
        self, value: object, on_complete: Callable[[OperationResult], None] | None = None
    ) -> None:
        """Start writing ``value``; completion arrives through ``on_complete``."""
        self._drive(self.write_protocol(value), on_complete)

    def read(
        self, on_complete: Callable[[OperationResult], None] | None = None
    ) -> None:
        """Start a read; completion arrives through ``on_complete``."""
        self._drive(self.read_protocol(), on_complete)
