"""The sans-I/O protocol core, driven by hand with scripted replies.

``read_protocol`` / ``write_protocol`` yield ``(quorum, request)`` and are
resumed with the replies that arrived; a member missing from the dict was
silent.  No network, scheduler or socket is involved, so each test states
exactly which replica answered what and checks the core's bookkeeping:
attempts, suspicion, exoneration, the write-phase retry, the unvouched-read
retry and the single-operation guard.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import SimulationError, ThresholdQuorumSystem
from repro.exceptions import ServiceError
from repro.service import harness, wire
from repro.simulation.client import (
    OperationResult,
    RetryPolicy,
    _ProtocolCore,
    pooled_loads,
    vouched_pair,
)
from repro.simulation.messages import (
    ReadReply,
    ReadRequest,
    Timestamp,
    TimestampReply,
    TimestampRequest,
    ValueTimestampPair,
    WriteAck,
    WriteRequest,
)

B = 1
INITIAL = ValueTimestampPair(value=None, timestamp=Timestamp.zero())
WRITTEN = ValueTimestampPair(value="x", timestamp=Timestamp(3, 9))


def make_core(**policy) -> _ProtocolCore:
    """A client of the 4-of-5 threshold system (1-masking), no driver."""
    return _ProtocolCore(
        7,
        ThresholdQuorumSystem(5, 4),
        b=B,
        policy=RetryPolicy(**policy),
        rng=np.random.default_rng(0),
        strategy=None,
    )


def answer(quorum, request, *, silent=(), pairs=None) -> dict:
    """Every non-silent member's reply to ``request``."""
    replies = {}
    for index, server_id in enumerate(sorted(quorum)):
        if server_id in silent:
            continue
        if isinstance(request, TimestampRequest):
            replies[server_id] = TimestampReply(server_id, Timestamp.zero())
        elif isinstance(request, ReadRequest):
            pair = pairs[index] if pairs is not None else INITIAL
            replies[server_id] = ReadReply(server_id, pair)
        else:
            assert isinstance(request, WriteRequest)
            replies[server_id] = WriteAck(server_id, True)
    return replies


def run(protocol, *phases):
    """Resume ``protocol`` once per phase; return (probed quorums, result).

    Each phase maps ``(quorum, request)`` to the replies that arrived.
    """
    quorums = []
    replies = None
    for phase in phases:
        quorum, request = protocol.send(replies)
        quorums.append(quorum)
        replies = phase(quorum, request)
    with pytest.raises(StopIteration) as done:
        protocol.send(replies)
    return quorums, done.value.value


def full(quorum, request):
    return answer(quorum, request)


def silent(quorum, request):
    return {}


def first_silent(quorum, request):
    return answer(quorum, request, silent={min(quorum)})


def split(quorum, request):
    """Four distinct pairs: no pair reaches b + 1 = 2 reports."""
    pairs = [ValueTimestampPair(value=i, timestamp=Timestamp(1, i)) for i in range(4)]
    return answer(quorum, request, pairs=pairs)


def vouched(quorum, request):
    return answer(quorum, request, pairs=[WRITTEN] * 4)


# ----------------------------------------------------------------------
# The b + 1 rule and the pooled accounting.
# ----------------------------------------------------------------------
class TestVouchedPair:
    def test_highest_timestamp_among_vouched_pairs(self):
        newer = ValueTimestampPair("y", Timestamp(5, 1))
        forged = ValueTimestampPair("z", Timestamp(9, 9))
        pairs = [INITIAL, INITIAL, newer, newer, forged]
        assert vouched_pair(pairs, 1) == newer

    def test_below_the_threshold_nothing_survives(self):
        assert vouched_pair([INITIAL, WRITTEN], 1) is None
        assert vouched_pair([], 0) is None

    def test_b_zero_accepts_a_single_report(self):
        assert vouched_pair([INITIAL, WRITTEN], 0) == WRITTEN


class TestDiscoverInitialPair:
    """``discover_initial_pair`` over scripted STATUS replies (no sockets)."""

    def discover(self, monkeypatch, replies):
        async def scripted_status(host, port, payload, *, timeout):
            assert payload == {"type": "STATUS"}
            if isinstance(replies[port], Exception):
                raise replies[port]
            return replies[port]

        monkeypatch.setattr(harness, "call_endpoint", scripted_status)
        endpoints = [{"index": i, "host": "127.0.0.1", "port": i} for i in range(len(replies))]
        return asyncio.run(harness.discover_initial_pair(endpoints, b=B))

    @staticmethod
    def status(pair):
        return {"type": "STATUS", "value": pair.value, "ts": wire.encode_timestamp(pair.timestamp)}

    def test_a_never_written_cluster_yields_the_initial_pair(self, monkeypatch):
        assert self.discover(monkeypatch, [self.status(INITIAL)] * 5) == INITIAL

    def test_a_warm_cluster_yields_its_vouched_pair(self, monkeypatch):
        replies = [self.status(WRITTEN)] * 2 + [self.status(INITIAL)] * 3
        assert self.discover(monkeypatch, replies) == WRITTEN

    def test_none_only_when_no_pair_reaches_b_plus_one_vouches(self, monkeypatch):
        down = ServiceError("unreachable")
        replies = [self.status(WRITTEN), self.status(INITIAL), down, down, {"type": "STATUS"}]
        assert self.discover(monkeypatch, replies) is None


def test_pooled_loads_normalise_over_the_pool():
    first, second = make_core(), make_core()
    for client in (first, second):
        run(client.read_protocol(), vouched)
    run(first.read_protocol(), split)  # unsuccessful: attempted only
    load, attempted = pooled_loads([first, second], range(5))
    assert sum(load.values()) == pytest.approx(4.0)  # one 4-member quorum per success
    assert sum(attempted.values()) == pytest.approx(12 / 3)
    assert max(load.values()) <= 1.0


# ----------------------------------------------------------------------
# Reads.
# ----------------------------------------------------------------------
class TestRead:
    def test_vouched_read(self):
        core = make_core()
        (quorum,), result = run(core.read_protocol(), vouched)
        assert result == OperationResult(True, "x", WRITTEN.timestamp, quorum, 1)
        assert core.last_timestamp == WRITTEN.timestamp
        assert core.successful_operations == 1

    def test_split_vote_without_retry_keeps_its_quorum(self):
        core = make_core(retry_unvouched_reads=False)
        (quorum,), result = run(core.read_protocol(), split)
        assert result == OperationResult(False, quorum=quorum, attempts=1)
        assert core.successful_operations == 0
        assert core.operations_started == 1
        assert not core.suspected  # everyone answered

    def test_split_vote_with_retry_probes_a_fresh_quorum(self):
        core = make_core(retry_unvouched_reads=True)
        quorums, result = run(core.read_protocol(), split, split, vouched)
        assert len(quorums) == 3
        assert result.success and result.value == "x"
        assert result.quorum == quorums[-1]
        assert result.attempts == 3
        assert sum(core.attempted_access_counts.values()) == 3 * 4

    def test_unvouched_retries_stop_at_the_budget(self):
        core = make_core(retry_unvouched_reads=True, max_attempts=2)
        quorums, result = run(core.read_protocol(), split, split)
        assert result == OperationResult(False, quorum=quorums[-1], attempts=2)

    def test_exhausted_budget(self):
        core = make_core(max_attempts=3)
        quorums, result = run(core.read_protocol(), silent, silent, silent)
        assert result == OperationResult(False, attempts=3)
        assert core.timeouts == 3
        assert core.suspected == set().union(*quorums)


# ----------------------------------------------------------------------
# Writes.
# ----------------------------------------------------------------------
class TestWrite:
    def test_two_phases_on_one_quorum(self):
        core = make_core()
        quorums, result = run(core.write_protocol("v"), full, full)
        assert quorums[0] == quorums[1]
        assert result == OperationResult(True, "v", Timestamp(1, 7), quorums[0], 1)

    def test_install_that_loses_a_member_retries_and_sums_attempts(self):
        core = make_core()
        # Timestamp phase: one silent probe, then a full one.  Install: the
        # same quorum loses a member, and the retry probe succeeds.
        quorums, result = run(
            core.write_protocol("v"), first_silent, full, first_silent, full
        )
        ts_quorum, install_quorum, retry_quorum = quorums[1], quorums[2], quorums[3]
        assert install_quorum == ts_quorum
        assert result.success and result.quorum == retry_quorum
        assert result.attempts == 2 + 1
        assert core.timeouts == 2
        # Only probes are charged; the install at the timestamp quorum is not one.
        assert sum(core.attempted_access_counts.values()) == 3 * 4

    def test_install_retry_exhausted(self):
        core = make_core(max_attempts=2)
        _, result = run(core.write_protocol("v"), full, first_silent, silent, silent)
        assert result == OperationResult(False, attempts=1 + 2)
        # The counter was spent even though the install failed.
        assert core.last_timestamp == Timestamp(1, 7)

    def test_exhausted_budget(self):
        core = make_core(max_attempts=2)
        _, result = run(core.write_protocol("v"), silent, silent)
        assert result == OperationResult(False, attempts=2)
        assert core.last_timestamp == Timestamp.zero()


# ----------------------------------------------------------------------
# Suspicion and the single-operation guard.
# ----------------------------------------------------------------------
def test_a_suspected_server_that_answers_is_exonerated():
    core = make_core()
    # Two silent members leave only three unsuspected servers, too few for a
    # 4-member quorum, so the next probe must include a suspect.
    two_silent = lambda q, r: answer(q, r, silent=set(sorted(q)[:2]))  # noqa: E731
    quorums, result = run(core.read_protocol(), two_silent, full)
    suspects = set(sorted(quorums[0])[:2])
    assert result.success
    assert quorums[1] & suspects
    assert core.suspected == suspects - quorums[1]


def test_one_operation_at_a_time():
    core = make_core()
    first = core.read_protocol()
    quorum, request = next(first)
    with pytest.raises(SimulationError, match="in flight"):
        next(core.write_protocol("v"))
    assert core.operations_started == 1
    with pytest.raises(StopIteration):
        first.send(vouched(quorum, request))
    _, result = run(core.write_protocol("v"), full, full)
    assert result.success
