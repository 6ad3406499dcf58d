"""Integration tests for the masking-quorum register protocol (replicas + clients + engine)."""

from __future__ import annotations

import pytest

from repro import MGrid, SimulationError, ThresholdQuorumSystem
from repro.simulation import FaultInjector, FaultScenario, run_scenario


@pytest.fixture
def small_system():
    """The 7-of-9 threshold system: a 2-masking system small enough for fast runs."""
    return ThresholdQuorumSystem(9, 7)


class TestFaultFreeProtocol:
    def test_read_your_write(self, small_system, rng, deploy):
        _, (client,) = deploy(small_system, b=2, rng=rng)
        assert client.write("hello").success
        result = client.read()
        assert result.success
        assert result.value == "hello"

    def test_reads_see_other_clients_writes(self, small_system, rng, deploy):
        _, (writer, reader) = deploy(small_system, b=2, rng=rng, clients=2)
        writer.write("from-writer")
        assert reader.read().value == "from-writer"

    def test_successive_writes_increase_timestamps(self, small_system, rng, deploy):
        _, (client,) = deploy(small_system, b=2, rng=rng)
        first = client.write("a")
        second = client.write("b")
        assert second.timestamp > first.timestamp

    def test_correct_replicas_converge_on_written_quorum(self, small_system, rng, deploy):
        servers, (client,) = deploy(small_system, b=2, rng=rng)
        result = client.write("x")
        holders = [sid for sid, server in servers.items() if server.current_pair.value == "x"]
        assert set(result.quorum) <= set(holders)

    def test_initial_read_returns_initial_value(self, small_system, rng, deploy):
        _, (client,) = deploy(small_system, b=2, rng=rng, initial_value="empty")
        assert client.read().value == "empty"


class TestByzantineMasking:
    @pytest.mark.parametrize(
        "behaviour", ["fabricate-timestamp", "forge-on-read", "stale", "random-value"]
    )
    def test_b_byzantine_servers_cannot_corrupt_reads(
        self, small_system, rng, deploy, behaviour
    ):
        injector = FaultInjector(small_system.universe, rng)
        scenario = injector.exact(num_byzantine=2)
        _, (client,) = deploy(
            small_system, b=2, rng=rng, scenario=scenario, byzantine_behaviour=behaviour
        )
        for round_index in range(5):
            value = ("v", round_index)
            client.write(value)
            result = client.read()
            assert result.success
            assert result.value == value

    def test_beyond_the_bound_the_adversary_can_win(self, small_system, rng, deploy):
        # With 2b+1 = 5 colluding forgers, forged pairs reach the b+1
        # vouching threshold with a timestamp the writer never saw, and reads
        # return the forged value.
        injector = FaultInjector(small_system.universe, rng)
        scenario = injector.exact(num_byzantine=5)
        _, (client,) = deploy(
            small_system, b=2, rng=rng, scenario=scenario, byzantine_behaviour="forge-on-read"
        )
        client.write("honest")
        corrupted = any(client.read().value != "honest" for _ in range(10))
        assert corrupted

    def test_workload_runner_reports_no_violations_at_the_bound(self, small_system, rng):
        injector = FaultInjector(small_system.universe, rng)
        scenario = injector.exact(num_byzantine=2, num_crashed=1)
        result = run_scenario(
            small_system, b=2, num_operations=80, scenario=scenario, rng=rng
        )
        assert result.consistency_violations == 0
        assert result.successful_writes > 0
        assert result.successful_reads > 0


class TestCrashAvailability:
    def test_crashing_below_resilience_keeps_service_available(self, small_system, rng):
        # f = MT - 1 = 2 crashes are always survivable.
        injector = FaultInjector(small_system.universe, rng)
        scenario = injector.exact(num_byzantine=0, num_crashed=2)
        result = run_scenario(
            small_system, b=2, num_operations=60, scenario=scenario, rng=rng
        )
        assert result.availability == pytest.approx(1.0)

    def test_crashing_a_transversal_makes_operations_fail(self, small_system, rng, deploy):
        # Crashing n - k + 1 = 3 specific servers can hit every quorum; with
        # a threshold system ANY 3 crashes do.
        scenario = FaultScenario(crashed=frozenset({0, 1, 2}))
        _, (client,) = deploy(small_system, b=2, rng=rng, scenario=scenario, max_attempts=5)
        assert not client.write("doomed").success
        assert not client.read().success

    def test_workload_under_heavy_crashes_reports_failures(self, small_system, rng):
        scenario = FaultScenario(crashed=frozenset({0, 1, 2, 3}))
        result = run_scenario(
            small_system, b=2, num_operations=30, scenario=scenario, rng=rng
        )
        assert result.failed_operations == 30
        assert result.availability == 0.0


class TestEmpiricalLoad:
    def test_empirical_load_tracks_analytic_load(self, rng):
        system = MGrid(5, 1)
        result = run_scenario(system, b=1, num_operations=400, rng=rng)
        # The MGrid strategy is uniform over quorums, whose induced load is
        # c/n; the empirical busiest-server frequency should be close.
        assert result.empirical_load == pytest.approx(system.load(), abs=0.12)

    def test_per_server_loads_sum_to_expected_quorum_size(self, small_system, rng):
        result = run_scenario(small_system, b=2, num_operations=200, rng=rng)
        total = sum(result.per_server_load.values())
        assert total == pytest.approx(small_system.min_quorum_size(), rel=0.15)

    def test_runner_validates_arguments(self, small_system, rng):
        with pytest.raises(SimulationError):
            run_scenario(small_system, b=2, num_operations=0, rng=rng)
        with pytest.raises(SimulationError):
            run_scenario(small_system, b=2, num_operations=10, write_fraction=1.5, rng=rng)
