"""Tests for the chaos soak harness and its incident artifacts.

The soaks here are seconds, not minutes — the CI smoke job runs the
long one.  What is pinned: the mid-stream monitor, restart-and-recover
counting, the mid-soak service restart with namespace continuity, the
injected negative control, and the deterministic incident replay.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.harness.soak import (
    LeaseMonitor,
    SoakError,
    SoakViolation,
    _service_restart,
    _SoakState,
    load_incident,
    replay_incident,
    run_soak,
)
from repro.net.chaos import CLEAN_PLAN
from repro.net.client import ServiceClient
from repro.net.service import ElectionService, GrantRecord
from repro.obs.metrics import MetricsRegistry


def grant(key, epoch, holder="h", granted_ns=0):
    """A minimal GrantRecord for monitor-level tests."""
    return GrantRecord(
        key=key, epoch=epoch, holder=holder, session=1, granted_ns=granted_ns
    )


class TestLeaseMonitor:
    def test_increasing_epochs_pass(self):
        monitor = LeaseMonitor()
        for epoch in (1, 2, 3):
            assert monitor.observe(grant("k", epoch)) is None
        assert monitor.violation is None
        assert monitor.floors == {"k": 3}

    def test_keys_are_independent(self):
        monitor = LeaseMonitor()
        assert monitor.observe(grant("a", 5)) is None
        assert monitor.observe(grant("b", 1)) is None
        assert monitor.violation is None

    def test_stale_epoch_flagged_at_its_index(self):
        monitor = LeaseMonitor()
        monitor.observe(grant("k", 1))
        monitor.observe(grant("k", 2))
        violation = monitor.observe(grant("k", 2, holder="twin"))
        assert violation is not None
        assert violation.invariant == "lease_epoch_monotonic"
        assert violation.grant_index == 2
        assert "twin" in violation.message
        assert monitor.violation is violation

    def test_epoch_regression_flagged(self):
        monitor = LeaseMonitor()
        monitor.observe(grant("k", 7))
        assert monitor.observe(grant("k", 3)) is not None

    def test_only_first_violation_is_kept(self):
        monitor = LeaseMonitor()
        monitor.observe(grant("k", 1))
        first = monitor.observe(grant("k", 1))
        second = monitor.observe(grant("k", 1))
        assert second is not None and monitor.violation is first


class TestRunSoakValidation:
    def test_bad_duration_rejected(self):
        with pytest.raises(SoakError, match="duration"):
            run_soak(duration_s=0.0)

    def test_unknown_profile_rejected(self):
        with pytest.raises(SoakError, match="hurricane"):
            run_soak(duration_s=1.0, profile="hurricane")

    def test_bad_restart_fraction_rejected(self):
        with pytest.raises(SoakError, match="restart_service_at"):
            run_soak(duration_s=1.0, restart_service_at=1.5)

    def test_zero_contenders_rejected(self):
        with pytest.raises(SoakError, match="contender"):
            run_soak(duration_s=1.0, contenders=0)


class TestShortSoak:
    def test_positive_soak_recovers_and_restarts_clean(self, tmp_path):
        report = run_soak(
            duration_s=3.0, seed=0, profile="rolling", keys=2, contenders=3,
            ttl_ms=250.0, hold_ms=5.0, kill_every=3,
            restart_service_at=0.5, out_dir=str(tmp_path),
        )
        assert report.ok, report.violation
        assert report.incident_path is None
        assert report.grants > 0
        # The acceptance bar: at least two node kill + restart-and-recover
        # events, plus the whole-service restart, all violation-free.
        assert report.kills >= 2
        assert report.recoveries >= 2
        assert report.service_restarts == 1
        assert report.phases_seen and report.phases_seen[0] == "calm"
        assert "all hold" in report.describe()

    def test_soak_without_service_restart(self, tmp_path):
        report = run_soak(
            duration_s=1.0, seed=1, profile="gentle", keys=1, contenders=2,
            ttl_ms=250.0, hold_ms=5.0, kill_every=4,
            restart_service_at=None, out_dir=str(tmp_path),
        )
        assert report.ok, report.violation
        assert report.service_restarts == 0


class TestNegativeControl:
    @pytest.fixture(scope="class")
    def incident(self, tmp_path_factory):
        """One injected-violation soak, shared across the class's tests."""
        out_dir = tmp_path_factory.mktemp("incident")
        report = run_soak(
            duration_s=20.0, seed=2, profile="gentle", keys=2, contenders=2,
            ttl_ms=250.0, hold_ms=5.0, kill_every=4, restart_service_at=None,
            out_dir=str(out_dir), inject_violation_at_s=0.4,
        )
        return report

    def test_injected_violation_caught_mid_stream(self, incident):
        assert not incident.ok
        assert incident.injected
        violation = incident.violation
        assert violation.source == "monitor"
        assert violation.invariant == "lease_epoch_monotonic"
        assert "soak-evil-twin" in violation.message
        # Mid-stream means the soak aborted well before its deadline.
        assert incident.elapsed_s < incident.duration_s / 2

    def test_incident_artifact_written_and_loadable(self, incident):
        assert incident.incident_path is not None
        obj = load_incident(incident.incident_path)
        assert obj["kind"] == "soak-incident"
        assert obj["injected"] is True
        assert obj["profile"] == "gentle"
        assert obj["plan"]["phases"]
        assert len(obj["grants"]) == incident.grants

    def test_incident_replays_deterministically(self, incident):
        first = replay_incident(incident.incident_path)
        second = replay_incident(incident.incident_path)
        assert first.ok and second.ok
        assert first.replayed == second.replayed
        assert first.replayed.grant_index == incident.violation.grant_index
        assert first.replayed.message == incident.violation.message
        assert "replay:        ok" in first.describe()

    def test_tampered_grant_log_fails_replay(self, incident, tmp_path):
        obj = load_incident(incident.incident_path)
        obj["grants"][0]["holder"] = "forged"
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(obj), encoding="utf-8")
        replay = replay_incident(str(tampered))
        assert not replay.digest_ok
        assert not replay.ok
        assert "MISMATCH" in replay.describe()

    def test_non_incident_file_rejected(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text('{"kind": "other"}', encoding="utf-8")
        with pytest.raises(SoakError, match="not a soak incident"):
            replay_incident(str(path))

    def test_unreadable_file_is_soak_error(self):
        with pytest.raises(SoakError, match="cannot read"):
            replay_incident("/nonexistent/incident.json")


class TestNamespaceContinuity:
    def test_restart_with_namespace_keeps_epochs_fenced(self):
        # The property the mid-soak restart depends on: a successor
        # seeded with export_namespace() grants strictly above the
        # epochs its predecessor reached.
        async def main():
            first = ElectionService(seed=0, default_ttl_ms=5000.0)
            host, port = await first.start()
            client = await ServiceClient.connect(host, port, client_id="a")
            lease = await client.acquire("k", ttl_ms=5000.0)
            assert lease.epoch == 1
            await client.release(lease)
            lease = await client.acquire("k", ttl_ms=5000.0)
            assert lease.epoch == 2
            client.abort()
            namespace = first.export_namespace()
            await first.stop()

            second = ElectionService(
                seed=0, default_ttl_ms=5000.0, namespace=namespace
            )
            host, port = await second.start()
            client = await ServiceClient.connect(host, port, client_id="a")
            lease = await client.acquire("k", ttl_ms=5000.0)
            await client.close()
            await second.stop()
            return namespace, lease

        namespace, lease = asyncio.run(main())
        assert namespace == {"k": 2}
        assert lease.epoch == 3

    def test_grant_issued_while_stopping_is_fenced_by_the_successor(self):
        # Regression: the restart used to export the namespace before
        # stopping the old service, so a grant the old service issued
        # while stopping was missing from the successor's floor and the
        # successor granted that epoch again.  Here the old service's
        # stop() is made to issue such a grant deterministically.
        async def main():
            state = _SoakState(
                stop=asyncio.Event(), monitor=LeaseMonitor(),
                registry=MetricsRegistry(), service=None,
            )

            def on_grant(record):
                state.grant_log.append(record)
                violation = state.monitor.observe(record)
                if violation is not None:
                    state.flag(violation)

            old = ElectionService(
                seed=0, default_ttl_ms=5000.0, grant_hook=on_grant
            )
            state.service = old
            host, port = await old.start()
            client = await ServiceClient.connect(host, port, client_id="a")
            await client.release(await client.acquire("k", ttl_ms=5000.0))
            stop = old.stop

            async def stop_after_a_late_grant():
                late = await client.acquire("k", ttl_ms=5000.0)
                assert late.epoch == 2
                await stop()

            old.stop = stop_after_a_late_grant
            await _service_restart(state, CLEAN_PLAN, 0.0, 5000.0, 0)
            client.abort()
            successor = await ServiceClient.connect(
                state.host, state.port, client_id="b"
            )
            lease = await successor.acquire("k", ttl_ms=5000.0)
            await successor.close()
            await state.service.stop()
            return state, lease

        state, lease = asyncio.run(main())
        assert state.violation is None
        assert lease.epoch == 3
        assert [record.epoch for record in state.grant_log] == [1, 2, 3]
        assert state.grant_log[1].reason == "crash"

    def test_soak_grant_log_spans_the_restart_monotonically(self, tmp_path):
        report = run_soak(
            duration_s=2.0, seed=3, profile="gentle", keys=1, contenders=2,
            ttl_ms=250.0, hold_ms=5.0, kill_every=0,
            restart_service_at=0.5, out_dir=str(tmp_path),
        )
        assert report.ok, report.violation
        assert report.service_restarts == 1
        # A violation-free report already implies this (the monitor saw
        # every grant from both incarnations), so just confirm both
        # incarnations actually granted.
        assert report.grants > 0


class TestSoakViolationRoundTrip:
    def test_to_from_obj(self):
        violation = SoakViolation(
            invariant="lease_epoch_monotonic", message="m",
            grant_index=4, source="monitor",
        )
        assert SoakViolation.from_obj(violation.to_obj()) == violation
