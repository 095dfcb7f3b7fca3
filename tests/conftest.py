"""Repo-wide fixtures: the write-ahead log handle leak guard."""

import pytest

from repro.storage import live_wal_handles


@pytest.fixture(autouse=True, scope="session")
def wal_handle_leak_guard():
    """No WriteAheadLog may outlive the session.

    A leaked log handle holds an open file descriptor into a temp dir and
    usually means a ``VersionedGraphStore`` was abandoned without
    ``close()`` -- which is exactly the bug that turns a crash-recovery
    suite into an fd exhaustion generator.
    """
    yield
    leaked = live_wal_handles()
    assert not leaked, (
        f"write-ahead log leak: live_wal_handles()={leaked} "
        "-- some test opened a store or WAL and never closed it"
    )
