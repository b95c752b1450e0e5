import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402

run.import_program()


@pytest.fixture
def small_auction_grid(monkeypatch):
    """auction_grid with a five-operation list, to keep runs short."""
    import workloads

    monkeypatch.setattr(workloads.AuctionGrid, "sessions", 5)
    monkeypatch.setattr(workloads.AuctionGrid, "trace_ops", 3)
    monkeypatch.setattr(workloads.AuctionGrid, "digest_ops", 2)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.fixture
def speed():
    import hostspeed

    sampler = hostspeed.HostSpeed()
    sampler.start()
    yield sampler
    sampler.stop()
