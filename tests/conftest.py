import pytest

from waveshrink import shrinkage, transform


@pytest.fixture
def blocks(monkeypatch):
    """``blocks(p)`` makes every transform and shrink split into at most p
    blocks, whatever the input size and the cores; returns the block counts
    that calls then use."""
    used = []
    real_run = transform._run_blocks

    def recording_run(fn, args):
        used.append(len(args))
        return real_run(fn, args)

    monkeypatch.setattr(transform, "_run_blocks", recording_run)

    def force(p):
        def count(size, levels):
            return min(p, 2 ** levels)
        monkeypatch.setattr(transform, "_block_count", count)
        monkeypatch.setattr(shrinkage, "_block_count", count)
        used.clear()
        return used
    return force
