"""shrink through one work buffer, and the transforms' ``_analyze_into`` and
``_synthesize_into``.

From ``_WORK_VALUES`` values on, ``shrink`` analyzes into the front of one
allocation and thresholds and synthesizes with scratch from its back.  Its
bytes must be those of the plain composition it replaced on both sides of
that size, and the transforms' bytes must not depend on the buffers
given."""
import hashlib
import tracemalloc

import numpy as np
import pytest

from waveshrink.shrinkage import (
    _WORK_VALUES,
    ShrinkageConfig,
    _threshold_in_place,
    shrink,
    threshold_rule,
    wavelet_system,
)
from waveshrink.transform import (
    HaarSystem,
    _all_finite,
    _analyze_levels,
    _synthesize_levels,
    haar_dwt,
)

HAAR_SIZES = [2 ** 3, 2 ** 10, 2 ** 19, 2 ** 20]
MOMENTS = [2, 3, 4, 5]


def composed(y, config, system):
    """shrink as analyze, the public thresholding rule on the details, and
    synthesize, each allocating its own arrays."""
    coeffs = system.analyze(np.asarray(y, dtype=float))
    details = coeffs[..., 2 ** config.coarse_level :]
    details[...] = threshold_rule(config.mode)(details, config.orthonormal_threshold)
    return system.synthesize(coeffs)


def noisy(shape, seed):
    """Uniform samples with every seventh value, and one whole row where
    there is more than one, set to -0.0."""
    y = np.random.default_rng(seed).uniform(-1.5, 1.5, shape)
    y[..., ::7] = -0.0
    if y.ndim > 1:
        y[1] = -0.0
    return y


def assert_same_bytes(got, want):
    assert got.shape == want.shape
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("mode", ["soft", "hard"])
@pytest.mark.parametrize("n", HAAR_SIZES)
@pytest.mark.parametrize("p", [1, 2, 4])
def test_haar_shrink_gives_the_bytes_of_the_composition(blocks, p, n, mode, lead):
    config = ShrinkageConfig.build(n, 0.5, 1.0, 1.0, 1.0, mode)
    system = wavelet_system("haar", n, 0.5)
    y = noisy(lead + (n,), n + p)
    blocks(p)
    assert_same_bytes(shrink(y, config), composed(y, config, system))


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("mode", ["soft", "hard"])
@pytest.mark.parametrize("n", [2 ** 8, 2 ** 12])
@pytest.mark.parametrize("moments", MOMENTS)
def test_interval_shrink_gives_the_bytes_of_the_composition(moments, n, mode, lead):
    config = ShrinkageConfig.build(n, 1.0, 1.0, 1.0, 1.0, mode, system="interval",
                                   moments=moments)
    system = wavelet_system("interval", n, 1.0, moments)
    y = noisy(lead + (n,), n + moments)
    assert_same_bytes(shrink(y, config, system), composed(y, config, system))


def buffers(system, shape):
    return np.empty(shape), np.empty(shape[:-1] + (system._scratch_per_row,))


def systems():
    yield from (HaarSystem(2 ** 10, j0) for j0 in (0, 3, 9, 10))
    yield from (wavelet_system("interval", 2 ** 8, 1.0, m) for m in MOMENTS)


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("system", list(systems()), ids=repr)
def test_transforms_give_the_same_bytes_with_and_without_buffers(blocks, system, p, lead):
    x = noisy(lead + (system.n,), p)
    blocks(p)
    for public, into in ((system.analyze, system._analyze_into),
                         (system.synthesize, system._synthesize_into)):
        want = public(x)
        for given in ("out", "scratch", "both", "neither"):
            out, scratch = buffers(system, x.shape)
            scratch[...] = np.nan  # nothing may be read before it is written
            out = out if given in ("out", "both") else None
            scratch = scratch if given in ("scratch", "both") else None
            got = into(x, out, scratch)
            assert_same_bytes(got, want)
            if out is not None:
                assert got is out


@pytest.mark.parametrize("mode", ["soft", "hard"])
@pytest.mark.parametrize("kind, moments", [("haar", None), ("interval", 3)])
def test_a_read_only_input_is_never_written(kind, moments, mode):
    n = 2 ** 10
    config = ShrinkageConfig.build(n, 1.0, 1.0, 1.0, 1.0, mode, system=kind, moments=moments)
    system = wavelet_system(kind, n, 1.0, moments)
    x = noisy((3, n), 1)
    x.flags.writeable = False
    before = x.tobytes()
    system.analyze(x)
    system.synthesize(x)
    system._analyze_into(x, *buffers(system, x.shape))
    system._synthesize_into(x, *buffers(system, x.shape))
    shrink(x, config, system)
    assert x.tobytes() == before


def allocated(fn, *args):
    """Peak bytes traced while fn(*args) runs, above the bytes traced before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("lead", [(), (3,)])
def test_block_helpers_allocate_nothing_when_every_buffer_is_given(lead):
    # one level's buffer is 2**14 values or more, 128 KiB, and the bound is
    # a quarter of that: room for array views and for numpy's cast buffer
    # of fixed size (the hard rule's bool-to-float), none for an array of
    # the input's size
    n, p, block, small = 2 ** 16, 2, 1, 2 ** 15
    levels = range(15, 13, -1)
    x = noisy(lead + (n // p,), 2)
    out = np.empty(lead + (n,))
    rows = x.size // (n // p)
    bufs = (np.empty(rows * 2 ** 14), np.empty(rows * 2 ** 13))
    assert allocated(_analyze_levels, x, out, levels, block, p, bufs) < small
    # with no buffers, each level allocates its approximation
    assert allocated(_analyze_levels, x, out, levels, block, p, None) > 2 ** 17
    coarse = range(14, 16)
    s = noisy(lead + (2 ** 14 // p,), 3)
    bufs = (np.empty(lead + (2 ** 14, 2)), np.empty(rows * 2 ** 14))
    assert allocated(_synthesize_levels, s, out, coarse, block, p, bufs) < small
    # the closed form from the range's first level and from inside it, on
    # approximations that are not +-0; its samples come in equal pairs
    s = np.abs(s) + 1.0
    for top in coarse:
        assert allocated(_synthesize_levels, s, out, coarse, block, p, bufs, top) < small
        pairs = _synthesize_levels(s, out, coarse, block, p, bufs, top).reshape(lead + (-1, 2))
        assert np.array_equal(pairs[..., 0], pairs[..., 1])
    for mode in ("soft", "hard"):
        scratch = np.empty(lead + (n // p - 1,))
        assert allocated(_threshold_in_place, x, 0.5, mode, scratch, 0) < small


@pytest.mark.parametrize("rows", [_WORK_VALUES // 2 ** 14 // 2, _WORK_VALUES // 2 ** 14])
@pytest.mark.parametrize("kind, moments", [("haar", None), ("interval", 2)])
def test_shrink_makes_one_work_buffer_from_its_size_on(kind, moments, rows, monkeypatch):
    n = 2 ** 14
    config = ShrinkageConfig.build(n, 1.0, 1.0, 1.0, 1.0, system=kind, moments=moments)
    system = wavelet_system(kind, n, 1.0, moments)
    y = noisy((rows, n), 4)
    sizes = []
    real_empty = np.empty

    def recording_empty(shape, *args, **kwargs):
        sizes.append(int(np.prod(shape)))
        return real_empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", recording_empty)
    peak = allocated(shrink, y, config, system)
    work = y.size + rows * system._scratch_per_row
    if y.size < _WORK_VALUES:
        assert work not in sizes  # each stage allocates its own
        return
    assert [v for v in sizes if v >= n] == [y.size, work]  # the output, then the work
    # no stage allocates scratch of its own (each would take y.size / 2
    # values or more) beside them; the slack holds numpy's fixed-size ufunc
    # buffers of the block threads
    assert peak < 8 * (work + y.size + y.size // 4)


# SHA-256 of shrink on Haar, inputs from default_rng alone: a step function
# of 16 pieces plus uniform noise.  Every operation on the way (sums,
# differences, divisions by sqrt(2), the threshold rules) is one IEEE
# operation per value, so the bytes do not depend on the CPU or the blocks.
HAAR_DIGESTS = {
    ("soft", (2 ** 20,)): "2232ef2c5713ee35cac1ebfbe49ade394bf8f9d332bf9e3386608f5923bd67a3",
    ("hard", (2 ** 20,)): "8eef957b59908823413df6a83be3fe8f8895630664e318f625da3cc74d25e555",
    ("soft", (3, 2 ** 12)): "684b3a2572da77977bb7d93459633173afb05a9ad5398e90d9a13ca664367f70",
    ("hard", (3, 2 ** 12)): "fa8017b6a9352b81645cd44d2dd9e386e1695078d31205504da585c90684996e",
}


@pytest.mark.parametrize("mode, shape", list(HAAR_DIGESTS))
def test_haar_shrink_digest(mode, shape):
    rng = np.random.default_rng(2001)
    n = shape[-1]
    steps = rng.uniform(-4.0, 4.0, shape[:-1] + (16,))
    y = np.repeat(steps, n // 16, axis=-1) + rng.uniform(-0.5, 0.5, shape)
    config = ShrinkageConfig.build(n, 0.5, 1.0, 1.0, 1.0, mode)
    digest = hashlib.sha256(shrink(y, config).tobytes()).hexdigest()
    assert digest == HAAR_DIGESTS[mode, shape]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_samples_are_rejected(bad):
    n = 2 ** 10
    config = ShrinkageConfig.build(n, 0.5, 1.0, 1.0, 1.0)
    for where in (0, n // 2, n - 1):
        y = np.zeros(n)
        y[where] = bad
        with pytest.raises(ValueError, match="finite"):
            shrink(y, config)
        with pytest.raises(ValueError, match="finite"):
            haar_dwt(y, 0)
        assert not _all_finite(y)
    y = np.full(n, 1e308)
    y[1], y[2] = np.inf, -np.inf  # a NaN sum, as from +inf and -inf
    assert not _all_finite(y)


def test_finite_samples_whose_sum_overflows_are_accepted():
    n = 2 ** 10
    for y in (np.full(n, 1e308), np.full(n, -1e308), np.tile([1e308, -1e308], n // 2)):
        with np.errstate(over="raise", invalid="raise"):
            assert _all_finite(y)
    # at 1e306 the sum overflows, but no coefficient does: the largest is
    # sqrt(n) * 1e306
    y = np.full(n, 1e306)
    y[::4] = -1e306
    with np.errstate(over="ignore"):
        assert np.isinf(np.add.reduce(y))
    config = ShrinkageConfig.build(n, 0.5, 1.0, 1.0, 1.0)
    assert np.all(np.isfinite(shrink(y, config)))
    assert np.all(np.isfinite(haar_dwt(y, 0).flat()))
