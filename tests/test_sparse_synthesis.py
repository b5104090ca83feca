"""The level-aware threshold and the synthesis above the finest kept level.

``_threshold_in_place(c, lam, mode, scratch, J0)`` kills each level whose
values all lie in [-lam, lam] in one pass and returns ``kept``, the finest
level that keeps a value; ``_synthesize_into(c, out, scratch, kept)``
synthesizes the levels above kept in closed form.  Both must give the bytes,
sign bits included, of the code they shortcut: the threshold rules and the
full synthesis.  The inputs have whole killed levels, values at exactly
+-lam, a kept value in the finest level only, approximations of +0.0 and
-0.0, one row and batches, and run in p = 1, 2 and 4 blocks."""
import numpy as np
import pytest

from test_work_buffer import assert_same_bytes
from waveshrink.shrinkage import (
    _threshold_in_place,
    hard_threshold,
    soft_threshold,
    wavelet_system,
)
from waveshrink.transform import HaarSystem

LAM = 1.5
RULES = {"soft": soft_threshold, "hard": hard_threshold}


def coefficients(lead, n, j0, kept, seed, approx=None, finest=False):
    """Flat coefficients (lead + (n,)) whose detail levels above ``kept``
    lie in [-LAM, LAM], with +-LAM, +-0 and values of both signs; the levels
    j0..kept are uniform on [-4, 4], and level ``kept`` keeps at least one
    value.  ``approx`` fills the approximation block where given.  With
    ``finest``, the finest level also keeps one value, in the last row."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(-LAM, LAM, lead + (n,))
    c[..., 1::5] = LAM
    c[..., 2::5] = -LAM
    c[..., 3::7] = -0.0
    c[..., 4::7] = 0.0
    lo = 2 ** j0
    if kept >= j0:
        c[..., lo : 2 ** (kept + 1)] = rng.uniform(-4.0, 4.0, lead + (2 ** (kept + 1) - lo,))
        c[..., 2 ** kept] = 3.0  # level kept keeps a value in every row
    if approx is not None:
        c[..., :lo] = approx
    if finest:
        c.reshape(-1, n)[-1, -1] = -2.0 * LAM
    return c


def expected(c, j0, mode):
    want = c.copy()
    want[..., 2 ** j0 :] = RULES[mode](c[..., 2 ** j0 :], LAM)
    return want


CASES = [  # (n, J0, kept)
    (2 ** 10, 0, -1), (2 ** 10, 0, 0), (2 ** 10, 0, 3), (2 ** 10, 3, 2), (2 ** 10, 3, 5),
    (2 ** 10, 0, 8), (2 ** 10, 0, 9), (2 ** 4, 2, 1), (2 ** 4, 0, 2), (2, 0, -1), (2, 0, 0),
]


@pytest.mark.parametrize("scratch", [False, True])
@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("mode", ["soft", "hard"])
@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("n, j0, kept", CASES)
def test_threshold_gives_the_rules_bytes_and_the_finest_kept_level(
        blocks, n, j0, kept, p, mode, lead, scratch):
    blocks(p)
    for finest in (False, True):
        c = coefficients(lead, n, j0, kept, n + kept + p, finest=finest)
        want = expected(c, j0, mode)
        got = c.copy()
        buffer = np.full(lead + (n - 2 ** j0,), np.nan) if scratch else None
        level = _threshold_in_place(got, LAM, mode, buffer, j0)
        assert_same_bytes(got, want)
        assert level == (n.bit_length() - 2 if finest and n > 2 ** j0 else kept)


@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_threshold_without_levels_is_one_level(mode):
    for x, kept in ((np.array([LAM, -LAM, 0.0, -0.0, 0.5, -0.5]), -1),
                    (np.array([LAM, -0.0, -2.0]), 0)):
        got = x.copy()
        assert _threshold_in_place(got, LAM, mode) == kept
        assert_same_bytes(got, RULES[mode](x, LAM))


def haar_systems():
    return [HaarSystem(n, j0) for n, j0 in ((2 ** 10, 0), (2 ** 10, 3), (2 ** 4, 0),
                                            (2 ** 4, 2), (2, 0), (2, 1))]


def interval_systems():
    return [wavelet_system("interval", 2 ** 8, 1.0, m) for m in (2, 3)]


def assert_synthesis_matches(system, c, kept):
    """``_synthesize_into(c, ..., kept)`` with every choice of buffers has
    the bytes of the full synthesis."""
    want = system.synthesize(c)
    for out in (None, np.empty(c.shape)):
        for scratch in (None, np.full(c.shape[:-1] + (system._scratch_per_row,), np.nan)):
            got = system._synthesize_into(c, out, scratch, kept)
            assert_same_bytes(got, want)
            if out is not None:
                assert got is out


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("mode", ["soft", "hard"])
@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("system", haar_systems() + interval_systems(), ids=repr)
def test_synthesis_above_the_kept_level_gives_the_full_bytes(blocks, system, p, mode, lead):
    blocks(p)
    J, j0 = system.finest_level, system.coarse_level
    for kept in sorted({j0 - 1, j0, (j0 + J) // 2, J - 2, J - 1}):
        if not j0 - 1 <= kept <= J - 1:
            continue
        for approx in (None, 0.0, -0.0, np.array([-0.0, 0.0] * 2 ** j0)[: 2 ** j0]):
            c = coefficients(lead, system.n, j0, kept, J + kept + p, approx)
            assert _threshold_in_place(c, LAM, mode, None, j0) == kept
            assert_synthesis_matches(system, c, kept)


@pytest.mark.parametrize("p", [1, 2, 4])
def test_a_signed_zero_approximation_in_one_block_runs_every_level(blocks, p):
    """Level 2's approximations in the second half are -0.0 and +0.0: there
    the killed details' signs decide the samples, so that half cannot take
    the closed form.  Level 1 keeps a value in the first half only."""
    blocks(p)
    n = 2 ** 10
    system = HaarSystem(n, 0)
    c = coefficients((), n, 0, -1, 7)
    c[:4] = [-0.0, 0.5, 5.0, -0.5]  # approx, level 0, level 1
    for mode in ("soft", "hard"):
        got = c.copy()
        assert _threshold_in_place(got, LAM, mode, None, 0) == 1
        assert_synthesis_matches(system, got, 1)


@pytest.mark.parametrize("lead", [(0,), (2, 0)])
@pytest.mark.parametrize("system", [HaarSystem(2 ** 8, 0)] + interval_systems(), ids=repr)
def test_a_batch_without_rows(system, lead):
    c = np.empty(lead + (system.n,))
    assert _threshold_in_place(c, LAM, "soft", None, system.coarse_level) == \
        system.coarse_level - 1
    assert_synthesis_matches(system, c, system.coarse_level - 1)


def test_closed_form_levels_are_a_copy_of_the_scaled_approximations():
    """The samples above the kept level are the level-(kept+1) approximations
    divided by sqrt(2) once per level, each repeated over its block."""
    n, kept = 2 ** 10, 2
    system = HaarSystem(n, 0)
    c = coefficients((2,), n, 0, kept, 3)
    _threshold_in_place(c, LAM, "soft", None, 0)
    top = HaarSystem(2 ** (kept + 1), 0).synthesize(c[..., : 2 ** (kept + 1)])
    for _ in range(system.finest_level - kept - 1):
        top /= np.sqrt(2.0)
    got = system._synthesize_into(c, None, None, kept)
    assert_same_bytes(got, np.repeat(top, n // 2 ** (kept + 1), axis=-1))
