"""SHA-256 of the CSV that ``waveshrink denoise`` writes.

Each input is a step function of 16 pieces plus uniform noise on
[-0.5, 0.5], from ``default_rng`` alone, written with ``%.17g`` so that the
command reads back the same floats.  At ``--b 1`` the threshold kills every
detail level above a few coarse ones; at ``--b 1e-6`` (dense) every level
keeps coefficients, so both the levels above the finest kept one and the
general levels are pinned.

The Haar bytes take one IEEE operation per value on the way (sums,
differences, divisions by sqrt(2), the threshold rules), so they are the
same on every host.  The interval bytes depend on the system's filters and
boundary rows, so they are keyed by ``test_interval_digest.fingerprint``;
on a fingerprint not listed here the test fails and prints the set to add.
"""
import functools
import hashlib
import pprint

import numpy as np
import pytest

from test_interval_digest import fingerprint
from waveshrink.cli import main

# (system, moments, mode, log2 n, b)
HAAR_CASES = [("haar", None, mode, J, 1.0) for J in (12, 20) for mode in ("soft", "hard")] \
    + [("haar", None, "soft", 20, 1e-6), ("haar", None, "hard", 12, 1e-6)]
INTERVAL_CASES = [("interval", m, mode, 12, 1.0) for m in (2, 3) for mode in ("soft", "hard")] \
    + [("interval", 2, "soft", 12, 1e-6), ("interval", 3, "hard", 12, 1e-6)]


@pytest.fixture(scope="module")
def noisy_csv(tmp_path_factory):
    folder = tmp_path_factory.mktemp("denoise")

    @functools.cache
    def write(J: int):
        n = 2 ** J
        rng = np.random.default_rng(2001)
        y = np.repeat(rng.uniform(-4.0, 4.0, 16), n // 16) + rng.uniform(-0.5, 0.5, n)
        path = folder / f"noisy{J}.csv"
        np.savetxt(path, y, fmt="%.17g")
        assert np.array_equal(np.loadtxt(path), y)
        return path
    return write


def denoise_digest(noisy_csv, case) -> str:
    system, moments, mode, J, b = case
    source = noisy_csv(J)
    target = source.with_name(f"{system}-{moments}-{mode}-{J}-{b}.csv")
    alpha = "0.5" if system == "haar" else "1"
    args = ["denoise", str(source), str(target), "--alpha", alpha, "--M", "1",
            "--b", repr(b), "--mode", mode, "--system", system]
    if moments is not None:
        args += ["--moments", str(moments)]
    assert main(args) == 0
    return hashlib.sha256(target.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", HAAR_CASES, ids=repr)
def test_haar_denoise_digest(noisy_csv, case):
    assert denoise_digest(noisy_csv, case) == HAAR_DIGESTS[case]


def test_interval_denoise_digests(noisy_csv):
    got = {case: denoise_digest(noisy_csv, case) for case in INTERVAL_CASES}
    key = fingerprint()
    if key not in INTERVAL_DIGESTS:
        pytest.fail(f"no pinned denoise bytes for host fingerprint {key!r}; add this "
                    f"entry to INTERVAL_DIGESTS:\n{pprint.pformat({key: got})}")
    assert got == INTERVAL_DIGESTS[key]


HAAR_DIGESTS = {
    ("haar", None, "soft", 12, 1.0): "40f1456939c1894f5d6c35d605ead5144d30da9eeacd5932ee06ebab261f6469",
    ("haar", None, "hard", 12, 1.0): "9f9148467c00decd78fb24fe55b81cd99709ba500b8459962e5dc8c1d63bb6bf",
    ("haar", None, "soft", 20, 1.0): "0fe284cfba51d5c8614eb6ce9424ab4579d54627f5eaf28f90eabf2788062494",
    ("haar", None, "hard", 20, 1.0): "406e8d9b5fe730b9ca469e96fb519df3cf89e1b125a8494d44db08b3bc04c959",
    ("haar", None, "soft", 20, 1e-6): "7b468087ad6e625d35d6831d2a5d89ca5b44e1fece58049b2d40a842b5ad8a9f",
    ("haar", None, "hard", 12, 1e-6): "6709ef3bb7c8f96e9bd4ef744f84236dee50248f56be235380f523c2fc0ce8eb",
}

INTERVAL_DIGESTS = {
    "268a1dfbed52454d": {
        ("interval", 2, "soft", 12, 1.0): "4f173664089ed7127a0d48b8f33164dc95c1aa8a7f843c13be3ad225739e8d91",
        ("interval", 2, "hard", 12, 1.0): "a80b6942e756f7f64d452bd761b365c59d58e22c8821d4a3155694d3add1a703",
        ("interval", 3, "soft", 12, 1.0): "16f71035dfd43445a4cb9aa862823195513c1ba60593723fafb052b083e2e6f0",
        ("interval", 3, "hard", 12, 1.0): "726406f9e53880c5059340e165b1c3cbc1f1559cadacab839529c2cb3f4e1d9c",
        ("interval", 2, "soft", 12, 1e-6): "4bba70ed8ac243520992f9d563de02a90acd2092817a20d72461636c00c4ec6a",
        ("interval", 3, "hard", 12, 1e-6): "1c534729e5ae058e8217e685b3fd69220447cbb9aa6faf117afaea553ed736da",
    },
}
