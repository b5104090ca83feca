"""The bytes of the interval systems, held per host.

The interval filters come from ``np.roots`` and the boundary rows from
LAPACK (SVD, QR, eigh), so their last bits can differ between CPUs and
LAPACK builds.  Each set of pinned values is keyed by a fingerprint of this
host: the bytes of ``daubechies_filter(N)`` for N = 2..5 and of a fixed
small LAPACK probe.  On a fingerprint not listed here the tests fail and
print the set to add; they are never skipped.

Pinned per fingerprint:

* ``float.hex`` of c_phi for N = 2..5, n = 2^3..2^12 and J0 in
  {min_coarse_level(N), J - 1, J}, or the name of the exception a build
  raises;
* for N = 2, 3 and 5 at n = 2^12 and J0 = min_coarse_level(N): SHA-256 of
  ``analyze`` and ``synthesize`` on a seeded (3, 2^12) batch, of
  ``interval_dwt(row).flat()`` and of ``interval_idwt`` of the pyramid
  over ``row``, for the batch's first row;
* for N = 2 and 3 at n = 2^12: SHA-256 of ``shrink``, soft and hard, on a
  seeded (3, 2^12) batch built as ``HAAR_DIGESTS``' input in
  ``test_work_buffer.py`` (a step function plus uniform noise, so no libm);
* SHA-256 of ``simulate``'s JSONL reports and CSV summary for one interval
  N = 2 plan (``SIMULATE_PLAN``) at ``--seed 11`` and one worker.

A change that moves one of these bytes changes a value here, and must say
why.
"""
import functools
import hashlib
import json
import pprint
import tempfile
from pathlib import Path

import numpy as np
import pytest

from waveshrink.cli import main
from waveshrink.interval import (
    MAX_MOMENTS,
    build_interval_system,
    daubechies_filter,
    interval_dwt,
    interval_idwt,
    min_coarse_level,
)
from waveshrink.shrinkage import ShrinkageConfig, shrink
from waveshrink.transform import CoefficientPyramid

TRANSFORM_MOMENTS = (2, 3, 5)
TRANSFORM_N = 2 ** 12
SHRINK_MOMENTS = (2, 3)
SIMULATE_PLAN = dict(signal_kind="linear", alpha=1.0, holder_const=1.0,
                     noise_family="uniform", noise_bound=1.0, ns=[256, 2048],
                     deltas=[1.0], trials=40, system="interval", moments=2)


def fingerprint() -> str:
    h = hashlib.sha256()
    for moments in range(2, MAX_MOMENTS + 1):
        h.update(daubechies_filter(moments).tobytes())
    probe = np.add.outer(np.arange(6.0), np.arange(6.0) ** 2) / 7.0 + np.eye(6)
    for part in (*np.linalg.svd(probe), *np.linalg.qr(probe), *np.linalg.eigh(probe @ probe.T)):
        h.update(part.tobytes())
    return h.hexdigest()[:16]


def c_phi_keys():
    """(N, n, J0) of the c_phi table."""
    keys = []
    for moments in range(2, MAX_MOMENTS + 1):
        for J in range(3, 13):
            lowest = min_coarse_level(moments)
            keys += [(moments, 2 ** J, j0) for j0 in sorted({lowest, J - 1, J})
                     if lowest <= j0 <= J]
    return keys


def c_phi_entry(key) -> str:
    try:
        return build_interval_system(*key).c_phi_estimate.hex()
    except ValueError as exc:
        return type(exc).__name__


@functools.cache
def transform_digests(moments: int) -> tuple[str, str, str, str]:
    system = build_interval_system(moments, TRANSFORM_N, min_coarse_level(moments))
    batch = np.random.default_rng(2001).standard_normal((3, TRANSFORM_N))
    row = batch[0]
    outputs = (system.analyze(batch), system.synthesize(batch),
               interval_dwt(row, system).flat(),
               interval_idwt(CoefficientPyramid.from_flat(row.copy(), system.coarse_level),
                             system))
    return tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in outputs)


@functools.cache
def shrink_digests(moments: int) -> dict[str, str]:
    rng = np.random.default_rng(2001)
    shape = (3, TRANSFORM_N)
    steps = rng.uniform(-4.0, 4.0, shape[:-1] + (16,))
    y = np.repeat(steps, TRANSFORM_N // 16, axis=-1) + rng.uniform(-0.5, 0.5, shape)
    digests = {}
    for mode in ("soft", "hard"):
        config = ShrinkageConfig.build(TRANSFORM_N, 1.0, 1.0, 1.0, 1.0, mode,
                                       system="interval", moments=moments)
        digests[mode] = hashlib.sha256(shrink(y, config).tobytes()).hexdigest()
    return digests


@functools.cache
def simulate_digests() -> tuple[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        plan, reports, summary = (Path(tmp) / f for f in ("plan.json", "r.jsonl", "s.csv"))
        plan.write_text(json.dumps(SIMULATE_PLAN))
        assert main(["simulate", str(plan), str(reports), str(summary),
                     "--seed", "11", "--workers", "1"]) == 0
        return tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                     for path in (reports, summary))


def pinned(part: str):
    """This host's pinned values of ``part``; fails, printing this host's
    whole set, on a fingerprint without one."""
    key = fingerprint()
    if key not in PINNED:
        found = {"c_phi": {k: c_phi_entry(k) for k in c_phi_keys()},
                 "transforms": {m: transform_digests(m) for m in TRANSFORM_MOMENTS},
                 "shrink": {m: shrink_digests(m) for m in SHRINK_MOMENTS},
                 "simulate": simulate_digests()}
        pytest.fail(f"no pinned interval bytes for host fingerprint {key!r}; "
                    f"add this entry to PINNED:\n{pprint.pformat({key: found})}")
    return PINNED[key][part]


def test_c_phi_table():
    want = pinned("c_phi")
    assert set(want) == set(c_phi_keys())
    got = {key: c_phi_entry(key) for key in want}
    assert {k: v for k, v in got.items() if v != want[k]} == {}


@pytest.mark.parametrize("moments", TRANSFORM_MOMENTS)
def test_transform_digests(moments):
    assert transform_digests(moments) == pinned("transforms")[moments]


@pytest.mark.parametrize("moments", SHRINK_MOMENTS)
def test_shrink_digests(moments):
    assert shrink_digests(moments) == pinned("shrink")[moments]


def test_simulate_digests():
    assert simulate_digests() == pinned("simulate")


PINNED = {
    "268a1dfbed52454d": {
        "c_phi": {
            (2, 8, 3): "0x1.0000000000000p+0",
            (2, 16, 3): "0x1.2ed9eba16132cp+0",
            (2, 16, 4): "0x1.0000000000000p+0",
            (2, 32, 3): "0x1.7520cd1372fedp+0",
            (2, 32, 4): "0x1.2ed9eba16132cp+0",
            (2, 32, 5): "0x1.0000000000000p+0",
            (2, 64, 3): "0x1.98443dcc7be4fp+0",
            (2, 64, 5): "0x1.2ed9eba16132cp+0",
            (2, 64, 6): "0x1.0000000000000p+0",
            (2, 128, 3): "0x1.a9d5f62900580p+0",
            (2, 128, 6): "0x1.2ed9eba16132cp+0",
            (2, 128, 7): "0x1.0000000000000p+0",
            (2, 256, 3): "0x1.b29ed2574291ap+0",
            (2, 256, 7): "0x1.2ed9eba16132cp+0",
            (2, 256, 8): "0x1.0000000000000p+0",
            (2, 512, 3): "0x1.b703406e63ae7p+0",
            (2, 512, 8): "0x1.2ed9eba16132cp+0",
            (2, 512, 9): "0x1.0000000000000p+0",
            (2, 1024, 3): "0x1.b9357779f43cep+0",
            (2, 1024, 9): "0x1.2ed9eba16132cp+0",
            (2, 1024, 10): "0x1.0000000000000p+0",
            (2, 2048, 3): "0x1.ba4e92ffbc842p+0",
            (2, 2048, 10): "0x1.2ed9eba16132cp+0",
            (2, 2048, 11): "0x1.0000000000000p+0",
            (2, 4096, 3): "0x1.badb20c2a0a7dp+0",
            (2, 4096, 11): "0x1.2ed9eba16132cp+0",
            (2, 4096, 12): "0x1.0000000000000p+0",
            (3, 16, 4): "0x1.0000000000000p+0",
            (3, 32, 4): "0x1.2bbb5131cff12p+0",
            (3, 32, 5): "0x1.0000000000000p+0",
            (3, 64, 4): "0x1.746bcc65d1ba9p+0",
            (3, 64, 5): "0x1.2bbb5131cff11p+0",
            (3, 64, 6): "0x1.0000000000000p+0",
            (3, 128, 4): "0x1.02321ce280a52p+1",
            (3, 128, 6): "0x1.2bbb5131cff11p+0",
            (3, 128, 7): "0x1.0000000000000p+0",
            (3, 256, 4): "0x1.023ec356470aap+1",
            (3, 256, 7): "0x1.2bbb5131cff11p+0",
            (3, 256, 8): "0x1.0000000000000p+0",
            (3, 512, 4): "0x1.0244e61115b52p+1",
            (3, 512, 8): "0x1.2bbb5131cff11p+0",
            (3, 512, 9): "0x1.0000000000000p+0",
            (3, 1024, 4): "0x1.0247ebbb8508dp+1",
            (3, 1024, 9): "0x1.2bbb5131cff11p+0",
            (3, 1024, 10): "0x1.0000000000000p+0",
            (3, 2048, 4): "0x1.0516c0c040c39p+1",
            (3, 2048, 10): "0x1.2bbb5131cff11p+0",
            (3, 2048, 11): "0x1.0000000000000p+0",
            (3, 4096, 4): "0x1.092b062cbae13p+1",
            (3, 4096, 11): "0x1.2bbb5131cff10p+0",
            (3, 4096, 12): "0x1.0000000000000p+0",
            (4, 16, 4): "0x1.0000000000000p+0",
            (4, 32, 4): "0x1.2bc662f2050b5p+0",
            (4, 32, 5): "0x1.0000000000000p+0",
            (4, 64, 4): "0x1.2c0b9b6878495p+0",
            (4, 64, 5): "0x1.2bc662f2050b3p+0",
            (4, 64, 6): "0x1.0000000000000p+0",
            (4, 128, 4): "0x1.7da54492a583cp+0",
            (4, 128, 6): "0x1.2bc662f2050b0p+0",
            (4, 128, 7): "0x1.0000000000000p+0",
            (4, 256, 4): "0x1.bd1def73ccef5p+0",
            (4, 256, 7): "0x1.2bc662f2050b4p+0",
            (4, 256, 8): "0x1.0000000000000p+0",
            (4, 512, 4): "0x1.ce009c2457305p+0",
            (4, 512, 8): "0x1.2bc662f2050b1p+0",
            (4, 512, 9): "0x1.0000000000000p+0",
            (4, 1024, 4): "0x1.f3aa2f074588cp+0",
            (4, 1024, 9): "0x1.2bc662f2050adp+0",
            (4, 1024, 10): "0x1.0000000000000p+0",
            (4, 2048, 4): "0x1.03dc80cad12e5p+1",
            (4, 2048, 10): "0x1.2bc662f2050aep+0",
            (4, 2048, 11): "0x1.0000000000000p+0",
            (4, 4096, 4): "0x1.0909dd5d09793p+1",
            (4, 4096, 11): "0x1.2bc662f2050aep+0",
            (4, 4096, 12): "0x1.0000000000000p+0",
            (5, 32, 5): "0x1.0000000000000p+0",
            (5, 64, 5): "0x1.2bdf06f712c9dp+0",
            (5, 64, 6): "0x1.0000000000000p+0",
            (5, 128, 5): "0x1.5dbbb3daa38ecp+0",
            (5, 128, 6): "0x1.2bdf06f712c9ep+0",
            (5, 128, 7): "0x1.0000000000000p+0",
            (5, 256, 5): "0x1.a5b656c730740p+0",
            (5, 256, 7): "0x1.2bdf06f712caap+0",
            (5, 256, 8): "0x1.0000000000000p+0",
            (5, 512, 5): "0x1.a59d2202e0b9cp+0",
            (5, 512, 8): "0x1.2bdf06f712cadp+0",
            (5, 512, 9): "0x1.0000000000000p+0",
            (5, 1024, 5): "0x1.1f789cadae3f1p+1",
            (5, 1024, 9): "0x1.2bdf06f712c95p+0",
            (5, 1024, 10): "0x1.0000000000000p+0",
            (5, 2048, 5): "0x1.45b4e71f6568bp+1",
            (5, 2048, 10): "0x1.2bdf06f712cc0p+0",
            (5, 2048, 11): "0x1.0000000000000p+0",
            (5, 4096, 5): "0x1.65e08cebf195ap+1",
            (5, 4096, 11): "0x1.2bdf06f712c9bp+0",
            (5, 4096, 12): "0x1.0000000000000p+0",
        },
        "transforms": {
            2: ("7baf54e6d562692ea62c67d7ee83b9fef347e453f966b08a734f70e8ea162654",
                "a2c8796b997c880d2b0e166cd87383902a1e7a6594bf980da023d0c7cfdeacb3",
                "8eedde9518483d26827a4cc59ef22b88c72408852dd9c5a82c915f79aed639f5",
                "e523f69885c60244bda46de15a9d739fdcba68a6b7abd5ae474abbc9708e0910"),
            3: ("54d033eacdef3e1516105a8652da150106f87fc734472bddd1f480f468018bb1",
                "e637971665b389798f82e69dcb2e116bb1ab2fc977f59c2d4d0f50ef28afa38e",
                "20357633768d2be5311e7e4e213b75860ad72625513a13462cecf73c26337dd0",
                "32f1c86ce0cc1589a0849eb0231e16452c2b455ed29af4fdd97bd23d9d9d17dc"),
            5: ("eaf970814b05027caee8a8095710c92f4bc3edd04c9bb8224629a1319d56f213",
                "618179708e9daf257706d97013ad0810fecc084c71c9d35aa6d0bc7a174aabda",
                "d4cf6941a5c950e467aed942a1571583d76a7eed4a988d9a2025f21ed0db926c",
                "e603660993eaa55bd4a045d96d434f6d50fe750b7d6a158316095f7c113c6853"),
        },
        "shrink": {
            2: {"soft": "e0db89947ee2883924459f2169111c986b7904c17084f7065ee8f5ad9f49a4d4",
                "hard": "f8f8644f2a7404717333f85fca641f9950e7b216e9e5a3c048d84746e0f51ffa"},
            3: {"soft": "74ac938e98784ab1c7db83c6c2bfcf16e9a587b31e052421c5918ef90848cea8",
                "hard": "8ee5c0fc481fb878db97daa6ea885cd297cb97304d823906dd2cb6e8cfc6c00c"},
        },
        "simulate": ("046bcbddd178626868cd1e4bd0f6c3af1a048ef21f98b7bd6a85a47f6d6d89ca",
                     "a3e4076f7422c81d12d7e5e89ea2d45df61b3c38acf4bb587738116337c57b43"),
    },
}
