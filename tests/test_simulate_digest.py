"""The bytes that ``simulate`` writes, held by their SHA-256 digests.

The plans are Haar plans whose bytes come only from IEEE arithmetic and
PCG64 draws: the linear signal needs no ``sin`` or ``pow``, and uniform and
Rademacher draws need no ``log``.  Their sample counts give event A
(n = 16, 256), batches of 128, 32 and 2 rows (n = 256, 2^10, 2^14) and, at
129 trials, a partial last batch in every cell.  A change that moves one
byte of a report or a summary changes a digest here, and must say why.

The summary's envelope goes through Python's float ``**`` and the threshold
through ``math.log``, so its digest also rests on the C library's ``pow``
and ``log``; the reports' digest does not.
"""
import hashlib
import json

import pytest

from waveshrink.cli import main

PLAN = dict(signal_kind="linear", alpha=1.0, holder_const=1.0, noise_bound=1.0,
            ns=[16, 256, 1024, 16384], deltas=[0.0, 1.0], trials=129, system="haar")
PLANS = {
    "uniform-soft": dict(PLAN, noise_family="uniform", mode="soft"),
    "rademacher-hard": dict(PLAN, noise_family="rademacher", mode="hard"),
}
# SHA-256 of the JSONL reports and the CSV summary at --seed 11
DIGESTS = {
    "uniform-soft": (
        "389bf4b89024ee7d4076b7eb3954898d00541a93d40d30f651ef17bf574e8977",
        "476435709583779411c80e2342d6f74e6dc1af2159ef1a1682cd6fd901541bad"),
    "rademacher-hard": (
        "63200a469c99d42b706cacbe9fe72aa890b6e109feae36e7f2b60d06976b80b1",
        "39b5b865b9be62ee0b0c13c89ff6691342959c98e1ab6ef55f7a488184ceb14c"),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PLANS))
def test_simulate_bytes_are_pinned(name, tmp_path):
    plan, reports, summary = (tmp_path / f for f in ("plan.json", "r.jsonl", "s.csv"))
    plan.write_text(json.dumps(PLANS[name]))
    assert main(["simulate", str(plan), str(reports), str(summary),
                 "--seed", "11"]) == 0
    assert (sha256(reports), sha256(summary)) == DIGESTS[name]
