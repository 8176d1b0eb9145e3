"""The benchmark's seed-0 outputs, pinned bit for bit.

Each workload of `bench/workloads.py` runs one round from `setup(0, ...)`,
outside the timed runner, and its output checks must pass with the digests
below: the loss streams of the two training stages, and the predictions
and hits of `eval`.  A change that moves a digest on purpose updates it
here and says why.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

PINNED = {
    "warmup": {"loss": "7e827122de7bdcf5"},
    "finetune": {"loss": "559954d2983fe8fa"},
    "eval": {"prediction": "a4201c097d7318ef", "hits": "a10c710235e40df1"},
}


@pytest.mark.parametrize("name", list(PINNED))
def test_seed0_bench_round_is_pinned(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    ctx = workload.setup(0, str(tmp_path))
    outputs = workload.run_round(ctx, lambda: None)
    checked = workload.check(ctx, outputs)
    assert checked.failed_units == set()
    assert checked.extra_failed == 0
    assert checked.digests == PINNED[name]
