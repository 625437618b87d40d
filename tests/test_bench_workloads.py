"""The benchmark's workloads at smoke size, driven as `bench/run.py` drives them.

After each timed `run_experiment` call, `bench/workloads.py` reads every
vehicle of both runs: conservation checks, the trajectory digests and the
work counts.  After each timed `run_round` call it checks the noise bound
and the decoding, and digests the field totals; after the last, it compares
the protocol's noise with `sample_noise` and checks the message count.  A
name the benchmark reaches that the package no longer has fails here.  The
module is loaded from its file, since `bench/` is not a package.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
_spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # its dataclasses look their module up
_spec.loader.exec_module(workloads)

# the digests `bench/run.py --workload sf_paired --smoke` prints at seed 1
SMOKE_DIGESTS = {
    "non-private": "a0fc12b12043733333b05d09e5d26a43b109753b2f36b45c804398565a6030bb",
    "private": "541d8c0612ea83ab3a41e8c2b8c008555f5e1cf4ca028141385a56945bc902bc",
}
# the work the same pair counts: edge entries, read through Vehicle.entry_times,
# are the numerator of sf_paired's work_per_s
SMOKE_WORK = {"entries": 9459, "vehicles": 3920}


def test_sf_paired_smoke_records_cleanly_and_repeats():
    pair = workloads.workloads(smoke=True)["sf_paired"]
    inputs = pair.setup(1)
    records = []
    for k in range(2):
        prepared = pair.prepare(inputs, k)
        result = pair.op(inputs, prepared, k)
        records.append(pair.record(inputs, prepared, result, 0.0))
    for record in records:
        assert record.failures == []
        assert record.digest == SMOKE_DIGESTS
        assert record.work == SMOKE_WORK
    assert records[0].outputs == records[1].outputs


# the field-total digests `bench/run.py --workload <name> --smoke` prints at
# seed 1, from its first call
ROUND_SMOKE_DIGESTS = {
    "round_small": "a548ac4652b7ec1bb3b80232d3fdc25eb97f466cfcf664896ad9eb305d9431d3",
    "round_sf": "5b6c2d412bb1dd0eebd6713386d20e10e15403274d3639c641d98c439798a665",
}


@pytest.mark.parametrize("name", list(ROUND_SMOKE_DIGESTS))
def test_round_smoke_records_cleanly(name, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # `finish` imports bench/layers.py
    rounds = workloads.workloads(smoke=True)[name]
    inputs = rounds.setup(1)
    prepared = rounds.prepare(inputs, 0)
    result = rounds.op(inputs, prepared, 0)
    record = rounds.record(inputs, prepared, result, 0.0)
    assert record.failures == []
    assert record.digest == {"field_totals": ROUND_SMOKE_DIGESTS[name]}
    assert record.work == {"edge_rounds": rounds.edges}
    # the KS check against sample_noise and the message-count check
    assert rounds.finish(inputs, 1) == []
