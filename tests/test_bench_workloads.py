"""The benchmark's record path for a simulated pair.

After each timed `run_experiment` call, `bench/workloads.py` reads every
vehicle of both runs: conservation checks, the trajectory digests and the
work counts.  The module is loaded from its file, since `bench/` is not a
package.
"""

import importlib.util
import sys
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
)
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
