"""The benchmark's own correctness gate, run in process.

``perfbench/workloads.py`` pins what each workload's ``localize``,
``compute`` and ``verify`` must write: the localized and compute hashes at
the default seed, the table levels and the verify check set.  Each
operation here runs through ``cli.main`` with the workload's arguments, as
``perfbench/run.py`` runs it in a fresh interpreter, so an output change
that would make the benchmark refuse a run fails here first.
"""

import json
import sys
from pathlib import Path

import pytest

from trcycles import cli

sys.path.insert(0, str(Path(__file__).parent.parent / "perfbench"))

from workloads import OPS, WORKLOADS, check_output, curve_document


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_its_gate(tmp_path, name, seed):
    spec = WORKLOADS[name]
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps(curve_document(name, seed), indent=1,
                                sort_keys=True))
    localized = tmp_path / "localized.json"
    for op in OPS:
        src = curve if op == "localize" else localized
        out = localized if op == "localize" else tmp_path / f"{op}.json"
        assert cli.main([op, "--curve", str(src), "--out", str(out)]
                        + spec[op]) == 0, op
        assert check_output(name, seed, op, str(out), str(localized)) \
            is None, op
