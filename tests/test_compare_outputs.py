"""tools/compare_outputs.py: how a differing JSON output is described."""

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import compare_outputs  # noqa: E402


def test_each_changed_field_names_its_largest_relative_change():
    old = {"results": [{"j": 1, "estimate": 4.0, "mode": "a"}],
           "sweep": {"estimates": [1.0, 2.0, -8.0], "spread": 0.0},
           "nan": math.nan, "same": [1.0, 2.0]}
    new = {"results": [{"j": 1, "estimate": 4.0 + 1e-12, "mode": "b"}],
           "sweep": {"estimates": [1.0, 2.0 + 2e-9, -8.0 - 8e-9],
                     "spread": 1e-9},
           "nan": math.nan, "same": [1.0, 2.0], "added": 1}
    got = compare_outputs.describe("--out bytes", json.dumps(old).encode(),
                                   json.dumps(new).encode())
    assert got == ("--out fields: results.0.estimate (rel 2.5e-13), "
                   "results.0.mode (rel n/a), sweep.estimates (rel 1e-09), "
                   "sweep.spread (rel inf), added (rel n/a)")


def test_a_non_json_difference_shows_both_values():
    got = compare_outputs.describe("--out bytes", b"r,V\n1,2\n", b"r,V\n1,3\n")
    assert got == "--out bytes: b'r,V\\n1,2\\n' -> b'r,V\\n1,3\\n'"
