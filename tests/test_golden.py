"""Every CLI output stays byte-identical for fixed seeds: the digests in
tests/golden_outputs.json (recorded by tests/record_golden.py) pin the
`gen` text, the `solve` results and traces, `verify`, the `analyze`
JSON and every `experiment` CSV on four small instances."""

from __future__ import annotations

import json

import record_golden


def test_cli_outputs_match_recorded_digests(tmp_path):
    recorded = json.loads(record_golden.GOLDEN.read_text(encoding="utf-8"))
    got = record_golden.digests(tmp_path)
    assert sorted(got) == sorted(recorded)
    changed = [name for name in recorded if got[name] != recorded[name]]
    assert not changed, f"outputs changed: {changed}"
