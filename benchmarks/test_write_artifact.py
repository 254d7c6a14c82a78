"""``write_artifact`` writes exactly what each wrapper used to hand-write."""

import json

import conftest


def test_write_artifact_is_the_canonical_form(write_artifact, tmp_path, monkeypatch):
    monkeypatch.setattr(conftest, "ROOT", tmp_path)
    head = {"b": 1.5, "a": [1, True, None]}
    path = write_artifact("BENCH_example.json", head)
    assert path == tmp_path / "BENCH_example.json"
    # The line six wrappers carried: indent=2, sort_keys=True, trailing newline.
    assert path.read_text() == json.dumps(head, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == b'{\n  "a": [\n    1,\n    true,\n    null\n  ],\n  "b": 1.5\n}\n'
