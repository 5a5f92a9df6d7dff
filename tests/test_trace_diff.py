"""scripts/trace_diff.py classifies where two traces first differ."""

import json

import pytest

import trace_diff

ROUND = {"r": 0, "heads": [1], "bs_messages": 5, "deaths": [], "suppressed": [],
         "debits": 0.25, "alive": 3, "e_total": 6.0}


def _write(path, rounds):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(json.dumps(rec) + "\n" for rec in rounds))
    return path


def _rounds(n, **changes):
    """n rounds, round 1 onwards carrying changes."""
    return [dict(ROUND, r=r, **(changes if r else {})) for r in range(n)]


@pytest.mark.parametrize("changes, kind, report", [
    ({}, "identical", "identical"),
    ({"debits": 0.25000000000000006}, "sums",
     "sums: first at round 1 (debits); 2 of 3 rounds differ, by up to 2.2e-16 relative"),
    ({"deaths": [2], "e_total": 5.0}, "behaviour",
     "behaviour: first at round 1 (deaths); 3 -> 3 rounds"),
])
def test_first_difference_and_its_kind(tmp_path, changes, kind, report):
    a = _write(tmp_path / "a.jsonl", _rounds(3))
    b = _write(tmp_path / "b.jsonl", _rounds(3, **changes))
    assert trace_diff.diff_traces(a, b) == (kind, report)


def test_sums_before_a_behaviour_difference_are_named(tmp_path):
    a = _write(tmp_path / "a.jsonl", _rounds(3))
    b = _write(tmp_path / "b.jsonl", [*_rounds(2, e_total=5.0), dict(ROUND, r=2, alive=2)])
    assert trace_diff.diff_traces(a, b) == (
        "behaviour", "behaviour: first at round 2 (alive); 3 -> 3 rounds; "
        "sums first at round 1 (e_total)")


def test_trees_pair_files_by_path(tmp_path, capsys):
    for side, rounds in (("a", 4), ("b", 3)):
        _write(tmp_path / side / "grid" / "run.jsonl", _rounds(rounds))
        (tmp_path / side / "summary.csv").write_text("fnd\n1\n")
    (tmp_path / "b" / "extra.csv").write_text("")
    assert trace_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"extra.csv: only in {tmp_path / 'b'}",
        "grid/run.jsonl: behaviour: first at round 3 (rounds); 4 -> 3 rounds",
        "summary.csv: identical",
        "1 identical, 0 sums, 2 behaviour",
    ]
