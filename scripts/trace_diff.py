#!/usr/bin/env python3
"""Report where two JSONL run traces, or two trees of them, first differ.

    python scripts/trace_diff.py old.jsonl new.jsonl
    PYTHONPATH=../parent/src python scripts/trace_digests.py --out ../old.json --traces ../old
    PYTHONPATH=src python scripts/trace_digests.py --out ../new.json --traces ../new
    python scripts/trace_diff.py ../old ../new

Two files are compared round by round, one JSON object a line (the format
of RunTrace.write_jsonl).  Two directories are compared file by file, by
their paths below each root: every *.jsonl as a trace, any other file (the
CLI grids' curves.csv, metadata.json and summary.csv that
scripts/trace_digests.py --traces keeps) by its bytes.  Each pair of traces
gets one line: "identical", or the first round and field that differ, of
one of two kinds:
  - sums: only the reported float sums, debits and e_total, differ;
  - behaviour: heads, deaths, suppressed nodes, BS message or alive counts
    differ, or the runs have different lengths.
A sums line also gives the count of rounds whose sums differ and the largest
relative difference; a behaviour line gives the first behaviour difference
and, when sums differed earlier, the first of those too.

Any other file whose bytes differ, or a file in one tree only, counts as a
behaviour difference.  Exits 1 when some behaviour differs and 0 otherwise,
so a re-pin whose every difference is sums only exits 0.
"""

import argparse
import json
import sys
from pathlib import Path

SUMS = ("debits", "e_total")
BEHAVIOUR = ("heads", "deaths", "suppressed", "bs_messages", "alive")


def _rounds(path: Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def diff_traces(a: Path, b: Path) -> tuple[str, str]:
    """(kind, report) for two JSONL traces: kind is "identical", "sums" or
    "behaviour"."""
    ra, rb = _rounds(a), _rounds(b)
    first_sum = first_act = None
    n_sum, worst = 0, 0.0
    for x, y in zip(ra, rb):
        sums = [f for f in SUMS if x[f] != y[f]]
        if sums:
            n_sum += 1
            first_sum = first_sum or (x["r"], sums[0])
            worst = max(worst, *(abs(x[f] - y[f]) / max(abs(x[f]), abs(y[f])) for f in sums))
        acts = [f for f in BEHAVIOUR if x[f] != y[f]]
        if acts and first_act is None:
            first_act = (x["r"], acts[0])
    if first_act is None and len(ra) != len(rb):
        first_act = (min(len(ra), len(rb)), "rounds")
    if first_act is not None:
        r, field = first_act
        report = f"behaviour: first at round {r} ({field}); {len(ra)} -> {len(rb)} rounds"
        if first_sum is not None and first_sum[0] < r:
            report += f"; sums first at round {first_sum[0]} ({first_sum[1]})"
        return "behaviour", report
    if first_sum is None:
        return "identical", "identical"
    return "sums", (f"sums: first at round {first_sum[0]} ({first_sum[1]}); "
                    f"{n_sum} of {len(ra)} rounds differ, by up to {worst:.2g} relative")


def diff_trees(a: Path, b: Path) -> dict[str, tuple[str, str]]:
    """(kind, report) for every file below either root, by relative path."""
    paths = sorted({p.relative_to(root).as_posix() for root in (a, b)
                    for p in root.rglob("*") if p.is_file()})
    out = {}
    for rel in paths:
        pa, pb = a / rel, b / rel
        if not (pa.exists() and pb.exists()):
            out[rel] = ("behaviour", f"only in {a if pa.exists() else b}")
        elif rel.endswith(".jsonl"):
            out[rel] = diff_traces(pa, pb)
        elif pa.read_bytes() == pb.read_bytes():
            out[rel] = ("identical", "identical")
        else:
            out[rel] = ("behaviour", "bytes differ")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="a JSONL trace or a tree of them")
    parser.add_argument("b", type=Path, help="the trace or tree to compare with")
    args = parser.parse_args(argv)
    if args.a.is_dir() != args.b.is_dir():
        parser.error("compare two files or two directories")
    if args.a.is_dir():
        results = diff_trees(args.a, args.b)
    else:
        results = {str(args.b): diff_traces(args.a, args.b)}
    for rel, (_, report) in results.items():
        print(f"{rel}: {report}")
    kinds = [kind for kind, _ in results.values()]
    if len(results) > 1:
        print(", ".join(f"{kinds.count(k)} {k}" for k in ("identical", "sums", "behaviour")))
    return 1 if "behaviour" in kinds else 0


if __name__ == "__main__":
    sys.exit(main())
