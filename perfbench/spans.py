"""Share of one span's time spent inside another, from a traced run's span dump.

    python3 perfbench/spans.py .perfbench_out/count.spans CHILD:PARENT

Reports how much of PARENT's inclusive time is spent inside CHILD spans
nested under it (outermost CHILD spans only, so recursion is not counted
twice). Traced times include the tracer's own cost; compare shares, not
absolute times, with untraced runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from tracer import Tracer


def load(path: str) -> Tracer:
    """A tracer holding the spans of a dump written by `Tracer.dump`."""
    tracer = Tracer()
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        tracer.names = header["names"]
        for arr in (tracer.name, tracer.start, tracer.end, tracer.parent, tracer.job):
            arr.fromfile(fh, header["spans"])
    return tracer


def share(tracer: Tracer, child: str, parent: str) -> tuple:
    """Seconds in outermost CHILD spans under PARENT spans, and PARENT's total."""
    names, name, up = tracer.names, tracer.name, tracer.parent
    inside = 0.0
    for i in range(len(tracer.start)):
        if names[name[i]] != child:
            continue
        p, under, nested = up[i], False, False
        while p >= 0:
            under = under or names[name[p]] == parent
            nested = nested or names[name[p]] == child
            p = up[p]
        if under and not nested:
            inside += tracer.end[i] - tracer.start[i]
    return inside, tracer.aggregate().get(parent, (0, 0.0, 0.0))[1]


def main() -> int:
    ap = argparse.ArgumentParser(description="share of PARENT's time spent in CHILD")
    ap.add_argument("path")
    ap.add_argument("pair", metavar="CHILD:PARENT")
    args = ap.parse_args()
    child, parent = args.pair.split(":")
    inside, total = share(load(args.path), child, parent)
    pct = inside / total if total else 0.0
    print(f"{child} inside {parent}: {inside:.3f} of {total:.3f} s = {pct:.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
