"""Compare two listings of ``route_outputs.py``, workload by workload.

    python3 tools/route_outputs.py --workload all --seeds 1-10,90017 > a.txt
    (the same in the other checkout) > b.txt
    python3 tools/compare_outputs.py a.txt b.txt

For each workload it prints the number of points in A, how many of them print
the same line in B (bitwise-equal outputs), and the largest relative move
|v_B - v_A| / |v_A| of a value both sides returned.  Then one line per point
whose exception class changed (a value counts as no exception), and one per
point that only one listing has.  A point is its workload, seed and
parameters; a point listed n times is matched with its n-th listing in the
other file.  Exits 0 when every line is equal, 1 otherwise.
"""
from __future__ import annotations

import argparse
import math
import re
import sys
from collections import Counter

# "workload/seed key=value ... output", the output "(value, est_error)" or
# "ExceptionClass: message"
LINE = re.compile(r"(?P<point>(?P<workload>[^/\s]+)/\d+ (?:\w+=\S+ )*)(?P<out>.*)")


def read_listing(path: str) -> dict:
    """{(point, occurrence): output} in file order."""
    seen, out = Counter(), {}
    with open(path) as fh:
        for line in fh:
            m = LINE.fullmatch(line.rstrip("\n"))
            if m is None:
                raise ValueError(f"{path}: not a route_outputs line: {line!r}")
            point = m["point"].rstrip()
            out[point, seen[point]] = m["out"]
            seen[point] += 1
    return out


def value_of(out: str):
    """The returned value of an output, None for an exception."""
    if not out.startswith("("):
        return None
    return complex(out[1:-1].rsplit(", ", 1)[0])


def exception_class(out: str) -> str:
    return "value" if out.startswith("(") else out.split(":", 1)[0]


def relative_move(va: complex, vb: complex) -> float:
    if va == vb or (math.isnan(abs(va)) and math.isnan(abs(vb))):
        return 0.0
    return abs(vb - va) / abs(va) if va != 0 else math.inf


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """The report lines, and whether every line of A and B is equal."""
    report, same = [], a == b
    workloads = dict.fromkeys(p.split("/", 1)[0] for p, _ in [*a, *b])
    for name in workloads:
        keys = [k for k in a if k[0].split("/", 1)[0] == name]
        equal = sum(a[k] == b.get(k) for k in keys)
        moves = [relative_move(va, vb) for k in keys if k in b
                 for va, vb in [(value_of(a[k]), value_of(b[k]))]
                 if va is not None and vb is not None]
        report.append(f"{name}: {len(keys)} points, {equal} bitwise equal, "
                      f"largest relative move {max(moves, default=0.0):.3g}")
        for k in keys:
            if k in b and exception_class(a[k]) != exception_class(b[k]):
                report.append(f"  exception changed: {k[0]}: "
                              f"{exception_class(a[k])} -> {exception_class(b[k])}")
        for side, mine, other in (("A", a, b), ("B", b, a)):
            report += [f"  only in {side}: {k[0]}" for k in mine
                       if k not in other and k[0].split("/", 1)[0] == name]
    return report, same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("a")
    ap.add_argument("b")
    args = ap.parse_args(argv)
    report, same = compare(read_listing(args.a), read_listing(args.b))
    print("\n".join(report))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
