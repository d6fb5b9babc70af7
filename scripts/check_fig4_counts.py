#!/usr/bin/env python3
"""Check a fig4 CSV's count and estimate columns against an expected CSV.

Figure 4's table has three kinds of column. The times (`volcano_opt_s`,
`exodus_opt_s`, `time_ratio`) depend on the machine and are not
compared. The counts (`relations`, `queries`, `exodus_aborts`) and the
memo and MESH sizes (`volcano_memo_kb`, `exodus_mesh_kb`) are exact
functions of the search and must match to the character. The estimated
plan costs (`volcano_exec_ms`, `exodus_exec_ms`, `exec_ratio`) must match
to 1e-12 relative: `log2` and `ln` may differ in the last ulp between
machines. A column of neither kind fails the check, so a new column has
to be classified here first.

    cargo run --release -p volcano-bench --bin fig4 -- \\
        --queries 2 --max-rel 6 --no-json --csv /tmp/fig4_counts.csv
    python3 scripts/check_fig4_counts.py /tmp/fig4_counts.csv

The expected file defaults to `scripts/fig4_counts.expected.csv`, which
that command wrote. Regenerate it only with a change that is meant to
move plans, costs or search counts, and say which moved and why. A
change to what the memo stores per expression or per class moves
`volcano_memo_kb` (`Memo::memory_estimate`) too, with no plan or count
moving.
"""

import csv
import os
import sys

TIMES = {"volcano_opt_s", "exodus_opt_s", "time_ratio"}
EXACT = {"relations", "queries", "exodus_aborts", "volcano_memo_kb", "exodus_mesh_kb"}
ESTIMATES = {"volcano_exec_ms", "exodus_exec_ms", "exec_ratio"}
RELATIVE = 1e-12


def read(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def close(want, got):
    if want == "" or got == "":
        return want == got
    a, b = float(want), float(got)
    return abs(a - b) <= RELATIVE * max(abs(a), abs(b))


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit("usage: check_fig4_counts.py ACTUAL.csv [EXPECTED.csv]")
    actual = read(sys.argv[1])
    default = os.path.join(os.path.dirname(__file__), "fig4_counts.expected.csv")
    expected = read(sys.argv[2] if len(sys.argv) == 3 else default)
    errors = []
    if len(actual) != len(expected):
        errors.append(f"{len(actual)} rows, expected {len(expected)}")
    for want, got in zip(expected, actual):
        if set(want) != set(got):
            errors.append(f"columns {sorted(got)}, expected {sorted(want)}")
            break
        for col in want:
            if col in TIMES:
                continue
            if col in EXACT:
                ok = want[col] == got[col]
            elif col in ESTIMATES:
                ok = close(want[col], got[col])
            else:
                errors.append(f"column {col} is neither a time, a count nor an estimate")
                continue
            if not ok:
                errors.append(
                    f"relations={want['relations']} {col}: {got[col]}, expected {want[col]}"
                )
    for e in errors:
        print(e)
    if errors:
        sys.exit(1)
    print(f"fig4 counts and estimates match ({len(expected)} rows)")


if __name__ == "__main__":
    main()
