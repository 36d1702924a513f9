#!/usr/bin/env python3
"""Mask the wall-clock parts of `bench/main.exe --figure ...` output.

Reads a figure run on stdin and writes it to stdout with every value in
a column whose header ends in `-sec` replaced by `*`, and the `total
bench time` line dropped. What is left (disk accesses per query,
relative errors) is deterministic for a seed, so two runs of one
commit print the same text:

    dune exec bench/main.exe -- --figure fig9 --steps 6 --step-size 2000 \\
        | python3 tools/mask_figures.py | diff bench/figures_smoke.expected -
"""

import sys


def mask(lines):
    sec_cols = set()
    for line in lines:
        if line.startswith("total bench time"):
            continue
        cols = line.split()
        if not cols:
            sec_cols = set()
        elif any(c.endswith("-sec") for c in cols):
            sec_cols = {i for i, c in enumerate(cols) if c.endswith("-sec")}
        elif sec_cols and len(cols) > max(sec_cols):
            line = " ".join("*" if i in sec_cols else c for i, c in enumerate(cols)) + "\n"
        yield line


if __name__ == "__main__":
    sys.stdout.writelines(mask(sys.stdin))
