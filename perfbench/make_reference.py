"""Regenerate perfbench/reference.json, the stored answers of the benchmark checks.

    PYTHONPATH=src python3 perfbench/make_reference.py

The references come from routes other than the ones the jobs time:

- `search` at composite volume: the delta set over every HNF matrix, each
  delta-vector computed by dilate counting (`ehrhart_delta`), not by the box
  group that `search` uses;
- `enumerate`: the number of admissible exponent lists, counted by the
  benchmark's own filter (pairing plus superadditivity over all index pairs),
  not by `enumerate_admissible`.
"""

import json
import sys
from itertools import combinations_with_replacement
from pathlib import Path

from workloads import admissible_exponents

SEARCH = [(4, 12), (3, 30), (3, 36)]
ENUMERATE = [(7, 26), (7, 27), (7, 31), (7, 32), (5, 71), (5, 72)]


def search_reference(d, vol):
    from deltasimplex.classify import iter_hnf_simplices
    from deltasimplex.ehrhart import ehrhart_delta

    return sorted({ehrhart_delta(s) for s in iter_hnf_simplices(d, vol)})


def admissible_count(p, d):
    # pairing fixes the upper half of the exponents from the lower half
    half = (p - 1) // 2
    count = 0
    for low in combinations_with_replacement(range(1, d + 1), half):
        for c in range(2 * low[-1], d + 2):
            vals = list(low) + [c - x for x in reversed(low)]
            if vals[-1] <= d and admissible_exponents(vals, p, d):
                count += 1
    return count


def main():
    ref = {
        "search": {f"{d},{v}": [list(x) for x in search_reference(d, v)] for d, v in SEARCH},
        "enumerate": {f"{p},{d}": admissible_count(p, d) for p, d in ENUMERATE},
    }
    out = Path(__file__).parent / "reference.json"
    out.write_text(json.dumps(ref, separators=(",", ":")) + "\n")
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
