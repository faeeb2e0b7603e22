"""Write the cached mpmath references that ``test_oracle.py`` reads:

    python tests/make_oracle_data.py

``data/hurwitz.json`` holds zeta(s, a) and its first two s-derivatives on
s = 2..60, 2.5 and 7.3 and a = 0.5 10^(i/4), i = 0..17: the list ``a``, then
one row ``[order, s, values]`` per order and s, a value being null where it
is not a normal float.  Each reference is computed at 40 + |log10 value|
digits, the magnitude taken from a 20-digit first pass: mpmath's own
relative error grows as the value shrinks (at 30 digits zeta(21, 65) is
off by 3e-10 and zeta(56, 500) by 3e-9).  Takes about 20 s.
"""

import json
import sys
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).resolve().parent / "data" / "hurwitz.json"
S = [float(s) for s in range(2, 61)] + [2.5, 7.3]
A = [0.5 * 10 ** (i / 4) for i in range(18)]


def reference(s: float, a: float, order: int) -> mp.mpf:
    with mp.workdps(20):
        mag = abs(mp.zeta(s, a, order))
    with mp.workdps(40 + abs(int(mp.log10(mag)))):
        return mp.zeta(s, a, order)


def main() -> int:
    rows, count = [], 0
    for order in (0, 1, 2):
        for s in S:
            refs = [reference(s, a, order) for a in A]
            row = [mp.nstr(r, 20) if sys.float_info.min <= abs(r)
                   <= sys.float_info.max else None for r in refs]
            count += sum(r is not None for r in row)
            rows.append(json.dumps([order, s, row]))
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(f'{{"a": {json.dumps(A)},\n"rows": [\n'
                   + ",\n".join(rows) + "\n]}\n")
    print(f"{count} references written to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
