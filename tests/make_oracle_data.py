"""Write the cached mpmath references that ``test_oracle.py`` reads:

    python tests/make_oracle_data.py [hurwitz] [halfline] [finite]

(every file when no name is given).

``data/hurwitz.json`` holds zeta(s, a) and its first two s-derivatives on
s = 2..60, 2.5 and 7.3 and a = 0.5 10^(i/4), i = 0..17: the list ``a``, then
one row ``[order, s, values]`` per order and s, a value being null where it
is not a normal float.  Each reference is computed at 40 + |log10 value|
digits, the magnitude taken from a 20-digit first pass: mpmath's own
relative error grows as the value shrinks (at 30 digits zeta(21, 65) is
off by 3e-10 and zeta(56, 500) by 3e-9).  Takes about 20 s.

``data/halfline.json`` holds the half-line integrals Q-1.13, Q-5.4, Q-5.5,
Q-5.34, Q-5.36 and Q-5.7, one row ``[key, parameter, value]`` each: 500
seeded uniform draws over the ``param_domain`` of the identity each one
serves, the domain's ends where the integral converges, and for Q-5.36 five
points where an earlier half-line rule claimed 3e-13 to 8e-11 and was off by
up to 2.3e-6.  The Q-5 values come from DLMF 5.9.16, psi(z) =
int_0^inf (e^-t/t - e^(-zt)/(1-e^-t)) dt, at z = 1 +- x and 1 + ix (and its
x-integral for the sin and sinh transforms; Q-5.7 is log x - Re psi(1+ix));
Q-1.13's from mpmath's own quadrature at 40 digits.  The keys draw from one
random stream in order, so a key appended at the end leaves the rows before
it unchanged.  Written to 30 digits.  Takes about a minute.

``data/finite.json`` holds the finite-interval integral Q-1.12,
int_0^1 e^(-px) psi(1+x) dx, in the same rows: the ends of I-1.12's
``param_domain`` and 200 seeded uniform draws over it, from mpmath's own
quadrature at 40 digits.  Takes a few seconds.
"""

import json
import random
import sys
from pathlib import Path

import mpmath as mp

DATA = Path(__file__).resolve().parent / "data"
S = [float(s) for s in range(2, 61)] + [2.5, 7.3]
A = [0.5 * 10 ** (i / 4) for i in range(18)]


def reference(s: float, a: float, order: int) -> mp.mpf:
    with mp.workdps(20):
        mag = abs(mp.zeta(s, a, order))
    with mp.workdps(40 + abs(int(mp.log10(mag)))):
        return mp.zeta(s, a, order)


def write_hurwitz() -> None:
    rows, count = [], 0
    for order in (0, 1, 2):
        for s in S:
            refs = [reference(s, a, order) for a in A]
            row = [mp.nstr(r, 20) if sys.float_info.min <= abs(r)
                   <= sys.float_info.max else None for r in refs]
            count += sum(r is not None for r in row)
            rows.append(json.dumps([order, s, row]))
    out = DATA / "hurwitz.json"
    out.write_text(f'{{"a": {json.dumps(A)},\n"rows": [\n'
                   + ",\n".join(rows) + "\n]}\n")
    print(f"{count} references written to {out}")


def _q_1_13(p):
    p = mp.mpf(p)
    return mp.quad(lambda x: mp.exp(-p * x) * mp.digamma(1 + x),
                   [0, 1 / p, 4 / p, 16 / p, 64 / p, mp.inf])


# key: (the identity whose param_domain is drawn from, its reference)
HALFLINE = {
    "Q-1.13": ("I-1.13", _q_1_13),
    "Q-5.4": ("I-5.4", lambda x: -mp.im(mp.loggamma(1 + 1j * mp.mpf(x)))),
    "Q-5.5": ("I-5.5", lambda x: -mp.re(mp.digamma(1 + 1j * mp.mpf(x)))),
    "Q-5.34": ("I-5.35", lambda x: (mp.loggamma(1 - mp.mpf(x))
                                    - mp.loggamma(1 + mp.mpf(x))) / 2),
    "Q-5.36": ("I-5.36", lambda x: -(mp.digamma(1 + mp.mpf(x))
                                     + mp.digamma(1 - mp.mpf(x))) / 2),
    "Q-5.7": ("I-5.7", lambda x: mp.log(x)
              - mp.re(mp.digamma(1 + 1j * mp.mpf(x)))),
}
# the domain end where an integral diverges
DIVERGES_AT = {"Q-5.34": 1.0, "Q-5.36": 1.0, "Q-5.7": 0.0}
Q_5_36_POINTS = [0.6545, 0.7408, 0.8232, 0.8926, 0.9746]


def write_halfline() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from gammalab.registry import Registry
    records = {r.id: r for r in Registry().list_identities()}
    rng = random.Random(17)
    rows = []
    for key, (rid, ref) in HALFLINE.items():
        ((lo, hi),) = records[rid].param_domain
        ends = [e for e in (lo, hi) if e != DIVERGES_AT.get(key)]
        params = ends + [rng.uniform(lo, hi) for _ in range(500)]
        if key == "Q-5.36":
            params += Q_5_36_POINTS
        with mp.workdps(40):
            rows += [json.dumps([key, x, mp.nstr(ref(x), 30)])
                     for x in params]
    out = DATA / "halfline.json"
    out.write_text('{"rows": [\n' + ",\n".join(rows) + "\n]}\n")
    print(f"{len(rows)} references written to {out}")


# key: (the identity whose param_domain is drawn from, its reference)
FINITE = {
    "Q-1.12": ("I-1.12", lambda p: mp.quad(
        lambda x: mp.exp(-mp.mpf(p) * x) * mp.digamma(1 + x), [0, 1])),
}


def write_finite() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from gammalab.registry import Registry
    records = {r.id: r for r in Registry().list_identities()}
    rng = random.Random(112)
    rows = []
    for key, (rid, ref) in FINITE.items():
        ((lo, hi),) = records[rid].param_domain
        params = [lo, hi] + [rng.uniform(lo, hi) for _ in range(200)]
        with mp.workdps(40):
            rows += [json.dumps([key, x, mp.nstr(ref(x), 30)])
                     for x in params]
    out = DATA / "finite.json"
    out.write_text('{"rows": [\n' + ",\n".join(rows) + "\n]}\n")
    print(f"{len(rows)} references written to {out}")


def main() -> int:
    names = sys.argv[1:] or ["hurwitz", "halfline", "finite"]
    writers = {"hurwitz": write_hurwitz, "halfline": write_halfline,
               "finite": write_finite}
    DATA.mkdir(exist_ok=True)
    for name in names:
        writers[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
