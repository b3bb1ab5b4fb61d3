"""Brute-force high-precision references, independent of the package.

Everything here is a direct partial product at 40 decimal digits with
explicitly overshot truncation ranges; nothing is shared with the
implementation under test.  Used to freeze expected literals and for
runtime spot checks.
"""

import mpmath as mp

mp.mp.dps = 40


def opoch(u, q, terms=2000):
    """(u; q)_inf by direct partial product."""
    u, q = mp.mpmathify(u), mp.mpmathify(q)
    out = mp.mpc(1)
    qk = mp.mpc(1)
    for _ in range(terms):
        out *= 1 - qk * u
        qk *= q
    return out


def odouble(u, p, q, side=90):
    """(u; p, q)_inf over the full index square [0, side)^2."""
    u, p, q = mp.mpmathify(u), mp.mpmathify(p), mp.mpmathify(q)
    out = mp.mpc(1)
    pm = mp.mpc(1)
    for _ in range(side):
        qn = mp.mpc(1)
        for _ in range(side):
            out *= 1 - pm * qn * u
            qn *= q
        pm *= p
    return out


def otheta(u, p, terms=2000):
    """theta(u; p) = (u; p)_inf (p/u; p)_inf."""
    u, p = mp.mpmathify(u), mp.mpmathify(p)
    return opoch(u, p, terms) * opoch(p / u, p, terms)


def ogamma(u, p, q, side=90):
    """Gamma(u; p, q) = (pq/u; p, q)_inf / (u; p, q)_inf."""
    u, p, q = mp.mpmathify(u), mp.mpmathify(p), mp.mpmathify(q)
    return odouble(p * q / u, p, q, side) / odouble(u, p, q, side)


def to_complex(x):
    return complex(x)
