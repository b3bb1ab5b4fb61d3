"""Deterministic parameter sampling inside a safe box.

Samples are drawn with the stdlib Mersenne generator seeded explicitly, so a
given (seed, mode, box, predicate) always reproduces the same parameter
lists.  The box keeps every solved entry within its mode's modulus
constraint; candidates violating a constraint are rejected and counted.
The box bounds moduli only: no draw is checked for integrand poles near
the torus (see the ROADMAP item on one pole-gap rule and boxes checked
before drawing).
"""

from __future__ import annotations

import cmath
import random

from .errors import ConfigurationError, DegenerateParameterError
from .invariants import BalancingMode, ParameterSet, coefficient_c
from .qseries import Nomes
from .record import Record, _set


class SafeBox(Record):
    """Modulus bounds within which quadrature converges comfortably."""

    __slots__ = ("nome_max", "t_min", "t_max", "a_min", "a_max", "solved_clearance", "max_rejections")

    def __init__(
        self, nome_max: float = 0.2, t_min: float = 0.3, t_max: float = 0.5, a_min: float = 0.15,
        a_max: float = 0.7, solved_clearance: float = 0.25, max_rejections: int = 20000,
    ):
        # every check here and below is written so that nan, which compares false, fails it
        if not nome_max >= 0:
            raise ConfigurationError(f"nome_max must be non-negative, got {nome_max}")
        if not t_min <= t_max:
            raise ConfigurationError(f"t_min = {t_min} must not exceed t_max = {t_max}")
        # the free moduli are drawn from [a_min, a_max] and must not vanish
        if not a_min > 0:
            raise ConfigurationError(f"a_min must be positive, got {a_min}")
        if not a_min <= a_max:
            raise ConfigurationError(f"a_min = {a_min} must not exceed a_max = {a_max}")
        if not 0 <= solved_clearance < 1:
            raise ConfigurationError(f"solved_clearance must lie in [0, 1), got {solved_clearance}")
        if not max_rejections >= 0:
            raise ConfigurationError(f"max_rejections must be non-negative, got {max_rejections}")
        _set(self, "nome_max", nome_max)
        _set(self, "t_min", t_min)
        _set(self, "t_max", t_max)
        _set(self, "a_min", a_min)
        _set(self, "a_max", a_max)
        _set(self, "solved_clearance", solved_clearance)
        _set(self, "max_rejections", max_rejections)


DEFAULT_BOX = SafeBox()


class SampleStats(Record):
    """Rejection diagnostics for one sampling run; unlike the other
    records, it is updated in place and so has no hash."""

    __slots__ = ("accepted", "rejected", "reasons")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, accepted: int = 0, rejected: int = 0, reasons: dict | None = None):
        self.accepted = accepted
        self.rejected = rejected
        self.reasons = {} if reasons is None else reasons

    def reject(self, reason: str):
        self.rejected += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


def _check_box(nomes: Nomes, box: SafeBox):
    if not (abs(nomes.p) <= box.nome_max and abs(nomes.q) <= box.nome_max):
        raise ConfigurationError(
            f"|p|={abs(nomes.p):.3f}, |q|={abs(nomes.q):.3f} exceed the box bound {box.nome_max}"
        )


def _clearance(a_last: complex, box: SafeBox) -> str | None:
    """Why a solved entry is rejected, or None: it must keep its clearance
    inside the unit disk."""
    if not abs(a_last) <= 1 - box.solved_clearance:
        return "solved entry too close to the torus"
    return None


def _mode_reason(ps: ParameterSet, nomes: Nomes, box: SafeBox) -> str | None:
    """Why ps is rejected, or None: the constraints on the solved entry,
    depending on how the kernel sees it."""
    if ps.balancing_mode is not BalancingMode.ONE:
        # PQ: a_6 enters Psi directly (it may vanish when p q = 0); P: both
        # a_6 and q a_6 must stay inside the disk
        return _clearance(ps.a[5], box)
    # only p a_6 enters Psi~; a_6 itself is large
    if not abs(nomes.p * ps.a[5]) <= 1 - box.solved_clearance:
        return "p times solved entry too close to the torus"
    try:
        for r in range(1, ps.n + 1):
            coefficient_c(r, ps, nomes)
    except DegenerateParameterError:
        return "degenerate theta in recurrence coefficient"
    return None


def _free(rng: random.Random, box: SafeBox, size: int) -> list:
    """size free entries: moduli uniform in [a_min, a_max], phases uniform."""
    return [
        rng.uniform(box.a_min, box.a_max) * cmath.exp(2j * cmath.pi * rng.random())
        for _ in range(size)
    ]


def _product(values, out=1.0 + 0.0j) -> complex:
    for v in values:
        out *= v
    return out


def _sample(seed, count, box, stats, what, draw) -> list:
    """``count`` accepted draws: draw(rng) gives a candidate, or the reason
    (a string) it was rejected.  Raises ConfigurationError once more than
    box.max_rejections draws were rejected."""
    if stats is None:
        stats = SampleStats()
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        if stats.rejected > box.max_rejections:
            top = sorted(stats.reasons.items(), key=lambda kv: -kv[1])[:3]
            raise ConfigurationError(
                f"sampler exceeded {box.max_rejections} rejections ({what}); "
                f"dominant reasons: {top}"
            )
        got = draw(rng)
        if isinstance(got, str):
            stats.reject(got)
        else:
            stats.accepted += 1
            out.append(got)
    return out


def sample_parameters(
    mode: BalancingMode,
    n: int,
    nomes: Nomes,
    seed: int,
    count: int,
    t: complex | None = None,
    box: SafeBox | None = None,
    predicate=None,
    stats: SampleStats | None = None,
) -> list[ParameterSet]:
    """Draw ``count`` balanced parameter sets inside the safe box.

    Moduli of a_1..a_5 are uniform in [a_min, a_max], phases uniform; a_6 is
    solved from the balancing.  When t is None its modulus is drawn from
    [t_min, t_max] (real positive).  ``predicate`` is an optional extra
    accept filter evaluated last.  Raises ConfigurationError when the box
    cannot produce ``count`` samples within the rejection budget.
    """
    box = box or DEFAULT_BOX
    _check_box(nomes, box)

    def draw(rng):
        tt = rng.uniform(box.t_min, box.t_max) if t is None else t
        free = _free(rng, box, 5)
        # ParameterSet.solved divides by this product and refuses a zero one
        if _product(free, complex(tt) ** (2 * n - 2)) == 0:
            return "degenerate free product"
        ps = ParameterSet.solved(n, tt, free, nomes, mode)
        reason = _mode_reason(ps, nomes, box)
        if reason is None and predicate is not None and not predicate(ps):
            reason = "scenario predicate"
        return reason or ps

    what = f"mode={mode.value}, n={n}, nomes=({nomes.p}, {nomes.q})"
    return _sample(seed, count, box, stats, what, draw)


def sample_da_parameters(
    n: int,
    nomes: Nomes,
    seed: int,
    count: int,
    box: SafeBox | None = None,
    stats: SampleStats | None = None,
) -> list[tuple]:
    """Draw 2n+4 parameter tuples with prod a_m = p q.

    The first 2n+3 entries are sampled like the free entries of
    sample_parameters; the last is solved from the constraint.  Returns
    plain tuples (the coupling-free kernel has no t).
    """
    box = box or DEFAULT_BOX
    _check_box(nomes, box)

    def draw(rng):
        free = _free(rng, box, 2 * n + 3)
        prod = _product(free)
        if prod == 0:
            return "degenerate free product"
        last = nomes.pq / prod
        return _clearance(last, box) or (*free, last)

    return _sample(seed, count, box, stats, f"dixon-anderson, n={n}", draw)
