"""Deterministic parameter sampling inside a safe box.

Samples are drawn with the stdlib Mersenne generator seeded explicitly, so a
given (seed, mode, box, predicate) always reproduces the same parameter
lists.  The box keeps every solved entry within its mode's modulus
constraint; candidates violating a constraint are rejected and counted.
``SafeBox.pole_clearance`` is parsed but nothing reads it yet: no draw is
checked for integrand poles near the torus (ROADMAP item 3).
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass, field

from .errors import ConfigurationError, DegenerateParameterError
from .invariants import BalancingMode, ParameterSet, coefficient_c
from .qseries import Nomes


@dataclass(frozen=True)
class SafeBox:
    """Modulus bounds within which quadrature converges comfortably."""

    nome_max: float = 0.2
    t_min: float = 0.3
    t_max: float = 0.5
    a_min: float = 0.15
    a_max: float = 0.7
    pole_clearance: float = 0.1
    solved_clearance: float = 0.25
    max_rejections: int = 20000


DEFAULT_BOX = SafeBox()


@dataclass
class SampleStats:
    """Rejection diagnostics for one sampling run."""

    accepted: int = 0
    rejected: int = 0
    reasons: dict = field(default_factory=dict)

    def reject(self, reason: str):
        self.rejected += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


def _check_box(nomes: Nomes, box: SafeBox):
    if abs(nomes.p) > box.nome_max or abs(nomes.q) > box.nome_max:
        raise ConfigurationError(
            f"|p|={abs(nomes.p):.3f}, |q|={abs(nomes.q):.3f} exceed the box bound {box.nome_max}"
        )


def _mode_ok(ps: ParameterSet, nomes: Nomes, box: SafeBox, stats: SampleStats) -> bool:
    """Constraints on the solved entry, depending on how the kernel sees it."""
    a6 = ps.a[5]
    mode = ps.balancing_mode
    if mode is BalancingMode.PQ:
        # a_6 enters Psi directly; it may legitimately vanish when p q = 0.
        if abs(a6) > 1 - box.solved_clearance:
            stats.reject("solved entry too close to the torus")
            return False
    elif mode is BalancingMode.P:
        # both a_6 and q a_6 must stay inside the disk with clearance
        if abs(a6) > 1 - box.solved_clearance:
            stats.reject("solved entry too close to the torus")
            return False
    elif mode is BalancingMode.ONE:
        # only p a_6 enters Psi~; a_6 itself is large
        if abs(nomes.p * a6) > 1 - box.solved_clearance:
            stats.reject("p times solved entry too close to the torus")
            return False
        try:
            for r in range(1, ps.n + 1):
                coefficient_c(r, ps, nomes)
        except DegenerateParameterError:
            stats.reject("degenerate theta in recurrence coefficient")
            return False
    return True


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
    if box is None:
        box = DEFAULT_BOX
    if stats is None:
        stats = SampleStats()
    _check_box(nomes, box)
    rng = random.Random(seed)
    out: list[ParameterSet] = []
    while len(out) < count:
        if stats.rejected > box.max_rejections:
            top = sorted(stats.reasons.items(), key=lambda kv: -kv[1])[:3]
            raise ConfigurationError(
                f"sampler exceeded {box.max_rejections} rejections "
                f"(mode={mode.value}, n={n}, nomes=({nomes.p}, {nomes.q})); "
                f"dominant reasons: {top}"
            )
        tt = t
        if tt is None:
            tt = rng.uniform(box.t_min, box.t_max)
        a_free = [
            rng.uniform(box.a_min, box.a_max)
            * cmath.exp(2j * cmath.pi * rng.random())
            for _ in range(5)
        ]
        try:
            ps = ParameterSet.solved(n, tt, a_free, nomes, mode)
        except DegenerateParameterError:
            stats.reject("degenerate free product")
            continue
        if not _mode_ok(ps, nomes, box, stats):
            continue
        if predicate is not None and not predicate(ps):
            stats.reject("scenario predicate")
            continue
        stats.accepted += 1
        out.append(ps)
    return out


def sample_da_parameters(
    n: int,
    nomes: Nomes,
    seed: int,
    count: int,
    exponent: int = 1,
    box: SafeBox | None = None,
    stats: SampleStats | None = None,
) -> list[tuple]:
    """Draw 2n+4 parameter tuples with prod a_m = (p q)^exponent.

    The first 2n+3 entries are sampled like the free entries of
    sample_parameters; the last is solved from the constraint.  Returns
    plain tuples (the coupling-free kernel has no t).
    """
    if box is None:
        box = DEFAULT_BOX
    if stats is None:
        stats = SampleStats()
    _check_box(nomes, box)
    target = nomes.pq**exponent
    rng = random.Random(seed)
    out: list[tuple] = []
    while len(out) < count:
        if stats.rejected > box.max_rejections:
            raise ConfigurationError(
                f"sampler exceeded {box.max_rejections} rejections "
                f"(dixon-anderson, n={n}, exponent={exponent})"
            )
        free = [
            rng.uniform(box.a_min, box.a_max)
            * cmath.exp(2j * cmath.pi * rng.random())
            for _ in range(2 * n + 3)
        ]
        prod = 1.0 + 0.0j
        for v in free:
            prod *= v
        if prod == 0:
            stats.reject("degenerate free product")
            continue
        last = target / prod
        if abs(last) > 1 - box.solved_clearance:
            stats.reject("solved entry too close to the torus")
            continue
        stats.accepted += 1
        out.append(tuple(free) + (last,))
    return out
