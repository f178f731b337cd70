"""Test-only reference for the direct ideal test.

The symbolic route: the witness f, one pseudo-random annihilator form per
orbit member drawn exactly as `invariance.witness_violations` draws them,
is expanded into a dense polynomial of degree |orbit|, T_v is applied to it
by the context's `apply`, and each image is restricted to every member.
It decides vanishing on a member exactly, with no evaluation point, so it
is the oracle for the pointwise route.
"""

from __future__ import annotations

import random

from dunklcm.invariance import _random_annihilator_form
from dunklcm.polynomials import Polynomial


def reference_witness_violations(ctx, orbit: dict, base, seed: int = 0) -> list:
    """Applies the operators to a generic element of the orbit's ideal.

    The witness vanishes on every subspace of the orbit: one pseudo-random
    annihilator form per member, members in key order, each nonzero
    somewhere on base unless it is base's own.  Returns (direction, member
    key) for every image that does not vanish on a member.
    """
    field = ctx.field
    members = [orbit[k] for k in sorted(orbit)]
    rng = random.Random(seed)
    f = Polynomial.constant(field, ctx.nx, field.one())
    for member in members:
        avoid = None if member.key == base.key else base.basis
        form = _random_annihilator_form(rng, member.annihilator, field, avoid_basis=avoid)
        f = f * Polynomial.linear_form(field, form)
    bad = []
    for v in range(ctx.nx):
        g = ctx.apply(v, f)
        if g.is_zero():
            continue
        for member in members:
            if not g.restrict_to(member.basis).is_zero():
                bad.append((v, member.key))
    return bad
