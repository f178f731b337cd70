"""A fixed computation that gauges how fast the host runs at the moment.

The host this benchmark was built on is shared, and its speed drifts: the
same pass over a job list took 38 % longer in one ten-minute stretch than
in another, and moved by a quarter within one.  The benchmark times this
reference now and then between jobs and scales each pass by it, so that
its times read as on a host where the reference takes ``REFERENCE_S``.
The reference does what the program's hot loops do, in plain Python with
no ``dunklcm`` code: a sparse product of two polynomials in four variables
over Q, held as dicts from exponent tuples to ``Fraction``.  A change to
the program cannot change how long it takes.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# what the reference takes on a 2-CPU Intel Xeon (Sapphire Rapids) VM with
# Python 3.11.7, about its median there; scaled times are quoted at this speed
REFERENCE_S = 0.1


def _polynomial(rng: random.Random) -> dict:
    return {
        tuple(rng.randrange(5) for _ in range(4)): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for _ in range(150)
    }


_rng = random.Random(20231018)
_LEFT = _polynomial(_rng)
_RIGHT = _polynomial(_rng)


def reference_product() -> dict:
    out: dict = {}
    for ea, ca in _LEFT.items():
        for eb, cb in _RIGHT.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2], ea[3] + eb[3])
            out[e] = out.get(e, 0) + ca * cb
    return out


def time_reference() -> float:
    start = time.perf_counter()
    reference_product()
    return time.perf_counter() - start
