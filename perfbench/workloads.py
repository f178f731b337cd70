"""The two benchmark workloads: fixed lists of real ``dunklcm`` commands.

Each job is one ``dunklcm.cli.main(argv)`` call.  Its known answer comes
from the golden catalog, the acceptance tables, or an identity that holds
for every weight; never from running the code under test.  The seed only
picks weights that the answer does not depend on and the witness seed of
the direct ideal test.  Job order is fixed: shuffling it moved lazy
initialisation between jobs and doubled the times of the small ones.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path


@dataclass
class Job:
    """One CLI call and the answer it must give.

    ``expect`` maps a dotted path into the JSON printed on stdout (list
    indices are integers) to the value that path must hold.
    """

    id: str
    argv: list[str]
    code: int
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    # what the CLI builds on every run: ("root_system", family, rank) or
    # ("group", m, p, N)
    systems: list[tuple]


GOLDEN = Path(__file__).resolve().parent.parent / "src" / "dunklcm" / "data" / "golden_catalog.json"


def golden_rows() -> dict[int, dict]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return {row["index"]: row for row in json.load(fh)["rows"]}


def _weight(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(2, 9))


def _opts(values: dict) -> list[str]:
    # "--c2=-1/7": the joined form keeps a negative value from reading as a flag
    return [f"--{name.replace('_', '-')}={value}" for name, value in values.items()]


def _family(name: str) -> list[str]:
    """CLI arguments for "A3", "B4", "F4", "H3", ..."""
    if name[0] in "ABD":
        return ["--family", name[0], "--rank", name[1:]]
    return ["--family", name]


def _system(name: str) -> tuple:
    if name[0] in "ABD":
        return ("root_system", name[0], int(name[1:]))
    return ("root_system", name, None)


# ---------------------------------------------------------------------------
# operators: Dunkl commutativity at every weight on monomials, restriction
# identities and confined integrability on invariant strata (dense power
# sums), and the direct ideal test against the closed criterion; then the
# same on G(m,p,N) (see "complex" below)


_COMMUTATIVITY = (
    # system, orbit names, degree
    ("F4", ("c1", "c2"), 2),
    ("H3", ("c",), 2),
    ("D4", ("c",), 2),
    ("G2", ("c1", "c2"), 3),
    ("B3", ("c1", "c2"), 4),
)


def _direct_cases(rng: random.Random):
    """(system, subgraph, on-locus weights) for every parabolic stratum of
    A3, B3 and G2.

    Each component of the vanishing lines needs (2 / rank) * (sum of its line
    weights) = 1: c = 1/k on a k-coordinate block, 2(l-1)c1 + 2c2 = 1 on l
    zero coordinates of B, 3c1 + 3c2 = 1 on G2.  Free weights are seeded.
    """
    s = _weight(rng)
    t = _weight(rng)
    half = Fraction(1, 2)
    return (
        ("A3", "verts:1", {"c": half}),
        ("A3", "verts:1,2", {"c": Fraction(1, 3)}),
        ("A3", "verts:1,3", {"c": half}),
        ("A3", "verts:1,2,3", {"c": Fraction(1, 4)}),
        ("B3", "verts:1", {"c1": half, "c2": s}),
        ("B3", "verts:3", {"c1": t, "c2": half}),
        ("B3", "verts:1,2", {"c1": Fraction(1, 3), "c2": s}),
        ("B3", "verts:2,3", {"c1": t, "c2": half - t}),
        ("B3", "verts:1,3", {"c1": half, "c2": half}),
        ("B3", "verts:1,2,3", {"c1": s, "c2": half - 2 * s}),
        ("G2", "verts:1", {"c1": half, "c2": s}),
        ("G2", "verts:2", {"c1": t, "c2": half}),
        ("G2", "verts:1,2", {"c1": s, "c2": Fraction(1, 3) - s}),
    )


def operators(seed: int) -> Workload:
    rng = random.Random(seed)
    rows = golden_rows()
    jobs = []
    for system, names, degree in _COMMUTATIVITY:
        vals = {name: _weight(rng) for name in names}
        jobs.append(Job(
            f"commutativity-{system}-d{degree}",
            ["verify", "commutativity", *_family(system), "--degree", str(degree), *_opts(vals)],
            0,
            {"violations": 0, "samples.0.values": {k: str(v) for k, v in vals.items()}},
        ))

    def restriction(system, subgraph, degree, vals=None, c=None):
        argv = ["verify", "restriction", *_family(system), "--subgraph", subgraph,
                "--degree", str(degree), *_opts(vals or {})]
        expect = {"failing_degrees": [], "degrees": list(range(2, degree + 1, 2))}
        if c is not None:
            # no weights given: the CLI solves for the unique one
            expect["multiplicities"] = {"c": c}
        jobs.append(Job(f"restriction-{system}-{subgraph}-d{degree}", argv, 0, expect))

    s = _weight(rng)
    restriction("F4", "A1:2", 2, {"c1": _weight(rng), "c2": Fraction(1, 2)})
    restriction("H3", "A1", 4, c="1/2")
    restriction("H4", "A2", 2, c=rows[38]["c"])
    restriction("A5", "A2:k=3,m=2", 4, c="1/3")
    restriction("B4", "Bl:l=2", 6, {"c1": s, "c2": Fraction(1, 2) - s})

    for system, names, on, (k, l), degree in (
        ("A3", ("c",), {"c": Fraction(1, 2)}, (1, 2), 1),
        ("B3", ("c1", "c2"), {"c1": Fraction(1, 2)}, (2, 2), 1),
    ):
        vals = {name: on.get(name) or _weight(rng) for name in names}
        jobs.append(Job(
            f"deformed-{system}-A1-d{degree}",
            ["verify", "deformed", *_family(system), "--subgraph", "A1", "--k", str(k),
             "--l", str(l), "--degree", str(degree), *_opts(vals)],
            0,
            {"violations": 0, "restriction_failing_degrees": []},
        ))

    for system, subgraph, on in _direct_cases(rng):
        # shifting every weight by one breaks every condition above
        off = {name: v + 1 for name, v in on.items()}
        for vals, invariant in ((on, True), (off, False)):
            jobs.append(Job(
                f"direct-{system}-{subgraph}-{'on' if invariant else 'off'}",
                ["check", *_family(system), "--subgraph", subgraph, "--direct",
                 f"--seed={seed}", *_opts(vals)],
                0 if invariant else 1,
                {"invariant": invariant, "direct_invariant": invariant, "routes_agree": True},
            ))
    complex_jobs, groups = _complex_jobs(seed)
    names = ("F4", "H3", "D4", "G2", "B3", "H4", "A5", "B4", "A3")
    return Workload("operators", jobs + complex_jobs, [_system(n) for n in names] + groups)


# ---------------------------------------------------------------------------
# strata: orbit search, stratum enumeration, and golden catalog rows

# golden rows recomputed one at a time: (row index, command).  Only rows of
# one-class types, so the type name alone names the row's orbit.
_GOLDEN_JOBS = (
    (9, "solve"), (9, "restrict"), (15, "restrict"), (1, "restrict"),
    (24, "restrict"), (21, "solve"), (18, "restrict"),
    (35, "restrict"), (34, "restrict"), (32, "solve"),
    (38, "restrict"), (39, "restrict"), (40, "solve"),
)
# second orbit classes, found by searching the orbit of the first class:
# (system, type).  D5 and D6 are not in the catalog, but every golden row of
# a type carries the same c in every family (A3: 1/4, A5: 1/6), and the
# expected value is read from those rows.  E7 A5:2 (rows 27, 28) searches a
# 1008-member orbit for 9 s, too long to repeat within one run.
_VARIANTS = (("D5", "A3"), ("D6", "A5"))
_CATALOG_KEYS = ("index", "family", "type", "gamma0", "dim", "size", "c", "mults")


def strata(seed: int) -> Workload:
    rows = golden_rows()
    jobs = []
    for system, kind in _VARIANTS:
        (c,) = {r["c"] for r in rows.values() if r["type"] == kind}
        jobs.append(Job(
            f"solve-{system}-{kind}:2",
            ["solve", *_family(system), "--subgraph", f"{kind}:2"],
            0,
            {"status": "unique", "values": {"c": c}},
        ))
    for index, command in _GOLDEN_JOBS:
        row = rows[index]
        argv = [command, "--family", row["family"], "--subgraph", row["type"]]
        if command == "solve":
            expect = {"status": "unique", "values": {"c": row["c"]}}
        else:
            expect = {
                "multiplicities": {"c": row["c"]},
                "configuration.size": row["size"],
                "configuration.span_dim": row["dim"],
                "configuration.multiplicity_multiset": row["mults"],
            }
        jobs.append(Job(f"{command}-{row['family']}-{row['type']}", argv, 0, expect))
    for family in ("H3", "F4"):
        # every parabolic stratum: enumeration, orbits, then gauge residues
        jobs.append(Job(f"gauge-{family}", ["verify", "gauge", "--family", family], 0, {"violations": 0}))
    jobs.append(Job(
        "catalog",
        ["catalog"],
        0,
        {"rows": [{k: r[k] for k in _CATALOG_KEYS} for r in rows.values()]},
    ))
    # no job here has a free weight or a witness, so the seed changes nothing
    names = ("E6", "E7", "E8", "F4", "H3", "H4", "D5", "D6")
    return Workload("strata", jobs, [_system(n) for n in names])


# ---------------------------------------------------------------------------
# complex: G(m,p,N) conditions and operators, the jobs of ``operators`` on
# ``complexgroups`` and the cyclotomic fields

_H = Fraction(1, 2)
# the acceptance table: (m, p, N), (q, r, l, eps), weights, invariant
COMPLEX_CASES = (
    ((3, 3, 2), (1, 2, 0, 0), {"c0": _H}, True),
    ((3, 3, 2), (1, 2, 0, 0), {"c0": Fraction(1, 5)}, False),
    ((3, 3, 2), (0, 1, 1, 0), {"c0": _H}, False),
    ((3, 3, 2), (0, 1, 2, 0), {"c0": Fraction(1, 3)}, True),
    ((3, 3, 3), (1, 2, 0, 0), {"c0": _H}, True),
    ((3, 3, 3), (1, 3, 0, 0), {"c0": Fraction(1, 3)}, True),
    ((3, 3, 3), (1, 3, 0, 0), {"c0": _H}, False),
    ((3, 3, 3), (1, 3, 0, 1), {"c0": Fraction(1, 3)}, True),
    ((3, 3, 3), (0, 1, 2, 0), {"c0": Fraction(1, 3)}, True),
    ((3, 3, 3), (0, 1, 3, 0), {"c0": Fraction(1, 6)}, True),
    ((3, 3, 3), (0, 1, 3, 0), {"c0": Fraction(1, 3)}, False),
    ((3, 3, 3), (1, 2, 1, 0), {"c0": _H}, False),
    ((4, 4, 2), (1, 2, 0, 0), {"c0": _H, "c0_odd": Fraction(1, 9)}, True),
    ((4, 4, 2), (1, 2, 0, 1), {"c0": _H, "c0_odd": Fraction(1, 9)}, False),
    ((4, 4, 2), (1, 2, 0, 1), {"c0": Fraction(1, 9), "c0_odd": _H}, True),
    ((4, 4, 2), (0, 1, 1, 0), {"c0": _H, "c0_odd": _H}, False),
    ((4, 4, 2), (0, 1, 2, 0), {"c0": Fraction(1, 3), "c0_odd": Fraction(1, 6)}, True),
    ((4, 4, 2), (0, 1, 2, 0), {"c0": Fraction(1, 4), "c0_odd": Fraction(1, 4)}, True),
    ((4, 4, 2), (0, 1, 2, 0), {"c0": Fraction(1, 4), "c0_odd": Fraction(1, 3)}, False),
    ((4, 2, 2), (1, 2, 0, 0), {"c0": _H, "c0_odd": Fraction(2, 9), "c1": Fraction(1, 7)}, True),
    ((4, 2, 2), (1, 2, 0, 1), {"c0": Fraction(2, 9), "c0_odd": _H, "c1": Fraction(1, 7)}, True),
    ((4, 2, 2), (1, 2, 0, 1), {"c0": _H, "c0_odd": Fraction(2, 9), "c1": Fraction(1, 7)}, False),
    ((4, 2, 2), (0, 1, 1, 0), {"c0": Fraction(1, 3), "c0_odd": Fraction(1, 5), "c1": _H}, True),
    ((4, 2, 2), (0, 1, 1, 0), {"c0": Fraction(1, 3), "c0_odd": Fraction(1, 5), "c1": Fraction(1, 3)}, False),
    ((4, 2, 2), (0, 1, 2, 0), {"c0": Fraction(1, 4), "c0_odd": 0, "c1": Fraction(1, 4)}, True),
    ((4, 2, 2), (0, 1, 2, 0), {"c0": Fraction(1, 4), "c0_odd": Fraction(1, 4), "c1": Fraction(1, 4)}, False),
    ((4, 2, 3), (1, 2, 0, 0), {"c0": _H, "c1": Fraction(3, 5)}, True),
    ((4, 2, 3), (1, 3, 0, 0), {"c0": Fraction(1, 3), "c1": Fraction(3, 5)}, True),
    ((4, 2, 3), (0, 1, 1, 0), {"c0": Fraction(2, 7), "c1": _H}, True),
    ((4, 2, 3), (0, 1, 2, 0), {"c0": Fraction(1, 8), "c1": Fraction(1, 4)}, True),
    ((4, 2, 3), (0, 1, 2, 0), {"c0": Fraction(1, 8), "c1": Fraction(1, 5)}, False),
    ((4, 2, 3), (1, 2, 1, 0), {"c0": _H, "c1": _H}, True),
    ((4, 2, 3), (1, 2, 1, 0), {"c0": _H, "c1": Fraction(2, 5)}, False),
    ((6, 3, 2), (1, 2, 0, 0), {"c0": _H, "c1": Fraction(1, 8)}, True),
    ((6, 3, 2), (1, 2, 0, 1), {"c0": _H, "c1": Fraction(1, 8)}, True),
    ((6, 3, 2), (0, 1, 1, 0), {"c0": Fraction(1, 9), "c1": _H}, True),
    ((6, 3, 2), (0, 1, 2, 0), {"c0": Fraction(1, 12), "c1": Fraction(1, 4)}, True),
    ((6, 3, 2), (0, 1, 2, 0), {"c0": _H, "c1": Fraction(1, 4)}, False),
)

# group, degree of the commutativity check
_COMPLEX_COMMUTATIVITY = (
    ((4, 2, 4), 2), ((8, 4, 3), 2), ((3, 3, 3), 3), ((4, 2, 3), 3), ((6, 3, 2), 5),
)


def _group(g: tuple) -> str:
    return "G({},{},{})".format(*g)


def _complex_jobs(seed: int) -> tuple[list[Job], list[tuple]]:
    jobs = []
    for n, (g, (q, r, l, eps), weights, invariant) in enumerate(COMPLEX_CASES, 1):
        jobs.append(Job(
            f"check-{_group(g)}-{n}",
            ["check", "--group", _group(g), "--blocks", f"{q},{r}", "--zeros", str(l),
             "--eps", str(eps), "--direct", f"--seed={seed}", *_opts(weights)],
            0 if invariant else 1,
            {"invariant": invariant, "direct_invariant": invariant, "routes_agree": True},
        ))
    for g, degree in _COMPLEX_COMMUTATIVITY:
        # the CLI draws one weight sample from the seed
        jobs.append(Job(
            f"commutativity-{_group(g)}-d{degree}",
            ["verify", "commutativity", "--group", _group(g), "--degree", str(degree),
             "--samples", "1", f"--seed={seed}"],
            0,
            {"violations": 0, "samples.0.violations": 0},
        ))
    groups = sorted({g for g, *_ in COMPLEX_CASES} | {g for g, _ in _COMPLEX_COMMUTATIVITY})
    return jobs, [("group", *g) for g in groups]


WORKLOADS = {
    "operators": operators,
    "strata": strata,
}
