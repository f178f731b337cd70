import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from dunklcm.fields import Field
from dunklcm.linalg import dot, reflect, vec
from dunklcm.polynomials import Polynomial, render_polynomial
from dunklcm.restriction import restricted_configuration
from dunklcm.rootsystems import (
    Multiplicities,
    OrbitCapExceeded,
    Stratum,
    Subspace,
    block_stratum,
    classify_indices,
    enumerate_parabolic_strata,
    flat_members,
    generalized_coxeter_number,
    orbit_of_subspace,
    parabolic_classes,
    parabolic_stratum,
    root_system,
    subgraph_type_name,
    type_coxeter_number,
)

from rootsystem_reference import (
    reference_coxeter_number,
    reference_lines,
    reference_orbit,
    reference_parabolic_classes,
    reference_parabolic_strata,
    reference_stratum,
    reference_stratum_lines,
    subspace,
)

LINE_COUNTS = {
    ("A", 3, None): 6,
    ("A", 5, None): 15,
    ("B", 2, None): 4,
    ("B", 4, None): 16,
    ("D", 4, None): 12,
    ("D", 5, None): 20,
    ("E6", None, None): 36,
    ("E7", None, None): 63,
    ("E8", None, None): 120,
    ("F4", None, None): 24,
    ("G2", None, None): 6,
    ("H3", None, None): 15,
    ("H4", None, None): 60,
    ("I2", None, 5): 5,
    ("I2", None, 8): 8,
    ("I2", None, 12): 12,
}


@pytest.mark.parametrize("fam,rank_,m", list(LINE_COUNTS))
def test_line_counts(fam, rank_, m):
    rs = root_system(fam, rank_, m=m)
    assert len(rs.lines) == LINE_COUNTS[(fam, rank_, m)]


@pytest.mark.parametrize("fam,rank_,m", [("A", 3, None), ("B", 3, None), ("F4", None, None), ("H3", None, None), ("I2", None, 8)])
def test_closed_under_own_reflections(fam, rank_, m):
    rs = root_system(fam, rank_, m=m)
    for a in rs.lines:
        for b in rs.lines:
            assert rs.line_index(reflect(b, a)) is not None


def test_unknown_families_rejected():
    with pytest.raises(ValueError):
        root_system("K", 4)
    with pytest.raises(ValueError):
        root_system("I2", m=7)
    with pytest.raises(ValueError):
        root_system("B", 1)


def test_fixed_rank_families_check_the_rank():
    assert root_system("F4", 4) is root_system("F4")
    assert root_system("E", 7) is root_system("E7", 7)
    for fam, rank_, m in (("F4", 3, None), ("H3", 4, None), ("I2", 7, 5)):
        with pytest.raises(ValueError, match=f"has rank {root_system(fam, m=m).rank}, not {rank_}"):
            root_system(fam, rank_, m=m)


ORACLE_SYSTEMS = [
    ("A", 1, None), ("A", 4, None), ("B", 2, None), ("B", 4, None), ("D", 4, None), ("D", 6, None),
    ("E6", None, None), ("E7", None, None), ("E8", None, None), ("F4", None, None), ("G2", None, None),
    ("H3", None, None), ("H4", None, None),
    *[("I2", None, m) for m in (3, 4, 5, 6, 8, 12)],
]


@pytest.mark.parametrize("fam,rank_,m", ORACLE_SYSTEMS)
def test_lines_and_orbit_labels_match_reference(fam, rank_, m):
    rs = root_system(fam, rank_, m=m)
    assert (rs.lines, rs.orbit_labels, rs.orbit_names) == reference_lines(rs.simple)
    # each line is sum_j c_j alpha_j over its coordinates, in field arithmetic on the simple roots
    field = rs.field
    assert len(rs.coords) == len(rs.lines)
    for line, coords in zip(rs.lines, rs.coords):
        assert len(coords) == rs.rank
        c = [field.quotient(nums, rs.coord_den) for nums in coords]
        total = tuple(sum((cj * alpha[k] for cj, alpha in zip(c, rs.simple)), field.zero()) for k in range(rs.dim))
        assert total == line


@pytest.mark.parametrize("fam,rank_,m", [("B", 3, None), ("F4", None, None), ("H3", None, None), ("I2", None, 8)])
def test_line_sum_matches_the_per_line_sum(fam, rank_, m):
    rs = root_system(fam, rank_, m=m)
    rng = random.Random(fam)
    weights = {name: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for name in rs.orbit_names}
    for mults in (Multiplicities.symbolic(rs), Multiplicities.numeric(rs, weights)):
        zero = Polynomial.zero(rs.field, len(mults.params))
        for size in (0, 1, 2, len(rs.lines) // 2, len(rs.lines)):
            for _ in range(3):
                indices = rng.sample(range(len(rs.lines)), size)
                assert mults.line_sum(indices) == sum((mults.line_value(i) for i in indices), zero)
                assert mults.line_sum(iter(indices)) == mults.line_sum(indices)


def test_line_sum_builds_one_polynomial_per_tuple_of_orbit_counts():
    rs = root_system("F4")
    mults = Multiplicities.symbolic(rs)
    by_orbit = [[i for i, label in enumerate(rs.orbit_labels) if label == k] for k in range(2)]
    # two long lines and a short one, twice over, and the same counts reached otherwise
    first = mults.line_sum([by_orbit[0][0], by_orbit[0][1], by_orbit[1][0]])
    assert mults.line_sum([by_orbit[1][5], by_orbit[0][7], by_orbit[0][3]]) is first
    assert mults.line_sum([by_orbit[0][0], by_orbit[1][0]]) is not first
    # the memo belongs to the instance: another one builds its own sum
    other = Multiplicities.symbolic(rs)
    again = other.line_sum([by_orbit[0][0], by_orbit[0][1], by_orbit[1][0]])
    assert again == first and again is not first


def test_orbit_label_counts_B3():
    rs = root_system("B", 3)
    # first orbit is the one through the first simple root: the 6 long lines
    counts = [rs.orbit_labels.count(i) for i in range(len(rs.orbit_names))]
    assert rs.orbit_names == ("c1", "c2")
    assert counts == [6, 3]
    long_norm = dot(rs.simple[0], rs.simple[0])
    for i, l in enumerate(rs.lines):
        expected = 0 if dot(l, l) == long_norm else 1
        assert rs.orbit_labels[i] == expected


def test_orbit_labels_F4_G2():
    f4 = root_system("F4")
    assert [f4.orbit_labels.count(i) for i in (0, 1)] == [12, 12]
    g2 = root_system("G2")
    assert [g2.orbit_labels.count(i) for i in (0, 1)] == [3, 3]


ALL_FAMILIES = [
    ("A", 5, None),
    ("B", 4, None),
    ("D", 5, None),
    ("E6", None, None),
    ("E7", None, None),
    ("E8", None, None),
    ("F4", None, None),
    ("G2", None, None),
    ("H3", None, None),
    ("H4", None, None),
    ("I2", None, 8),
]


def test_coxeter_number_lemma_all_families():
    # sum over roots of (a,u)(a,v)/(a,a) equals h*(u,v), at multiplicity one
    start = time.time()
    for fam, rank_, m in ALL_FAMILIES:
        rs = root_system(fam, rank_, m=m)
        ones = Multiplicities.numeric(rs, {n: 1 for n in rs.orbit_names})
        everything = range(len(rs.lines))
        h = generalized_coxeter_number(rs, ones, everything)
        assert h.constant_term() == rs.field.element(type_coxeter_number((fam[0], m or rs.rank)))
        # the reference asserts proportionality to the scalar product
        assert reference_coxeter_number(rs, ones, everything) == h
    assert time.time() - start < 10.0


def test_generalized_coxeter_number_symbolic():
    rs = root_system("B", 2)
    mu = Multiplicities.symbolic(rs)
    h = generalized_coxeter_number(rs, mu, range(len(rs.lines)))
    assert render_polynomial(h, names=mu.params) == "2*c1+2*c2"
    rs = root_system("A", 3)
    mu = Multiplicities.symbolic(rs)
    h = generalized_coxeter_number(rs, mu, range(len(rs.lines)))
    assert render_polynomial(h, names=mu.params) == "4*c"


def test_generalized_number_rejects_reducible():
    from dunklcm.linalg import vec

    rs = root_system("F4")
    mu = Multiplicities.symbolic(rs)
    # one long and one short orthogonal line: reducible, weights differ
    mixed = [
        rs.line_index(vec(rs.field, [0, 1, -1, 0])),
        rs.line_index(vec(rs.field, [0, 0, 0, 1])),
    ]
    with pytest.raises(ValueError):
        reference_coxeter_number(rs, mu, mixed)


def test_numeric_multiplicities_check_their_names():
    rs = root_system("A", 3)
    # an unknown name used to be dropped without a word
    with pytest.raises(ValueError, match="^unknown weight name\\(s\\) cc for A3; its orbit weights are c$"):
        Multiplicities.numeric(rs, {"c": 1, "cc": 2})
    with pytest.raises(ValueError, match="missing multiplicity for orbit 'c2'"):
        Multiplicities.numeric(root_system("B", 3), {"c1": 1})


# systems whose parabolic strata are all covered, every subset of the simple
# roots standing for its stratum
ORACLE_SYSTEMS = [
    ("A", 5, None), ("B", 3, None), ("B", 4, None), ("D", 4, None), ("D", 5, None),
    ("E6", None, None), ("F4", None, None), ("G2", None, None), ("H3", None, None),
    ("H4", None, None), ("I2", None, 5), ("I2", None, 8), ("I2", None, 12),
]
E7_SUBSETS = [(0,), (1, 2, 3), (0, 2, 3, 4), (1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5)]
BLOCK_STRATA = [
    ("A", 5, dict(m=2, k=3)),
    ("B", 4, dict(m=1, k=2, l=2)),
    ("B", 4, dict(m=2, k=2)),
    ("D", 4, dict(m=2, k=2, eps=-1)),
    ("D", 5, dict(m=1, k=3, l=2)),
]
# annihilators spanned by some roots and a vector off every root line: the
# strata are not flats, but their vanishing lines still form root subsystems
OFF_FLAT_ROWS = [
    ("A", 5, [(1, -1, 0, 0, 0, 0), (0, 1, -1, 0, 0, 0), (0, 0, 0, 1, 2, 3)]),
    ("B", 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 2)]),
]


def _oracle_cases():
    for fam, rank_, m in ORACLE_SYSTEMS:
        rs = root_system(fam, rank_, m=m)
        for size in range(1, rs.rank + 1):
            for idx in combinations(range(rs.rank), size):
                yield parabolic_stratum(rs, idx)
    rs = root_system("E7")
    for idx in E7_SUBSETS:
        yield parabolic_stratum(rs, idx)
    for fam, rank_, shape in BLOCK_STRATA:
        yield block_stratum(root_system(fam, rank_), **shape)
    for fam, rank_, rows in OFF_FLAT_ROWS:
        yield reference_stratum(root_system(fam, rank_), rows)


def test_closed_form_matches_weighted_form_on_every_component():
    rng = random.Random(9)
    checked = 0
    for st in _oracle_cases():
        rs = st.rs
        weightings = [
            Multiplicities.symbolic(rs),
            Multiplicities.numeric(rs, {n: Fraction(rng.randint(1, 9), rng.randint(2, 9)) for n in rs.orbit_names}),
        ]
        ones = Multiplicities.numeric(rs, 1)
        components = st.components()
        assert components, st.label
        for comp in components:
            for mults in weightings:
                assert generalized_coxeter_number(rs, mults, comp) == reference_coxeter_number(rs, mults, comp)
            if st.gamma0:
                # at unit weights, the Coxeter number of the one diagram component holding the lines
                [held] = [
                    (letter, param) for letter, param, verts in classify_indices(rs, st.gamma0)
                    if rs.line_index(rs.simple[verts[0]]) in comp
                ]
                h = generalized_coxeter_number(rs, ones, comp).constant_term()
                assert h == rs.field.element(type_coxeter_number(held))
            checked += 1
    assert checked > 300


@pytest.mark.parametrize(
    "fam,indices,expected",
    [
        ("F4", (0, 1, 2, 3), "F4"),
        ("F4", (1, 2), "B2"),
        ("F4", (0, 2), "A1^2"),
        ("F4", (0, 1, 2), "B3"),
        ("F4", (1, 2, 3), "B3"),
        ("E8", tuple(range(8)), "E8"),
        ("E8", (0, 2, 3, 4, 5, 6, 7), "A7"),
        ("E8", (1, 2, 3, 4, 5, 6, 7), "D7"),
        ("E7", (0, 1, 2, 3, 4, 5), "E6"),
        ("E7", (1, 4, 6), "A1^3"),
        ("E7", (1, 2, 3, 4), "D4"),
        ("H4", (0, 1, 2, 3), "H4"),
        ("H4", (0, 1, 2), "H3"),
        ("H4", (0, 1), "I2(5)"),
        ("G2", (0, 1), "G2"),
        ("H3", (1, 2), "A2"),
    ],
)
def test_classify_subgraphs(fam, indices, expected):
    rs = root_system(fam)
    assert subgraph_type_name(classify_indices(rs, indices)) == expected


@pytest.mark.parametrize(
    "fam, rank_, edges",
    [
        ("H3", None, {(0, 1): 5, (1, 2): 3}),
        ("H4", None, {(0, 1): 5, (1, 2): 3, (2, 3): 3}),
        ("F4", None, {(0, 1): 3, (1, 2): 4, (2, 3): 3}),
        ("B", 3, {(0, 1): 3, (1, 2): 4}),
        ("D", 4, {(0, 1): 3, (1, 2): 3, (1, 3): 3}),
        ("E6", None, {(0, 2): 3, (1, 3): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3}),
        ("G2", None, {(0, 1): 6}),
        *[(f"I2({m})", None, {(0, 1): m}) for m in (3, 4, 5, 6, 8, 12)],
    ],
)
def test_bond_matrix_is_the_coxeter_diagram(fam, rank_, edges):
    rs = root_system(fam, rank_)
    for i in range(rs.rank):
        for j in range(rs.rank):
            want = 1 if i == j else edges.get((min(i, j), max(i, j)), 2)
            assert rs.bonds[i][j] == want, (i, j)


def test_type_coxeter_numbers():
    assert type_coxeter_number(("A", 3)) == 4
    assert type_coxeter_number(("B", 2)) == 4
    assert type_coxeter_number(("D", 4)) == 6
    assert type_coxeter_number(("E", 7)) == 18
    assert type_coxeter_number(("G", 2)) == 6
    assert type_coxeter_number(("H", 4)) == 30
    assert type_coxeter_number(("I", 8)) == 8


def orbit(st, cap=10 ** 6) -> dict:
    """The orbit of a stratum's flat, as {line tuple: line tuple}."""
    return orbit_of_subspace(st.rs.simple_perms, st.lines, cap)


def members(st) -> dict:
    """The subspace of each member of a stratum's orbit, keyed by Subspace.key."""
    return flat_members(st.rs.field, st.rs.dim, st.rs.lines, orbit(st))


def test_mirror_orbit_sizes():
    assert len(orbit(parabolic_stratum(root_system("A", 3), (0,)))) == 6
    assert len(orbit(parabolic_stratum(root_system("E8"), (0,)))) == 120


def test_block_strata_B():
    rs = root_system("B", 4)
    two_zero = block_stratum(rs, m=0, k=1, l=2)
    assert len(orbit(two_zero)) == 6
    assert subspace(two_zero).dim == 2
    pair = block_stratum(rs, m=1, k=2)
    # choices of the colliding pair times the relative sign
    assert len(orbit(pair)) == 12


def test_block_strata_D_eps_variants():
    rs = root_system("D", 4)
    plus = block_stratum(rs, m=2, k=2)
    minus = block_stratum(rs, m=2, k=2, eps=-1)
    assert len(orbit(plus)) == 6
    assert len(orbit(minus)) == 6
    assert minus.lines not in orbit(plus)
    with pytest.raises(ValueError):
        block_stratum(rs, m=1, k=3, eps=-1)
    with pytest.raises(ValueError):
        block_stratum(root_system("B", 4), m=2, k=2, eps=-1)
    with pytest.raises(ValueError):
        block_stratum(root_system("A", 3), m=1, k=2, l=1)


def test_block_stratum_A_partition():
    rs = root_system("A", 5)
    st = block_stratum(rs, m=2, k=2)
    # pairs {i,j},{k,l} of disjoint coordinate pairs: 6!/(2!2!2!) / 2 = 45
    assert len(orbit(st)) == 45


def test_orbit_cap():
    rs = root_system("E8")
    st = parabolic_stratum(rs, (0,))
    with pytest.raises(OrbitCapExceeded):
        orbit(st, cap=50)


def test_orbit_cap_env(monkeypatch):
    # the walk's cap is its argument: nothing reads a cap from the environment
    monkeypatch.setenv("DUNKLCM_ORBIT_CAP", "3")
    assert len(orbit(parabolic_stratum(root_system("A", 3), (0,)), cap=6)) == 6


@pytest.mark.parametrize("raw", ["abc", "0", "-1"])
def test_orbit_cap_env_malformed(monkeypatch, raw):
    # nothing reads the variable, so no value of it is an error
    monkeypatch.setenv("DUNKLCM_ORBIT_CAP", raw)
    assert len(enumerate_parabolic_strata(root_system("A", 3))) == 4


def test_enumerate_strata_small():
    rs = root_system("A", 3)
    strata = enumerate_parabolic_strata(rs)
    assert sorted(st.label for st in strata) == ["A1", "A1^2", "A2", "A3"]
    rs = root_system("B", 3)
    strata = enumerate_parabolic_strata(rs)
    assert sorted(st.label for st in strata) == [
        "A1:1",
        "A1:2",
        "A1^2",
        "A2",
        "B2",
        "B3",
    ]


def test_enumerate_strata_D4_triality():
    rs = root_system("D", 4)
    strata = enumerate_parabolic_strata(rs)
    # the three outer nodes give one A1 class; A1^2 splits off the center
    labels = sorted(st.label for st in strata)
    assert labels.count("A1") == 1
    a13 = [st for st in strata if st.label.startswith("A1^3")]
    assert len(a13) == 1


def test_E7_doubled_classes():
    rs = root_system("E7")
    for want, size, sizes in (("A1^3", 3, [315, 3780]), ("A5", 5, [336, 1008])):
        classes = list(reference_parabolic_classes(rs, size, label=want))
        assert len(classes) == 2
        assert sorted(len(orbit(parabolic_stratum(rs, idx))) for idx, _ in classes) == sizes


# the orbit classes of every subset size of these systems are decided by the
# orbit walk of the reference and compared with the program's moves
CLASS_SYSTEMS = [
    ("A", 3, None), ("A", 5, None), ("A", 8, None), ("B", 3, None), ("B", 4, None),
    *[("D", n, None) for n in range(4, 9)],
    ("F4", None, None), ("G2", None, None), ("H3", None, None), ("H4", None, None),
    *[("I2", None, m) for m in (5, 6, 8, 12)],
    ("E6", None, None), ("E7", None, None),
]


@pytest.mark.parametrize("fam,rank_,m", CLASS_SYSTEMS)
def test_parabolic_classes_match_reference(fam, rank_, m):
    rs = root_system(fam, rank_, m=m)
    for size in range(1, rs.rank + 1):
        ref = list(reference_parabolic_classes(rs, size))
        assert [(st.gamma0, st.label) for st in parabolic_classes(rs, size)] == ref, size
        for label in {name for _, name in ref}:
            got = [(st.gamma0, st.label) for st in parabolic_classes(rs, size, label=label)]
            assert got == [c for c in ref if c[1] == label], (size, label)
    got = [(st.gamma0, st.label) for st in enumerate_parabolic_strata(rs)]
    assert got == reference_parabolic_strata(rs)


def test_E8_has_forty_classes_and_no_doubled_type():
    labels = [st.label for st in enumerate_parabolic_strata(root_system("E8"))]
    assert len(labels) == 40
    assert len(set(labels)) == 40 and not any(":" in label for label in labels)


# every parabolic stratum of these systems is walked against the reference
REFERENCE_ORBIT_SYSTEMS = [
    ("A", 3, None), ("B", 3, None), ("D", 4, None), ("G2", None, None), ("H3", None, None),
    ("F4", None, None), ("I2", None, 5), ("E6", None, None),
]


@pytest.mark.parametrize("fam,rank_,m", REFERENCE_ORBIT_SYSTEMS)
def test_parabolic_line_orbits_match_reference(fam, rank_, m):
    rs = root_system(fam, rank_, m=m)
    walked = []  # (reference orbit, the first stratum found in it)
    for size in range(1, rs.rank + 1):
        for idx in combinations(range(rs.rank), size):
            st = parabolic_stratum(rs, idx)
            first = next((first for ref, first in walked if subspace(st).key in ref), None)
            if first is None:
                ref = reference_orbit(rs, subspace(st))
                assert members(st).keys() == ref.keys(), idx
                walked.append((ref, st))
            else:
                # the same line tuples, hence the same members
                assert orbit(st).keys() == orbit(first).keys(), idx


def test_E7_doubled_line_orbits_match_reference():
    rs = root_system("E7")
    for label, size, want in (("A1^3", 3, [315, 3780]), ("A5", 5, [336, 1008])):
        sizes = []
        for st in parabolic_classes(rs, size, label=label):
            ref = reference_orbit(rs, subspace(st))
            assert members(st).keys() == ref.keys(), st.gamma0
            sizes.append(len(ref))
        assert sorted(sizes) == want


@pytest.mark.parametrize("fam,rank_,shape", [
    ("B", 4, dict(m=0, k=1, l=2)),
    ("A", 5, dict(m=2, k=2)),
    ("D", 4, dict(m=2, k=2)),
    ("D", 4, dict(m=2, k=2, eps=-1)),
])
def test_block_line_orbits_match_reference(fam, rank_, shape):
    rs = root_system(fam, rank_)
    st = block_stratum(rs, **shape)
    assert members(st).keys() == reference_orbit(rs, subspace(st)).keys()


@pytest.mark.parametrize("indices", [(-1,), (4,), (0, 4)])
def test_stratum_refuses_an_index_out_of_range(indices):
    # a negative index would otherwise read a simple root from the end
    with pytest.raises(ValueError, match="out of range"):
        Stratum(root_system("A", 4), indices)


BLOCK_SYSTEMS = [
    *[("A", n) for n in range(1, 8)], *[("B", n) for n in range(2, 8)], *[("D", n) for n in range(3, 8)],
]
# the systems whose block strata also have their orbits walked against the reference
ORBIT_CHECKED = {("A", 4), ("B", 4), ("D", 4), ("D", 5)}


def block_rows(n, m, k, l, eps, first_zero):
    """Rows x_i - x_(i+1) inside m blocks of k coordinates, the last one
    x_(n-1) + x_n when eps = -1, then x_j for l coordinates from first_zero on."""
    rows = []
    for i in (b * k + j for b in range(m) for j in range(k - 1)):
        row = [0] * n
        row[i], row[i + 1] = 1, -1
        rows.append(row)
    if eps == -1:
        rows[-1][-1] = 1
    for j in range(first_zero, first_zero + l):
        row = [0] * n
        row[j] = 1
        rows.append(row)
    return rows


@pytest.mark.parametrize("fam,rank_", BLOCK_SYSTEMS)
def test_every_block_stratum_is_a_flat(fam, rank_):
    """Each block stratum is the flat of its rows written out here, with the
    zeros last, and has the lines, components and configuration that
    reference_stratum finds on those rows the general way.  Its conditions
    are those of the flat with the zeros right after the blocks, which is
    W-conjugate to it."""
    rs = root_system(fam, rank_)
    n = rs.dim
    symbolic = Multiplicities.symbolic(rs)
    accepted = 0
    for m in range(n + 1):
        for k in range(1, n + 1) if m else (1,):
            for l in range(n + 1):
                for eps in (1, -1):
                    try:
                        st = block_stratum(rs, m, k, l=l, eps=eps)
                    except ValueError:
                        continue
                    shape = (m, k, l, eps)
                    rows = block_rows(n, m, k, l, eps, n - l)
                    assert subspace(st) == Subspace(rs.field, n, [vec(rs.field, r) for r in rows]), shape
                    ref = reference_stratum(rs, rows)
                    assert (st.lines, st.components()) == (ref.lines, ref.components()), shape
                    got, want = (restricted_configuration(s, symbolic) for s in (st, ref))
                    assert (got.vectors, got.mults) == (want.vectors, want.mults), shape
                    conjugate = reference_stratum(rs, block_rows(n, m, k, l, eps, m * k))
                    hs = [reference_coxeter_number(rs, symbolic, comp) for comp in conjugate.components()]
                    assert Counter(st.conditions) == Counter(hs), shape
                    if (fam, rank_) in ORBIT_CHECKED:
                        assert len(orbit(st)) == len(reference_orbit(rs, subspace(st))), shape
                    accepted += 1
    assert accepted >= n


def test_vanishing_lines_and_components():
    rs = root_system("B", 3)
    st = block_stratum(rs, m=1, k=2, l=1)  # x1 = x2, x3 = 0
    comps = st.components()
    # x1 - x2 is isolated; x3 alone is the other component
    assert len(comps) == 2
    st2 = parabolic_stratum(root_system("A", 3), (0, 2))
    assert len(st2.lines) == 2
    assert len(st2.components()) == 2


def test_stratum_ideal_membership():
    from dunklcm.polynomials import Polynomial

    rs = root_system("A", 3)
    st = parabolic_stratum(rs, (0,))
    x = [Polynomial.variable(rs.field, 4, i) for i in range(4)]
    vandermonde = Polynomial.constant(rs.field, 4, rs.field.one())
    for i in range(4):
        for j in range(i + 1, 4):
            vandermonde = vandermonde * (x[i] - x[j])

    def in_ideal(f):
        return all(f.restrict_to(sub.basis).is_zero() for sub in members(st).values())

    assert in_ideal(vandermonde)
    assert not in_ideal(x[0] - x[1])


# every family the code builds up to rank 8
EVERY_SYSTEM = (
    [("A", n, None) for n in range(1, 9)] + [("B", n, None) for n in range(2, 9)]
    + [("D", n, None) for n in range(4, 9)]
    + [(fam, None, None) for fam in ("E6", "E7", "E8", "F4", "G2", "H3", "H4")]
    + [("I2", None, m) for m in (3, 4, 5, 6, 8, 12)]
)


@pytest.mark.parametrize("fam,rank_,m", EVERY_SYSTEM)
def test_stratum_lines_match_the_key_reference(fam, rank_, m):
    """The roots supported in I, read off the coordinates, are the lines whose key is None."""
    rs = root_system(fam, rank_, m)
    for st in [Stratum(rs, ()), *enumerate_parabolic_strata(rs)]:
        assert "line_keys" not in vars(st), st.label
        assert st.lines == reference_stratum_lines(st), st.label
