"""Restriction of the Dunkl Laplacian to a stratum.

Projecting the root lines orthogonally onto the subspace and adding up the
multiplicities of lines with a common image yields the vector configuration
of the restricted operator.  A root line sum_j c_j alpha_j projects to
sum_j c_j pi(alpha_j), so the lines are grouped by their simple-root
coordinates pushed onto an independent set of the pi(alpha_j), keyed up
to scale (`Stratum.line_keys`): on the stratum X_I, every stratum, the
coordinates outside I.  The grouping compares integer tuples, and each
restricted line is projected once, when a caller reads the vectors,
through the integral rows of those pi(alpha_j), which one |I| x |I| solve
on the simple roots' Gram matrix gives.  The identities verified here are
exact, and their denominators are never cleared: a sum of a_k/l_k over
pairwise non-proportional linear forms l_k is a polynomial exactly when
each l_k divides a_k, so each identity is decided line by line, by summed
residues or by exact division.

The operator restricted is the Dunkl Laplacian sum_v T_v^2 on invariant
polynomials, where it is the Calogero-Moser operator

    L_c f = Delta f - sum_r 2 c_r (d_{alpha_r} f) / alpha_r(x)

(Heckman, A remark on the Dunkl differential-difference operators,
Progress in Math. 101, 1991), computed in that closed form with no Dunkl
operator.  Restriction to the stratum is a ring map, so every term is
built from the restricted root forms in the stratum's own coordinates,
and no polynomial in all n coordinates (restriction_defects).  Its
confined form sum_v (T_v + omega x_v)(T_v - omega x_v) f = L_c f + omega K
f - omega^2 |x|^2 f with K = -n + 2 sum_r c_r restricts to the plain
identity plus the same two terms on both sides, so only the plain identity
is checked, and K is reported (deformed_restriction_constant).
"""

from __future__ import annotations

import json
from collections import Counter
from functools import cached_property
from importlib import resources

from .fields import FieldElement, render_scalar
from .linalg import Vector, dot, gram, int_rows, invert, line_key, mat_vec, monic_row
from .polynomials import Polynomial, divide_by_linear, linear_combination, render_polynomial
from .rootsystems import (
    Multiplicities,
    Stratum,
    Subspace,
    parabolic_stratum,
    root_system,
)


class Configuration:
    """The restricted lines of a stratum with their summed weights, and the dimension of their span.

    Each restricted line is kept as its line key (see Stratum), with the
    sum of the weights of the root lines that share it.  The vectors, the
    monic projections of those lines, are built the first time they are
    read, and each distinct weight and each vector's linear form is
    rendered once, for every text that shows it.
    """

    def __init__(self, stratum: Stratum, keys, mults, params: tuple[str, ...]):
        rs = stratum.rs
        self.stratum = stratum
        self.field = rs.field
        self.basis = stratum.subspace.basis
        self.keys = tuple(keys)
        self.mults = tuple(mults)
        self.params = params
        # X is a flat, so its annihilator rows, spanned by the normals of
        # its mirrors, lie in span(Phi): the projections span X meet span(Phi)
        self.span_dim = rs.rank - len(stratum.subspace.annihilator)

    @property
    def size(self) -> int:
        return len(self.keys)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_numeric(self) -> bool:
        return not self.params

    @cached_property
    def vectors(self) -> tuple[Vector, ...]:
        """The monic projection of each restricted line, through the integral
        rows of the key roots' projections (Stratum.key_projections)."""
        if not self.keys:
            return ()
        field = self.field
        columns = list(zip(*self.stratum.key_projections()))
        return tuple(monic_row(field, [field.int_dot(key, col) for col in columns]) for key in self.keys)

    @cached_property
    def mult_texts(self) -> tuple[str, ...]:
        """Each line's weight rendered over the parameters, each distinct weight once."""
        texts = {m: render_polynomial(m, names=self.params or None) for m in set(self.mults)}
        return tuple(texts[m] for m in self.mults)

    @cached_property
    def form_texts(self) -> tuple[str, ...]:
        """Each vector's linear form (v, x) over x1, ..., xn."""
        names = tuple(f"x{i+1}" for i in range(self.stratum.rs.dim))
        return tuple(render_polynomial(Polynomial.linear_form(self.field, v), names=names) for v in self.vectors)

    def scalar_mults(self) -> tuple[FieldElement, ...]:
        if not self.is_numeric:
            raise ValueError("numeric configuration required")
        return tuple(m.constant_term() for m in self.mults)

    def mult_multiset(self) -> dict[str, int]:
        return dict(Counter(self.mult_texts))

    def fingerprint(self) -> tuple:
        """Invariant of the configuration up to orthogonal maps and scalings."""
        ms = self.scalar_mults()
        mult_part = tuple(sorted(m.sort_key() for m in ms))
        pair_part = []
        for i in range(self.size):
            u, mu = self.vectors[i], ms[i]
            for j in range(i + 1, self.size):
                v, mv = self.vectors[j], ms[j]
                c2 = (dot(u, v) ** 2) / (dot(u, u) * dot(v, v))
                pair = tuple(sorted((mu.sort_key(), mv.sort_key())))
                pair_part.append((pair, c2.sort_key()))
        return (self.span_dim, self.size, mult_part, tuple(sorted(pair_part)))

    def radial_text(self) -> str:
        parts = ["Delta_pi"]
        for form, mult in zip(self.form_texts, self.mult_texts):
            parts.append(f"- 2*({mult})/({form}) d_({form})")
        return " ".join(parts)

    def potential_text(self) -> str:
        parts = ["Delta"]
        for v, form, mult in zip(self.vectors, self.form_texts, self.mult_texts):
            norm = render_scalar(dot(v, v))
            parts.append(f"- ({mult})*({mult}+1)*({norm})/({form})^2")
        return " ".join(parts)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "span_dim": self.span_dim,
            "size": self.size,
            "vectors": [[render_scalar(x) for x in v] for v in self.vectors],
            "multiplicities": list(self.mult_texts),
            "multiplicity_multiset": self.mult_multiset(),
        }


def restricted_configuration(stratum: Stratum, mults: Multiplicities) -> Configuration:
    """The restricted lines of the stratum, grouped and weighted.

    A line's key k stands for its projection sum_p k_p pi(alpha_p) over the
    stratum's key roots, up to scale (see Stratum), so grouping the lines
    by key gives the groups of the monic projections, in the same order.
    Nothing is projected here: Configuration.vectors projects each group
    once, when a caller reads them.
    """
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(stratum.line_keys):
        if key is not None:
            groups.setdefault(key, []).append(i)
    return Configuration(stratum, groups, [mults.line_sum(lines) for lines in groups.values()], mults.params)


def conservation_defect(stratum: Stratum, mults: Multiplicities, config: Configuration) -> Polynomial:
    """Total projected multiplicity of config, the stratum's restricted
    configuration at mults, minus the sum over non-vanishing lines."""
    rs = stratum.rs
    one = rs.field.one().nums
    total = linear_combination(rs.field, len(mults.params), ((m, one, 1) for m in config.mults))
    vanishing = set(stratum.lines)
    return total - mults.line_sum(i for i in range(len(rs.lines)) if i not in vanishing)


# ---------------------------------------------------------------------------
# identity checks


def gauge_defects(stratum: Stratum, mults: Multiplicities) -> list[int]:
    """Residue cancellation on every projected line, at numeric weights.

    For each configuration vector u the weighted sum of (u,w)/(w,x) over the
    other vectors must vanish identically on the part of the stratum where
    (u,x) = 0.  Returns the indices of vectors where it does not.

    A sum of a_k/l_k over pairwise non-proportional linear forms is a
    polynomial only if each l_k divides a_k (multiply by the product of the
    forms and restrict to l_1 = 0).  Here the a_k are constants, so the rows
    are grouped by their line key and each group's sum of coeff/lead must
    vanish.
    """
    if not mults.is_numeric:
        raise ValueError("numeric multiplicities required")
    rs = stratum.rs
    field = rs.field
    config = restricted_configuration(stratum, mults)
    ms = config.scalar_mults()
    bad = []
    for i, u in enumerate(config.vectors):
        slice_rows = list(stratum.subspace.annihilator) + [u]
        sl = Subspace(field, rs.dim, slice_rows)
        sbasis = sl.basis
        if not sbasis:
            continue
        # line key of the row -> summed coeff/lead
        residues: dict[tuple, FieldElement] = {}
        for j, w in enumerate(config.vectors):
            if j == i:
                continue
            coeff = dot(u, w) * ms[j]
            if coeff.is_zero():
                continue
            row = tuple(dot(w, b) for b in sbasis)
            key = line_key(field, int_rows([row])[0])
            if key is None:
                # w projects to the u-line itself; excluded from the sum
                continue
            residue = coeff / next(x for x in row if not x.is_zero())
            residues[key] = residues.get(key, field.zero()) + residue
        if any(not c.is_zero() for c in residues.values()):
            bad.append(i)
    return bad


def restriction_defects(stratum: Stratum, mults: Multiplicities, degrees=(2, 4, 6)) -> list[int]:
    """Compares the restricted operator with the projected radial form.

    On the root power sum f = sum_alpha 2 (alpha, x)^k, restricted to
    g(t) = f(sum_a t_a b_a) over the stratum's basis, the restricted L_c f
    must equal Delta_X g - sum_v 2 m_v d_v g / (v, x) over the
    configuration.  Restriction is a ring map, so both sides are built from
    the restricted root forms p_alpha = sum_a (alpha, b_a) t_a, and over 2k
    they differ by

        (k - 1) sum_alpha w_alpha p_alpha^(k-2)
        - sum_{beta off X} 2 c_beta d_beta / p_beta + sum_v 2 m_v d_v / (v, x)

    with d_u = sum_alpha (alpha, u) p_alpha^(k-1), the restriction of
    d_u f / 2k, and w_alpha = (alpha, alpha) - |pi alpha|^2 - sum_{beta on
    X} 2 c_beta (alpha, beta)^2 / (beta, beta), from Delta f, Delta_X g and
    the mirrors through X: there d_beta f vanishes, so (d_beta f) / beta
    restricts to d_beta^2 f / (beta, beta).  A mirror off X divides
    exactly, and a remainder there raises.  The configuration's forms are
    pairwise non-proportional, so their sum is a polynomial only if each
    divides its numerator, as in `gauge_defects`: a degree fails on such a
    remainder, which needs a stratum that is no flat (on a flat X, grad f
    lies in X), or when the difference is not zero.  f is W-invariant
    because the simple reflections permute the root lines (else
    ValueError).  The confined identity adds omega K g - omega^2 |x|^2 g to
    both sides (deformed_restriction_constant; |x|^2 restricts to t^T G t),
    so it needs no check of its own.  Returns degrees that fail.
    """
    if not mults.is_numeric:
        raise ValueError("numeric multiplicities required")
    rs = stratum.rs
    field = rs.field
    basis = stratum.subspace.basis
    r = len(basis)
    if r == 0:
        return []
    if any(k % 2 for k in degrees):
        raise ValueError("only even exponents give a sign-free root sum")
    if any(None in perm for perm in rs.simple_perms):
        raise ValueError("the simple reflections do not permute the root lines")
    ginv = invert(gram(basis), field)
    forms = [tuple(dot(alpha, b) for b in basis) for alpha in rs.lines]
    weights = [mults.line_scalar(i) * 2 for i in range(len(rs.lines))]
    on_x = [i for i in stratum.lines if not weights[i].is_zero()]
    second = [
        norm - dot(form, mat_vec(ginv, form))
        - sum((weights[i] * dot(alpha, rs.lines[i]) ** 2 / rs.line_norms[i] for i in on_x), field.zero())
        for alpha, form, norm in zip(rs.lines, forms, rs.line_norms)
    ]
    mirrors = [(rs.lines[i], forms[i], -w) for i, w in enumerate(weights) if i not in stratum.lines and not w.is_zero()]
    config = restricted_configuration(stratum, mults)
    configured = [(v, tuple(dot(v, b) for b in basis), m * 2)
                  for v, m in zip(config.vectors, config.scalar_mults()) if not m.is_zero()]
    powers = [Polynomial.linear_form(field, form) for form in forms]
    bad = []
    for k in degrees:
        lower = [p ** (k - 2) for p in powers]
        upper = [q * p for q, p in zip(lower, powers)]
        grads = [linear_combination(field, r, ((q, alpha[j].nums, alpha[j].den)
                                               for q, alpha in zip(upper, rs.lines) if not alpha[j].is_zero()))
                 for j in range(rs.dim)]

        def along(u):  # d_u
            return linear_combination(field, r, ((g, x.nums, x.den) for g, x in zip(grads, u) if not x.is_zero()))

        pieces = [(q, w.nums, w.den) for q, w in zip(lower, (w * (k - 1) for w in second)) if not w.is_zero()]
        pieces += [(divide_by_linear(along(beta), form), w.nums, w.den) for beta, form, w in mirrors]
        try:
            pieces += [(divide_by_linear(along(v), form), w.nums, w.den) for v, form, w in configured]
        except ZeroDivisionError:
            raise
        except ArithmeticError:
            bad.append(k)
            continue
        if not linear_combination(field, r, pieces).is_zero():
            bad.append(k)
    return bad


def deformed_restriction_constant(stratum: Stratum, mults: Multiplicities) -> FieldElement:
    """Coefficient of the confinement parameter in the restricted operator,
    K = -n + 2 sum_r c_r over the n coordinates and the root lines.

    It is the constant K of the confined operator on the whole space, so it
    does not depend on the stratum.
    """
    rs = stratum.rs
    total_c = sum((mults.line_scalar(i) for i in range(len(rs.lines))), rs.field.zero())
    return rs.field.element(-rs.dim) + total_c * 2


# ---------------------------------------------------------------------------
# the catalog


def _load_catalog_rows(path: str | None = None) -> list[dict]:
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["rows"]
    data = resources.files("dunklcm.data").joinpath("golden_catalog.json").read_text()
    return json.loads(data)["rows"]


def catalog_stratum(row: dict) -> Stratum:
    """The stratum of a row's 1-based gamma0; a repeated vertex, or a type
    that is not the one of gamma0, is a ValueError."""
    rs = root_system(row["family"])
    gamma0 = tuple(i - 1 for i in row["gamma0"])
    if len(set(gamma0)) != len(gamma0):
        raise ValueError(f"gamma0 {row['gamma0']} repeats a vertex")
    st = parabolic_stratum(rs, gamma0)
    if st.label != row["type"]:
        raise ValueError(f"type {row['type']!r} is not {st.label!r}, the type of gamma0 {row['gamma0']} in {rs.name}")
    return st


def catalog_weight(st: Stratum, row: dict) -> FieldElement:
    """The one weight c that the invariance conditions of a row's stratum pin, exactly."""
    status, values, _ = st.solution
    if status != "unique" or list(values) != ["c"]:
        raise ValueError(f"catalog stratum {row['type']} in {row['family']} does not pin the multiplicity")
    return values["c"].constant_term()


def catalog_row_result(row: dict) -> dict:
    """Recomputes one catalog entry at its solved multiplicity."""
    st = catalog_stratum(row)
    rs = st.rs
    c = catalog_weight(st, row)
    mults = Multiplicities.numeric(rs, {"c": c})
    config = restricted_configuration(st, mults)
    return {
        "family": row["family"],
        "type": row["type"],
        "gamma0": row["gamma0"],
        "c": render_scalar(c),
        # dimension inside the reflection representation, not the coordinate space
        "dim": config.span_dim,
        "size": config.size,
        "mults": config.mult_multiset(),
    }


def catalog_compare(rows: list[dict] | None = None) -> list[dict]:
    """Every catalog row recomputed and diffed against its stored values.

    rows defaults to the shipped golden rows.
    """
    out = []
    for row in _load_catalog_rows() if rows is None else rows:
        got = catalog_row_result(row)
        entry = {
            "index": row["index"],
            "family": row["family"],
            "type": row["type"],
            "dim_match": got["dim"] == row["dim"],
            "mults_match": got["mults"] == row["mults"],
            "size_match": got["size"] == row["size"],
            "expected": {"dim": row["dim"], "size": row["size"], "mults": row["mults"]},
            "computed": {"dim": got["dim"], "size": got["size"], "mults": got["mults"]},
            "c": got["c"],
        }
        out.append(entry)
    return out
