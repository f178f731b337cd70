"""Restriction of the Dunkl Laplacian to a stratum.

Projecting the root lines orthogonally onto the subspace and adding up the
multiplicities of lines with a common image yields the vector configuration
of the restricted operator.  A root line sum_j c_j alpha_j projects to
sum_j c_j pi(alpha_j), so the lines are grouped by their simple-root
coordinates pushed onto an independent set of the pi(alpha_j), keyed up
to scale (`Stratum.line_keys`): on the stratum X_I, every stratum, the
coordinates outside I.  The grouping compares integer tuples, and each
restricted line is projected once, through the integral rows of those
pi(alpha_j), which one |I| x |I| solve on the simple roots' Gram matrix
gives.  The identities verified here are exact, and their denominators
are never cleared: a sum of a_k/l_k over pairwise non-proportional linear
forms l_k is a polynomial exactly when each l_k divides a_k, so each
identity is decided line by line, by summed residues or by exact division.

The operator restricted is the Dunkl Laplacian sum_v T_v^2 on invariant
polynomials, where it is the Calogero-Moser operator

    L_c f = Delta f - sum_r 2 c_r (d_{alpha_r} f) / alpha_r(x)

(Heckman, A remark on the Dunkl differential-difference operators,
Progress in Math. 101, 1991), computed in that closed form, one exact
division per mirror and no Dunkl operator (invariant_laplacian).  Its
confined form sum_v (T_v + omega x_v)(T_v - omega x_v) f = L_c f + omega K
f - omega^2 |x|^2 f with K = -n + 2 sum_r c_r restricts to the plain
identity plus the same two terms on both sides, so only the plain identity
is checked, and K is reported (deformed_restriction_constant).
"""

from __future__ import annotations

import json
from importlib import resources

from .fields import Field, FieldElement, render_scalar
from .linalg import Vector, dot, gram, int_rows, invert, line_key, mat_vec, monic_row, reflection_matrix
from .polynomials import Polynomial, divide_by_linear, linear_combination, render_polynomial
from .rootsystems import (
    Multiplicities,
    RootSystem,
    Stratum,
    Subspace,
    parabolic_stratum,
    root_system,
)


class Configuration:
    """Vectors with multiplicities on a subspace, one entry per line, and the dimension of their span."""

    def __init__(self, field: Field, basis: tuple[Vector, ...], vectors, mults, params: tuple[str, ...], span_dim: int):
        self.field = field
        self.basis = basis
        self.vectors = tuple(vectors)
        self.mults = tuple(mults)
        self.params = params
        self.span_dim = span_dim

    @property
    def size(self) -> int:
        return len(self.vectors)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_numeric(self) -> bool:
        return not self.params

    def scalar_mults(self) -> tuple[FieldElement, ...]:
        if not self.is_numeric:
            raise ValueError("numeric configuration required")
        return tuple(m.constant_term() for m in self.mults)

    def mult_multiset(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for m in self.mults:
            text = render_polynomial(m, names=self.params or None)
            out[text] = out.get(text, 0) + 1
        return out

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
        names = tuple(f"x{i+1}" for i in range(len(self.vectors[0]) if self.vectors else 0))
        parts = ["Delta_pi"]
        for v, m in zip(self.vectors, self.mults):
            form = render_polynomial(
                Polynomial.linear_form(self.field, v), names=names
            )
            mult = render_polynomial(m, names=self.params or None)
            parts.append(f"- 2*({mult})/({form}) d_({form})")
        return " ".join(parts)

    def potential_text(self) -> str:
        names = tuple(f"x{i+1}" for i in range(len(self.vectors[0]) if self.vectors else 0))
        parts = ["Delta"]
        for v, m in zip(self.vectors, self.mults):
            form = render_polynomial(
                Polynomial.linear_form(self.field, v), names=names
            )
            mult = render_polynomial(m, names=self.params or None)
            norm = render_scalar(dot(v, v))
            parts.append(f"- ({mult})*({mult}+1)*({norm})/({form})^2")
        return " ".join(parts)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "span_dim": self.span_dim,
            "size": self.size,
            "vectors": [[render_scalar(x) for x in v] for v in self.vectors],
            "multiplicities": [
                render_polynomial(m, names=self.params or None) for m in self.mults
            ],
            "multiplicity_multiset": self.mult_multiset(),
        }


def restricted_configuration(stratum: Stratum, mults: Multiplicities) -> Configuration:
    """Orthogonal projections of the root lines, grouped and weighted.

    A line's key k stands for its projection sum_p k_p pi(alpha_p) over the
    stratum's key roots, up to scale (see Stratum), so grouping the lines
    by key gives the groups of the monic projections, in the same order.
    Each group is projected once, through the integral rows of the
    pi(alpha_p) (Stratum.key_projections), and only its monic image is
    built from field elements.  The projections span X meet span(Phi), of
    dimension rank - len(annihilator), since X is a flat, so its annihilator
    rows, spanned by the normals of its mirrors, lie in span(Phi).
    """
    rs = stratum.rs
    field = rs.field
    basis = stratum.subspace.basis
    span_dim = rs.rank - len(stratum.subspace.annihilator)
    if not basis:
        return Configuration(field, basis, (), (), mults.params, span_dim)
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(stratum.line_keys):
        if key is not None:
            groups.setdefault(key, []).append(i)
    columns = list(zip(*stratum.key_projections()))
    vectors = [monic_row(field, [field.int_dot(key, col) for col in columns]) for key in groups]
    mult_sums = [mults.line_sum(lines) for lines in groups.values()]
    return Configuration(field, basis, vectors, mult_sums, mults.params, span_dim)


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


def invariant_power_sum(rs: RootSystem, k: int) -> Polynomial:
    """Sum of (alpha, x)^k over the full root set, for even k."""
    if k % 2:
        raise ValueError("only even exponents give a sign-free root sum")
    field = rs.field
    two = field.element(2).nums
    return linear_combination(
        field, rs.dim, ((Polynomial.linear_form(field, alpha) ** k, two, 1) for alpha in rs.lines)
    )


def _check_invariant(rs: RootSystem, f: Polynomial) -> None:
    """Raises ValueError unless f o s = f for every simple reflection s."""
    for alpha in rs.simple:
        if f.compose_linear(reflection_matrix(rs.field, alpha)) != f:
            raise ValueError("test polynomial is not invariant under the group")


def invariant_laplacian(rs: RootSystem, mults: Multiplicities, f: Polynomial) -> Polynomial:
    """The Dunkl Laplacian sum_v T_v^2 f of a W-invariant f, in the closed
    form L_c f of the module docstring.

    Every D_r f vanishes, so T_v f = d_v f, and d_{alpha_r} f is
    anti-invariant under s_r, so D_r d_{alpha_r} f = 2 d_{alpha_r} f /
    alpha_r(x), one exact division; lines of weight 0 drop out.  For f
    that is not invariant (_check_invariant) the result is not the Dunkl
    Laplacian, and a division may raise ArithmeticError.
    """
    field = rs.field
    grads = [f.partial(v) for v in range(rs.dim)]
    one = field.one().nums
    pieces = [(g.partial(v), one, 1) for v, g in enumerate(grads)]
    for line, alpha in enumerate(rs.lines):
        c = mults.line_scalar(line)
        if c.is_zero():
            continue
        d_alpha = linear_combination(
            field, rs.dim, ((g, a.nums, a.den) for g, a in zip(grads, alpha) if not a.is_zero())
        )
        w = c * -2
        pieces.append((divide_by_linear(d_alpha, alpha), w.nums, w.den))
    return linear_combination(field, rs.dim, pieces)


def restriction_defects(stratum: Stratum, mults: Multiplicities, degrees=(2, 4, 6)) -> list[int]:
    """Compares the restricted operator with the projected radial form.

    Both sides act on invariant root power sums f and g = f restricted: the
    restriction of the Dunkl Laplacian, which on invariant f is the
    Calogero-Moser operator L_c f = Delta f - sum_r 2 c_r (d_{alpha_r} f) /
    alpha_r(x) (Heckman, 1991; see invariant_laplacian, which computes it
    with one exact division per mirror and no Dunkl context), must equal
    the radial part minus the sum of 2 m_v d_v g / (v, x) over the
    configuration.  Its forms are pairwise non-proportional (distinct
    monic lines in the span of the basis, and v -> ((v, b))_b is injective),
    so the sum is a polynomial only if each form divides its numerator, as
    in `gauge_defects`.  A degree therefore fails when a division leaves a
    remainder or when the quotients do not close the identity.  A remainder
    needs a stratum that is no flat: at a point of a flat X on the mirror of
    alpha, grad f is fixed by s_alpha and by the reflections fixing X, so it
    lies in X and is orthogonal to alpha, hence to v.  The confined
    identity needs no check of its own: it adds omega K g - omega^2 |x|^2 g
    to both sides, with K of deformed_restriction_constant, since |x|^2
    restricted to the stratum is t^T G t.  Returns degrees that fail.
    """
    if not mults.is_numeric:
        raise ValueError("numeric multiplicities required")
    rs = stratum.rs
    field = rs.field
    basis = stratum.subspace.basis
    r = len(basis)
    if r == 0:
        return []
    config = restricted_configuration(stratum, mults)
    ginv = invert(gram(basis), field)
    radial = [(a, b, x) for a, row in enumerate(ginv) for b, x in enumerate(row) if not x.is_zero()]
    # (v, x) = sum_a (v, b_a) t_a, and d_v g = sum_a (G^-1 form)_a d_a g
    quotients = []
    for v, m in zip(config.vectors, config.scalar_mults()):
        if not m.is_zero():
            form = tuple(dot(v, b) for b in basis)
            quotients.append((form, mat_vec(ginv, form), m * -2))

    bad = []
    for k in degrees:
        f = invariant_power_sum(rs, k)
        _check_invariant(rs, f)
        lhs = invariant_laplacian(rs, mults, f).restrict_to(basis)
        g = f.restrict_to(basis)
        grads = [g.partial(a) for a in range(r)]
        pieces = [(grads[a].partial(b), x.nums, x.den) for a, b, x in radial]
        try:
            for form, direction, w in quotients:
                dv = linear_combination(
                    field, r, ((grads[a], x.nums, x.den) for a, x in enumerate(direction) if not x.is_zero())
                )
                pieces.append((divide_by_linear(dv, form), w.nums, w.den))
        except ZeroDivisionError:
            raise
        except ArithmeticError:
            bad.append(k)
            continue
        if lhs != linear_combination(field, r, pieces):
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
    rs = root_system(row["family"])
    gamma0 = tuple(i - 1 for i in row["gamma0"])
    st = parabolic_stratum(rs, gamma0)
    st.label = row["type"]
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
        "config": config,
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
