"""Dunkl operators over a list of reflections with weights.

Each reflection r is given by its mirror form alpha_r, its coroot
alpha_r^v with s_r(x) = x - alpha_r(x) alpha_r^v, and its weight c_r.
The operator in direction xi acts on polynomials as

    T_xi f = d_xi f - sum_r c_r alpha_r(xi) D_r f,   D_r f = (f - f o s_r) / alpha_r(x)

where D_r f is a polynomial, since f - f o s_r vanishes on the mirror.  A
root system supplies one reflection per root line; G(m,p,N) supplies its
pair reflections and adds its cyclic diagonal term (see complexgroups).  The
deformed variant confines harmonically, a_v = T_v +- omega x_v, at omega = 1:
with x_v of weight 1 and omega of weight -2 its identities are homogeneous,
so on a homogeneous f the power j of each term omega^j x^a is fixed by |a|,
and an identity holds at omega = 1 exactly when it holds for every omega.

The core is graded: T_xi is linear and lowers the degree by one, so it is
fixed by its images of monomials, and no division is left in it.  Writing
x^a = x_v m with v the first coordinate of positive exponent, the twisted
Leibniz rule

    D_r(x_v m) = (x_v o s_r) D_r m + alpha_r^v[v] m,   x_v o s_r = x_v - alpha_r^v[v] alpha_r(x)

gives each monomial quotient from a smaller one by one product with a
linear form; a constant has quotient 0.  apply(v, f) sums d_v f and the terms
-f_a c_r alpha_r(e_v) D_r x^a, and reflect_poly(r, f) is f - alpha_r D_r f
from the same quotients.  The coroots come from the root system, which
computes them once (RootSystem.coroots).  A context keeps three memos of
polynomials, each its own and never shared with another context (another
weight sample gives other images): x_v o s_r per reflection and
coordinate, summed on the numerators; D_r x^a per reflection and exponent
tuple; T_v x^a per coordinate direction and exponent tuple, filled through
apply, from which extend(v, g) sums g_a T_v x^a.  Every such sum runs in
one accumulator (_combine, through polynomials.add_scaled) on the integer
numerators: the scale f_a c_r alpha_r(e_v) or g_a is a numerator tuple
over a denominator, the memoized polynomials' numerators are multiplied
by it, and the total stays over one running common denominator and is
reduced once.  A quotient's product and
its monomial term share one accumulator too (polynomials.add_product), so
no term builds a FieldElement.

A vector direction is the sum of the coordinate operators it combines.  The
checks over a monomial basis (commutativity, confined integrability) run
on extend.  Cached images are shared objects that callers must not change.

A permutation sigma of the coordinates that maps every (mirror, coroot,
weight) of the reflections to one of them with the same weight satisfies
sigma T_v sigma^-1 = T_sigma(v) (Dunkl, Trans. AMS 311, 1989): renaming
each x_u as x_sigma(u) takes T_v x^a to T_sigma(v) of the renamed monomial,
coefficient for coefficient.  The diagonal term of G(m,p,N) and the
confinement x_v commute with every such renaming too.  On first use, not at
construction, a context splits its coordinates into blocks
(coordinate_blocks): i and i+1 share a block when the transposition (i i+1)
maps the weighted reflections onto themselves, so every permutation within
the blocks does.  The blocks are read off the context's own reflections, so
weights that are not constant on conjugacy classes only give smaller
blocks, never a wrong image.  For A, B, D, F4, G2, E8 and every G(m,p,N)
one block holds all the coordinates; H3, H4 and I2(5) have none with two.
The canonical form of an exponent tuple with some marked coordinates (the
direction v, or the pair i, j) moves the marked coordinates to the front
of their block and sorts the rest of each block by descending exponent
(_canonical).  The image memo runs apply only at a canonical (v, a); any
other (v, a) relabels the exponent tuples of its canonical image and keeps
its coefficients.  commutativity_violations keeps one verdict per
canonical ({i, j}, a) and integrability_violations one per canonical a,
since H_k is invariant under the same permutations; both still walk every
(a, i, j) or a, so their lists are whole and in order.

conormal_images serves the direct ideal test.  Let X be a member of an
orbit, p a generic point of X and f in the ideal of the orbit.  Then f(p)
and f(s_r p) vanish, since s_r p lies on a member too, so D_r f(p) vanishes
unless X lies in the mirror of r, where s_r fixes p and D_r f(p) is
d_{alpha_r^v} f(p).  With lambda = df(p), a form that annihilates X,

    T_v f(p) = lambda[v] - sum_{r: X in mirror r} c_r alpha_r[v] lambda(alpha_r^v).

Multiplicities must be numeric here; symbolic parameters only enter the
linear invariance conditions, never an operator application.
"""

from __future__ import annotations

from itertools import combinations

from .linalg import vec
from .polynomials import Polynomial, add_product, add_scaled, linear_combination, monomials
from .rootsystems import Multiplicities, RootSystem


class DunklContext:
    """Applies Dunkl operators from memoized monomial quotients and images.

    For a root system the reflections are its root lines, in line order,
    so a reflection index is a line index.
    """

    def __init__(self, rs: RootSystem, mults: Multiplicities):
        if not mults.is_numeric:
            raise ValueError("operator application needs numeric multiplicities")
        if mults.rs is not rs:
            raise ValueError("multiplicities belong to a different root system")
        self.rs = rs
        self.mults = mults
        reflections = [
            (alpha, coroot, mults.line_scalar(line)) for line, (alpha, coroot) in enumerate(zip(rs.lines, rs.coroots))
        ]
        self._set_reflections(rs.field, rs.dim, reflections)

    def _set_reflections(self, field, nvars: int, reflections) -> None:
        self.field = field
        self.nvars = nvars
        # (mirror form, coroot, weight) per reflection
        self.reflections = tuple((tuple(alpha), tuple(coroot), c) for alpha, coroot, c in reflections)
        # per direction v: (r, c_r alpha_r(e_v)) for every reflection it sees
        self._scales = tuple(
            tuple(
                (r, scale)
                for r, (alpha, _, c) in enumerate(self.reflections)
                if not (scale := c * alpha[v]).is_zero()
            )
            for v in range(nvars)
        )
        self._var_images: dict[tuple[int, int], Polynomial] = {}
        self._quotients: dict[tuple[int, tuple[int, ...]], Polynomial] = {}
        self._images: dict[tuple[int, tuple[int, ...]], Polynomial] = {}
        self._blocks = None

    # -- the coordinate symmetry ------------------------------------------------

    @property
    def coordinate_blocks(self) -> tuple[range, ...]:
        """Runs of coordinates within which every permutation maps the weighted reflections onto
        themselves, built on first use: i and i+1 share a run when the transposition (i i+1) does."""
        if self._blocks is None:
            zero, one = self.field.zero(), self.field.one()

            def normal(alpha, coroot):
                # a reflection fixes its mirror form up to a scale t and its coroot up to 1/t
                t = next(a for a in alpha if not a.is_zero())
                if t == one:
                    return alpha, coroot
                s = t.inverse()
                return tuple([a * s for a in alpha]), tuple([x * t for x in coroot])

            # the total weight on each reflection; a transposition is its own inverse, so it
            # preserves the weights when it keeps the weight of every reflection that has one
            weights = {}
            for alpha, coroot, c in self.reflections:
                key = normal(alpha, coroot)
                weights[key] = weights.get(key, zero) + c
            starts = [0]
            for i in range(1, self.nvars):
                def swap(vec):
                    return vec[:i - 1] + (vec[i], vec[i - 1]) + vec[i + 1:]
                if not all(weights.get(normal(swap(alpha), swap(coroot)), zero) == c
                           for (alpha, coroot), c in weights.items()):
                    starts.append(i)
            self._blocks = tuple(map(range, starts, starts[1:] + [self.nvars]))
        return self._blocks

    def _canonical(self, marked, exps: tuple[int, ...]) -> tuple[list[int], tuple[int, ...]]:
        """(perm, exps o perm) for the permutation perm of the coordinates, within
        each block, that puts its marked coordinates first and then sorts the
        block by descending exponent: entry k of the canonical tuple is
        exps[perm[k]]."""
        perm = []
        for block in self.coordinate_blocks:
            if len(block) == 1:
                perm.append(block.start)
            else:
                perm.extend(sorted(block, key=lambda u: (u not in marked, -exps[u])))
        return perm, tuple([exps[u] for u in perm])

    # -- polynomial helpers --------------------------------------------------

    def constant(self, c) -> Polynomial:
        return Polynomial.constant(self.field, self.nvars, self.field.element(c))

    def monomial(self, exps: tuple[int, ...]) -> Polynomial:
        return Polynomial.monomial(self.field, exps, self.field.one())

    def _quotient(self, r: int, exps: tuple[int, ...]) -> Polynomial:
        """D_r x^exps, memoized, by the twisted Leibniz rule on its first coordinate."""
        q = self._quotients.get((r, exps))
        if q is None:
            v = next((v for v, e in enumerate(exps) if e), None)
            if v is None:
                q = Polynomial.zero(self.field, self.nvars)
            else:
                lower = exps[:v] + (exps[v] - 1,) + exps[v + 1:]
                # coroot_v m + (x_v o s_r) D_r m for m = x^lower, in one accumulator
                c = self.reflections[r][1][v]
                acc = {lower: c.nums}
                den = add_product(acc, c.den, self._var_image(r, v), self._quotient(r, lower))
                q = Polynomial._normal(self.field, self.nvars, acc, den)
            self._quotients[r, exps] = q
        return q

    def _var_image(self, r: int, v: int) -> Polynomial:
        """x_v o s_r = x_v - coroot_v alpha(x), memoized, summed on the numerators."""
        line = self._var_images.get((r, v))
        if line is None:
            alpha, coroot, _ = self.reflections[r]
            c = coroot[v]
            x = Polynomial.variable(self.field, self.nvars, v)
            acc = dict(x.nums)
            den = add_scaled(acc, x.den, Polynomial.linear_form(self.field, alpha), tuple([-a for a in c.nums]), c.den)
            line = self._var_images[r, v] = Polynomial._normal(self.field, self.nvars, acc, den)
        return line

    def reflect_poly(self, r: int, f: Polynomial) -> Polynomial:
        """f composed with reflection r, as f - alpha_r D_r f."""
        quotient = self._combine((self._quotient(r, exps), t, f.den) for exps, t in f.nums.items())
        return f - Polynomial.linear_form(self.field, self.reflections[r][0]) * quotient

    # -- the operator ---------------------------------------------------------

    def apply(self, direction, f: Polynomial) -> Polynomial:
        """Dunkl operator along a coordinate index or an explicit vector."""
        if not isinstance(direction, int):
            return self._combine(
                (self.apply(v, f), w.nums, w.den) for v, w in enumerate(direction) if not w.is_zero()
            )
        part = f.partial(direction)
        acc, den = dict(part.nums), part.den
        mul = self.field._mul_nums
        scales = self._scales[direction]
        for exps, t in f.nums.items():
            neg = tuple([-a for a in t])
            for r, scale in scales:
                den = add_scaled(acc, den, self._quotient(r, exps), mul(neg, scale.nums), f.den * scale.den)
        return Polynomial._normal(self.field, self.nvars, acc, den)

    def _image(self, v: int, exps: tuple[int, ...]) -> Polynomial:
        """T_v x^exps, memoized.  A miss goes through apply at the canonical
        (v, exps) of its orbit, elsewhere relabels that image (module docstring)."""
        img = self._images.get((v, exps))
        if img is None:
            perm, canon = self._canonical((v,), exps)
            first = perm.index(v)
            if first == v and canon == exps:
                img = self.apply(v, self.monomial(exps))
            else:
                img = self._image(first, canon).relabel(sorted(range(self.nvars), key=perm.__getitem__))
            self._images[v, exps] = img
        return img

    def extend(self, v: int, g: Polynomial) -> Polynomial:
        """T_v g = sum_a g_a T_v x^a, from the memoized monomial images."""
        return self._combine((self._image(v, exps), t, g.den) for exps, t in g.nums.items())

    def _combine(self, pieces) -> Polynomial:
        """sum of (nums / d) * p over (p, nums, d) triples, on one running denominator."""
        return linear_combination(self.field, self.nvars, pieces)

    # -- the direct ideal test ----------------------------------------------

    def conormal_images(self, form, lines) -> list:
        """[form[v] - sum_{r in lines} c_r alpha_r[v] form(alpha_r^v)] over the coordinates v.

        This is T_v f(p) at a generic point p of a flat X, for f in the ideal
        of X's orbit with df(p) = form, when lines holds the indices of the
        mirrors that contain X (module docstring).  Indices past the
        reflections are ignored.
        """
        dot = self.field.dot
        along = {r: dot(form, coroot) for r, (_, coroot, _) in enumerate(self.reflections) if r in lines}
        return [
            form[v] - dot([s for r, s in scales if r in along], [along[r] for r, _ in scales if r in along])
            for v, scales in enumerate(self._scales)
        ]

    def commutativity_violations(self, max_degree: int) -> list:
        """(monomial, i, j) for each nonzero commutator [T_i, T_j] on a monomial, empty when commuting.

        The verdict is computed once per orbit of ({i, j}, monomial) under the
        permutations within coordinate blocks (module docstring)."""
        pairs = list(combinations(range(self.nvars), 2))
        verdicts = {}
        bad = []
        for exps in monomials(self.nvars, max_degree):
            for i, j in pairs:
                perm, canon = self._canonical((i, j), exps)
                key = (*sorted((perm.index(i), perm.index(j))), canon)
                ok = verdicts.get(key)
                if ok is None:
                    ok = verdicts[key] = self.extend(i, self._image(j, exps)) == self.extend(j, self._image(i, exps))
                if not ok:
                    bad.append((exps, i, j))
        return bad


class DeformedContext(DunklContext):
    """Dunkl operators with harmonic confinement at omega = 1, which on a
    homogeneous f decides every omega (module docstring)."""

    def raising(self, v: int, f: Polynomial) -> Polynomial:
        return self._shifted_extend(v, f, 1)

    def lowering(self, v: int, f: Polynomial) -> Polynomial:
        return self._shifted_extend(v, f, -1)

    def _shifted_extend(self, v: int, f: Polynomial, sign: int) -> Polynomial:
        """T_v f + sign * x_v f, in one accumulator."""
        pieces = [(self._image(v, exps), t, f.den) for exps, t in f.nums.items()]
        x_v = tuple(int(u == v) for u in range(self.nvars))
        pieces.append((f.shift(x_v), (sign,) + self.field._zeros, 1))
        return self._combine(pieces)

    def oscillator(self, v: int, f: Polynomial) -> Polynomial:
        """The factored one-coordinate Hamiltonian piece."""
        return self.raising(v, self.lowering(v, f))

    def oscillator_power(self, v: int, k: int, f: Polynomial) -> Polynomial:
        for _ in range(k):
            f = self.oscillator(v, f)
        return f

    def total_power(self, k: int, f: Polynomial) -> Polynomial:
        """sum_v (oscillator_v)^k applied to f."""
        one = self.field.one().nums
        return self._combine((self.oscillator_power(v, k, f), one, 1) for v in range(self.nvars))

    def total_commutator(self, k: int, l: int, f: Polynomial) -> Polynomial:
        a = self.total_power(l, f)
        b = self.total_power(k, f)
        return self.total_power(k, a) - self.total_power(l, b)

    def integrability_violations(self, k: int, l: int, max_degree: int) -> list:
        """Monomials of degree <= max_degree on which [H_k, H_l] does not vanish.

        With k == l the commutator subtracts two identical polynomials, so
        the check is vacuous: it returns [] at every weight, applying no
        operator.
        """
        if k == l:
            return []
        # H_k is invariant under the permutations within coordinate blocks, so the verdict is one per orbit
        verdicts = {}
        bad = []
        for exps in monomials(self.nvars, max_degree):
            _, canon = self._canonical((), exps)
            ok = verdicts.get(canon)
            if ok is None:
                ok = verdicts[canon] = self.total_commutator(k, l, self.monomial(exps)).is_zero()
            if not ok:
                bad.append(exps)
        return bad

    def pair_commutator_defect(self, i: int, j: int, f: Polynomial) -> Polynomial:
        """[h_i, h_j] f minus its closed form, for the classical families.

        Family A uses the transposition part only; families B and D add the
        sign-flipped pair reflection with the same coefficient.  Both sides
        have weight -4: on a homogeneous f the defect at omega = 1 vanishes
        exactly when it vanishes for every omega.
        """
        fam = self.rs.family
        if fam not in ("A", "B", "D"):
            raise ValueError("closed-form pair commutators cover families A, B, D")
        field = self.field
        swap = [int(u == i) - int(u == j) for u in range(self.nvars)]
        pair_lines = [self.rs.line_index(vec(field, swap))]
        if fam in ("B", "D"):
            pair_lines.append(self.rs.line_index(vec(field, [abs(a) for a in swap])))
        # lhs - rhs in one sum, with rhs = 2 c_swap (h_i g - h_j g) over the images g of f
        w = self.reflections[pair_lines[0]][2] * 2
        one = field.one()
        pieces = [
            (self.oscillator(i, self.oscillator(j, f)), one.nums, 1),
            (self.oscillator(j, self.oscillator(i, f)), (-one).nums, 1),
        ]
        for line in pair_lines:
            g = self.reflect_poly(line, f)
            pieces.append((self.oscillator(i, g), (-w).nums, w.den))
            pieces.append((self.oscillator(j, g), w.nums, w.den))
        return self._combine(pieces)
