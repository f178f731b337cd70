"""Dunkl operators over a list of reflections with weights.

Each reflection r is given by its mirror form alpha_r, its coroot
alpha_r^v with s_r(x) = x - alpha_r(x) alpha_r^v, and its weight c_r.
The operator in direction xi acts on polynomials as

    T_xi f = d_xi f - sum_r c_r alpha_r(xi) (f - f o s_r) / alpha_r(x)

where every difference quotient is an exact polynomial division.  A root
system supplies one reflection per root line; G(m,p,N) supplies its pair
reflections and adds its cyclic diagonal term (see complexgroups).  The
deformed variant adds a harmonic confinement parameter, carried as one
extra inert variable so that all identities stay polynomial.

Multiplicities must be numeric here; symbolic parameters only enter the
linear invariance conditions, never an operator application.
"""

from __future__ import annotations

from itertools import combinations

from .linalg import dot, reflect, vec
from .polynomials import Polynomial, divide_by_linear, monomials
from .rootsystems import Multiplicities, RootSystem


class DunklContext:
    """Applies Dunkl operators, caching reflected monomials per reflection.

    For a root system the reflections are its root lines, in line order,
    so a reflection index is a line index.
    """

    def __init__(self, rs: RootSystem, mults: Multiplicities, extra_vars: int = 0):
        if not mults.is_numeric:
            raise ValueError("operator application needs numeric multiplicities")
        if mults.rs is not rs:
            raise ValueError("multiplicities belong to a different root system")
        self.rs = rs
        self.mults = mults
        reflections = []
        for line, alpha in enumerate(rs.lines):
            scale = rs.line_norms[line].inverse() * 2
            coroot = tuple(a * scale for a in alpha)
            reflections.append((alpha, coroot, mults.line_scalar(line)))
        self._set_reflections(rs.field, rs.dim, extra_vars, reflections)

    def _set_reflections(self, field, nx: int, extra_vars: int, reflections) -> None:
        self.field = field
        self.nx = nx
        self.nvars = nx + extra_vars
        pad = (field.zero(),) * extra_vars
        # (mirror form over every variable, coroot, weight) per reflection
        self.reflections = tuple(
            (tuple(alpha) + pad, tuple(coroot), c) for alpha, coroot, c in reflections
        )
        self._mono_cache: dict[int, dict] = {}
        self._pow_cache: dict[tuple[int, int], list[Polynomial]] = {}

    # -- polynomial helpers --------------------------------------------------

    def variable(self, v: int) -> Polynomial:
        return Polynomial.variable(self.field, self.nvars, v)

    def constant(self, c) -> Polynomial:
        return Polynomial.constant(self.field, self.nvars, self.field.element(c))

    def _var_image_power(self, r: int, v: int, k: int) -> Polynomial:
        """(x_v o s_r)^k, where x_v o s_r = x_v - coroot_v alpha(x)."""
        key = (r, v)
        powers = self._pow_cache.get(key)
        if powers is None:
            alpha, coroot, _ = self.reflections[r]
            row = [-(coroot[v] * a) for a in alpha]
            row[v] = row[v] + self.field.one()
            base = Polynomial.linear_form(self.field, tuple(row))
            powers = [Polynomial.constant(self.field, self.nvars, self.field.one()), base]
            self._pow_cache[key] = powers
        while len(powers) <= k:
            powers.append(powers[-1] * powers[1])
        return powers[k]

    def reflect_poly(self, r: int, f: Polynomial) -> Polynomial:
        """f composed with reflection r."""
        memo = self._mono_cache.setdefault(r, {})
        out = Polynomial.zero(self.field, self.nvars)
        for exps, coeff in f.terms.items():
            img = memo.get(exps)
            if img is None:
                inert = (0,) * self.nx + exps[self.nx:]
                img = Polynomial.monomial(self.field, inert, self.field.one())
                for v in range(self.nx):
                    if exps[v]:
                        img = img * self._var_image_power(r, v, exps[v])
                memo[exps] = img
            out = out + img * coeff
        return out

    # -- the operator ---------------------------------------------------------

    def apply(self, direction, f: Polynomial) -> Polynomial:
        """Dunkl operator along a coordinate index or an explicit vector."""
        axis = isinstance(direction, int)
        if axis:
            out = f.partial(direction)
        else:
            xi = tuple(direction)
            out = f.directional_derivative(xi)
        for r, (alpha, _, c) in enumerate(self.reflections):
            if c.is_zero():
                continue
            proj = alpha[direction] if axis else dot(alpha, xi)
            if proj.is_zero():
                continue
            diff = f - self.reflect_poly(r, f)
            if diff.is_zero():
                continue
            out = out - divide_by_linear(diff, alpha) * (c * proj)
        return out

    def laplacian(self, f: Polynomial) -> Polynomial:
        out = Polynomial.zero(self.field, self.nvars)
        for v in range(self.nx):
            out = out + self.apply(v, self.apply(v, f))
        return out

    def commutator(self, i: int, j: int, f: Polynomial) -> Polynomial:
        return self.apply(i, self.apply(j, f)) - self.apply(j, self.apply(i, f))

    def commutativity_violations(self, max_degree: int, pairs=None) -> list:
        """Monomial witnesses with a nonzero commutator, empty when commuting."""
        if pairs is None:
            pairs = list(combinations(range(self.nx), 2))
        bad = []
        for exps in monomials(self.nx, max_degree):
            exps_full = exps + (0,) * (self.nvars - self.nx)
            f = Polynomial.monomial(self.field, exps_full, self.field.one())
            for i, j in pairs:
                if not self.commutator(i, j, f).is_zero():
                    bad.append((exps, i, j))
        return bad

    def equivariance_violations(self, max_degree: int, lines=None) -> list:
        """Checks s_w T_xi s_w = T_{s_w xi} on a monomial basis."""
        if lines is None:
            lines = range(len(self.rs.lines))
        bad = []
        for w in lines:
            alpha = self.rs.lines[w]
            nn = self.rs.line_norms[w]
            for v in range(self.nx):
                ev = [self.field.zero()] * self.nx
                ev[v] = self.field.one()
                img = reflect(tuple(ev), alpha, nn)
                for exps in monomials(self.nx, max_degree):
                    exps_full = exps + (0,) * (self.nvars - self.nx)
                    f = Polynomial.monomial(self.field, exps_full, self.field.one())
                    lhs = self.reflect_poly(w, self.apply(v, self.reflect_poly(w, f)))
                    rhs = self.apply(img, f)
                    if lhs != rhs:
                        bad.append((w, v, exps))
        return bad


class DeformedContext(DunklContext):
    """Dunkl operators with harmonic confinement.

    The confinement strength is the last polynomial variable; reflections
    and derivatives leave it alone, so operator identities linear in it are
    verified exactly for all values at once.
    """

    def __init__(self, rs: RootSystem, mults: Multiplicities):
        super().__init__(rs, mults, extra_vars=1)
        self.omega_index = self.nx
        self.omega = Polynomial.variable(self.field, self.nvars, self.omega_index)

    def raising(self, v: int, f: Polynomial) -> Polynomial:
        return self.apply(v, f) + self.omega * self.variable(v) * f

    def lowering(self, v: int, f: Polynomial) -> Polynomial:
        return self.apply(v, f) - self.omega * self.variable(v) * f

    def oscillator(self, v: int, f: Polynomial) -> Polynomial:
        """The factored one-coordinate Hamiltonian piece."""
        return self.raising(v, self.lowering(v, f))

    def oscillator_power(self, v: int, k: int, f: Polynomial) -> Polynomial:
        for _ in range(k):
            f = self.oscillator(v, f)
        return f

    def total_power(self, k: int, f: Polynomial) -> Polynomial:
        """sum_v (oscillator_v)^k applied to f."""
        out = Polynomial.zero(self.field, self.nvars)
        for v in range(self.nx):
            out = out + self.oscillator_power(v, k, f)
        return out

    def total_commutator(self, k: int, l: int, f: Polynomial) -> Polynomial:
        a = self.total_power(l, f)
        b = self.total_power(k, f)
        return self.total_power(k, a) - self.total_power(l, b)

    def integrability_violations(self, k: int, l: int, max_degree: int) -> list:
        bad = []
        for exps in monomials(self.nx, max_degree):
            exps_full = exps + (0,) * (self.nvars - self.nx)
            f = Polynomial.monomial(self.field, exps_full, self.field.one())
            if not self.total_commutator(k, l, f).is_zero():
                bad.append(exps)
        return bad

    def pair_commutator_defect(self, i: int, j: int, f: Polynomial) -> Polynomial:
        """[(h_i, h_j)] minus its closed form, for the classical families.

        Families A and D use the transposition part only; family B adds the
        sign-flipped pair reflection with the same long-root coefficient.
        """
        fam = self.rs.family
        if fam not in ("A", "B", "D"):
            raise ValueError("closed-form pair commutators cover families A, B, D")
        lhs = self.oscillator(i, self.oscillator(j, f)) - self.oscillator(j, self.oscillator(i, f))
        field = self.field
        minus = [0] * self.nx
        minus[i], minus[j] = 1, -1
        swap_line = self.rs.line_index(vec(field, minus))
        c_swap = self.reflections[swap_line][2]
        terms = []
        g = self.reflect_poly(swap_line, f)
        terms.append(self.oscillator(i, g) - self.oscillator(j, g))
        if fam in ("B", "D"):
            plus = [0] * self.nx
            plus[i], plus[j] = 1, 1
            flip_line = self.rs.line_index(vec(field, plus))
            g2 = self.reflect_poly(flip_line, f)
            terms.append(self.oscillator(i, g2) - self.oscillator(j, g2))
        rhs = Polynomial.zero(field, self.nvars)
        for t in terms:
            rhs = rhs + t
        rhs = rhs * (self.omega * 2 * c_swap)
        return lhs - rhs
