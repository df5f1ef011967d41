"""Class functions, character tables, and the induction/inflation calculus.

A class function is an int64 array of canonical Z[zeta_e] coefficients, one
row per conjugacy class (see `cyclotomic`); inner products are exact
rationals.  The heavy lifting (table computation, orthogonality) lives in
`dixon`; this module wraps its coefficient tensor in objects convenient for
the verification layer, and every operation on class functions is an index
operation, an integer matrix product or an exact division.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm

import numpy as np

from .cyclotomic import matmul, phi, substitute
from .dixon import VerificationError, lift_table, verify_orthogonality
from .groups import MatrixGroup, ReductionHom


def _promote(X: np.ndarray, e: int, E: int) -> np.ndarray:
    """Coefficient rows over Z[zeta_e] rewritten over Z[zeta_E], e | E."""
    return X if E == e else substitute(X, e, E, E // e)


class ClassFunction:
    """A class function on an enumerated group: `coeffs[k]` holds the
    canonical Z[zeta_e] coefficients of its value on class k."""

    __slots__ = ("group", "e", "coeffs")

    def __init__(self, group: MatrixGroup, e: int, coeffs):
        self.group = group
        self.e = e
        self.coeffs = np.asarray(coeffs, dtype=np.int64)
        if self.coeffs.shape != (group.conjugacy().n_classes, phi(e)):
            raise ValueError(f"class function coefficients of shape {self.coeffs.shape}")

    def _common(self, other: "ClassFunction"):
        """The lcm of both exponents, and both coefficient arrays promoted to it."""
        if self.group is not other.group:
            raise ValueError("class functions on different groups")
        E = lcm(self.e, other.e)
        return E, _promote(self.coeffs, self.e, E), _promote(other.coeffs, other.e, E)

    def degree(self) -> int:
        if self.coeffs[0, 1:].any():
            raise ValueError("value at the identity is not rational")
        return int(self.coeffs[0, 0])

    def __add__(self, other):
        E, a, b = self._common(other)
        return ClassFunction(self.group, E, a + b)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return ClassFunction(self.group, self.e, -self.coeffs)

    def __eq__(self, other):
        # canonical coefficients: equal values have equal rows over a common exponent
        same = isinstance(other, ClassFunction) and self.group is other.group
        return same and not (self - other).coeffs.any()

    def __repr__(self):
        return f"ClassFunction(deg={format_value(self.coeffs[0], self.e)}, e={self.e})"


def format_value(row, e: int) -> str:
    """A Z[zeta_e] coefficient row as text: the integer itself when rational,
    else the nonzero terms "c", "z{e}^i" and "c*z{e}^i" joined by " + "."""
    row = [int(c) for c in row]
    if not any(row[1:]):
        return str(row[0])
    terms = [str(c) if i == 0 else f"z{e}^{i}" if c == 1 else f"{c}*z{e}^{i}"
             for i, c in enumerate(row) if c]
    return " + ".join(terms)


def inner_product(f: ClassFunction, g: ClassFunction) -> Fraction:
    """<f, g> = (1/|G|) sum_k |C_k| f(g_k) conj g(g_k), exact: one
    `cyclotomic.matmul` of the values times the class sizes against the
    conjugate values, which must be rational."""
    E, a, b = f._common(g)
    sizes = f.group.conjugacy().sizes.astype(np.int64)
    P = matmul((a * sizes[:, None])[None], substitute(b, E, E, -1)[:, None], E)[0, 0]
    if P[1:].any():
        raise ValueError("inner product is not rational")
    return Fraction(int(P[0]), f.group.order)


class CharacterTable:
    """All irreducible characters of a group, canonically ordered."""

    def __init__(self, group: MatrixGroup, parts=None):
        if parts is None:
            coeffs, e, degs, cd = lift_table(group)
        else:
            coeffs, e, degs = parts
            cd = group.conjugacy()
        self.group = group
        self.exponent = e
        self.conjugacy = cd
        order = _canonical_order(coeffs, degs)
        if parts is None:
            # the lift's tensor is ours alone: reorder it in place rather
            # than hold a sorted copy beside it
            _permute_rows(coeffs, order)
            self.coeffs = coeffs
        else:
            self.coeffs = coeffs[order]
        self.degrees = degs[order]

    def __len__(self):
        return len(self.degrees)

    def verify(self):
        """Exact orthogonality, Galois compatibility with the power map and
        degree identities; raises VerificationError on failure."""
        verify_orthogonality(self.coeffs, self.conjugacy, self.group.order)
        if (self.coeffs[:, 0, 0] != self.degrees).any() or self.coeffs[:, 0, 1:].any():
            raise VerificationError("degrees are not the values at the identity")
        if int((self.degrees.astype(object) ** 2).sum()) != self.group.order:
            raise VerificationError("sum of squared degrees is not |G|")
        if len(self.degrees) != self.conjugacy.n_classes:
            raise VerificationError("number of irreducibles is not the class number")
        for d in self.degrees:
            if self.group.order % int(d):
                raise VerificationError("degree does not divide |G|")

    def find(self, f: ClassFunction) -> int | None:
        """Index of an irreducible equal to f, or None."""
        E = lcm(f.e, self.exponent)
        rows = _promote(self.coeffs, self.exponent, E)
        hits = np.flatnonzero((rows == _promote(f.coeffs, f.e, E)).all(axis=(1, 2)))
        return int(hits[0]) if len(hits) else None

    def degree_count(self, d: int) -> int:
        return int((self.degrees == d).sum())

    # -- dumps (stable, exact) ---------------------------------------------

    def to_tsv(self) -> str:
        cd = self.conjugacy
        lines = ["\t".join(["rep_index", "class_size"] + [f"chi{i}" for i in range(len(self))])]
        reps = self.group.pos_of[cd.reps]
        for rep, size, values in zip(reps, cd.sizes, self.coeffs.swapaxes(0, 1)):
            row = [str(rep), str(size)] + [format_value(v, self.exponent) for v in values]
            lines.append("\t".join(row))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        cd = self.conjugacy
        return {
            "format": "dl2-table/1",
            "order": self.group.order,
            "flavor": self.group.flavor,
            "exponent": self.exponent,
            "class_reps": [int(c) for c in cd.reps],
            "class_sizes": [int(s) for s in cd.sizes],
            "characters": [
                {"degree": int(d), "values": values.tolist()}
                for d, values in zip(self.degrees, self.coeffs)
            ],
        }


_KEY_BLOCK = 1 << 16  # most entries in one key block of `_canonical_order`


def _canonical_order(coeffs: np.ndarray, degs: np.ndarray) -> np.ndarray:
    """Rows by (degree, coefficients flattened in C order), stably: the
    order of Python's sort on (degree, nested tuples), as nested tuples of
    one shape compare as their flattenings.

    The keys are read in column blocks of doubling width, up to _KEY_BLOCK
    entries: each block refines the dense ranks of the prefix before it,
    and the walk stops once every rank is distinct, so no second copy of
    the tensor is made.  A column equal in all rows decides no comparison,
    so only the varying ones are keys.  Rows equal in every column keep
    their input order through the final stable sort."""
    n = len(degs)
    flat = coeffs.reshape(n, -1)
    rank = np.unique(degs, return_inverse=True)[1].astype(np.int64)
    lo, width = 0, 64
    while lo < flat.shape[1] and rank.max(initial=0) < n - 1:
        block = flat[:, lo : lo + width]
        keys = np.column_stack([rank, block[:, (block != block[:1]).any(axis=0)]])
        idx = np.lexsort(keys.T[::-1])
        keys = keys[idx]
        rank[idx] = np.concatenate([[0], np.cumsum((keys[1:] != keys[:-1]).any(axis=1))])
        lo, width = lo + width, min(2 * width, max(64, _KEY_BLOCK // n))
    return np.argsort(rank, kind="stable")


def _permute_rows(a: np.ndarray, order: np.ndarray) -> None:
    """a[:] = a[order] in place through one row buffer: each cycle of the
    permutation is walked once, and every row is written once."""
    done = np.zeros(len(order), dtype=bool)
    buf = np.empty_like(a[0])
    for start in range(len(order)):
        if done[start] or order[start] == start:
            continue
        buf[...] = a[start]
        i = start
        while order[i] != start:
            a[i] = a[order[i]]
            done[i] = True
            i = order[i]
        a[i] = buf
        done[i] = True


TABLE_BOUND = 50_000


@cache
def character_table(group: MatrixGroup) -> CharacterTable:
    """Table of a group, cached per group object; enforces the size bound."""
    if group.order > TABLE_BOUND:
        raise ValueError(f"|G| = {group.order} exceeds table bound {TABLE_BOUND}")
    return CharacterTable(group)


# ---------------------------------------------------------------------------
# inflation along reductions, and the averaging adjoint


def inflate(chi: ClassFunction, hom: ReductionHom) -> ClassFunction:
    """Pull back a class function on G_{r'} to G_r along the reduction."""
    if chi.group is not hom.target:
        raise ValueError("inflate: chi does not live on the reduction's target")
    img_class = hom.target.conjugacy().class_of[hom(hom.source.conjugacy().reps)]
    return ClassFunction(hom.source, chi.e, chi.coeffs[img_class])


def _exact_quotient(num: np.ndarray, den: int, what: str) -> np.ndarray:
    """num / den, exact.  The power basis is an integral basis of Z[zeta_e],
    so values of virtual characters have integer coefficients; a quotient
    that is not exact comes from other input and raises ValueError."""
    if (num % den).any():
        raise ValueError(f"{what} is not integral over Z[zeta_e]")
    return num // den


def _coset_counts(hom: ReductionHom) -> np.ndarray:
    """The coset-count matrix C of `adjunction_defect`; each row sums to |N|."""
    src_cd, tgt_cd = hom.source.conjugacy(), hom.target.conjugacy()
    ns, nt = src_cd.n_classes, tgt_cd.n_classes
    N = hom.kernel_codes
    images, first = np.unique(hom.image_of, return_index=True)  # first preimages
    Y = hom.source.codes[first[np.searchsorted(images, tgt_cd.reps)]]
    cosets = hom.source.space.mul(np.repeat(Y, len(N)), np.tile(N, nt))
    rows = np.repeat(np.arange(nt), len(N))
    return np.bincount(rows * ns + src_cd.class_of[cosets], minlength=nt * ns).reshape(nt, ns)


def kernel_average(psi: ClassFunction, hom: ReductionHom) -> ClassFunction:
    """The class function on G_{r'} obtained by averaging psi over kernel
    cosets: psi^N(ybar) = (1/|N|) sum over n in N of psi(y n), that is
    (1/|N|) C psi for the coset-count matrix C of `_coset_counts`.

    A row of C is nonnegative and sums to |N|, so an entry of C psi is at
    most |N| max|psi| in absolute value; it is computed only below 2^63."""
    if psi.group is not hom.source:
        raise ValueError("kernel_average: psi does not live on the reduction's source")
    n = len(hom.kernel_codes)
    bound = n * int(np.abs(psi.coeffs).max(initial=0))
    if bound >= 2**63:
        raise OverflowError(f"int64 overflow risk: kernel average bound {bound} >= 2^63")
    sums = _coset_counts(hom) @ psi.coeffs
    return ClassFunction(hom.target, psi.e, _exact_quotient(sums, n, "kernel average"))


def adjunction_check(chi: ClassFunction, psi: ClassFunction, hom: ReductionHom) -> bool:
    """Whether <inflate(chi), psi>_G equals <chi, kernel_average(psi)>_{G'}."""
    lhs = inner_product(inflate(chi, hom), psi)
    rhs = inner_product(chi, kernel_average(psi, hom))
    return lhs == rhs


def adjunction_defect(hom: ReductionHom) -> np.ndarray:
    """The integer matrix D = A S - S' C whose vanishing is the adjunction
    <Infl chi, psi>_G = <chi, Avg_N psi>_{G'} for all class functions.

    Rows index the classes of G' = hom.target, columns those of G =
    hom.source, N = hom.kernel_codes, and
      A[j, b] = 1 iff the reduction of rep_b lies in class j of G',
      C[j, b] = #{n in N : y_j n in class b of G}, y_j a preimage of rep_j,
      S, S' = diag of the class sizes of G and G'.

    Proof.  Summing over classes,
      <Infl chi, psi>_G = (1/|G|) sum_b |C_b| chi(pi(rep_b)) conj psi_b
                        = (1/|G|) chi^T A S conj(psi),
      <chi, Avg_N psi>_{G'} = (1/|G'|) sum_j |C'_j| chi_j
                                * conj((1/|N|) sum_b C[j, b] psi_b)
                        = (1/|G|) chi^T S' C conj(psi),
    using |G| = |G'| |N| and that C is an integer matrix.  So the difference
    of the two sides is (1/|G|) chi^T D conj(psi), bilinear in (chi,
    conj psi): it vanishes for all class functions iff D = 0, and, the
    irreducibles of each level being a basis of its class functions, iff it
    vanishes for all pairs of irreducibles.

    Each entry of A S and of S' C lies in [0, |G|] (|C'_j| C[j, b] <=
    |C'_j| |N| = |G|), and |G| <= GROUP_BOUND for every enumerated group
    (|G| <= TABLE_BOUND wherever tables exist), so int64 is exact.
    """
    src_cd, tgt_cd = hom.source.conjugacy(), hom.target.conjugacy()
    ns, nt = src_cd.n_classes, tgt_cd.n_classes
    img_class = tgt_cd.class_of[hom(src_cd.reps)]
    AS = np.zeros((nt, ns), dtype=np.int64)
    AS[img_class, np.arange(ns)] = src_cd.sizes
    C = _coset_counts(hom)
    return AS - tgt_cd.sizes.astype(np.int64)[:, None] * C


# ---------------------------------------------------------------------------
# induction and restriction


def induce(group: MatrixGroup, sub_codes: np.ndarray, sub_values, e: int) -> ClassFunction:
    """The class function induced from a subgroup H, given by its element
    codes and an (|H|, phi(e)) coefficient array aligned with them:
    Ind f(g_k) = |C_G(g_k)| / |H| * sum over h in H and in class k of f(h).

    Exactness.  The class sums are added in int64 (np.add.at), each at most
    |H| x in absolute value for x = max|f|, and then multiplied by a
    centralizer order at most |G|; both steps run only when |G| |H| x is
    below 2^63.  The division by |H| must be exact (`_exact_quotient`)."""
    cd = group.conjugacy()
    sub_values = np.asarray(sub_values, dtype=np.int64)
    if sub_values.shape != (len(sub_codes), phi(e)):
        raise ValueError(f"induce: values of shape {sub_values.shape} for |H| = {len(sub_codes)}")
    bound = group.order * len(sub_codes) * int(np.abs(sub_values).max(initial=0))
    if bound >= 2**63:
        raise OverflowError(f"int64 overflow risk: induction bound {bound} >= 2^63")
    sums = np.zeros((cd.n_classes, phi(e)), dtype=np.int64)
    np.add.at(sums, cd.class_of[sub_codes], sub_values)
    num = cd.centralizer_orders.astype(np.int64)[:, None] * sums
    return ClassFunction(group, e, _exact_quotient(num, len(sub_codes), "Ind f"))


def restrict(chi: ClassFunction, sub_codes: np.ndarray) -> np.ndarray:
    """Restriction to a subgroup: the coefficient rows of chi at the given
    element codes, in their order."""
    return chi.coeffs[chi.group.conjugacy().class_of[sub_codes]]


def trivial_character(group: MatrixGroup) -> ClassFunction:
    return ClassFunction(group, 1, np.ones((group.conjugacy().n_classes, 1), dtype=np.int64))


def steinberg(group: MatrixGroup) -> ClassFunction:
    """Ind_B^G(1) - 1 at level r = 1; verified irreducible of degree q."""
    if group.ring.r != 1:
        raise ValueError("the Steinberg construction here requires level 1")
    B = group.borel_codes()
    st = induce(group, B, np.ones((len(B), 1), dtype=np.int64), 1) - trivial_character(group)
    ip = inner_product(st, st)
    if ip != 1:
        raise ArithmeticError(f"Steinberg candidate has norm {ip}, expected 1")
    if st.degree() != group.ring.q:
        raise ArithmeticError(f"Steinberg candidate has degree {st.degree()}, expected q")
    return st


def tensor_linear(chi: ClassFunction, alpha) -> ClassFunction:
    """chi tensored with alpha(det(-)), alpha an exponent row of the ring's
    unit group U: each value times alpha(det g_k) = zeta_L^(alpha . w), w the
    value row of det g_k and L the exponent of U, over E = lcm(e, L)."""
    U = chi.group.ring.unit_group
    L, E = U.exponent, lcm(chi.e, U.exponent)
    dets = chi.group.space.det[chi.group.conjugacy().reps]
    shift = np.asarray(alpha, dtype=np.int64) @ U.value_rows(dets).T % L * (E // L)
    return ClassFunction(chi.group, E, substitute(chi.coeffs, chi.e, E, E // chi.e, shift))
