"""Class functions, character tables, and the induction/inflation calculus.

Values are exact cyclotomics (`Cyclo`); inner products are exact rationals.
The heavy lifting (table computation, orthogonality) lives in `dixon` and
works on integer coefficient tensors; this module wraps the results in
objects convenient for the verification layer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from .abelian import DualChar
from .cyclotomic import Cyclo
from .dixon import VerificationError, lift_table, verify_orthogonality
from .groups import MatrixGroup, ReductionHom


class ClassFunction:
    """A class function on an enumerated group, one Cyclo per class."""

    __slots__ = ("group", "values", "irreducible")

    def __init__(self, group: MatrixGroup, values, irreducible: bool = False):
        self.group = group
        self.values = tuple(values)
        self.irreducible = irreducible
        assert len(self.values) == group.conjugacy().n_classes

    def degree(self):
        return self.values[0]

    def __add__(self, other):
        assert self.group is other.group
        return ClassFunction(
            self.group, [a + b for a, b in zip(self.values, other.values)]
        )

    def __sub__(self, other):
        assert self.group is other.group
        return ClassFunction(
            self.group, [a - b for a, b in zip(self.values, other.values)]
        )

    def __neg__(self):
        return ClassFunction(self.group, [-a for a in self.values])

    def __mul__(self, other):
        """Pointwise product (tensor product of characters)."""
        assert self.group is other.group
        return ClassFunction(
            self.group, [a * b for a, b in zip(self.values, other.values)]
        )

    def __eq__(self, other):
        return (
            isinstance(other, ClassFunction)
            and self.group is other.group
            and self.values == other.values
        )

    def __hash__(self):
        return hash((id(self.group), self.values))

    def __repr__(self):
        return f"ClassFunction(deg={self.degree()}, irr={self.irreducible})"


def inner_product(f: ClassFunction, g: ClassFunction) -> Fraction:
    """<f, g> = (1/|G|) sum over G of f * conj(g), exact."""
    if f.group is not g.group:
        raise ValueError("inner product requires class functions on one group")
    cd = f.group.conjugacy()
    acc = Cyclo.zero(1)
    for k in range(cd.n_classes):
        term = f.values[k] * g.values[k].conj()
        acc = acc + term.scale(int(cd.sizes[k]))
    if not acc.is_rational():
        raise ValueError("inner product is not rational")
    return acc.rational_value() / f.group.order


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
        order = sorted(
            range(len(degs)),
            key=lambda t: (int(degs[t]), tuple(map(tuple, coeffs[t].tolist()))),
        )
        self.coeffs = coeffs[order]
        self.degrees = degs[order]

    @cached_property
    def chars(self) -> list[ClassFunction]:
        """The irreducibles as class functions, built from `coeffs` on first use."""
        return [
            ClassFunction(
                self.group, [Cyclo(self.exponent, c) for c in row.tolist()], irreducible=True
            )
            for row in self.coeffs
        ]

    @cached_property
    def _index(self) -> dict:
        return {ch.values: i for i, ch in enumerate(self.chars)}

    def __len__(self):
        return len(self.degrees)

    def verify(self):
        """Exact orthogonality and degree identities; raises
        VerificationError on failure."""
        verify_orthogonality(self.coeffs, self.conjugacy, self.group.order)
        if int((self.degrees.astype(object) ** 2).sum()) != self.group.order:
            raise VerificationError("sum of squared degrees is not |G|")
        if len(self.degrees) != self.conjugacy.n_classes:
            raise VerificationError("number of irreducibles is not the class number")
        for d in self.degrees:
            if self.group.order % int(d):
                raise VerificationError("degree does not divide |G|")

    def find(self, f: ClassFunction) -> int | None:
        """Index of an irreducible equal to f, or None."""
        return self._index.get(tuple(f.values))

    def degree_count(self, d: int) -> int:
        return int((self.degrees == d).sum())

    # -- dumps (stable, exact) ---------------------------------------------

    def to_tsv(self) -> str:
        cd = self.conjugacy
        lines = ["\t".join(["rep_index", "class_size"] + [f"chi{i}" for i in range(len(self))])]
        for k in range(cd.n_classes):
            rep_index = int(self.group.pos_of[int(cd.reps[k])])
            row = [str(rep_index), str(int(cd.sizes[k]))]
            row += [repr(ch.values[k]) for ch in self.chars]
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
                {
                    "degree": int(self.degrees[i]),
                    "values": [list(map(int, self.coeffs[i, k])) for k in range(cd.n_classes)],
                }
                for i in range(len(self))
            ],
        }


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
    assert chi.group is hom.target
    src_cd = hom.source.conjugacy()
    tgt_cd = hom.target.conjugacy()
    vals = []
    for k in range(src_cd.n_classes):
        img = hom(int(src_cd.reps[k]))
        vals.append(chi.values[int(tgt_cd.class_of[img])])
    return ClassFunction(hom.source, vals, irreducible=chi.irreducible)


def kernel_average(psi: ClassFunction, hom: ReductionHom) -> ClassFunction:
    """The class function on G_{r'} obtained by averaging psi over kernel
    cosets: psi^N(ybar) = (1/|N|) sum over n in N of psi(y n)."""
    assert psi.group is hom.source
    src = hom.source
    src_cd = src.conjugacy()
    tgt_cd = hom.target.conjugacy()
    N = hom.kernel_codes
    sp = src.space
    vals = []
    for k in range(tgt_cd.n_classes):
        tgt_rep = int(tgt_cd.reps[k])
        # some preimage of the representative
        pos = int(np.nonzero(hom.image_of == tgt_rep)[0][0])
        y = int(src.codes[pos])
        coset = sp.mul(np.int64(y), N)
        classes = src_cd.class_of[coset]
        acc = Cyclo.zero(1)
        counts = np.bincount(classes, minlength=src_cd.n_classes)
        for cidx in np.nonzero(counts)[0]:
            acc = acc + psi.values[int(cidx)].scale(int(counts[cidx]))
        vals.append(acc.scale(Fraction(1, len(N))))
    return ClassFunction(hom.target, vals)


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
    src, tgt = hom.source, hom.target
    src_cd, tgt_cd = src.conjugacy(), tgt.conjugacy()
    ns, nt = src_cd.n_classes, tgt_cd.n_classes
    N = hom.kernel_codes
    img_class = tgt_cd.class_of[hom.code_map[src_cd.reps]]
    AS = np.zeros((nt, ns), dtype=np.int64)
    AS[img_class, np.arange(ns)] = src_cd.sizes
    # one preimage y_j of each target representative, and its coset y_j N
    pos = np.array(
        [np.flatnonzero(hom.image_of == rep)[0] for rep in tgt_cd.reps], dtype=np.int64
    )
    Y = src.codes[pos]
    cosets = src.space.mul(np.repeat(Y, len(N)), np.tile(N, nt))
    rows = np.repeat(np.arange(nt), len(N))
    C = np.bincount(
        rows * ns + src_cd.class_of[cosets], minlength=nt * ns
    ).reshape(nt, ns)
    return AS - tgt_cd.sizes.astype(np.int64)[:, None] * C


# ---------------------------------------------------------------------------
# induction and restriction


def induce(group: MatrixGroup, sub_codes: np.ndarray, sub_values: dict) -> ClassFunction:
    """Induced class function from a subgroup given by element codes and a
    value dict code -> Cyclo.  Standard formula summed over the big group."""
    sp = group.space
    cd = group.conjugacy()
    in_sub = np.zeros(sp.N, dtype=bool)
    in_sub[sub_codes] = True
    all_codes = group.codes
    all_inv = sp.inv(all_codes)
    vals = []
    for k in range(cd.n_classes):
        z = np.int64(cd.reps[k])
        conjs = sp.mul(sp.mul(all_inv, z), all_codes)
        hits = conjs[in_sub[conjs]]
        acc = Cyclo.zero(1)
        if len(hits):
            uniq, cnt = np.unique(hits, return_counts=True)
            for u, c in zip(uniq, cnt):
                acc = acc + sub_values[int(u)].scale(int(c))
        vals.append(acc.scale(Fraction(1, len(sub_codes))))
    return ClassFunction(group, vals)


def restrict(chi: ClassFunction, sub_codes: np.ndarray) -> dict:
    """Restriction to a subgroup as a value dict code -> Cyclo."""
    cd = chi.group.conjugacy()
    return {int(c): chi.values[int(cd.class_of[c])] for c in sub_codes}


def trivial_character(group: MatrixGroup) -> ClassFunction:
    one = Cyclo.from_rational(1)
    return ClassFunction(group, [one] * group.conjugacy().n_classes, irreducible=True)


def steinberg(group: MatrixGroup) -> ClassFunction:
    """Ind_B^G(1) - 1 at level r = 1; verified irreducible of degree q."""
    if group.ring.r != 1:
        raise ValueError("the Steinberg construction here requires level 1")
    B = group.borel_codes()
    one = Cyclo.from_rational(1)
    ind = induce(group, B, {int(c): one for c in B})
    st = ind - trivial_character(group)
    ip = inner_product(st, st)
    if ip != 1:
        raise ArithmeticError(f"Steinberg candidate has norm {ip}, expected 1")
    st.irreducible = True
    assert st.degree() == group.ring.q
    return st


def linear_character_from_det(group: MatrixGroup, alpha: DualChar) -> ClassFunction:
    """The one-dimensional character g -> alpha(det g)."""
    cd = group.conjugacy()
    dets = group.space.det[cd.reps]
    L = alpha.group.exponent
    vals = [Cyclo.root_of_unity(L, alpha.root_exp(int(d))) for d in dets]
    return ClassFunction(group, vals, irreducible=True)


def tensor_linear(chi: ClassFunction, alpha: DualChar) -> ClassFunction:
    """chi tensored with alpha(det(-)); preserves degree and irreducibility."""
    lin = linear_character_from_det(chi.group, alpha)
    out = chi * lin
    out.irreducible = chi.irreducible
    return out
