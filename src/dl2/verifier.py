"""The verification harness: every arithmetically checkable claim about the
dimension, sign, decomposition, and stability of the virtual characters
attached to Coxeter-torus characters is confronted with exact computed data.

A case is (p, k, r, mode, flavor).  Each check produces a record with a
stable schema (check_id, paper_clause, computed, predicted, verdict,
runtime_s); verdicts are "pass", "fail", "inapplicable" (size bounds
exceeded, never silently skipped), or "error" (the check raised).  Reports
are deterministic up to the runtime fields.
"""

from __future__ import annotations

import functools
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import characters, groups, rings, torus as torus_module
from .abelian import unique
from .cache import cached_character_table
from .characters import (  # noqa: F401 -- adjunction_check: perfbench/spans.py traces it here
    CharacterTable,
    VerificationError,
    adjunction_check,
    adjunction_defect,
    character_table,
    inflate,
    inner_product,
    steinberg,
    trivial_character,
    TABLE_BOUND,
)
from .cyclotomic import matmul, substitute
from .groups import (
    GROUP_BOUND,
    generated_order,
    gl2_order,
    group_generators,
    make_group,
    matrix_space,
    member_mask,
    sl2_order,
)
from .predictor import (
    CLAUSE_SL_EVEN,
    CLAUSE_SL_ODD,
    Prediction,
    dimension_set,
    predict_gl2,
    predict_sl2,
    sign_from_dim,
)
from .rings import make_ring
from .torus import (
    classify_all,
    conductor_brute_force,
    conductor_by_peeling,
    make_torus,
    torus_order,
)
from .weyl import (
    RootSystemData,
    conjecture_sign,
    coxeter_element,
    fq_ranks,
    sweep_classical_signs,
    twisted_fixed_subgroup,
)


CLASSIFY_BOUND = 50_000
BRUTE_FORCE_BOUND = 2_000_000


@dataclass
class Check:
    check_id: str
    paper_clause: str
    computed: object
    predicted: object
    verdict: str  # pass / fail / inapplicable / error
    runtime_s: float = 0.0

    def to_dict(self) -> dict:
        return {**asdict(self), "runtime_s": round(self.runtime_s, 4)}


@dataclass
class VerificationReport:
    case: dict
    checks: list = field(default_factory=list)

    def add(self, check: Check):
        if check.check_id in {c.check_id for c in self.checks}:
            raise ValueError(f"duplicate check id {check.check_id!r}")
        self.checks.append(check)

    def all_pass(self) -> bool:
        return all(c.verdict not in ("fail", "error") for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "all_pass": self.all_pass(),
            "checks": [c.to_dict() for c in self.checks],
        }


def check(check_id: str, clause: str, inapplicable=None):
    """Decorator turning a check body into a timed `Check`.

    The body returns (computed, predicted, ok), or (computed, predicted, ok,
    cited) when its verdict cites a paper clause other than `clause`; ok is
    a bool, or a verdict string.  When `inapplicable(cd)` holds (a size
    bound is exceeded) the body is not run and the verdict is
    "inapplicable".  An exception raised by the body becomes an "error"
    verdict, so that one crashing check does not abort the others.
    """

    def decorate(body):
        @functools.wraps(body)
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                if inapplicable is not None and inapplicable(args[0]):
                    computed, predicted, ok, *cited = None, None, "inapplicable"
                else:
                    computed, predicted, ok, *cited = body(*args, **kwargs)
                verdict = ok if isinstance(ok, str) else "pass" if ok else "fail"
            except Exception as exc:
                computed, predicted, cited = {"error": f"{type(exc).__name__}: {exc}"}, None, ()
                verdict = "error"
            return Check(
                check_id,
                cited[0] if cited else clause,
                computed,
                predicted,
                verdict,
                time.perf_counter() - t0,
            )

        return run

    return decorate


# ---------------------------------------------------------------------------
# per-case data assembly


class CaseData:
    """Everything one case needs, each part computed at most once."""

    def __init__(self, p, k, r, mode, flavor, cache_dir=None):
        self.p, self.k, self.r, self.mode, self.flavor = p, k, r, mode, flavor
        self.q = p**k
        self.cache_dir = cache_dir

    def key(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "r": self.r,
            "mode": self.mode,
            "flavor": self.flavor,
        }

    @functools.cached_property
    def group(self):
        return make_group(self.p, self.k, self.r, self.mode, self.flavor)

    @functools.cached_property
    def table(self) -> CharacterTable:
        return cached_character_table(
            self.p, self.k, self.r, self.mode, self.flavor, self.cache_dir
        )

    @functools.cached_property
    def torus(self):
        return make_torus(self.p, self.k, self.r, self.mode)

    @functools.cached_property
    def classification(self):
        return classify_all(self.torus)

    @functools.cached_property
    def predictions(self) -> tuple[tuple[Prediction, ...], np.ndarray]:
        """(values, which): theta i of the classification is predicted
        values[which[i]]."""
        return (predict_gl2 if self.flavor == "gl" else predict_sl2)(self.classification)

    @functools.cached_property
    def sl_restriction_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """Classes of thetas with one restriction to the norm-one torus, up
        to the Frobenius flip: (the class of each theta, the first theta of
        each class).  Predictions within a class must agree."""
        torus = self.torus
        T, N1 = torus.group, torus.norm_one_group
        res = [
            N1.dual_index(N1.chars_from_values(self.classification.theta @ T.value_rows(g).T, T.exponent))
            for g in (N1.gens, torus.sigma(N1.gens))
        ]
        _, first, label = np.unique(np.minimum(*res), return_index=True, return_inverse=True)
        return label, first

    def torus_size(self) -> int:
        return torus_order(self.q, self.r)

    def group_order_formula(self) -> int:
        return gl2_order(self.q, self.r) if self.flavor == "gl" else sl2_order(self.q, self.r)


def _no_table(cd: CaseData) -> bool:
    return cd.group_order_formula() > TABLE_BOUND


def _too_many_thetas(cd: CaseData) -> bool:
    return cd.torus_size() > CLASSIFY_BOUND


# ---------------------------------------------------------------------------
# individual checks


@check("group-order", "group order closed formula")
def check_group_order(cd: CaseData):
    """The order counts `member_mask`, the set `MatrixGroup` enumerates;
    generation is certified by `generated_order`.  No group is built."""
    if cd.group_order_formula() > GROUP_BOUND:
        return None, cd.group_order_formula(), "inapplicable"
    ring = make_ring(cd.p, cd.k, cd.r, cd.mode)
    sp = matrix_space(ring)
    order = int(np.count_nonzero(member_mask(sp, cd.flavor)))
    ok = order == cd.group_order_formula()
    okgen = generated_order(sp, group_generators(ring, cd.flavor)) == order
    return (
        {"order": order, "generated": okgen},
        {"order": cd.group_order_formula(), "generated": True},
        ok and okgen,
        "group order closed formula; generation by elementaries and units",
    )


@check(
    "table-validity",
    "orthogonality and degree identities of the character table",
    _no_table,
)
def check_table_validity(cd: CaseData):
    tab = cd.table
    try:
        tab.verify()
        ok = True
    except VerificationError:
        ok = False
    return (
        {
            "n_irreducibles": len(tab),
            "n_classes": tab.conjugacy.n_classes,
            "sum_degree_squares": int((tab.degrees.astype(object) ** 2).sum()),
        },
        {
            "n_irreducibles": tab.conjugacy.n_classes,
            "n_classes": tab.conjugacy.n_classes,
            "sum_degree_squares": cd.group.order,
        },
        ok,
    )


@check("stability", "stability of the unipotent virtual character", _no_table)
def check_stability(cd: CaseData):
    """The virtual character 1 - St inflated from level 1 must have norm 2,
    matching the twisted Weyl fixed-point count, with both constituents
    irreducible of degrees 1 and q in the level-r table."""
    hom = cd.group.reduction(1)
    triv, st = (inflate(f(hom.target), hom) for f in (trivial_character, steinberg))
    ip = inner_product(triv - st, triv - st)
    w = coxeter_element(2)
    weyl_count = len(twisted_fixed_subgroup(RootSystemData(2), w))
    tab = cd.table
    degs = sorted(int(tab.degrees[i]) for i in (tab.find(triv), tab.find(st)) if i is not None)
    computed = {
        "inner_product": str(ip) if ip.denominator != 1 else int(ip),
        "constituent_degrees": degs,
        "weyl_fixed_count": weyl_count,
    }
    predicted = {
        "inner_product": 2,
        "constituent_degrees": [1, cd.q],
        "weyl_fixed_count": 2,
    }
    ok = ip == 2 and degs == [1, cd.q] and weyl_count == 2
    return (
        computed,
        predicted,
        ok,
        "inflated level-one unipotent character equals the level-r one",
    )


def _coherence_out_of_bounds(cd: CaseData) -> bool:
    n_twists = cd.q ** (cd.r - 1) * (cd.q - 1)  # |Irr(O_r^x)|
    return _too_many_thetas(cd) or cd.torus_size() * n_twists > BRUTE_FORCE_BOUND


@check(
    "classification-coherence",
    "conductor by twist minimum vs scalar peeling",
    _coherence_out_of_bounds,
)
def check_classification_coherence(cd: CaseData):
    """Brute-force conductor equals iterative peeling for every theta, and
    either r0 = 1 or theta0 is regular at level r0."""
    torus = cd.torus
    cl = cd.classification
    bf = conductor_brute_force(torus, cl.theta)
    pe = conductor_by_peeling(torus, cl.theta)
    regular0 = np.ones(len(cl), dtype=bool)
    for r0 in range(2, torus.r + 1):
        t0 = torus.level_torus(r0)
        regular0[cl.r0 == r0] = t0.dual_taus()[cl.theta0[cl.r0 == r0]] >= t0.q
    bad = np.flatnonzero((bf != cl.r0) | (pe != cl.r0) | ~regular0)
    if len(bad):
        i = bad[0]
        theta, r0 = cl.theta[i].tolist(), int(cl.r0[i])
        if bf[i] != r0:
            return {"theta": theta, "brute_force": int(bf[i])}, {"r0": r0}, False
        if pe[i] != r0:
            return {"theta": theta, "peeling": int(pe[i])}, {"r0": r0}, False
        return (
            {"theta": theta, "r0": r0},
            {"theta0_regular": True},
            False,
            "conductor descent lands on a regular character",
        )
    return (
        {"n_theta": len(cl)},
        {"n_theta": len(cl)},
        True,
        "conductor by twist minimum vs scalar peeling; descent regularity",
    )


@check(
    "dimension-law",
    "total dimensions lie in the geometric progression set",
    _too_many_thetas,
)
def check_dimension_law(cd: CaseData):
    """Every predicted total dimension lies in the geometric dimension set
    and the closed sign formula reproduces the case sign."""
    values, which = cd.predictions
    dset = dimension_set(cd.q, cd.r)
    used = unique(which).tolist()
    # per prediction: 1 when its dimension is outside the set, 2 when the
    # sign formula disagrees with its sign
    fault = np.zeros(len(values), dtype=np.int64)
    for k in used:
        d, sign = values[k].total_dim, values[k].sign
        fault[k] = 1 if d not in dset else 2 if sign_from_dim(d, cd.q) != sign else 0
    bad = np.flatnonzero(fault[which])
    if len(bad):
        i = bad[0]
        pred = values[which[i]]
        computed = {"theta": cd.classification.theta[i].tolist(), "dim": pred.total_dim}
        if fault[which[i]] == 1:
            return computed, {"allowed": sorted(dset)}, False
        return (
            computed,
            {"sign": pred.sign},
            False,
            "sign from dimension matches the case-derived sign",
        )
    seen = {values[k].total_dim for k in used}
    return (
        {"dims_hit": sorted(seen), "n_theta": len(which)},
        {"dims_allowed": sorted(dset)},
        seen == dset,
        "dimension set and closed sign formula over all theta",
    )


def _census_units(cd: CaseData):
    """The first theta of each unit the degree census counts once: a
    Frobenius orbit for GL2, a restriction class for SL2."""
    if cd.flavor == "gl":
        theta = cd.classification.theta
        flipped = cd.torus.group.dual_index(cd.torus.flip(theta))
        return np.unique(np.minimum(np.arange(len(theta)), flipped), return_index=True)[1]
    values, which = cd.predictions
    label, first = cd.sl_restriction_classes
    signatures: dict = {}
    sig = np.array([signatures.setdefault((v.total_dim, v.constituents), len(signatures)) for v in values])
    if (sig[which] != sig[which[first]][label]).any():
        raise ValueError("restriction class with mixed predictions")
    return first


@check("degree-census", "degree census against predictions", _no_table)
def check_degree_census(cd: CaseData):
    """The table must contain at least as many irreducibles of each degree
    as the predicted constituents of pairwise-orthogonal virtual characters
    require."""
    tab = cd.table
    values, which = cd.predictions
    first = _census_units(cd)
    required: dict[int, int] = {}
    for v, n in zip(values, np.bincount(which[first], minlength=len(values)).tolist()):
        for d in v.constituent_degrees() if n else ():
            required[d] = required.get(d, 0) + n
    margins = {}
    ok = True
    for d, need in sorted(required.items()):
        have = tab.degree_count(d)
        margins[str(d)] = {"required": need, "available": have}
        if have < need:
            ok = False
    basis = (
        "paper-guaranteed"
        if (cd.q >= 7 or cd.flavor == "gl")
        else "empirically-observed"
    )
    return (
        {"margins": margins, "n_orthogonal_units": len(first)},
        {"all_margins_nonnegative": True},
        ok,
        f"orthogonality-forced degree multiplicities ({basis})",
    )


@check(
    "sl-exceptions",
    "parity-dependent splitting of restrictions",
    lambda cd: cd.flavor != "sl" or _no_table(cd),
)
def check_sl_exceptions(cd: CaseData):
    """Split restrictions must be visible in the SL table: two halves per
    flip-stable (even q) or order-two (odd q) restriction class."""
    tab = cd.table
    values, which = cd.predictions
    _, first = cd.sl_restriction_classes
    split_clause = CLAUSE_SL_ODD if cd.q % 2 else CLAUSE_SL_EVEN
    reps = which[first]
    split = np.array([v.clause == split_clause for v in values])[reps]
    n_split = int(split.sum())
    if n_split == 0:
        return {"n_split_classes": 0}, {"n_split_classes": 0}, True
    for k in unique(reps[split]).tolist():
        (_d, m, _c) = values[k].constituents[0]
        if m != 2:
            raise ValueError(f"split restriction of multiplicity {m}, expected 2")
    # the half dimension of the split class met last in theta order
    half_dim = values[reps[split][np.argmax(first[split])]].constituents[0][0]
    have = tab.degree_count(half_dim)
    if half_dim == 1:
        have -= 1  # the trivial character never appears in a split
    need = 2 * n_split
    return (
        {"n_split_classes": n_split, "half_dim": half_dim, "available": have},
        {"required": need},
        have >= need,
    )


@check(
    "sign-formula",
    "rank-and-dimension sign formula vs case-derived signs",
    _too_many_thetas,
)
def check_sign_formula(cd: CaseData):
    """The rank/dimension sign formula must reproduce the predicted sign for
    every theta; non-integer exponents are findings, not skips."""
    w = coxeter_element(2)
    rk_T, rk_G = fq_ranks(cd.flavor, 2, w)
    npos = RootSystemData(2).num_positive_roots
    values, which = cd.predictions
    dims = {values[k].total_dim for k in unique(which).tolist()}
    signs = {d: conjecture_sign(rk_T, rk_G, cd.q, cd.p, d, npos) for d in dims}
    none = np.array([v.total_dim in signs and signs[v.total_dim] is None for v in values])
    wrong = np.array([signs.get(v.total_dim, v.sign) not in (None, v.sign) for v in values])
    theta = cd.classification.theta
    inapplicable = theta[none[which]][:5].tolist()
    mismatches = theta[wrong[which]][:5].tolist()
    return (
        {
            "n_theta": len(which),
            "mismatches": mismatches,
            "non_integer_exponents": inapplicable,
        },
        {"mismatches": [], "non_integer_exponents": []},
        not inapplicable and not mismatches,
    )


def _first_failed_pair(D: np.ndarray, low: CharacterTable, high: CharacterTable):
    """The first (i, j) in row-major order with chi_i^T D conj(psi_j) != 0,
    or None when D annihilates every pair of the two tables."""
    # the exponent of the quotient divides the group's, so its values promote
    e = high.exponent
    chi = substitute(low.coeffs, low.exponent, e, e // low.exponent)
    # an entry of W sums D.shape[0] products chi D in int64
    bound = D.shape[0] * int(np.abs(chi).max(initial=0)) * int(np.abs(D).max(initial=0))
    if bound >= 2**63:
        raise OverflowError(f"int64 overflow risk: chi^T D bound {bound} >= 2^63")
    W = np.einsum("iak,ab->ibk", chi, D)
    psi_bar = high.coeffs[:, high.conjugacy.inverse_class, :].transpose(1, 0, 2)
    failed = np.argwhere(matmul(W, psi_bar, e).any(axis=2))
    return [int(v) for v in failed[0]] if len(failed) else None


@check(
    "inflation-adjunction",
    "inflation vs invariants adjunction",
    lambda cd: cd.r < 2 or _no_table(cd),
)
def check_inflation_adjunction(cd: CaseData):
    """Exhaustive adjunction identity between inflation and kernel
    averaging, over all pairs of irreducibles at the two levels: it holds
    for every pair iff the integer matrix `adjunction_defect` vanishes."""
    hom = cd.group.reduction(1)
    low = character_table(hom.target)
    high = cd.table
    n_pairs = len(low) * len(high)
    D = adjunction_defect(hom)
    if D.any():
        return {"failed_pair": _first_failed_pair(D, low, high)}, {"all_pairs_equal": True}, False
    return {"n_pairs": n_pairs}, {"n_pairs": n_pairs}, True


# ---------------------------------------------------------------------------
# case and suite drivers


def run_case(
    p: int, k: int, r: int, flavor: str, mode: str, cache_dir=None
) -> VerificationReport:
    return _run_checks(CaseData(p, k, r, mode, flavor, cache_dir=cache_dir))


def _run_checks(cd: CaseData) -> VerificationReport:
    rep = VerificationReport(case=cd.key())
    rep.add(check_group_order(cd))
    rep.add(check_table_validity(cd))
    rep.add(check_stability(cd))
    rep.add(check_classification_coherence(cd))
    rep.add(check_dimension_law(cd))
    rep.add(check_degree_census(cd))
    rep.add(check_sl_exceptions(cd))
    rep.add(check_sign_formula(cd))
    rep.add(check_inflation_adjunction(cd))
    return rep


DEFAULT_MANIFEST = [
    (p, k, r, flavor, mode)
    for (p, k, r) in [(2, 1, 1), (3, 1, 1), (2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3)]
    for flavor in ("gl", "sl")
    for mode in ("mixed", "equal")
]


@check(
    "mode-independence",
    "dimensions and signs agree across ring modes",
    _too_many_thetas,  # both cases share (p, k, r), so the first one decides
)
def check_mode_independence(mixed: CaseData, equal: CaseData):
    """Dimension and sign data must agree between the cases of one
    (p, k, r, flavor) in the two ring modes.

    The finer decomposition flags genuinely depend on the ring when p = 2
    and r >= 3: the norm-one tori of the two modes are non-isomorphic
    abelian groups (different 2-torsion), the enumerated SL2 groups have
    different degree statistics, and each mode's own table confirms its own
    splittings.  Those statistics are therefore reported as data, not
    compared."""
    stats = {}
    split_counts = {}
    for mode, cd in (("mixed", mixed), ("equal", equal)):
        cl = cd.classification
        values, which = cd.predictions
        dim_sign = np.array([(v.total_dim, v.sign) for v in values])[which]
        rows = np.column_stack([cl.regular, cl.r0, cl.stab_size, cl.general_position, dim_sign])
        stats[mode] = rows[np.lexsort(rows.T[::-1])]
        split = np.array([len(v.constituent_degrees()) > 1 for v in values])
        split_counts[mode] = int(split[which].sum())
    return (
        {
            "n_records": len(stats["mixed"]),
            "split_records_per_mode": split_counts,
        },
        {"identical_dimension_sign_data": True},
        np.array_equal(stats["mixed"], stats["equal"]),
    )


@check("classical-sweep", "level-one sign formula across type A torus classes")
def check_classical_sweep():
    cases = sweep_classical_signs(5, [2, 3, 4, 5, 7, 8, 9])
    bad = [c.to_dict() for c in cases if c.sign != c.classical_sign or c.sign is None]
    return {"n_cases": len(cases), "failures": bad[:5]}, {"failures": []}, not bad


def release_chain_memos():
    """Clear every memo keyed by a ring, extension, group or torus object, each
    through its defining module (which tracing does not wrap), so that a
    finished chain's objects die by reference count; integer-keyed memos stay."""
    T = torus_module.CoxeterTorus
    for memo in (
        rings.make_ring, rings.make_ext, rings.RingSpec.reduction, rings.ExtSpec.reduction,
        groups.matrix_space, groups.make_group, groups.MatrixGroup.conjugacy, groups.MatrixGroup.reduction,
        characters.character_table, torus_module.make_torus, torus_module._extend_kernel_character,
        T.kernel_values, T._pairing_patterns, T._dual_taus, T._descent_rows,
    ):
        memo.cache_clear()


def _mode_part(cd: CaseData) -> CaseData:
    """What `check_mode_independence` reads of cd, computed now, in cd's
    chain: its predictions and its classification without the torus."""
    part = CaseData(cd.p, cd.k, cd.r, cd.mode, cd.flavor)
    try:
        if not _too_many_thetas(cd):
            part.predictions, part.classification = cd.predictions, replace(cd.classification, torus=None)
    except Exception:  # the check computes them again and records the error
        pass
    return part


def run_suite(manifest=None, cache_dir=None) -> dict:
    """Run every case plus the suite-level checks; returns a JSON-ready dict.

    Cases run one ring chain (p, k, mode) at a time, in order of first
    appearance, and report in manifest order.  All reuse lies within a chain
    (GL2 and SL2 share the code space; `stability` and `inflation-adjunction`
    read lower levels), so `release_chain_memos` after each chain bounds the
    suite's memory by its largest chain.  Mode independence compares the
    suite's cases of each (p, k, r, flavor) in the two modes, predicting a
    mode the manifest lacks in its own chain; a case awaiting its partner
    keeps only its `_mode_part`."""
    manifest = manifest if manifest is not None else DEFAULT_MANIFEST
    modes: dict[tuple, set] = {}
    chains: dict[tuple, list] = {}
    for i, (p, k, r, flavor, mode) in enumerate(manifest):
        modes.setdefault((p, k, r, flavor), set()).add(mode)
        chains.setdefault((p, k, mode), []).append((i, (p, k, r, flavor, mode)))
    for (p, k, r, flavor), have in modes.items():
        for mode in {"mixed", "equal"} - have:  # none or one
            chains.setdefault((p, k, mode), []).append((None, (p, k, r, flavor, mode)))
    reports, pending, independence = [None] * len(manifest), {}, {}
    for chain in chains.values():
        for i, (p, k, r, flavor, mode) in chain:
            cd = CaseData(p, k, r, mode, flavor, cache_dir=cache_dir)
            if i is not None:
                reports[i] = _run_checks(cd)
            key = (p, k, r, flavor)
            if key in independence or mode in pending.get(key, ()):
                continue
            pair = pending.setdefault(key, {})
            pair[mode] = _mode_part(cd)
            if len(pair) == 2:
                del pending[key]
                c = independence[key] = check_mode_independence(pair["mixed"], pair["equal"])
                c.check_id = f"mode-independence-{p}-{k}-{r}-{flavor}"
        release_chain_memos()
    suite_checks = [check_classical_sweep()] + [independence[key] for key in modes]
    all_pass = all(r.all_pass() for r in reports) and all(
        c.verdict not in ("fail", "error") for c in suite_checks
    )
    return {
        "all_pass": all_pass,
        "cases": [r.to_dict() for r in reports],
        "suite_checks": [c.to_dict() for c in suite_checks],
    }
