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
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

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
from .cyclotomic import matmul, zeta_powers
from .groups import GROUP_BOUND, gl2_order, make_group, sl2_order
from .predictor import (
    CLAUSE_SL_EVEN,
    CLAUSE_SL_ODD,
    Prediction,
    dimension_set,
    predict_gl2,
    predict_sl2,
    sign_from_dim,
)
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
        return {
            "check_id": self.check_id,
            "paper_clause": self.paper_clause,
            "computed": self.computed,
            "predicted": self.predicted,
            "verdict": self.verdict,
            "runtime_s": round(self.runtime_s, 4),
        }


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


def _json_safe(v):
    if isinstance(v, Fraction):
        return str(v) if v.denominator != 1 else int(v)
    return v


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

    def predict(self, tc) -> Prediction:
        if self.flavor == "gl":
            return predict_gl2(tc, self.q, self.r)
        return predict_sl2(tc, self.q, self.r)

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
    if cd.group_order_formula() > GROUP_BOUND:
        return None, cd.group_order_formula(), "inapplicable"
    g = cd.group
    ok = g.order == cd.group_order_formula()
    okgen = g.generated_closure() == g.order
    return (
        {"order": g.order, "generated": okgen},
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
    g1 = hom.target
    st1 = steinberg(g1)
    v = inflate(trivial_character(g1), hom) - inflate(st1, hom)
    ip = inner_product(v, v)
    w = coxeter_element(2)
    weyl_count = len(twisted_fixed_subgroup(RootSystemData(2), w))
    tab = cd.table
    i_triv = tab.find(inflate(trivial_character(g1), hom))
    i_st = tab.find(inflate(st1, hom))
    degs = sorted(
        int(tab.degrees[i]) for i in (i_triv, i_st) if i is not None
    )
    computed = {
        "inner_product": _json_safe(ip),
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
    tcs = cd.classification
    n_checked = 0
    for tc in tcs:
        bf = conductor_brute_force(torus, tc.theta)
        expected = torus.r if tc.is_regular else tc.r0
        if bf != expected:
            return {"theta": list(tc.theta.a), "brute_force": bf}, {"r0": expected}, False
        if torus.r >= 2:
            pe = conductor_by_peeling(torus, tc.theta)
            if pe != expected:
                return {"theta": list(tc.theta.a), "peeling": pe}, {"r0": expected}, False
        if tc.r0 > 1 and not torus.level_torus(tc.r0).is_regular(tc.theta0):
            return (
                {"theta": list(tc.theta.a), "r0": tc.r0},
                {"theta0_regular": True},
                False,
                "conductor descent lands on a regular character",
            )
        n_checked += 1
    return (
        {"n_theta": n_checked},
        {"n_theta": len(tcs)},
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
    tcs = cd.classification
    dset = dimension_set(cd.q, cd.r)
    seen = set()
    for tc in tcs:
        pred = cd.predict(tc)
        if pred.total_dim not in dset:
            return (
                {"theta": list(tc.theta.a), "dim": pred.total_dim},
                {"allowed": sorted(dset)},
                False,
            )
        if abs(pred.total_dim) >= cd.q - 1:
            if sign_from_dim(pred.total_dim, cd.q) != pred.sign:
                return (
                    {"theta": list(tc.theta.a), "dim": pred.total_dim},
                    {"sign": pred.sign},
                    False,
                    "sign from dimension matches the case-derived sign",
                )
        seen.add(pred.total_dim)
    return (
        {"dims_hit": sorted(seen), "n_theta": len(tcs)},
        {"dims_allowed": sorted(dset)},
        seen == dset,
        "dimension set and closed sign formula over all theta",
    )


def _sl_restriction_classes(cd: CaseData):
    """Group classifications by the restriction to the norm-one torus, up to
    the Frobenius flip; predictions within a class must agree."""
    torus = cd.torus
    n1 = [int(c) for c in torus.norm_one]
    n1s = [int(torus.sigma(c)) for c in n1]
    groups: dict[tuple, list] = {}
    for tc in cd.classification:
        vals = tuple(tc.theta.root_exp(c) for c in n1)
        flip = tuple(tc.theta.root_exp(c) for c in n1s)
        key = min(vals, flip)
        groups.setdefault(key, []).append(tc)
    return groups


@check("degree-census", "degree census against predictions", _no_table)
def check_degree_census(cd: CaseData):
    """The table must contain at least as many irreducibles of each degree
    as the predicted constituents of pairwise-orthogonal virtual characters
    require."""
    tab = cd.table
    required: dict[int, int] = {}
    if cd.flavor == "gl":
        seen_orbits = set()
        for tc in cd.classification:
            key = min(tc.theta.a, cd.torus.char_sigma(tc.theta).a)
            if key in seen_orbits:
                continue
            seen_orbits.add(key)
            pred = cd.predict(tc)
            for d in pred.constituent_degrees():
                required[d] = required.get(d, 0) + 1
        n_units = len(seen_orbits)
    else:
        groups = _sl_restriction_classes(cd)
        for key, members in groups.items():
            preds = [cd.predict(tc) for tc in members]
            sigs = {(p.total_dim, p.constituents) for p in preds}
            if len(sigs) != 1:
                raise ValueError("restriction class with mixed predictions")
            for d in preds[0].constituent_degrees():
                required[d] = required.get(d, 0) + 1
        n_units = len(groups)
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
        {"margins": margins, "n_orthogonal_units": n_units},
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
    groups = _sl_restriction_classes(cd)
    split_clause = CLAUSE_SL_ODD if cd.q % 2 else CLAUSE_SL_EVEN
    n_split = 0
    half_dim = None
    for members in groups.values():
        pred = cd.predict(members[0])
        if pred.clause == split_clause:
            n_split += 1
            (d, m, _c) = pred.constituents[0]
            if m != 2:
                raise ValueError(f"split restriction of multiplicity {m}, expected 2")
            half_dim = d
    if n_split == 0:
        return {"n_split_classes": 0}, {"n_split_classes": 0}, True
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
    inapplicable = []
    mismatches = []
    tcs = cd.classification
    for tc in tcs:
        pred = cd.predict(tc)
        s = conjecture_sign(rk_T, rk_G, cd.q, cd.p, pred.total_dim, npos)
        if s is None:
            inapplicable.append(list(tc.theta.a))
        elif s != pred.sign:
            mismatches.append(list(tc.theta.a))
    return (
        {
            "n_theta": len(tcs),
            "mismatches": mismatches[:5],
            "non_integer_exponents": inapplicable[:5],
        },
        {"mismatches": [], "non_integer_exponents": []},
        not inapplicable and not mismatches,
    )


def _first_failed_pair(D: np.ndarray, low: CharacterTable, high: CharacterTable):
    """The first (i, j) in row-major order with chi_i^T D conj(psi_j) != 0,
    or None when D annihilates every pair of the two tables."""
    # the exponent of the quotient divides the group's: zeta_low^a = zeta^(a step)
    e = high.exponent
    step = e // low.exponent
    chi = low.coeffs @ zeta_powers(e)[step * np.arange(low.coeffs.shape[2])]
    W = np.einsum("iak,ab->ibk", chi, D)
    psi_bar = high.coeffs[:, high.conjugacy.inverse_class, :].transpose(1, 0, 2)
    failed = np.argwhere(matmul(W, psi_bar, e).any(axis=2))
    return [int(v) for v in failed[0]] if len(failed) else None


@check(
    "inflation-adjunction",
    "inflation vs invariants adjunction",
    lambda cd: cd.r < 2 or _no_table(cd),
)
def check_inflation_adjunction(cd: CaseData, r2: int = 1):
    """Exhaustive adjunction identity between inflation and kernel
    averaging, over all pairs of irreducibles at the two levels: it holds
    for every pair iff the integer matrix `adjunction_defect` vanishes."""
    hom = cd.group.reduction(r2)
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
        tcs = cd.classification
        preds = [cd.predict(tc) for tc in tcs]
        stats[mode] = sorted(
            (tc.is_regular, tc.r0, tc.stab_size, tc.general_position, pr.total_dim, pr.sign)
            for tc, pr in zip(tcs, preds)
        )
        split_counts[mode] = sum(1 for pr in preds if len(pr.constituent_degrees()) > 1)
    return (
        {
            "n_records": len(stats["mixed"]),
            "split_records_per_mode": split_counts,
        },
        {"identical_dimension_sign_data": True},
        stats["mixed"] == stats["equal"],
    )


@check("classical-sweep", "level-one sign formula across type A torus classes")
def check_classical_sweep(n_max=5, qs=(2, 3, 4, 5, 7, 8, 9)):
    cases = sweep_classical_signs(n_max, list(qs))
    bad = [c.to_dict() for c in cases if c.sign != c.classical_sign or c.sign is None]
    return {"n_cases": len(cases), "failures": bad[:5]}, {"failures": []}, not bad


def run_suite(manifest=None, cache_dir=None) -> dict:
    """Run every case plus the suite-level checks; returns a JSON-ready dict.

    Mode independence compares the suite's own cases of each (p, k, r,
    flavor) in the two modes, building only a mode the manifest lacks; a
    case is held only until its partner has run."""
    manifest = manifest if manifest is not None else DEFAULT_MANIFEST
    modes: dict[tuple, set] = {}
    for (p, k, r, flavor, mode) in manifest:
        modes.setdefault((p, k, r, flavor), set()).add(mode)
    reports, pending, independence = [], {}, {}
    for (p, k, r, flavor, mode) in manifest:
        cd = CaseData(p, k, r, mode, flavor, cache_dir=cache_dir)
        reports.append(_run_checks(cd))
        key = (p, k, r, flavor)
        if key in independence:
            continue
        pair = pending.setdefault(
            key, {m: CaseData(p, k, r, m, flavor) for m in ("mixed", "equal") if m not in modes[key]}
        )
        pair.setdefault(mode, cd)
        if "mixed" in pair and "equal" in pair:
            del pending[key]
            c = independence[key] = check_mode_independence(pair["mixed"], pair["equal"])
            c.check_id = f"mode-independence-{p}-{k}-{r}-{flavor}"
    suite_checks = [check_classical_sweep()] + [independence[key] for key in modes]
    all_pass = all(r.all_pass() for r in reports) and all(
        c.verdict not in ("fail", "error") for c in suite_checks
    )
    return {
        "all_pass": all_pass,
        "cases": [r.to_dict() for r in reports],
        "suite_checks": [c.to_dict() for c in suite_checks],
    }
