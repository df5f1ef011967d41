"""The per-theta classification, predictions and conductor peeling, kept as
the oracle of the array versions in `dl2.torus` and `dl2.predictor`.

`classify_all`, `predict_gl2`, `predict_sl2` and `conductor_by_peeling`
below are the former per-theta implementations: one `TorusCharClass` record
or one peeled level per theta, built in a Python loop of scalar descents,
flips and root exponents.  The scalar helpers they relied on (`char_sigma`,
the flip through the images of the basis, the looped `norm_pullback`,
`descend` and `char_level`, the pattern lookup of tau by row bytes, and the
search for a twist extending the additive character one unit at a time)
come with them, so the oracle shares no array pass with the code it
checks.  The tests compare both, field by field and theta by theta.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import pytest

from dl2.abelian import InvariantError
from dl2.predictor import (
    CLAUSE_DESCENT,
    CLAUSE_GP,
    CLAUSE_REGULAR,
    CLAUSE_SL_EVEN,
    CLAUSE_SL_ODD,
    CLAUSE_SPLIT,
    Prediction,
)
from dl2.predictor import predict_gl2 as array_predict_gl2
from dl2.predictor import predict_sl2 as array_predict_sl2
from dl2.torus import CoxeterTorus, make_torus
from dl2.torus import classify_all as array_classify_all
from dl2.torus import conductor_by_peeling as array_conductor_by_peeling
from oracles import DualChar, dual, norm_one

MANIFEST_PKR = [(2, 1, 1), (3, 1, 1), (2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3)]


# ---------------------------------------------------------------------------
# scalar helpers of the per-theta path


@functools.lru_cache(maxsize=None)
def value_rows_by_code(group) -> dict[int, list[int]]:
    """{code: value row} over the whole group, built once per group."""
    return dict(zip(group.codes.tolist(), group.value_rows(group.codes).tolist()))


def root_exp(chi: DualChar, x: int) -> int:
    """chi(x) = zeta_L^root_exp(chi, x), L the group exponent: the value of
    `DualChar.root_exp`, read from a per-group dict rather than looked up
    through `value_rows` on each call."""
    w = value_rows_by_code(chi.group)[int(x)]
    return sum(a * wi for a, wi in zip(chi.a, w)) % chi.group.exponent


def char_from_values_on_basis(group, root_exps, L: int) -> DualChar:
    """Character taking value zeta_L^root_exps[i] at basis generator i."""
    a = []
    for (g, n), re in zip(group.basis, root_exps):
        re %= L
        if (re * n) % L:
            raise InvariantError("value is not an n-th root of unity")
        a.append((re * n // L) % n)
    return DualChar(group, tuple(a))


def sigma_images_of_basis(torus: CoxeterTorus) -> list[int]:
    return [int(torus.sigma(g)) for g, _ in torus.group.basis]


def char_sigma(torus: CoxeterTorus, theta: DualChar) -> DualChar:
    """theta composed with the Frobenius flip."""
    L = theta.group.exponent
    exps = [root_exp(theta, img) for img in sigma_images_of_basis(torus)]
    return char_from_values_on_basis(theta.group, exps, L)


def norm_pullback(torus: CoxeterTorus, alpha: DualChar) -> DualChar:
    """alpha(norm(-)) as a character of the torus."""
    L = torus.group.exponent
    LU = torus.base_units.exponent
    exps = []
    for g, _n in torus.group.basis:
        e = root_exp(alpha, int(torus.ext.norm(g)))
        if (e * L) % LU:
            raise InvariantError("norm pullback value outside mu_L")
        exps.append(e * L // LU)
    return char_from_values_on_basis(torus.group, exps, L)


@functools.lru_cache(maxsize=None)
def descent_preimages(torus: CoxeterTorus, r2: int) -> list[int]:
    """For the level-r2 torus basis, one preimage code per generator."""
    _, m = torus.ext.reduction(r2)
    images = m[torus.codes]
    out = []
    for g, _n in torus.level_torus(r2).group.basis:
        pos = int(np.nonzero(images == g)[0][0])
        out.append(int(torus.codes[pos]))
    return out


def descend(torus: CoxeterTorus, eta: DualChar, r2: int) -> DualChar:
    """The character of T_{r2}^F inflating to eta (eta trivial on K_{r2})."""
    t0 = torus.level_torus(r2)
    L, L0 = torus.group.exponent, t0.group.exponent
    exps = []
    for pre in descent_preimages(torus, r2):
        e = root_exp(eta, pre)
        if (e * L0) % L:
            raise InvariantError("eta is not trivial on the descent kernel")
        exps.append(e * L0 // L)
    return char_from_values_on_basis(t0.group, exps, L0)


@functools.lru_cache(maxsize=None)
def tau_patterns(torus: CoxeterTorus, psi_scale: int):
    """(pats, W): the tau of each pairing row's bytes, and the value rows of
    the top-layer elements."""
    F, rq = torus.ring.field, torus.rq
    xs = np.arange(torus.q**2, dtype=np.int64)
    rows = F.trace_to_fp[F.mul[rq.trace(rq.mul(xs[:, None], xs[None, :])), psi_scale]]
    pats = {rows[:, tau].tobytes(): tau for tau in range(len(xs))}
    return pats, torus.group.value_rows(torus.top_layer_elements()[1])


def taus(torus: CoxeterTorus, A: np.ndarray, psi_scale: int = 1) -> list[int]:
    """tau of each row of A, by looking up its pairing row's bytes."""
    p, L = torus.ring.p, torus.group.exponent
    pats, W = tau_patterns(torus, psi_scale)
    V = A @ W.T % L
    if (V * p % L).any():
        raise InvariantError("top-layer values are not p-th roots")
    return [pats[row.tobytes()] for row in np.ascontiguousarray(V * p // L)]


def is_scalar(torus: CoxeterTorus, tau: int) -> bool:
    """Whether a pair code of F_{q^2} lies in the scalar subfield F_q."""
    return tau < torus.q


def char_level(torus: CoxeterTorus, eta: DualChar) -> int:
    """Least r' in [1, r] with eta trivial on the basis of the kernel K_{r'}."""
    for r2 in range(1, torus.r + 1):
        if all(root_exp(eta, g) == 0 for g, _n in torus.kernels[r2].basis):
            return r2
    raise InvariantError("character not trivial on the trivial kernel")


# ---------------------------------------------------------------------------
# the per-theta classification


@dataclass
class TorusCharClass:
    """Everything the prediction layer needs to know about one theta."""

    theta: DualChar
    level: int                 # the ambient level r
    q: int
    tau: int | None            # pair code in F_{q^2}, None at r = 1
    is_regular: bool
    r0: int
    theta0: DualChar           # character of the level-r0 torus
    alpha: DualChar            # canonical twisting character of O_r^x
    n_minimizing_twists: int
    general_position: bool     # theta0 not flip-stable (meaningful at r0 = 1)
    stab_size: int             # 1 or 2
    sl_sigma_fixed: bool       # restriction to norm-one units flip-stable
    sl_quadratic: bool         # odd q, r0 = 1: restriction of theta0 has order 2


def classify_all(torus: CoxeterTorus, psi_scale: int = 1) -> list[TorusCharClass]:
    """Classification of every theta, one record per theta."""
    T = torus.group
    U = torus.base_units
    L = T.exponent
    thetas = dual(torus.group)
    n_t = len(thetas)
    A = np.array([th.a for th in thetas], dtype=np.int64)

    # -- tau and regularity (r >= 2) ------------------------------------------
    taus_ = taus(torus, A, psi_scale) if torus.r >= 2 else [None] * n_t
    regular = [tau is not None and not is_scalar(torus, tau) for tau in taus_]

    # -- twisted levels ---------------------------------------------------------
    pulls = [norm_pullback(torus, al) for al in dual(U)]
    P = np.array([pl.a for pl in pulls], dtype=np.int64)
    # values of each theta, and lookup of the twists cancelling them, on the
    # generators of each kernel
    levels_theta = {}
    alpha_lookup = {}
    for r2 in range(1, torus.r + 1):
        W = T.value_rows([g for g, _ in torus.kernels[r2].basis])
        Ca = P @ W.T % L
        levels_theta[r2] = A @ W.T % L
        d: dict[bytes, list[int]] = {}
        for j, row in enumerate((-Ca) % L):
            d.setdefault(row.tobytes(), []).append(j)
        alpha_lookup[r2] = d

    alphas = dual(U)
    out = []

    # sigma action, batch: exponent tuples of theta o sigma
    Esig = A @ T.value_rows(sigma_images_of_basis(torus)).T % L
    orders_arr = np.array(T.orders, dtype=np.int64)
    if (Esig * orders_arr % L).any():
        raise InvariantError("theta o sigma is not a character")
    stab2 = (Esig * orders_arr // L % orders_arr == A).all(axis=1)

    # norm-one flip stability, batch
    n1 = norm_one(torus)
    Wn1 = (T.value_rows(torus.sigma(n1)) - T.value_rows(n1)) % L
    sl_fixed = ((A @ Wn1.T % L) == 0).all(axis=1)

    for i, th in enumerate(thetas):
        if regular[i]:
            r0 = torus.r
            n_min = 1
            theta0 = th
            alpha = alphas[0]  # the trivial character
        else:
            r0 = None
            for r2 in range(1, torus.r + 1):
                hits = alpha_lookup[r2].get(levels_theta[r2][i].tobytes())
                if hits:
                    r0 = r2
                    n_min = len(hits)
                    # canonical (theta0, alpha): least descended tuple, then
                    # least twist tuple
                    best = None
                    for j in hits:
                        eta = th * pulls[j]
                        t0 = descend(torus, eta, r0)
                        key = (t0.a, alphas[j].a)
                        if best is None or key < best[0]:
                            best = (key, t0, alphas[j])
                    theta0, alpha = best[1], best[2]
                    break
            if r0 is None:
                raise InvariantError("no level makes a twist of theta trivial")

        # general position of theta0 at its level
        t0_torus = torus.level_torus(r0)
        gp = char_sigma(t0_torus, theta0) != theta0

        # odd-q order-2 flag of the restriction at level 1
        sl_quadratic = False
        if torus.q % 2 == 1 and r0 == 1:
            t1 = torus.level_torus(1)
            L1 = t1.group.exponent
            exps = [root_exp(theta0, int(c)) for c in norm_one(t1)]
            nontrivial = any(e % L1 for e in exps)
            order_div_2 = all((2 * e) % L1 == 0 for e in exps)
            sl_quadratic = nontrivial and order_div_2
            if sl_quadratic and not gp:
                raise InvariantError("order-2 restriction forces general position")

        out.append(
            TorusCharClass(
                theta=th,
                level=torus.r,
                q=torus.q,
                tau=taus_[i],
                is_regular=regular[i],
                r0=r0,
                theta0=theta0,
                alpha=alpha,
                n_minimizing_twists=n_min,
                general_position=bool(gp),
                stab_size=2 if stab2[i] else 1,
                sl_sigma_fixed=bool(sl_fixed[i]),
                sl_quadratic=sl_quadratic,
            )
        )
    return out


# ---------------------------------------------------------------------------
# the per-theta conductor peeling


@functools.lru_cache(maxsize=None)
def extend_kernel_character(torus: CoxeterTorus, s: int, psi_scale: int) -> DualChar:
    """The first character of O_r^x, in dual_rows() order, restricting on the
    last ring kernel to u -> psi(s * (u - 1)/pi^(r-1))."""
    R = torus.ring
    F, U, p = R.field, torus.base_units, R.p
    LU = U.exponent
    _, mred = R.reduction(R.r - 1)
    want = {}
    for u in R.units().tolist():
        if mred[u] == 1:
            x = R.div_pi_top(int(R.add[u, R.neg[R.one]]))
            want[u] = int(F.trace_to_fp[F.mul[F.mul[s, x], psi_scale]])
    for alpha in dual(U):
        ok = True
        for u, w in want.items():
            e = root_exp(alpha, u)
            if (e * p) % LU != 0 or (e * p // LU) % p != w:
                ok = False
                break
        if ok:
            return alpha
    raise InvariantError("no extension found; the unit group is abelian")


def conductor_by_peeling(torus: CoxeterTorus, theta: DualChar, psi_scale: int = 1) -> int:
    """Iterative peeling: while the top-layer datum is scalar, strip one
    level by twisting with an extension of psi(s * ((-) - 1)/pi^(rho-1))."""
    cur_torus, cur = torus, theta
    while True:
        rho = cur_torus.r
        if rho == 1:
            return 1
        tau = taus(cur_torus, np.array([cur.a]), psi_scale)[0]
        if not is_scalar(cur_torus, tau):
            return rho
        s = tau % cur_torus.q  # tau = diag(s, s)
        alpha2 = extend_kernel_character(cur_torus, s, psi_scale)
        eta = cur * norm_pullback(cur_torus, alpha2.inverse())
        if char_level(cur_torus, eta) > rho - 1:
            raise InvariantError("peeling did not lower the level")
        cur = descend(cur_torus, eta, rho - 1)
        cur_torus = cur_torus.level_torus(rho - 1)


# ---------------------------------------------------------------------------
# the per-theta predictions


def predict_gl2(tc: TorusCharClass, q: int, r: int) -> Prediction:
    if tc.q != q or tc.level != r:
        raise InvariantError("classification record mismatch")
    if tc.is_regular:
        if tc.r0 != r:
            raise InvariantError("a regular character has conductor level r")
        sgn = (-1) ** r
        d = (q - 1) * q ** (r - 1)
        return Prediction(sgn * d, ((d, 1, sgn),), True, sgn, CLAUSE_REGULAR)
    if tc.r0 > 1:
        sgn = (-1) ** tc.r0
        d = (q - 1) * q ** (tc.r0 - 1)
        return Prediction(sgn * d, ((d, 1, sgn),), True, sgn, CLAUSE_DESCENT)
    if tc.general_position:
        return Prediction(-(q - 1), ((q - 1, 1, -1),), True, -1, CLAUSE_GP)
    return Prediction(1 - q, ((1, 1, 1), (q, 1, -1)), False, -1, CLAUSE_SPLIT)


def predict_sl2(tc: TorusCharClass, q: int, r: int) -> Prediction:
    base = predict_gl2(tc, q, r)
    if q % 2 == 1:
        # only the general-position clause with an order-2 restriction splits
        if base.clause == CLAUSE_GP and tc.sl_quadratic:
            half = (q - 1) // 2
            return Prediction(
                -(q - 1), ((half, 2, -1),), False, -1, CLAUSE_SL_ODD
            )
        if base.clause in (CLAUSE_REGULAR, CLAUSE_DESCENT) and tc.sl_sigma_fixed:
            raise InvariantError("odd q cannot have a flip-stable restriction off level one")
        return base
    # even q: the regular and descent clauses split when the restriction to
    # the norm-one torus is flip-stable
    if base.clause in (CLAUSE_REGULAR, CLAUSE_DESCENT) and tc.sl_sigma_fixed:
        r0 = tc.r0
        half = (q**r0 - q ** (r0 - 1)) // 2
        sgn = (-1) ** r0
        return Prediction(
            sgn * (q**r0 - q ** (r0 - 1)),
            ((half, 2, sgn),),
            False,
            sgn,
            CLAUSE_SL_EVEN,
        )
    return base


# ---------------------------------------------------------------------------
# the arrays against the oracle


ORACLE_CASES = [
    (p, k, r, mode) for (p, k, r) in MANIFEST_PKR for mode in ("mixed", "equal")
] + [(5, 1, 2, "mixed"), (5, 1, 3, "mixed")]


@pytest.mark.parametrize("p,k,r,mode", ORACLE_CASES)
def test_arrays_match_per_theta_oracle(p, k, r, mode):
    torus = make_torus(p, k, r, mode)
    q = torus.q
    for psi_scale in [s for s in (1, 2) if s < q]:
        cl = array_classify_all(torus, psi_scale)
        tcs = classify_all(torus, psi_scale)
        assert len(cl) == len(tcs) == torus.order
        assert cl.theta.tolist() == [list(tc.theta.a) for tc in tcs]
        assert (None if cl.tau is None else cl.tau.tolist()) == (
            None if r == 1 else [tc.tau for tc in tcs]
        )
        assert cl.regular.tolist() == [tc.is_regular for tc in tcs]
        assert cl.r0.tolist() == [tc.r0 for tc in tcs]
        for r0 in set(cl.r0.tolist()):
            assert cl.theta0_rows(r0).tolist() == [list(tc.theta0.a) for tc in tcs if tc.r0 == r0]
            assert all(tc.theta0.group is torus.level_torus(r0).group for tc in tcs if tc.r0 == r0)
        assert cl.alpha.tolist() == [list(tc.alpha.a) for tc in tcs]
        assert cl.n_minimizing_twists.tolist() == [tc.n_minimizing_twists for tc in tcs]
        assert cl.general_position.tolist() == [tc.general_position for tc in tcs]
        assert cl.stab_size.tolist() == [tc.stab_size for tc in tcs]
        assert cl.sl_sigma_fixed.tolist() == [tc.sl_sigma_fixed for tc in tcs]
        assert cl.sl_quadratic.tolist() == [tc.sl_quadratic for tc in tcs]
        for predict, oracle in ((array_predict_gl2, predict_gl2), (array_predict_sl2, predict_sl2)):
            values, which = predict(cl)
            assert [values[k] for k in which.tolist()] == [oracle(tc, q, r) for tc in tcs]


@pytest.mark.parametrize("p,k,r,mode", ORACLE_CASES)
def test_array_peeling_matches_per_theta_peeling(p, k, r, mode):
    torus = make_torus(p, k, r, mode)
    for psi_scale in [s for s in (1, 2) if s < torus.q]:
        peeled = array_conductor_by_peeling(torus, torus.group.dual_rows(), psi_scale)
        assert peeled.dtype == np.int64
        assert peeled.tolist() == [conductor_by_peeling(torus, th, psi_scale) for th in dual(torus.group)]
