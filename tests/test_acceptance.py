"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Expected values are either structural constants, derived
from independent oracles coded in _oracles.py, or two-route comparisons
between independent code paths of the package.
"""

import time

import numpy as np

from bimult.algebra import AlgebraTriple, preset_algebra, tensor_membership
from bimult.factorize import (FactorFamily, col_wnorm, opmul_symbol, row_wnorm,
                              schur_s1_factorize, synthesize_u, to_weak_factorization,
                              verify_factorization)
from bimult.linalg import psd_project, schatten_norm, svd
from bimult.multiplier import (PairSymbol, apply_schur, apply_tau, is_modular,
                               tau1_apply, tau3_apply)
from bimult.multiplier import _direct_violation, _projection_violation
from bimult.norms import (amplified_norm, evaluate_bilinear, gamma2, norm_bilinear,
                          s1_norm_schur)
from bimult.selftest import perturb_outside
from bimult.symbols import (SchurSymbol, complex_normal, elementary_symbol,
                            embed_schur, make_rng, random_symbol_in, sup_norm)

from _oracles import gamma2_minimax_oracle, schur_b_ascent_oracle, schur_s2_ascent_oracle

BASE_SEED = 20240811


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_01_elementary_tensor_rule():
    t0 = time.time()
    worst = 0.0
    for case, (d1, d2, d3) in enumerate(((2, 3, 2), (3, 2, 4))):
        for i in range(100):
            rng = make_rng(BASE_SEED, 1, case, i)
            r = complex_normal(rng, (d1, d1))
            s = complex_normal(rng, (d2, d2))
            t = complex_normal(rng, (d3, d3))
            x = complex_normal(rng, (d2, d1))
            y = complex_normal(rng, (d3, d2))
            want = t @ y @ s @ x @ r
            got = apply_tau(elementary_symbol(r, s, t), y, x)
            scale = float(np.abs(want).max())
            worst = max(worst, float(np.abs(got - want).max()) / (1.0 + scale))
    report(1, "elementary-tensor-rule", worst <= 1e-12,
           f"200 draws, max scaled error {worst:.2e}, {time.time()-t0:.1f}s")


def test_criterion_02_schur_consistency():
    t0 = time.time()
    worst = 0.0
    for i in range(100):
        rng = make_rng(BASE_SEED, 2, i)
        dims = tuple(int(d) for d in rng.integers(1, 5, size=3))
        s = SchurSymbol(complex_normal(rng, dims))
        x = complex_normal(rng, (dims[1], dims[0]))
        y = complex_normal(rng, (dims[2], dims[1]))
        want = apply_schur(s, y, x)
        got = apply_tau(embed_schur(s), y, x)
        worst = max(worst, float(np.abs(got - want).max()) / (1.0 + float(np.abs(want).max())))
    report(2, "schur-embedding-consistency", worst <= 1e-12,
           f"100 kernels dims<=4, max scaled error {worst:.2e}, {time.time()-t0:.1f}s")


def test_criterion_03_s2_and_b_norm_law():
    t0 = time.time()
    failures = []
    oracles = {"S2": schur_s2_ascent_oracle, "B": schur_b_ascent_oracle}
    for i in range(30):
        rng = make_rng(BASE_SEED, 3, i)
        dims = tuple(int(d) for d in rng.integers(2, 5, size=3))
        s = SchurSymbol(complex_normal(rng, dims))
        target_value = sup_norm(s)
        for target, oracle in oracles.items():
            # the oracle ascent stops once it is within 1e-7 of the law
            asc, _, _ = oracle(s.data, restarts=20, seed=BASE_SEED + i,
                               stop_at=target_value * (1 - 1e-7))
            if not (target_value - 1e-3 <= asc <= target_value * (1 + 1e-9)):
                failures.append((i, target, "oracle ascent", asc, target_value))
            est = norm_bilinear(s, target)
            redo = evaluate_bilinear(s, target, est.witness_x[0], est.witness_y[0])
            if est.value != target_value or abs(redo - est.value) > 1e-12 * target_value:
                failures.append((i, target, "closed form", est.value, redo, target_value))
    report(3, "s2-and-b-norm-law", not failures,
           f"30 kernels x 2 targets, 20-restart oracle ascents and closed-form witnesses, "
           f"failures={failures!r}, {time.time()-t0:.1f}s")


def _gamma2_certificates_ok(m, res):
    block = np.block([[res.x_cert, m], [m.conj().T, res.y_cert]])
    block = 0.5 * (block + block.conj().T)
    psd_ok = np.linalg.eigvalsh(block)[0] >= -1e-8 * (1 + res.value)
    caps_ok = (np.real(np.diagonal(res.x_cert)).max() <= res.value + 1e-6
               and np.real(np.diagonal(res.y_cert)).max() <= res.value + 1e-6)
    recon_ok = np.abs(res.a_vecs.conj() @ res.b_vecs.T - m).max() <= 1e-6
    return psd_ok and caps_ok and recon_ok


def test_criterion_04_gamma2_correctness():
    t0 = time.time()
    ones = gamma2(np.ones((4, 4)), tol=1e-8)
    eye = gamma2(np.eye(2), tol=1e-8)
    trivial_ok = abs(ones.value - 1.0) <= 1e-6 and abs(eye.value - 1.0) <= 1e-6
    certs_ok = (_gamma2_certificates_ok(np.ones((4, 4)).astype(complex), ones)
                and _gamma2_certificates_ok(np.eye(2).astype(complex), eye))
    worst_rel = 0.0
    for i in range(20):
        rng = make_rng(BASE_SEED, 4, i)
        m = rng.standard_normal((3, 3))
        res = gamma2(m, tol=1e-4)
        oracle = gamma2_minimax_oracle(m, restarts=20, seed=BASE_SEED + i)
        worst_rel = max(worst_rel, abs(res.value - oracle) / oracle)
        certs_ok = certs_ok and _gamma2_certificates_ok(m.astype(complex), res)
    ok = trivial_ok and certs_ok and worst_rel <= 1e-3
    report(4, "gamma2-correctness", ok,
           f"trivial_ok={trivial_ok}, certificates_ok={certs_ok}, "
           f"max oracle mismatch {worst_rel:.2e}, {time.time()-t0:.1f}s")


def test_criterion_05_s1_norm_slice_reduction():
    t0 = time.time()
    sound = True
    close = 0
    worst_gap = 0.0
    for i in range(50):
        rng = make_rng(BASE_SEED, 5, i)
        s = SchurSymbol(complex_normal(rng, (3, 2, 3)))
        upper, lower = s1_norm_schur(s, tol=1e-3, restarts=20)
        sound = sound and lower.value <= upper * (1 + 1e-6)
        gap = (upper - lower.value) / upper
        worst_gap = max(worst_gap, gap)
        if gap <= 0.02:
            close += 1
    ok = sound and close >= 45
    report(5, "s1-norm-slice-reduction", ok,
           f"soundness={sound}, gap<=2% in {close}/50, worst gap {100*worst_gap:.2f}%, "
           f"{time.time()-t0:.1f}s")


def test_criterion_06_factorization_round_trip():
    t0 = time.time()
    ok = True
    details = []
    for i in range(5):
        rng = make_rng(BASE_SEED, 6, i)
        s = SchurSymbol(complex_normal(rng, (3, 2, 3)))
        a, b = schur_s1_factorize(s, tol=1e-3)
        recon = np.einsum("abk,bck->abc", a.vectors.conj(), b.vectors)
        entry_err = float(np.abs(recon - s.data).max())
        best = max(gamma2(s.slice_at(t2), tol=1e-3).value for t2 in range(2))
        prod_ok = a.sup_norm() * b.sup_norm() <= (1 + 1e-4) * best
        fam = to_weak_factorization(a, b)
        phi = embed_schur(s)
        synth_err = float(np.linalg.norm(synthesize_u(fam).data - phi.data))
        measured = amplified_norm(phi, 1, restarts=10, seed=BASE_SEED + i)
        rep = verify_factorization(phi, fam,
                                   AlgebraTriple(*(preset_algebra("full", d) for d in (3, 2, 3))),
                                   measured)
        case_ok = (entry_err <= 1e-6 * (1 + sup_norm(s)) and prod_ok
                   and synth_err <= 1e-6 * (1 + phi.norm()) and rep.bound_ok and rep.passed)
        ok = ok and case_ok
        details.append(f"{entry_err:.1e}/{synth_err:.1e}")
    report(6, "factorization-round-trip", ok,
           f"5 kernels, entry/synth residuals {details}, {time.time()-t0:.1f}s")


def test_criterion_07_modularity_equivalence():
    t0 = time.time()
    agree = 0
    total = 0
    methods_ok = True
    presets = ["full", "diagonal", "scalar", "block:1+2"]
    for i in range(100):
        rng = make_rng(BASE_SEED, 7, i)
        algs = []
        for _ in range(3):
            dim = int(rng.integers(2, 4))
            pool = [p for p in presets if p != "block:1+2" or dim == 3]
            algs.append(preset_algebra(pool[int(rng.integers(0, len(pool)))], dim))
        t = AlgebraTriple(*algs)
        phi = random_symbol_in(t, seed=int(rng.integers(0, 2**31)))
        if i % 2 == 1:
            perturbed = perturb_outside(phi, t, rng, eps=10 ** float(rng.uniform(-3, -1)))
            if perturbed is not None:
                phi = perturbed
        member, _ = tensor_membership(phi, t)
        modular, _ = is_modular(phi, t)  # raises on internal method mismatch
        total += 1
        agree += int(member == modular)
        if member:
            scale = 1.0 + phi.norm()
            v_proj = _projection_violation(phi, t)
            v_direct = _direct_violation(phi, t)
            methods_ok = methods_ok and v_proj <= 1e-7 * scale and v_direct <= 1e-7 * scale
    ok = agree == total == 100 and methods_ok
    report(7, "modularity-membership-equivalence", ok,
           f"{agree}/{total} boolean agreements, methods within 1e-7 on members: "
           f"{methods_ok}, {time.time()-t0:.1f}s")


def test_criterion_08_product_symbol_identity():
    t0 = time.time()
    worst = 0.0
    for i in range(100):
        rng = make_rng(BASE_SEED, 8, i)
        d1, d2, d3 = (2, 2, 2) if i % 2 == 0 else (2, 3, 2)
        a = PairSymbol(complex_normal(rng, (d1, d1, d2, d2)))
        b = PairSymbol(complex_normal(rng, (d2, d2, d3, d3)))
        x = complex_normal(rng, (d2, d1))
        y = complex_normal(rng, (d3, d2))
        lhs = apply_tau(opmul_symbol(a, b), y, x)
        rhs = tau3_apply(b, y) @ tau1_apply(a, x)
        worst = max(worst, float(np.abs(lhs - rhs).max()) / (1.0 + float(np.abs(rhs).max())))
    report(8, "product-symbol-identity", worst <= 1e-12,
           f"100 draws, max scaled error {worst:.2e}, {time.time()-t0:.1f}s")


def test_criterion_09_square_sum_inequalities():
    t0 = time.time()
    worst_slack = np.inf
    for i in range(100):
        rng = make_rng(BASE_SEED, 9, i)
        d1, d2, d3 = (2, 2, 2) if i % 2 == 0 else (2, 3, 2)
        count = int(rng.integers(1, 4))
        a_list = tuple(PairSymbol(complex_normal(rng, (d1, d1, d2, d2))) for _ in range(count))
        b_list = tuple(PairSymbol(complex_normal(rng, (d2, d2, d3, d3))) for _ in range(count))
        fam = FactorFamily(a_list=a_list, b_list=b_list, dims=(d1, d2, d3))
        row = row_wnorm(fam)
        col = col_wnorm(fam)
        x = complex_normal(rng, (d2, d1))
        x /= np.linalg.norm(x)
        y = complex_normal(rng, (d3, d2))
        y /= np.linalg.norm(y)
        sum_x = sum(np.linalg.norm(tau1_apply(a, x)) ** 2 for a in a_list)
        sum_y = sum(np.linalg.norm(tau3_apply(b, y)) ** 2 for b in b_list)
        worst_slack = min(worst_slack, row * row - sum_x, col * col - sum_y)
    report(9, "square-sum-inequalities", worst_slack >= -1e-10,
           f"100 families, min slack {worst_slack:.2e}, {time.time()-t0:.1f}s")


def test_criterion_10_cb_level_flatness():
    t0 = time.time()
    worst_excess = 0.0
    for i in range(20):
        rng = make_rng(BASE_SEED, 10, i)
        dims = (2, 2, 2) if i % 2 == 0 else (2, 3, 2)
        s = SchurSymbol(complex_normal(rng, dims))
        phi = embed_schur(s)
        base = amplified_norm(phi, 1, restarts=20, seed=BASE_SEED + i).value
        for level in (2, 3):
            est = amplified_norm(phi, level, restarts=20, seed=BASE_SEED + i).value
            if base > 0:
                worst_excess = max(worst_excess, (est - base) / base)
    report(10, "cb-level-flatness", worst_excess <= 1e-3,
           f"20 kernels, levels 2-3 vs 1, worst relative excess {worst_excess:.2e}, "
           f"{time.time()-t0:.1f}s")


def test_criterion_11_linalg_invariants():
    t0 = time.time()
    ok = True
    for i in range(200):
        rng = make_rng(BASE_SEED, 11, i)
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        a = complex_normal(rng, (n, m))
        s1 = schatten_norm(a, 1)
        s2 = schatten_norm(a, 2)
        sinf = schatten_norm(a, "inf")
        ok = ok and s1 + 1e-12 >= s2 >= sinf - 1e-12
        res = svd(a)
        ok = ok and np.linalg.norm(a - res.reconstruct()) <= 1e-10 * (1 + np.linalg.norm(a))
        h = complex_normal(rng, (n, n))
        h = 0.5 * (h + h.conj().T)
        p = psd_project(h)
        ok = ok and np.abs(psd_project(p) - p).max() <= 1e-10 * (1 + np.abs(p).max())
    report(11, "linalg-invariants", ok, f"200 random matrices up to 8x8, {time.time()-t0:.1f}s")
