"""Bundled verification suites for the command line.

Each suite draws deterministic random data from the seeded generator (the
seed must be >= 0) and checks one of the package's defining identities: the
elementary-tensor rule, agreement of the embedded Schur action with the
direct kernel formula, the product identity for one-sided actions, the
modularity/membership equivalence, and the square-sum inequalities for
factor families.  The square sums are checked at their exact suprema over
unit inputs (``factorize.square_slacks``), so only the families are drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraTriple, preset_algebra, project_symbol, tensor_membership
from .factorize import FactorFamily, col_wnorm, opmul_symbol, row_wnorm, square_slacks
from .multiplier import PairSymbol, apply_schur, apply_tau, is_modular, tau1_apply, tau3_apply
from .symbols import (SchurSymbol, Symbol3, complex_normal, elementary_symbol,
                      embed_schur, make_rng, random_symbol_in)


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_violation: float
    detail: str


def _check_elementary(seed: int) -> CheckResult:
    worst = 0.0
    trials = 0
    for case, (d1, d2, d3) in enumerate(((2, 3, 2), (3, 2, 4))):
        for i in range(100):
            rng = make_rng(seed, 1, case, i)
            r = complex_normal(rng, (d1, d1))
            s = complex_normal(rng, (d2, d2))
            t = complex_normal(rng, (d3, d3))
            x = complex_normal(rng, (d2, d1))
            y = complex_normal(rng, (d3, d2))
            got = apply_tau(elementary_symbol(r, s, t), y, x)
            want = t @ y @ s @ x @ r
            scale = 1.0 + float(np.abs(want).max())
            worst = max(worst, float(np.abs(got - want).max()) / scale)
            trials += 1
    return CheckResult("elementary-tensor-identity", worst <= 1e-12, worst,
                       f"{trials} draws at dims (2,3,2) and (3,2,4)")


def _check_schur_consistency(seed: int) -> CheckResult:
    worst = 0.0
    for i in range(100):
        rng = make_rng(seed, 2, i)
        dims = tuple(int(d) for d in rng.integers(1, 5, size=3))
        s = SchurSymbol(complex_normal(rng, dims))
        x = complex_normal(rng, (dims[1], dims[0]))
        y = complex_normal(rng, (dims[2], dims[1]))
        got = apply_tau(embed_schur(s), y, x)
        want = apply_schur(s, y, x)
        scale = 1.0 + float(np.abs(want).max())
        worst = max(worst, float(np.abs(got - want).max()) / scale)
    return CheckResult("schur-embedding-consistency", worst <= 1e-12, worst,
                       "100 random kernels at dims <= 4")


def _check_magic(seed: int) -> CheckResult:
    worst = 0.0
    for i in range(100):
        rng = make_rng(seed, 3, i)
        d1, d2, d3 = (2, 2, 2) if i % 2 == 0 else (2, 3, 2)
        a = PairSymbol(complex_normal(rng, (d1, d1, d2, d2)))
        b = PairSymbol(complex_normal(rng, (d2, d2, d3, d3)))
        x = complex_normal(rng, (d2, d1))
        y = complex_normal(rng, (d3, d2))
        got = apply_tau(opmul_symbol(a, b), y, x)
        want = tau3_apply(b, y) @ tau1_apply(a, x)
        scale = 1.0 + float(np.abs(want).max())
        worst = max(worst, float(np.abs(got - want).max()) / scale)
    return CheckResult("product-symbol-identity", worst <= 1e-12, worst,
                       "100 draws at dims (2,2,2) and (2,3,2)")


def random_triple(rng: np.random.Generator) -> AlgebraTriple:
    """A random triple of preset algebras at dims <= 3."""
    algs = []
    for _ in range(3):
        dim = int(rng.integers(2, 4))
        choices = ["full", "diagonal", "scalar"] + (["block:1+2"] if dim == 3 else [])
        name = choices[int(rng.integers(0, len(choices)))]
        algs.append(preset_algebra(name, dim))
    return AlgebraTriple(*algs)


def perturb_outside(phi: Symbol3, t: AlgebraTriple, rng: np.random.Generator,
                    eps: float = 1e-3) -> Symbol3 | None:
    """Add a perturbation of size eps*(1+|phi|) orthogonal to the tensor span.

    Returns None when the span is everything (nothing orthogonal exists).
    """
    g = Symbol3(complex_normal(rng, phi.data.shape))
    g_perp = g.data - project_symbol(g, t).data
    norm = float(np.linalg.norm(g_perp))
    if norm <= 1e-8 * (1.0 + float(np.linalg.norm(g.data))):
        return None
    return Symbol3(phi.data + eps * (1.0 + phi.norm()) * g_perp / norm)


def _check_modularity(seed: int, trials: int = 40) -> CheckResult:
    agree = 0
    total = 0
    worst_gap = 0.0
    for i in range(trials):
        rng = make_rng(seed, 4, i)
        t = random_triple(rng)
        phi = random_symbol_in(t, seed=int(rng.integers(0, 2**31)))
        if i % 2 == 1:
            perturbed = perturb_outside(phi, t, rng)
            if perturbed is not None:
                phi = perturbed
        member, _ = tensor_membership(phi, t)
        modular, violation = is_modular(phi, t)
        total += 1
        if member == modular:
            agree += 1
        if member:
            worst_gap = max(worst_gap, violation / (1.0 + phi.norm()))
    return CheckResult("modularity-membership-equivalence", agree == total, worst_gap,
                       f"{agree}/{total} boolean agreements; members' violation <= {worst_gap:.2e}")


def _check_square_sums(seed: int, trials: int = 100) -> CheckResult:
    worst_slack = np.inf
    for i in range(trials):
        rng = make_rng(seed, 5, i)
        d1, d2, d3 = (2, 2, 2) if i % 2 == 0 else (2, 3, 2)
        count = int(rng.integers(1, 4))
        a_list = tuple(PairSymbol(complex_normal(rng, (d1, d1, d2, d2))) for _ in range(count))
        b_list = tuple(PairSymbol(complex_normal(rng, (d2, d2, d3, d3))) for _ in range(count))
        fam = FactorFamily(a_list=a_list, b_list=b_list, dims=(d1, d2, d3))
        worst_slack = min(worst_slack, *square_slacks(fam, row_wnorm(fam), col_wnorm(fam)))
    return CheckResult("square-sum-inequalities", bool(worst_slack >= -1e-10), float(worst_slack),
                       f"min exact slack over {trials} random families")


def run_selftest(seed: int = 0, inject_fault: bool = False) -> list[CheckResult]:
    checks = [
        _check_elementary(seed),
        _check_schur_consistency(seed),
        _check_magic(seed),
        _check_modularity(seed),
        _check_square_sums(seed),
    ]
    if inject_fault:
        checks.append(CheckResult("injected-fault", False, 1.0,
                                  "synthetic failure requested via flag"))
    return checks
