"""Command line front end.

Commands: apply | norm | gamma2 | factorize | verify-modular |
verify-factorization | amplify | selftest.  JSON is the canonical output;
text and csv renderings are available for scalar tables.  Identical
configurations (including the seed) produce byte-identical output.

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 shape or
contract error.  Environment overrides: BIMULT_SEED, BIMULT_RESTARTS
(flags take precedence).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import io as bio
from .algebra import AlgebraTriple, MatrixAlgebra, generate_algebra, preset_algebra, tensor_membership
from .factorize import (FactorFamily, schur_s1_factorize, to_weak_factorization,
                        verify_factorization)
from .linalg import ShapeError, schatten_norm
from .multiplier import apply_schur, apply_tau, is_modular
from .norms import (GAMMA2_MIN_TOL, NormEstimate, amplified_norm, gamma2, norm_bilinear,
                    s1_norm_schur)
from .selftest import run_selftest
from .symbols import SchurSymbol, Symbol3, embed_schur, sup_norm

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_CONTRACT = 3
TOL_RANGE = (GAMMA2_MIN_TOL, 1e-2)  # the --tol range; gamma2 accepts everything in it


@dataclass
class RunConfig:
    seed: int
    restarts: int
    tolerance: float
    output_format: str

    def __post_init__(self):
        lo, hi = TOL_RANGE
        if not lo <= self.tolerance <= hi:
            raise ValueError(f"tolerance {self.tolerance:g} outside [{lo:g}, {hi:g}]")
        if not 1 <= self.restarts <= 10000:
            raise ValueError(f"restarts {self.restarts} outside [1, 10000]")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be >= 0")


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"environment variable {name}={raw!r} is not an integer") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bimult", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="symbol JSON file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--restarts", type=int, default=None)
        p.add_argument("--tol", type=float, default=1e-8,
                       help=f"absolute tolerance, in [{TOL_RANGE[0]:g}, {TOL_RANGE[1]:g}]")
        p.add_argument("--format", choices=("json", "text", "csv"), default="json")
        p.add_argument("--witnesses", action="store_true", help="emit witness matrices")

    p = sub.add_parser("apply", help="apply a multiplier symbol to a pair (y, x)")
    common(p)
    p.add_argument("--x", required=True, help="matrix JSON file (d2 x d1)")
    p.add_argument("--y", required=True, help="matrix JSON file (d3 x d2)")

    p = sub.add_parser("norm", help="bilinear norm estimates for a Schur kernel")
    common(p)
    p.add_argument("--target", choices=("s2", "b", "s1"), required=True)

    p = sub.add_parser("gamma2", help="gamma2 factorization norm of a matrix")
    common(p)

    p = sub.add_parser("factorize", help="slice factorization and weak factorization")
    common(p)
    p.add_argument("--truncate", type=int, default=0,
                   help="drop this many (>= 0) trailing family members before verification")

    p = sub.add_parser("verify-modular", help="membership and modularity of a symbol")
    common(p)
    p.add_argument("--algebras", required=True,
                   help="comma-separated presets or @file specs for M1,M2,M3")

    p = sub.add_parser("verify-factorization", help="check a factor family against a symbol")
    common(p)
    p.add_argument("--family", required=True, help="factor family JSON file")
    p.add_argument("--algebras", required=True)

    p = sub.add_parser("amplify", help="amplified trace-norm lower bounds, levels 1..n")
    common(p)
    p.add_argument("--n", type=int, default=2, help="largest amplification level, >= 1")

    p = sub.add_parser("selftest", help="run the bundled verification suites")
    common(p, needs_input=False)
    p.add_argument("--inject-fault", action="store_true",
                   help="append a synthetic failing check (harness CI)")
    return parser


def _config_from(args) -> RunConfig:
    # command flags are checked here, with --tol, before any input is read
    if getattr(args, "n", 1) < 1:
        raise ValueError("--n must be >= 1")
    if getattr(args, "truncate", 0) < 0:
        raise ValueError("--truncate must be >= 0")
    seed = args.seed if args.seed is not None else _env_int("BIMULT_SEED", 0)
    restarts = args.restarts if args.restarts is not None else _env_int("BIMULT_RESTARTS", 20)
    return RunConfig(seed=seed, restarts=restarts, tolerance=args.tol,
                     output_format=args.format)


def _load_symbol(path: str):
    return bio.symbol_from_json(bio.load_json_file(path), where=path)


def _load_matrix(path: str) -> np.ndarray:
    return bio.matrix_from_json(bio.load_json_file(path), where=path)


def _algebra_from_spec(spec: str, dim: int) -> MatrixAlgebra:
    spec = spec.strip()
    if not spec.startswith("@"):
        return preset_algebra(spec, dim)
    path = spec[1:]
    obj = bio.load_json_file(path)
    if not isinstance(obj, dict) or not isinstance(obj.get("dim"), int):
        raise bio.ParseError("algebra file needs integer 'dim' and 'generators'", position=path)
    # checked before any generator is read: generating can allocate O(dim^6) entries
    if obj["dim"] != dim:
        raise ShapeError(f"shape: algebra dimension {obj['dim']} vs symbol leg {dim}")
    gens = [bio.matrix_from_json(g, where=f"{path}.generators[{i}]")
            for i, g in enumerate(obj.get("generators", []))]
    return generate_algebra(dim, gens)


def _triple_from_spec(spec: str, dims: tuple[int, int, int]) -> AlgebraTriple:
    parts = spec.split(",")
    if len(parts) != 3:
        raise ValueError("--algebras needs three comma-separated components")
    return AlgebraTriple(*(_algebra_from_spec(p, d) for p, d in zip(parts, dims)))


def _estimate_json(est: NormEstimate, witnesses: bool) -> dict:
    out = {"value": est.value, "kind": est.kind,
           "restarts_used": est.restarts_used, "iterations": est.iterations}
    if witnesses:
        out["witness_x"] = [bio.matrix_to_json(m) for m in est.witness_x]
        out["witness_y"] = [bio.matrix_to_json(m) for m in est.witness_y]
    return out


def _cmd_apply(args, cfg: RunConfig) -> tuple[dict, int]:
    sym = _load_symbol(args.input)
    x = _load_matrix(args.x)
    y = _load_matrix(args.y)
    if isinstance(sym, SchurSymbol):
        out = apply_schur(sym, y, x)
    else:
        out = apply_tau(sym, y, x)
    payload = {
        "result": bio.matrix_to_json(out),
        "schatten": {"s1": schatten_norm(out, 1), "s2": schatten_norm(out, 2),
                     "sinf": schatten_norm(out, "inf")},
    }
    return payload, EXIT_OK


def _cmd_norm(args, cfg: RunConfig) -> tuple[dict, int]:
    sym = _load_symbol(args.input)
    target = args.target
    if isinstance(sym, Symbol3):
        if target != "s1":
            raise ShapeError("shape: S2/B norms are defined here for Schur kernels only")
        est = amplified_norm(sym, 1, restarts=cfg.restarts, seed=cfg.seed)
        return {"target": target, "lower_bound": _estimate_json(est, args.witnesses)}, EXIT_OK
    if target == "s1":
        upper, lower = s1_norm_schur(sym, tol=cfg.tolerance)
        return {"target": target, "upper_bound": upper,
                "lower_bound": _estimate_json(lower, args.witnesses)}, EXIT_OK
    est = norm_bilinear(sym, target)
    return {"target": target, "exact_value": sup_norm(sym),
            "lower_bound": _estimate_json(est, args.witnesses)}, EXIT_OK


def _cmd_gamma2(args, cfg: RunConfig) -> tuple[dict, int]:
    m = _load_matrix(args.input)
    res = gamma2(m, tol=cfg.tolerance)
    payload = {"value": res.value, "lower": res.lower, "converged": res.converged,
               "iterations": res.iterations, "primal_residual": res.primal_residual,
               "rank": int(res.a_vecs.shape[1])}
    if args.witnesses:
        payload["x_cert"] = bio.matrix_to_json(res.x_cert)
        payload["y_cert"] = bio.matrix_to_json(res.y_cert)
        payload["a_vecs"] = bio.matrix_to_json(res.a_vecs)
        payload["b_vecs"] = bio.matrix_to_json(res.b_vecs)
    return payload, EXIT_OK


def _report_json(report) -> dict:
    return {
        "synthesis_residual": report.synthesis_residual,
        "synthesis_ok": report.synthesis_ok,
        "a_membership_residuals": report.a_membership_residuals,
        "b_membership_residuals": report.b_membership_residuals,
        "membership_ok": report.membership_ok,
        "row_wnorm": report.row_norm,
        "col_wnorm": report.col_norm,
        "measured_value": report.measured_value,
        "bound_ok": report.bound_ok,
        "square_slack_x": report.square_slack_x,
        "square_slack_y": report.square_slack_y,
        "square_ok": report.square_ok,
        "passed": report.passed,
    }


def _full_triple(dims: tuple[int, int, int]) -> AlgebraTriple:
    return AlgebraTriple(*(preset_algebra("full", d) for d in dims))


def _cmd_factorize(args, cfg: RunConfig) -> tuple[dict, int]:
    sym = _load_symbol(args.input)
    if not isinstance(sym, SchurSymbol):
        raise ShapeError("shape: factorize expects a Schur kernel input")
    a, b = schur_s1_factorize(sym, tol=cfg.tolerance)
    family = to_weak_factorization(a, b)
    if args.truncate > 0:
        keep = max(0, family.count - args.truncate)
        family = FactorFamily(a_list=family.a_list[:keep], b_list=family.b_list[:keep],
                              dims=family.dims)
    phi = embed_schur(sym)
    measured = s1_norm_schur(sym, tol=cfg.tolerance)[1]
    report = verify_factorization(phi, family, _full_triple(phi.dims), measured)
    payload = {
        "a_field": bio.vector_field_to_json(a),
        "b_field": bio.vector_field_to_json(b),
        "family": bio.family_to_json(family),
        "measured_lower_bound": _estimate_json(measured, args.witnesses),
        "report": _report_json(report),
    }
    return payload, EXIT_OK


def _cmd_verify_modular(args, cfg: RunConfig) -> tuple[dict, int]:
    sym = _load_symbol(args.input)
    phi = embed_schur(sym) if isinstance(sym, SchurSymbol) else sym
    triple = _triple_from_spec(args.algebras, phi.dims)
    member, residual = tensor_membership(phi, triple)
    modular, violation = is_modular(phi, triple)
    payload = {"member": member, "membership_residual": residual,
               "modular": modular, "max_violation": violation,
               "equivalent": member == modular}
    return payload, EXIT_OK


def _cmd_verify_factorization(args, cfg: RunConfig) -> tuple[dict, int]:
    sym = _load_symbol(args.input)
    phi = embed_schur(sym) if isinstance(sym, SchurSymbol) else sym
    family = bio.family_from_json(bio.load_json_file(args.family), where=args.family)
    triple = _triple_from_spec(args.algebras, phi.dims)
    if isinstance(sym, SchurSymbol):
        measured = s1_norm_schur(sym, tol=cfg.tolerance)[1]
    else:
        measured = amplified_norm(phi, 1, restarts=cfg.restarts, seed=cfg.seed)
    report = verify_factorization(phi, family, triple, measured)
    return {"measured_lower_bound": _estimate_json(measured, args.witnesses),
            "report": _report_json(report)}, EXIT_OK


def _cmd_amplify(args, cfg: RunConfig) -> tuple[dict, int]:
    sym = _load_symbol(args.input)
    phi = embed_schur(sym) if isinstance(sym, SchurSymbol) else sym
    levels = {}
    for level in range(1, args.n + 1):
        est = amplified_norm(phi, level, restarts=cfg.restarts, seed=cfg.seed)
        levels[str(level)] = _estimate_json(est, args.witnesses)
    return {"levels": levels}, EXIT_OK


def _cmd_selftest(args, cfg: RunConfig) -> tuple[dict, int]:
    checks = run_selftest(seed=cfg.seed, inject_fault=args.inject_fault)
    payload = {
        "checks": [{"name": c.name, "passed": c.passed,
                    "max_violation": c.max_violation, "detail": c.detail}
                   for c in checks],
        "all_passed": all(c.passed for c in checks),
        "seed": cfg.seed,
    }
    return payload, EXIT_OK if payload["all_passed"] else EXIT_VERIFY


def _flatten(payload, prefix=""):
    rows = []
    if isinstance(payload, dict):
        for key in sorted(payload):
            rows.extend(_flatten(payload[key], f"{prefix}{key}."))
    elif isinstance(payload, list):
        for i, item in enumerate(payload):
            rows.extend(_flatten(item, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], payload))
    return rows


def _np_native(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _emit(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2, default=_np_native) + "\n"
    rows = _flatten(payload)
    if fmt == "csv":
        # scalar report tables only: entry/vector dumps stay in the JSON format
        lines = ["key,value"]
        for key, value in rows:
            if ".entries." in key or ".vectors." in key:
                continue
            lines.append(f"{key},{value}")
        return "\n".join(lines) + "\n"
    width = max((len(k) for k, _ in rows), default=0)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in rows)


_DISPATCH = {
    "apply": _cmd_apply,
    "norm": _cmd_norm,
    "gamma2": _cmd_gamma2,
    "factorize": _cmd_factorize,
    "verify-modular": _cmd_verify_modular,
    "verify-factorization": _cmd_verify_factorization,
    "amplify": _cmd_amplify,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from(args)
        payload, code = _DISPATCH[args.command](args, cfg)
    except bio.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ShapeError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    sys.stdout.write(_emit(payload, cfg.output_format))
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
