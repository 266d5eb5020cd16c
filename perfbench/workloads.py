"""The benchmark's workloads and the checks that do not trust the package.

A workload hands the runner one cycle of tasks at a time.  Each task has

* ``prepare()`` -- untimed: the benchmark's own reference computations;
* ``run()``     -- timed: calls into the package (or one CLI process);
* ``check(result, ck)`` -- untimed: records failed checks and accuracy digits.

Inputs are drawn from the benchmark's own generator, keyed by the workload
seed and the cycle number, so each cycle sees fresh inputs of the same
shapes.  The package only ever receives the generated arrays.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import os
import resource
import subprocess
import sys
import threading

import numpy as np

import bimult as B
import bimult.cli as bcli
import bimult.io as bio
import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))
RTOL = 1e-9  # relative slack for values that must reproduce or bound exactly
RESTARTS = 20


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=stream)))


def cnormal(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(cnormal(rng, (d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def trace_norm(a: np.ndarray) -> float:
    return float(np.linalg.svd(a, compute_uv=False).sum())


class Check:
    """Failed checks and accuracy digits of one task."""

    def __init__(self):
        self.failures: list[str] = []
        self.upper: list[float] = []
        self.lower: list[float] = []

    def require(self, ok, what: str):
        if not bool(ok):
            self.failures.append(what)

    def close(self, got: float, want: float, what: str, rtol: float = RTOL):
        self.require(abs(got - want) <= rtol * max(1.0, abs(want)), f"{what}: {got!r} vs {want!r}")

    def upper_bound(self, value: float, exact: ref.Bracket, what: str):
        """A reported upper bound: sound against the reference, then scored."""
        self.require(value >= exact.lower * (1 - RTOL) - 1e-12,
                     f"{what}: upper bound {value!r} below exact {exact.lower!r}")
        self.upper.append(ref.upper_digits(value, exact))

    def lower_bound(self, value: float, exact: ref.Bracket, what: str):
        self.require(value <= exact.upper * (1 + RTOL) + 1e-12,
                     f"{what}: lower bound {value!r} above exact {exact.upper!r}")
        self.lower.append(ref.lower_digits(value, exact))


class Task:
    def __init__(self, name, run, check, prepare=None):
        self.name = name
        self.run = run
        self.check = check
        self.prepare = prepare or (lambda: None)


def _unit(ck: Check, mats, what: str):
    total = sum(float(np.linalg.norm(m)) ** 2 for m in mats)
    ck.close(total, 1.0, f"{what}: witness norm")


def _check_gamma2_certificate(ck: Check, m, x_cert, y_cert, a_vecs, b_vecs, value, what):
    """PSD block, diagonal caps and reconstruction of a gamma2 certificate."""
    scale = 1.0 + float(np.abs(m).max())
    block = np.block([[x_cert, m], [m.conj().T, y_cert]])
    ck.require(np.abs(block - block.conj().T).max() <= 1e-9 * scale, f"{what}: block not Hermitian")
    low = float(np.linalg.eigvalsh(0.5 * (block + block.conj().T))[0])
    ck.require(low >= -1e-8 * scale, f"{what}: block not PSD ({low:.2e})")
    caps = max(float(np.real(np.diag(x_cert)).max()), float(np.real(np.diag(y_cert)).max()))
    ck.require(caps <= value * (1 + RTOL) + 1e-12, f"{what}: diagonal {caps!r} above value {value!r}")
    recon = a_vecs.conj() @ b_vecs.T
    ck.require(np.abs(recon - m).max() <= 1e-8 * scale, f"{what}: factors do not reconstruct")


def _check_fields(ck: Check, s, af, bf, upper, exact, what):
    """Factor fields of a Schur kernel: reconstruction and per-slice certificates."""
    scale = 1.0 + float(np.abs(s).max())
    recon = np.einsum("abk,bck->abc", af.conj(), bf)
    ck.require(np.abs(recon - s).max() <= 1e-8 * scale, f"{what}: fields do not reconstruct")
    for t2 in range(s.shape[1]):
        a, b = af[:, t2, :], bf[t2, :, :]
        _check_gamma2_certificate(ck, s[:, t2, :], a.conj() @ a.T, b.conj() @ b.T, a, b,
                                  upper * (1 + 1e-4), f"{what} slice {t2}")
    top = float(np.linalg.norm(af, axis=2).max() * np.linalg.norm(bf, axis=2).max()) if af.size else 0.0
    ck.require(top >= exact.lower * (1 - RTOL) - 1e-12, f"{what}: field norms below exact S1")


# ---------------------------------------------------------------------------
# schur-certify
# ---------------------------------------------------------------------------

SCHUR_KERNELS = (  # each slice shape and property variant appears once
    ("complex-3x3-zero-slice", (3, 2, 3), "zero-slice"),
    ("real-6x6", (6, 1, 6), "real"),
    ("scaled-1e3-2x5", (2, 1, 5), "scaled"),
    ("rank-one-3x3", (3, 2, 3), "rank-one"),
)


def schur_kernel(rng, dims, kind) -> np.ndarray:
    if kind == "real":
        return rng.standard_normal(dims).astype(complex)
    if kind == "rank-one":  # slice t2 is u[:, t2] v[t2, :]
        return np.einsum("ab,bc->abc", cnormal(rng, dims[:2]), cnormal(rng, dims[1:]))
    data = cnormal(rng, dims)
    if kind == "zero-slice":
        data[:, 1, :] = 0.0
    if kind == "scaled":
        data *= 1e3
    return data


class SchurCertify:
    name = "schur-certify"

    def setup(self, seed, workdir):
        pass

    def cycle(self, seed, c):
        tasks = []
        for i, (label, dims, kind) in enumerate(SCHUR_KERNELS):
            data = schur_kernel(make_rng(seed, 1, c, i), dims, kind)
            tasks.append(self._task(label, B.SchurSymbol(data)))
        return tasks

    @staticmethod
    def _task(label, s):
        box = {}

        def prepare():
            box["exact"] = ref.schur_s1_bracket(s.data)

        def run():
            upper, lower = B.s1_norm_schur(s, tol=1e-6, restarts=RESTARTS)
            a, b = B.schur_s1_factorize(s, tol=1e-6)
            fam = B.to_weak_factorization(a, b)
            triple = B.AlgebraTriple(*(B.preset_algebra("full", d) for d in s.dims))
            report = B.verify_factorization(B.embed_schur(s), fam, triple, lower)
            return upper, lower, a, b, fam, report

        def check(result, ck):
            upper, lower, a, b, fam, report = result
            exact = box["exact"]
            ck.upper_bound(upper, exact, label)
            ck.lower_bound(lower.value, exact, label)
            x, y = lower.witness_x[0], lower.witness_y[0]
            _unit(ck, [x], f"{label} x")
            _unit(ck, [y], f"{label} y")
            ck.close(B.evaluate_bilinear(s, "S1", x, y), lower.value, f"{label}: evaluate_bilinear")
            ck.close(trace_norm(ref.schur_action(s.data, y, x)), lower.value, f"{label}: witness value")
            _check_fields(ck, s.data, a.vectors, b.vectors, upper, exact, label)
            ck.require(fam.count == a.k, f"{label}: family size {fam.count} vs {a.k}")
            ck.require(report.passed, f"{label}: FactorizationReport.passed is false")

        return Task(label, run, check, prepare)


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------


def _matrix(obj) -> np.ndarray:
    """Parse a matrix object of the CLI's JSON output with the benchmark's own reader."""
    r, c = obj["dims"]
    return np.array([complex(re, im) for re, im in obj["entries"]]).reshape(r, c)


def _rows(text: str, sep: str | None) -> dict:
    """Key/value rows of the CLI's csv (sep ",") or text (sep None) output."""
    return dict(line.split(sep, 1) for line in text.splitlines())


class CliSession:
    """A fixed cycle of commands, one ``python -m bimult.cli`` process each."""

    name = "cli-session"
    # Its bounds are checked for soundness but not scored: the run repeats a
    # handful of values, which spread too widely from seed to seed to bound.
    scores_digits = False

    def __init__(self):
        self.traced = False
        self.trace_files: list[str] = []
        self.peak_rss_kb = 0
        self.child_cpu_s = 0.0
        self.files = {}
        self.data = {}
        self.expected = {}

    def setup(self, seed, workdir):
        rng = make_rng(seed, 7)
        f = self.files
        self.workdir = workdir

        def write(name, obj):
            path = os.path.join(workdir, name)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
            f[name] = path

        d = self.data
        d["sym5"] = cnormal(rng, (5,) * 6)
        d["x5"], d["y5"] = cnormal(rng, (5, 5)), cnormal(rng, (5, 5))
        write("sym5.json", bio.symbol3_to_json(B.Symbol3(d["sym5"])))
        write("x5.json", bio.matrix_to_json(d["x5"]))
        write("y5.json", bio.matrix_to_json(d["y5"]))
        write("x3.json", bio.matrix_to_json(cnormal(rng, (3, 3))))
        # d = 4: members of full (x) W(C + M3)W* (x) diagonal as sums of elementary tensors
        w = unitary(rng, 4)
        inner = lambda k: w @ k @ w.conj().T  # noqa: E731
        block = np.zeros((4, 4), bool)
        block[0, 0] = True
        block[1:, 1:] = True
        gens = [inner(np.where(block, cnormal(rng, (4, 4)), 0)) for _ in range(2)]
        write("alg4.json", {"dim": 4, "generators": [bio.matrix_to_json(g) for g in gens]})
        phi4 = sum(np.einsum("ab,cd,ef->abcdef", cnormal(rng, (4, 4)),
                             inner(np.where(block, cnormal(rng, (4, 4)), 0)),
                             np.diag(cnormal(rng, 4))) for _ in range(3))
        off = (inner(np.where(block, 0, cnormal(rng, (4, 4)))), cnormal(rng, (4, 4)),
               np.diag(cnormal(rng, 4)))
        d["dist4"] = float(np.prod([np.linalg.norm(m) for m in off]))
        write("sym4.json", bio.symbol3_to_json(B.Symbol3(phi4)))
        write("sym4n.json", bio.symbol3_to_json(
            B.Symbol3(phi4 + np.einsum("ab,cd,ef->abcdef", off[1], off[0], off[2]))))
        d["k646"] = cnormal(rng, (6, 4, 6))
        write("k646.json", bio.schur_to_json(B.SchurSymbol(d["k646"])))
        d["m6"] = cnormal(rng, (6, 6))
        write("m6.json", bio.matrix_to_json(d["m6"]))
        d["k222"] = cnormal(rng, (2, 2, 2))
        write("k222.json", bio.schur_to_json(B.SchurSymbol(d["k222"])))
        # a kernel with a known weak factorization, built from two vector fields
        af, bf = cnormal(rng, (2, 2, 2)), cnormal(rng, (2, 3, 2))
        write("kfam.json", bio.schur_to_json(B.SchurSymbol(np.einsum("abk,bck->abc", af.conj(), bf))))
        write("family.json", bio.family_to_json(B.FactorFamily(
            a_list=tuple(B.PairSymbol(_diagonal_pair(af[:, :, i].conj())) for i in range(2)),
            b_list=tuple(B.PairSymbol(_diagonal_pair(bf[:, :, i])) for i in range(2)),
            dims=(2, 2, 3))))
        d["k232"] = cnormal(rng, (2, 3, 2))
        write("k232.json", bio.schur_to_json(B.SchurSymbol(d["k232"])))
        with open(os.path.join(workdir, "bad.json"), "w", encoding="utf-8") as fh:
            fh.write('{"kind": "schur", "dims": [2, 2, 2], "entries": [[1, 0],')
        f["bad.json"] = os.path.join(workdir, "bad.json")

    def commands(self):
        f = self.files
        return [
            ("apply-d5", ["apply", "--input", f["sym5.json"], "--x", f["x5.json"],
                          "--y", f["y5.json"]], 0),
            ("verify-modular-d4", ["verify-modular", "--input", f["sym4.json"],
                                   "--algebras", f"full,@{f['alg4.json']},diagonal"], 0),
            ("verify-modular-d4-csv", ["verify-modular", "--input", f["sym4n.json"], "--algebras",
                                       f"full,@{f['alg4.json']},diagonal", "--format", "csv"], 0),
            ("norm-s2", ["norm", "--input", f["k646.json"], "--target", "s2"], 0),
            ("norm-s2-text", ["norm", "--input", f["k646.json"], "--target", "s2",
                              "--format", "text"], 0),
            ("norm-b-witnesses", ["norm", "--input", f["k646.json"], "--target", "b",
                                  "--witnesses"], 0),
            ("gamma2-6x6", ["gamma2", "--input", f["m6.json"], "--witnesses", "--tol", "1e-3"], 0),
            ("factorize", ["factorize", "--input", f["k222.json"], "--tol", "1e-3"], 0),
            ("verify-factorization", ["verify-factorization", "--input", f["kfam.json"],
                                      "--family", f["family.json"], "--algebras", "full,full,full"], 0),
            ("amplify-n2", ["amplify", "--input", f["k232.json"], "--n", "2"], 0),
            ("selftest", ["selftest"], 0),
            ("malformed-json", ["norm", "--input", f["bad.json"], "--target", "s2"], 2),
            ("shape-mismatch", ["apply", "--input", f["sym5.json"], "--x", f["x3.json"],
                                "--y", f["y5.json"]], 3),
        ]

    def prepare_run(self):
        """In-process results of every command, and the references they are checked against."""
        for name, argv, _ in self.commands():
            out, err = _io.StringIO(), _io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = bcli.main(list(argv))
            self.expected[name] = (code, out.getvalue().encode())
        d = self.data
        d["s1_k222"] = ref.schur_s1_bracket(d["k222"])
        d["s1_k232"] = ref.schur_s1_bracket(d["k232"])
        d["g2_m6"] = ref.gamma2_bracket(d["m6"])

    def cycle(self, seed, c):
        return [self._task(name, argv, code) for name, argv, code in self.commands()]

    def _spawn(self, name, argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
        if self.traced:
            out = os.path.join(self.workdir, f"trace-{len(self.trace_files)}.json")
            self.trace_files.append(out)
            cmd = [sys.executable, os.path.join(HERE, "launch.py"), out, *argv]
        else:
            cmd = [sys.executable, "-m", "bimult.cli", *argv]
        errpath = os.path.join(self.workdir, "stderr.txt")
        with open(errpath, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env)
            watchdog = threading.Timer(120.0, proc.kill)
            watchdog.start()
            try:
                stdout = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if not self.traced:
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            self.child_cpu_s += usage.ru_utime + usage.ru_stime
        return proc.returncode, stdout

    def _task(self, name, argv, want_code):
        def run():
            return self._spawn(name, argv)

        def check(result, ck):
            code, stdout = result
            ck.require(code == want_code, f"{name}: exit code {code}, expected {want_code}")
            exp_code, exp_out = self.expected[name]
            ck.require(code == exp_code and stdout == exp_out,
                       f"{name}: stdout differs from the in-process result")
            if code == 0:
                getattr(self, "_check_" + name.replace("-", "_"))(stdout.decode(), ck)
            else:
                ck.require(stdout == b"", f"{name}: output on a failed command")

        return Task(name, run, check)

    # per-command checks of the printed results against the references
    def _check_apply_d5(self, out, ck):
        got = json.loads(out)
        want = ref.symbol_action(self.data["sym5"], self.data["y5"], self.data["x5"])
        res = _matrix(got["result"])
        ck.require(np.abs(res - want).max() <= 1e-10 * (1 + np.abs(want).max()), "apply: wrong action")
        ck.close(got["schatten"]["s1"], trace_norm(want), "apply: s1", rtol=1e-10)

    def _check_verify_modular_d4(self, out, ck):
        got = json.loads(out)
        ck.require(got["member"] and got["modular"] and got["equivalent"], "verify-modular: member")

    def _check_verify_modular_d4_csv(self, out, ck):
        rows = _rows(out, ",")
        ck.require(rows.get("member") == "False" and rows.get("modular") == "False"
                   and rows.get("equivalent") == "True", "verify-modular csv: non-member")
        ck.upper_bound(float(rows["membership_residual"]), ref.exact_bracket(self.data["dist4"]),
                       "verify-modular csv: membership residual")

    def _check_norm_s2(self, out, ck):
        got = json.loads(out)
        exact = ref.sup_norm(self.data["k646"])
        ck.close(got["exact_value"], exact, "norm s2: exact value", rtol=1e-15)
        ck.lower_bound(got["lower_bound"]["value"], ref.exact_bracket(exact), "norm s2")

    def _check_norm_s2_text(self, out, ck):
        rows = _rows(out, None)
        want = json.loads(self.expected["norm-s2"][1])
        ck.require(float(rows["lower_bound.value"]) == want["lower_bound"]["value"]
                   and float(rows["exact_value"]) == want["exact_value"], "norm s2 text: values")

    def _check_norm_b_witnesses(self, out, ck):
        got = json.loads(out)["lower_bound"]
        x, y = _matrix(got["witness_x"][0]), _matrix(got["witness_y"][0])
        _unit(ck, [x], "norm b x")
        _unit(ck, [y], "norm b y")
        act = ref.schur_action(self.data["k646"], y, x)
        ck.close(float(np.linalg.svd(act, compute_uv=False)[0]), got["value"], "norm b: witness value")
        ck.lower_bound(got["value"], ref.exact_bracket(ref.sup_norm(self.data["k646"])), "norm b")

    def _check_gamma2_6x6(self, out, ck):
        got = json.loads(out)
        m = self.data["m6"]
        _check_gamma2_certificate(ck, m, _matrix(got["x_cert"]), _matrix(got["y_cert"]),
                                  _matrix(got["a_vecs"]), _matrix(got["b_vecs"]), got["value"], "gamma2")
        ck.upper_bound(got["value"], self.data["g2_m6"], "gamma2")

    def _check_factorize(self, out, ck):
        got = json.loads(out)
        ck.require(got["report"]["passed"], "factorize: report not passed")
        af = _field(got["a_field"])
        bf = _field(got["b_field"])
        exact = self.data["s1_k222"]
        top = float(np.linalg.norm(af, axis=2).max() * np.linalg.norm(bf, axis=2).max())
        _check_fields(ck, self.data["k222"], af, bf, top, exact, "factorize")
        ck.upper_bound(top, exact, "factorize: field norms")
        ck.lower_bound(got["measured_lower_bound"]["value"], exact, "factorize: measured")

    def _check_verify_factorization(self, out, ck):
        got = json.loads(out)
        ck.require(got["report"]["passed"], "verify-factorization: report not passed")

    def _check_amplify_n2(self, out, ck):
        got = json.loads(out)["levels"]
        for level in ("1", "2"):
            ck.lower_bound(got[level]["value"], self.data["s1_k232"], f"amplify level {level}")

    def _check_selftest(self, out, ck):
        got = json.loads(out)
        ck.require(got["all_passed"], "selftest: a check failed")

    def peak_rss_mb(self) -> float:
        return self.peak_rss_kb / 1024.0


def _diagonal_pair(values: np.ndarray) -> np.ndarray:
    """Pair symbol tensor with data[i, i, j, j] = values[i, j]."""
    da, db = values.shape
    data = np.zeros((da, da, db, db), complex)
    i, j = np.arange(da)[:, None], np.arange(db)[None, :]
    data[i, i, j, j] = values
    return data


def _field(obj) -> np.ndarray:
    na, nb = obj["dims"]
    return np.array([complex(re, im) for re, im in obj["vectors"]]).reshape(na, nb, obj["k"])


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (SchurCertify, CliSession)}
