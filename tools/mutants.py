"""Mutation check of the tier-1 tests: a fixed list of small edits to the
library, each applied to a temporary copy of the repository, with the tier-1
suite run on that copy until its first failure. The checkout is never edited.

A "correctness" mutant changes what the library computes, and the suite must
fail on it (the mutant is killed). A "performance" mutant keeps the results to
roundoff but drops a fast path; only a test that counts the calls the path
avoids can kill it, and where none does (the mutant survives) only the
benchmark can tell it from the library. A change that adds a fast path adds
its mutants here.

    python tools/mutants.py    # the unmutated suite, then every mutant

Exits 1 when the unmutated suite fails or a correctness mutant survives.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# what the tier-1 suite reads: the library, the tests, the demos it runs and
# the README whose examples and API list it checks
COPIED = ("src", "tests", "demos", "README.md", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str   # relative to the repository root
    old: str    # occurs exactly once in the file
    new: str
    kind: str   # "correctness" or "performance"


MUTANTS = (
    Mutant("real form: +Im in the upper right block",
           "src/mptrotter/trotter.py",
           "np.negative(steps.imag, out=real[..., :d, d:])",
           "real[..., :d, d:] = steps.imag", "correctness"),
    Mutant("syrk: complex splits squared as z z^T",
           "src/mptrotter/trotter.py",
           "if dim < SYMMETRIC_MIN_DIM or not _real(decomp):",
           "if dim < SYMMETRIC_MIN_DIM:", "correctness"),
    Mutant("syrk: squaring as z z instead of z z^T",
           "src/mptrotter/trotter.py",
           "z = z @ z.swapaxes(-1, -2)",
           "z = z @ z", "performance"),
    Mutant("sectors: no involution kept",
           "src/mptrotter/linalg.py",
           "return SectorMap(perms) if perms else None",
           "return None", "correctness"),
    Mutant("sectors: no chain reflection",
           "src/mptrotter/linalg.py",
           "if not d & (d - 1):\n        bits",
           "if False:\n        bits", "correctness"),
    Mutant("walsh: difference taken the other way round",
           "src/mptrotter/linalg.py",
           "np.subtract(x[..., 0, :], x[..., 1, :], out=a[..., 1, :])",
           "np.subtract(x[..., 1, :], x[..., 0, :], out=a[..., 1, :])", "correctness"),
    Mutant("dyadic: a constant diagonal is taken for a dyadic matrix",
           "src/mptrotter/linalg.py",
           "return g if np.array_equal(h, g[xor_index(d)]) else None",
           "return g", "correctness"),
    Mutant("coefficients: p = q factor of 1 + eps",
           "src/mptrotter/multiproduct.py",
           "factors.flat[start::ell.size + 1] = 1.0",
           "factors.flat[start::ell.size + 1] = 1.0 + 2.0 ** -52", "correctness"),
    Mutant("coefficients: blocks of 8 factors",
           "src/mptrotter/multiproduct.py",
           "for start in range(0, ell.size, 16):",
           "for start in range(0, ell.size, 8):", "correctness"),
    Mutant("amplify: M^T u in place of M^dag u",
           "src/mptrotter/lcu.py",
           "v = block_t @ u.conj()\n            x = block @ np.conjugate(v, out=v)",
           "x = block @ (block_t @ u)", "correctness"),
    Mutant("amplify: the in-place conjugate dropped",
           "src/mptrotter/lcu.py",
           "x = block @ np.conjugate(v, out=v)",
           "x = block @ v", "correctness"),
    Mutant("kept branch: norm squared as re.re + im.re",
           "src/mptrotter/lcu.py",
           "sqrt(re.dot(re) + im.dot(im))",
           "sqrt(re.dot(re) + im.dot(re))", "correctness"),
    # `or sqrt(0.0)` changes no value (a zero norm stays +0.0); it keeps the
    # import in use, which tier-1 checks
    Mutant("kept branch: norm back on np.linalg.norm",
           "src/mptrotter/lcu.py",
           "nrm = sqrt(re.dot(re) + im.dot(im))",
           "nrm = float(np.linalg.norm(kept)) or sqrt(0.0)", "performance"),
    Mutant("as_state: a NaN norm passes",
           "src/mptrotter/linalg.py",
           "if not abs(n - 1.0) <= 1e-9:  # NaN fails",
           "if abs(n - 1.0) > 1e-9:", "correctness"),
    Mutant("check_count: one below the least count passes",
           "src/mptrotter/linalg.py",
           "if n is None or n != x or n < least:",
           "if n is None or n != x or n < least - 1:", "correctness"),
    Mutant("check_count: the float bound takes the first count that rounds to inf",
           "src/mptrotter/linalg.py",
           "_FLOAT_COUNT_MAX = 2 ** 1024 - 2 ** 970 - 1",
           "_FLOAT_COUNT_MAX = 2 ** 1024 - 2 ** 970", "correctness"),
    Mutant("check_count: a caller's bound ignored, so rounds reach the float bound",
           "src/mptrotter/linalg.py",
           "if n > most:",
           "if n > _FLOAT_COUNT_MAX:", "correctness"),
    Mutant("sweep chunks: each boundary time repeated",
           "src/mptrotter/experiments.py",
           "for part in (ts[i:i + step] for i in range(0, len(ts), step)):",
           "for part in (ts[i:i + step + 1] for i in range(0, len(ts), step)):", "correctness"),
    Mutant("emit: a row is irregular only when every cell is",
           "src/mptrotter/experiments.py",
           "table.state_error, table.fidelity])).all(axis=1)",
           "table.state_error, table.fidelity])).any(axis=1)", "correctness"),
    Mutant("memo: matrices compared as floats",
           "src/mptrotter/linalg.py",
           "bits = np.ascontiguousarray(a).view(np.int64)",
           "bits = np.ascontiguousarray(a).view(np.float64)", "correctness"),
    Mutant("kept branch: only an infinite norm rejected",
           "src/mptrotter/lcu.py",
           "if not isfinite(nrm):",
           "if nrm == float(\"inf\"):", "correctness"),
    Mutant("spectral norm: a diagonal's largest entry without np.abs",
           "src/mptrotter/linalg.py",
           "return float(np.abs(np.diagonal(a)).max())",
           "return float(np.diagonal(a).max())", "correctness"),
    Mutant("spectral norm: diagonal path off",
           "src/mptrotter/linalg.py",
           "if is_diagonal(a):",
           "if False:", "performance"),
    Mutant("spectral norm: dyadic path transforms Re g",
           "src/mptrotter/linalg.py",
           "return float(np.abs(walsh_transform(g)).max())",
           "return float(np.abs(walsh_transform(g.real)).max())", "correctness"),
    Mutant("spectral norm: dyadic path off",
           "src/mptrotter/linalg.py",
           "g = dyadic_row(a)\n    if g is not None:",
           "g = dyadic_row(a)\n    if False:", "performance"),
    Mutant("sectors: a matrix whose diagonal is kept is taken for invariant",
           "src/mptrotter/linalg.py",
           "and (is_diagonal(h) or np.array_equal(h[np.ix_(p, p)], h))",
           "and (True or np.array_equal(h[np.ix_(p, p)], h))", "correctness"),
    Mutant("sector join: the zero slot points at the last block entry",
           "src/mptrotter/linalg.py",
           "self.source = np.full(self.g * n * n, spots.size, dtype=np.intp)",
           "self.source = np.full(self.g * n * n, spots.size - 1, dtype=np.intp)",
           "correctness"),
    Mutant("sector join: back on a scatter into zeros",
           "src/mptrotter/linalg.py",
           """        start = 0
        for b, u in zip(blocks, self.scales):
            np.multiply(b, u, out=flat[..., start:start + u.size].reshape(b.shape))
            start += u.size
        flat[..., start] = 0.0
        pad = np.take(flat, self.source, axis=-1).reshape(lead + (self.g, -1))""",
           """        n = len(self.reps)
        pad = np.zeros(lead + (self.g, n, n), dtype=flat.dtype)
        for c, (i, b, u) in enumerate(zip(self.index, blocks, self.scales)):
            pad[..., c, i[:, None], i] = b * u
        pad = pad.reshape(lead + (self.g, -1))""", "performance"),
    Mutant("sector join: blocks copied without the division by the orbit sizes",
           "src/mptrotter/linalg.py",
           "np.multiply(b, u, out=flat[..., start:start + u.size].reshape(b.shape))",
           "np.multiply(b, 1.0, out=flat[..., start:start + u.size].reshape(b.shape))",
           "correctness"),
    Mutant("sector join: the transform back on walsh_transform",
           "src/mptrotter/linalg.py",
           "pad = (self.chars @ pad.view(self.chars.dtype)).view(pad.dtype)",
           "pad = walsh_transform(pad, axis=-2)", "performance"),
    Mutant("weighted sum: the last band of rows left out",
           "src/mptrotter/linalg.py",
           "for start in range(0, len(rows), step):",
           "for start in range(0, len(rows) - step, step):", "correctness"),
    Mutant("scaling fit: no ceiling at the first saturated error",
           "src/mptrotter/experiments.py",
           "keep = (es > floor) & ~np.logical_or.accumulate(es >= ERROR_CEILING)",
           "keep = es > floor", "correctness"),
    Mutant("eigenpairs: a dyadic row with an imaginary part takes the Walsh path",
           "src/mptrotter/linalg.py",
           "if g is not None and not g.imag.any():",
           "if g is not None:", "correctness"),
    # maxsize 0 keeps the memo's cache_clear and the bound in use, so only
    # the parse count tells
    Mutant("spec parse cache off",
           "src/mptrotter/experiments.py",
           "@functools.lru_cache(maxsize=_SPEC_CACHE_SIZE)",
           "@functools.lru_cache(maxsize=_SPEC_CACHE_SIZE * 0)", "performance"),
    Mutant("sweep blocks keyed by algo.kind, not by schedule",
           "src/mptrotter/experiments.py",
           "key = algo.schedule",
           "key = algo.kind", "correctness"),
    Mutant("load_config ignores listed algorithms",
           "src/mptrotter/experiments.py",
           'tuple(algorithms) if "algorithms" in raw else DEFAULT_ALGORITHMS',
           "DEFAULT_ALGORITHMS", "correctness"),
)


def run_suite(mutant: Mutant | None) -> tuple[bool, str]:
    """(passed, first failure line) of tier-1 with -x on a copy carrying the mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, copy / name)
        if mutant is not None:
            path = copy / mutant.file
            text = path.read_text()
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.name}: old text is not once in {mutant.file}")
            path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=copy, env=env, capture_output=True, text=True)
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return proc.returncode == 0, (failed[0] if failed else proc.stdout.strip()[-200:])


def main() -> int:
    start = time.perf_counter()
    passed, detail = run_suite(None)
    print(f"unmutated suite: {'passed' if passed else 'FAILED ' + detail}", flush=True)
    bad = not passed
    for m in MUTANTS:
        t0 = time.perf_counter()
        survived, detail = run_suite(m)
        verdict = "survived" if survived else "killed"
        print(f"{verdict:8}  {m.kind:11}  {time.perf_counter() - t0:5.1f} s  {m.name}"
              + ("" if survived else f"\n          {detail}"), flush=True)
        bad |= survived and m.kind == "correctness"
    print(f"total {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
