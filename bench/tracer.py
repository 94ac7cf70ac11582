"""Span tracer for the traced benchmark run.

`install` replaces each listed public function at every module binding that
holds it (for example `mptrotter.linalg.spectral_norm` and the copy imported
into `mptrotter.hamiltonian`) with a wrapper that records a span: name, start,
end, parent span and op id. Spans stay in memory and `dump` writes them out at
the end. A layer's self time is its span minus the time its child spans cover.
No library code changes; `uninstall` puts the original bindings back.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

PACKAGE = "mptrotter"
TRACED = (
    ("linalg", "hermitian_propagator"),
    ("linalg", "spectral_norm"),
    ("linalg", "complete_unitary"),
    ("linalg", "kron"),
    ("hamiltonian", "build_spin_hamiltonian"),
    ("hamiltonian", "total"),
    ("trotter", "trotterize"),
    ("trotter", "second_order_step"),
    ("multiproduct", "mp_operator"),
    ("multiproduct", "make_schedule"),
    ("lcu", "build_lcu"),
    ("lcu", "apply_lcu"),
    ("lcu", "apply_oaa"),
    ("experiments", "run_sweep"),
    ("experiments", "emit"),
    ("experiments", "load_config"),
    ("experiments", "fit_order"),
    ("cli", "main"),
)
NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)
# (name, unit, better) of every metric a traced run reports, per op.
DERIVED = (
    ("trotter.trotterize.distinct_ratio", "ratio", "higher"),
    ("lcu.build_lcu.w_bytes", "bytes", "lower"),
    ("lcu.apply_oaa.flops", "flop", "lower"),
    ("lcu.degenerate_ratio", "ratio", "lower"),
    ("experiments.emit.bytes", "bytes", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)
PER_LAYER = tuple(
    m for name in NAMES for m in ((f"{name}.calls", "count", "lower"),
                                  (f"{name}.self_ms", "ms", "lower"))
) + DERIVED


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self) -> None:
        n = len(NAMES)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[list] = []  # [span index, seconds covered by children]
        self._op = -1
        self._patches: list[tuple] = []
        self.ops = 0
        self._pairs: set = set()
        self.distinct_pairs = 0
        self.w_bytes = 0
        self.oaa_flops = 0
        self.applications = 0
        self.degenerate = 0
        self.emit_bytes = 0
        self._observers = {
            "trotter.trotterize": self._see_trotterize,
            "lcu.build_lcu": self._see_build_lcu,
            "lcu.apply_lcu": self._see_outcome,
            "lcu.apply_oaa": self._see_apply_oaa,
            "experiments.emit": self._see_emit,
        }

    # -- bindings -------------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for idx, (mod, fn) in enumerate(TRACED):
            original = getattr(sys.modules.get(f"{PACKAGE}.{mod}"), fn, None)
            if original is None:  # a layer function that no longer exists reports 0 calls
                continue
            wrapper = self._wrap(idx, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._pairs.clear()

    def end_op(self) -> None:
        self.distinct_pairs += len(self._pairs)
        self.ops += 1
        self._op = -1

    def _wrap(self, idx: int, fn):
        observe = self._observers.get(NAMES[idx])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(self.span_start)
            self.span_name.append(idx)
            self.span_parent.append(self._open[-1][0] if self._open else -1)
            self.span_op.append(self._op)
            frame = [span, 0.0]
            self._open.append(frame)
            start = clock()
            self.span_start.append(start)
            self.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._open.pop()
                self.span_end[span] = end
                self.calls[idx] += 1
                self.self_s[idx] += (end - start) - frame[1]
                if self._open:
                    self._open[-1][1] += end - start
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    # -- derived counts ---------------------------------------------------------

    def _see_trotterize(self, args, kwargs, result) -> None:
        self._pairs.add((float(_arg(args, kwargs, 1, "t")), int(_arg(args, kwargs, 2, "l"))))

    def _see_build_lcu(self, args, kwargs, result) -> None:
        w = getattr(result, "w", None)
        if w is not None:
            self.w_bytes += w.nbytes

    def _see_outcome(self, args, kwargs, result) -> None:
        self.applications += 1
        self.degenerate += bool(result.degenerate)

    def _see_apply_oaa(self, args, kwargs, result) -> None:
        # dense model: forming -W R W^dag R is three N^3 complex products
        # (8 real flops per multiply-add), then n + 1 matvecs of N^2.
        circuit = _arg(args, kwargs, 0, "circuit")
        n = int(_arg(args, kwargs, 2, "n"))
        size = circuit.ancilla_dim * circuit.data_dim
        self.oaa_flops += (24 * size ** 3 if n > 0 else 0) + 8 * size ** 2 * (n + 1)
        self._see_outcome(args, kwargs, result)

    def _see_emit(self, args, kwargs, result) -> None:
        self.emit_bytes += os.path.getsize(_arg(args, kwargs, 2, "path"))

    # -- results ------------------------------------------------------------------

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        """Every PER_LAYER metric, per traced op."""
        ops = max(self.ops, 1)
        out = {}
        for idx, name in enumerate(NAMES):
            out[f"{name}.calls"] = self.calls[idx] / ops
            out[f"{name}.self_ms"] = 1e3 * self.self_s[idx] / ops
        trotterize_calls = self.calls[NAMES.index("trotter.trotterize")]
        out["trotter.trotterize.distinct_ratio"] = (
            self.distinct_pairs / trotterize_calls if trotterize_calls else 0.0)
        out["lcu.build_lcu.w_bytes"] = self.w_bytes / ops
        out["lcu.apply_oaa.flops"] = self.oaa_flops / ops
        out["lcu.degenerate_ratio"] = (
            self.degenerate / self.applications if self.applications else 0.0)
        out["experiments.emit.bytes"] = self.emit_bytes / ops
        out["trace.overhead_frac"] = overhead_frac
        return out

    def dump(self, path) -> None:
        """Write every span: name index, parent span, op id, start and end (s)."""
        np.savez(path, names=np.array(NAMES),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 op=np.frombuffer(self.span_op, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
