"""Layer tracing from outside the library.

``Tracer.install()`` replaces each public function named in ``SPANS`` with
a wrapper that records a span (name, parent span, start, duration, op) and
rebinds the wrapper under every name that any ``triadtet`` module holds
for the original, so calls between modules are seen too (``bdverify``,
``synthesis``, ``tet`` and ``sl2`` each import ``eigen_decompose``).
``RMatrix.__mul__`` is wrapped to count matrix products.  ``uninstall()``
puts every original back.  Nothing under ``triadtet`` is edited.

Bookkeeping time is subtracted from every enclosing span, so a span's
duration is the time spent in the library.  Inclusive time of a name is
counted only at its outermost active span; self time is the duration minus
the durations of the wrapped child spans.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter_ns

from triadtet import bdverify, io, linalg, reduction, synthesis, tet

# (module, function) pairs wrapped with a span; the span name is
# "<layer>.<function>" with the layer taken from the module name.
SPANS = (
    (linalg, "char_poly"),
    (linalg, "rational_roots"),
    (linalg, "eigen_decompose"),
    (linalg, "rref"),
    (linalg, "kernel_basis"),
    (linalg, "restricted_power_bijective"),
    (linalg, "solve_linear_matrix_system"),
    (linalg, "generated_algebra_dimension"),
    (bdverify, "verify_bd_triad"),
    (bdverify, "verify_bd_triple"),
    (reduction, "reduce_triad"),
    (synthesis, "synthesize_tet"),
    (synthesis, "raising_maps"),
    (synthesis, "construct_B_prime_dprime"),
    (tet, "verify_tet_relations"),
    (tet, "spectrum_diameter"),
    (tet, "irreducible_sufficient"),
    (tet, "corner_triads_are_bd_triads"),
    (io, "load_triad"),
    (io, "save_tet_module"),
)

# linalg functions whose matrix and coefficient arguments and results are
# scanned for the largest numerator or denominator bit length.
_SCANNED = {
    "linalg.char_poly",
    "linalg.rational_roots",
    "linalg.rref",
    "linalg.kernel_basis",
    "linalg.restricted_power_bijective",
    "linalg.solve_linear_matrix_system",
    "linalg.generated_algebra_dimension",
}


def layer_name(module, func: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{func}"


def entry_bits(obj, depth: int = 2) -> int:
    """Largest numerator or denominator bit length inside ``obj``.

    Bare ints are sizes, ranks or powers, not entries, and count as 0.
    """
    if isinstance(obj, Fraction):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    if isinstance(obj, linalg.RMatrix):
        rows = obj.entries
    elif isinstance(obj, linalg.Subspace):
        rows = obj.basis
    elif isinstance(obj, (tuple, list)) and depth:
        return max((entry_bits(x, depth - 1) for x in obj), default=0)
    else:
        return 0
    best = 0
    for row in rows:
        for v in row:
            b = v.numerator.bit_length()
            if b > best:
                best = b
            b = v.denominator.bit_length()
            if b > best:
                best = b
    return best


def sign_key(m: linalg.RMatrix) -> tuple:
    """Entries of m or -m, whichever has a positive first nonzero entry."""
    for row in m.entries:
        for v in row:
            if v:
                return m.entries if v > 0 else (-m).entries
    return m.entries


class Tracer:
    """Spans and counters for the ops run while the wrappers are installed."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.inclusive_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.spans: list[tuple] = []
        self.matmul_calls = 0
        self.max_entry_bits = 0
        self.eigen_distinct = 0
        self.triad_refuted = 0
        self.ops = 0
        self._op = None
        self._op_keys: set = set()
        self._stack: list[list] = []
        self._active: Counter = Counter()
        self._overhead_ns = 0
        self._restore: list[tuple] = []

    def begin_op(self, ident: str) -> None:
        self._op = ident
        self._op_keys = set()
        self.ops += 1

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in sys.modules.items()
            if name == "triadtet" or name.startswith("triadtet.")
        ]
        for module, func in SPANS:
            original = getattr(module, func)
            wrapper = self._wrap(layer_name(module, func), original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        original_mul = linalg.RMatrix.__mul__
        tracer = self

        def counted_mul(left, right):
            result = original_mul(left, right)
            if isinstance(right, linalg.RMatrix):
                t = perf_counter_ns()
                tracer.matmul_calls += 1
                bits = entry_bits(result)
                if bits > tracer.max_entry_bits:
                    tracer.max_entry_bits = bits
                tracer._overhead_ns += perf_counter_ns() - t
            return result

        self._restore.append((linalg.RMatrix, "__mul__", original_mul))
        linalg.RMatrix.__mul__ = counted_mul

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        scanned = name in _SCANNED

        def wrapper(*args, **kwargs):
            return tracer._call(name, fn, scanned, args, kwargs)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _call(self, name, fn, scanned, args, kwargs):
        t_in = perf_counter_ns()
        parent = self._stack[-1][0] if self._stack else None
        span_id = len(self.spans)
        self.spans.append(None)
        if name == "linalg.eigen_decompose":
            key = sign_key(args[0])
            if key not in self._op_keys:
                self._op_keys.add(key)
                self.eigen_distinct += 1
        if scanned:
            self._note_bits(args)
        frame = [span_id, 0]
        self._stack.append(frame)
        self._active[name] += 1
        start = perf_counter_ns()
        self._overhead_ns += start - t_in
        overhead_at_start = self._overhead_ns
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self._active[name] -= 1
            duration = end - start - (self._overhead_ns - overhead_at_start)
            self.calls[name] += 1
            if not self._active[name]:
                self.inclusive_ns[name] += duration
            self.self_ns[name] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            self.spans[span_id] = (span_id, parent, self._op, name, start, duration)
            if scanned and result is not None:
                self._note_bits(result)
            if (
                name == "bdverify.verify_bd_triad"
                and isinstance(result, bdverify.Refutation)
            ):
                self.triad_refuted += 1
            self._overhead_ns += perf_counter_ns() - end

    def _note_bits(self, obj) -> None:
        bits = entry_bits(obj)
        if bits > self.max_entry_bits:
            self.max_entry_bits = bits
