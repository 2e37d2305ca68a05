"""Per-layer tracing of `semiortho`, done from outside the program.

`Tracer.install` replaces each function named in LAYERS by a wrapper that
records a span (name, start, end, parent span, job) and adds the span's self
time -- its duration minus the time its child spans cover -- to per-function
totals.  The wrapper is bound in every module and class namespace of the
package that holds the original object, so `from .x import f` copies are
traced too; `uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# layer (module of the package) -> functions wrapped; "Class.method" wraps
# the method on the class, where `mul` and `init` stand for the dunders
LAYERS = {
    "exact_linalg": ["det", "inverse_unimodular", "char_poly_rat", "rank_over_q",
                     "kernel_basis", "RatMatrix.mul", "RatMatrix.inverse", "RatMatrix.det",
                     "IntMatrix.mul"],
    "bilinear_form": ["BilinearLattice.init", "pair", "canonical_operator", "left_dual",
                      "right_dual", "verify_canmatr", "sum_projections"],
    "mutations": ["SonCollection.gram", "is_semiorthonormal", "mutate_pair", "apply_braid",
                  "orbit_search", "_sign_canonical", "_mutate_gram"],
    "classification": ["detect_type_gram", "kappa_of_gram", "rational_roots",
                       "_jordan_partition", "_summands"],
    "k0_pn": ["gram_matrix", "hilbert_pairing", "sigma_pairing", "_basis_series",
              "DSeries.mul"],
    "markov": ["reduce_to_canonical", "replay_trace", "realize_trace", "apply_word"],
    "serialize": ["loads", "dumps", "decode_lattice", "decode_collection", "encode_report",
                  "encode_trace", "encode_orbit_report", "encode_matrix"],
    "cli": ["main"],
}
_DUNDER = {"mul": "__mul__", "init": "__init__"}

ORBIT = "mutations.orbit_search"

# derived counters: name -> (unit, better)
COUNTERS = {
    "exact_linalg.char_poly_rat.max_coeff_bits": ("bits", "lower"),
    "mutations.orbit_search.nodes": ("count", "higher"),
    "mutations.orbit_search.truncated": ("count", "lower"),
    "mutations.orbit_search.new_state_ratio": ("ratio", "higher"),
    "classification.rational_roots.candidates": ("count", "lower"),
    "classification.rational_roots.hit_ratio": ("ratio", "higher"),
    "markov.reduce_to_canonical.moves": ("count", "lower"),
}


def function_names() -> list[str]:
    return [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]


def catalogue() -> list[tuple[str, str, str]]:
    """Every metric a traced pass reports, as (name, unit, better)."""
    out = []
    for fn in function_names():
        out += [(fn + ".calls", "count", "lower"), (fn + ".self_s", "s", "lower")]
    out += [(name, unit, better) for name, (unit, better) in COUNTERS.items()]
    return out


def _coeff_bits(tracer, result):
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in result),
               default=0)
    key = "exact_linalg.char_poly_rat.max_coeff_bits"
    tracer.counters[key] = max(tracer.counters[key], bits)


def _orbit_report(tracer, report):
    tracer.counters["mutations.orbit_search.nodes"] += report.orbit_size
    tracer.counters["mutations.orbit_search.truncated"] += int(report.truncated)
    tracer.counters["orbit.new_states"] += report.orbit_size - 1


def _gram_mutated(tracer, _):
    # only mutations the orbit search attempts; Markov replay calls it as well
    if any(frame[1] == ORBIT for frame in tracer.stack):
        tracer.counters["orbit.attempts"] += 1


def _reduction(tracer, trace):
    tracer.counters["markov.reduce_to_canonical.moves"] += len(trace.moves)


_HOOKS = {
    "exact_linalg.char_poly_rat": _coeff_bits,
    ORBIT: _orbit_report,
    "mutations._mutate_gram": _gram_mutated,
    "markov.reduce_to_canonical": _reduction,
}


def package_namespaces() -> list:
    """Modules of the loaded package and the classes they define."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "semiortho" or name.startswith("semiortho.")]
    classes = [v for m in modules for v in vars(m).values()
               if isinstance(v, type) and v.__module__ == m.__name__]
    return modules + classes


class Tracer:
    """Spans and per-function totals for one process; install once at a time."""

    def __init__(self):
        self.job = None
        self.keep_spans = True
        self.stack: list[list] = []  # open spans: [span id, name, child seconds]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self.spans: list[tuple] = []  # (span id, name, start, end, parent id, job)
        self.reset()

    def reset(self):
        """Start a new pass: drop totals and counters; spans stay until the tracer goes."""
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.self_by_job: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()

    def install(self):
        import semiortho.cli  # noqa: F401  (loads every module of the package)

        if self._patched:
            raise RuntimeError("tracer is already installed")
        owners = package_namespaces()
        for layer, names in LAYERS.items():
            module = sys.modules[f"semiortho.{layer}"]
            for name in names:
                cls_name, _, attr = name.rpartition(".")
                if cls_name:
                    original = vars(getattr(module, cls_name))[_DUNDER.get(attr, attr)]
                else:
                    original = getattr(module, name)
                metric = f"{layer}.{name}"
                self._rebind(owners, original, self._span(metric, original, _HOOKS.get(metric)))
        poly_eval = sys.modules["semiortho.classification"]._poly_eval
        self._rebind(owners, poly_eval, self._candidate(poly_eval))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _rebind(self, owners, original, wrapper):
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, wrapper)
                    self._patched.append((owner, attr, original))

    def _span(self, name, fn, hook):
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                self.self_by_job[self.job] += duration - frame[2]
                if self.keep_spans:
                    self.spans.append((span_id, name, start, end,
                                       parent[0] if parent else None, self.job))
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def _candidate(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counters["roots.candidates"] += 1
            self.counters["roots.hits"] += int(result == 0)
            return result

        return counted

    def metrics(self) -> dict[str, float]:
        """Totals of the current pass, keyed by the names in catalogue()."""
        out = {}
        for fn in function_names():
            out[fn + ".calls"] = self.calls[fn]
            out[fn + ".self_s"] = self.self_s[fn]
        c = self.counters
        for name in ("exact_linalg.char_poly_rat.max_coeff_bits", "mutations.orbit_search.nodes",
                     "mutations.orbit_search.truncated", "markov.reduce_to_canonical.moves"):
            out[name] = c[name]
        out["mutations.orbit_search.new_state_ratio"] = _ratio(c["orbit.new_states"],
                                                               c["orbit.attempts"])
        out["classification.rational_roots.candidates"] = c["roots.candidates"]
        out["classification.rational_roots.hit_ratio"] = _ratio(c["roots.hits"],
                                                                c["roots.candidates"])
        return out


def _ratio(useful: int, attempted: int) -> float:
    return useful / attempted if attempted else 0.0
