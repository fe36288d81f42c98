"""Outside-in layer tracer for the benchmark.

The tracer wraps the library's public functions at every module attribute
through which a caller looks them up (``cli.lambda_profile``,
``spectral.factor``, ``orthopoly.ldl_decompose``, the package namespace, ...),
so the program itself is not edited.  Each wrapped call records a span
(name, start, end, parent, request id) in memory.  Hot inner calls are only
counted, since a span per call would cost more than the call: the moment
cache lookup, the inertia count of the bisection, and the closed-form family
moments, whose time is also summed and removed from the enclosing span's
self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: int | None = None
    inner: float = 0.0  # time of timed hot calls (and calibration kernels) directly in this span
    attrs: dict = field(default_factory=dict)


def self_times(spans):
    """Duration of each span minus the part of it its children cover.

    Children are clipped to the parent interval and merged before their
    coverage is subtracted, so overlapping or overhanging children are
    counted once.  ``inner`` time of hot calls is subtracted as well.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[i]
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(max(0.0, s.end - s.start - covered - s.inner))
    return out


class Tracer:
    """Spans and counters of one traced run; nothing is written until asked."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts = defaultdict(int)
        self.times = defaultdict(float)
        self.request: int | None = None
        self.excluded = 0.0  # calibration kernel time so far, kept out of timed hot calls

    def open(self, name, **attrs) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               request=self.request, attrs=attrs))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self.stack.pop()

    def exclude(self, seconds: float) -> None:
        """Keep time spent outside the program (a calibration kernel) out of self times."""
        self.excluded += seconds
        if self.stack:
            self.spans[self.stack[-1]].inner += seconds

    # -- wrappers -------------------------------------------------------------

    def spanned(self, name, fn, attrs=None, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name, **(attrs(args, kwargs) if attrs else {}))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result:
                on_result(self.spans[idx], result)
            return result

        return wrapper

    def counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, key, fn):
        """Count and time ``fn``; a kernel run during the call is not its time."""
        counts, times, spans, stack = self.counts, self.times, self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            excluded = self.excluded
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0 - (self.excluded - excluded)
                counts[key] += 1
                times[key] += dt
                if stack:
                    spans[stack[-1]].inner += dt

        return wrapper

    def to_json(self):
        return {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "request": s.request, **s.attrs}
                for s in self.spans
            ],
            "counts": dict(self.counts),
            "times": dict(self.times),
        }


# ---------------------------------------------------------------------------
# what is wrapped
# ---------------------------------------------------------------------------

PACKAGE = "hankelmoments"

# (defining module, function, span name)
SPANNED = [
    ("moments", "classify", "moments.classify"),
    ("hankel", "matvec_naive", "hankel.matvec_naive"),
    ("hankel", "matvec_fft", "hankel.matvec_fft"),
    ("hankel", "apply_H_via_series", "hankel.series"),
    ("hankel", "domain_diagnostic", "hankel.domain"),
    ("triangular", "ldl_decompose", "triangular.ldl"),
    ("triangular", "invert_unit_upper", "triangular.invert"),
    ("orthopoly", "factor", "orthopoly.factor"),
    ("orthopoly", "recurrence", "orthopoly.recurrence"),
    ("spectral", "lambda_profile", "spectral.profile"),
    ("spectral", "householder_tridiagonalize", "spectral.tridiag"),
    ("spectral", "extreme_eigenvalue", "spectral.bisect"),
    ("spectral", "bigfloat_extremes", "spectral.extremes"),
    ("spectral", "xi_vector", "spectral.xi"),
    ("spectral", "h_xi_identity", "spectral.xi"),
    ("extremal", "perturbation_check", "extremal.perturbation"),
    ("extremal", "kernel_vector_check", "extremal.kernel_vector"),
    ("extremal", "cd_kernel", "extremal.cd_kernel"),
    ("cli", "main", "cli"),
    ("serialize", "dump_json", "serialize"),
    ("serialize", "profile_to_csv", "serialize"),
    ("serialize", "series_to_csv", "serialize"),
    ("serialize", "recurrence_to_csv", "serialize"),
    ("serialize", "sequence_to_json", "serialize"),
    ("serialize", "triangular_pair_to_json", "serialize"),
]

COUNTED = [("spectral", "eigen_count_below", "spectral.bisect_steps")]

FAMILIES = ["PowerLog", "Gegenbauer", "Gaussian", "LogNormal", "Discrete", "Explicit"]


def _attrs_for(name):
    if name == "triangular.ldl":
        return lambda a, k: {"ladder": bool(k.get("precision_suspect", False))}
    if name == "spectral.extremes":
        return lambda a, k: {"n": a[1]}
    return None


def _profile_result(span, profile):
    span.attrs["entries"] = len(profile.entries)
    span.attrs["f64_entries"] = sum(e.precision_bits == 53 for e in profile.entries)
    span.attrs["unresolved"] = sum(e.status != "ok" for e in profile.entries)


def install(tracer: Tracer):
    """Wrap the layer functions everywhere they are looked up; returns undo()."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    undo = []

    def replace_everywhere(original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    for modname, fn, span in SPANNED:
        original = getattr(sys.modules[f"{PACKAGE}.{modname}"], fn)
        on_result = _profile_result if span == "spectral.profile" else None
        replace_everywhere(original, tracer.spanned(span, original, _attrs_for(span), on_result))
    for modname, fn, key in COUNTED:
        original = getattr(sys.modules[f"{PACKAGE}.{modname}"], fn)
        replace_everywhere(original, tracer.counted(key, original))

    moments = sys.modules[f"{PACKAGE}.moments"]
    targets = [(moments.MomentSequence, "moment", tracer.counted, "moments.lookups"),
               (moments.MomentSequence, "float_array", None, "moments.float_array")]
    targets += [(getattr(moments, f), "moment", tracer.timed, "moments.closed_form")
                for f in FAMILIES]
    for cls, attr, wrap, key in targets:
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, wrap(key, original) if wrap else tracer.spanned(key, original))

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

SELF_TIME_METRICS = {
    "moments.float_array": "moments.float_array_s",
    "moments.classify": "moments.classify_s",
    "hankel.matvec_naive": "hankel.matvec_naive_s",
    "hankel.matvec_fft": "hankel.matvec_fft_s",
    "hankel.series": "hankel.series_s",
    "hankel.domain": "hankel.domain_s",
    "triangular.ldl": "triangular.ldl_s",
    "triangular.invert": "triangular.invert_s",
    "orthopoly.factor": "orthopoly.factor_s",
    "orthopoly.recurrence": "orthopoly.recurrence_s",
    "spectral.profile": "spectral.profile_s",
    "spectral.tridiag": "spectral.tridiag_s",
    "spectral.bisect": "spectral.bisect_s",
    "spectral.extremes": "spectral.extremes_s",
    "spectral.xi": "spectral.xi_s",
    "extremal.perturbation": "extremal.perturbation_s",
    "extremal.kernel_vector": "extremal.kernel_vector_s",
    "extremal.cd_kernel": "extremal.cd_kernel_s",
    "cli": "cli.self_s",
    "serialize": "serialize.s",
    "req": "req.self_s",
}


def layer_metrics(tracer: Tracer, request_names: dict, passes: int) -> dict:
    """Per-pass layer metrics from the spans and counters of ``passes`` traced passes.

    ``request_names`` maps request ids to metric names (``req.<workload>.<r>_s``).
    Ratios whose base is zero (the layer did no such work) read 0.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    out = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
    out.update({name: 0.0 for name in request_names.values()})
    calls = defaultdict(int)
    attempts = entries = f64_entries = unresolved = 0
    per_factor = defaultdict(int)  # ladder attempts per factor call
    per_entry = defaultdict(int)  # bigfloat_extremes calls per profile entry
    for i, s in enumerate(spans):
        out[SELF_TIME_METRICS[s.name]] += selfs[i]
        calls[s.name] += 1
        if s.name == "req":
            out[request_names[s.request]] += s.end - s.start
        elif s.name == "triangular.ldl" and s.attrs["ladder"]:
            attempts += 1
            if s.parent is not None and spans[s.parent].name == "orthopoly.factor":
                per_factor[s.parent] += 1
        elif s.name == "spectral.extremes":
            per_entry[(s.parent, s.attrs["n"])] += 1
        elif s.name == "spectral.profile":
            entries += s.attrs.get("entries", 0)
            f64_entries += s.attrs.get("f64_entries", 0)
            unresolved += s.attrs.get("unresolved", 0)
    out.update({
        "moments.closed_form_calls": tracer.counts["moments.closed_form"],
        "moments.closed_form_s": tracer.times["moments.closed_form"],
        "triangular.ldl_calls": calls["triangular.ldl"],
        "orthopoly.factor_calls": calls["orthopoly.factor"],
        "orthopoly.ladder_attempts": attempts,
        "spectral.tridiag_calls": calls["spectral.tridiag"],
        "spectral.bisect_steps": tracer.counts["spectral.bisect_steps"],
        "spectral.extremes_retries": sum(v - 1 for v in per_entry.values()),
        "spectral.unresolved_entries": unresolved,
    })
    out = {k: v / passes for k, v in out.items()}
    lookups = tracer.counts["moments.lookups"]
    misses = tracer.counts["moments.closed_form"]
    first_try = sum(1 for v in per_factor.values() if v == 1)
    out["moments.cache_hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0
    out["orthopoly.ladder_first_try_ratio"] = first_try / len(per_factor) if per_factor else 0.0
    out["spectral.f64_entry_ratio"] = f64_entries / entries if entries else 0.0
    return out
