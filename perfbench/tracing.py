"""Spans and counters around srak's public functions, installed from outside.

``Tracer.install()`` replaces module and class attributes of srak with
wrappers and ``uninstall()`` puts the originals back; no srak file is
changed.  Every timed call updates per-name totals (calls, inclusive and
self seconds); a layer's self time is a span's duration minus the part of
it that its child spans cover.  Calls that happen millions of times are
only totalled; the coarse ones (``SPAN_NAMES``) are also kept as spans
(name, start, end, parent span, job id) in memory and written out at the
end, which bounds the trace to a few thousand records.
"""

import json
import time

# (module, owner, attribute, span name).  Owner None means a module
# function, patched on its defining module, which is where srak's own
# callers look it up.  A span name starts with its layer.
TIMED = (
    ("srak.coeffs._kernel", None, "mmul", "coeffs.kernel"),
    ("srak.coeffs._kernel", None, "maxpy", "coeffs.kernel"),
    ("srak.coeffs._kernel", None, "madd", "coeffs.kernel"),
    ("srak.coeffs._kernel", None, "mscale", "coeffs.kernel"),
    ("srak.coeffs._kernel", None, "mneg", "coeffs.kernel"),
    ("srak.coeffs._kernel", None, "emap_axpy", "coeffs.kernel"),
    ("srak.coeffs", "ParamPoly", "__mul__", "coeffs.poly"),
    ("srak.coeffs", "ParamPoly", "__add__", "coeffs.poly"),
    ("srak.coeffs", "ParamPoly", "specialize", "coeffs.poly"),
    ("srak.groups", None, "generate_group", "groups.closure"),
    ("srak.groups", None, "symplectic_reflections", "groups.reflections"),
    ("srak.sra", "SRAlgebra", "multiply", "sra.multiply"),
    ("srak.sra", "SRAElement", "truncate_x", "sra.truncate_x"),
    ("srak.sra", None, "center_basis", "sra.center"),
    ("srak.sra", None, "recheck_central", "sra.recheck"),
    ("srak.sra", None, "satake_corner_check", "sra.corner"),
    ("srak.linalg", None, "rref", "linalg.rref"),
    ("srak.cherednik", None, "build_cherednik", "cherednik.build"),
    ("srak.cherednik", "StandardModule", "lowering_basis", "cherednik.dunkl"),
    ("srak.cherednik", None, "contravariant_gram", "cherednik.gram"),
    ("srak.cherednik", None, "scan_one", "cherednik.rank"),
    ("srak.centralizer", "CentralizerElement", "__mul__", "centralizer.matmul"),
    ("srak.completion", None, "completion_iso", "completion.iso"),
    ("srak.completion", None, "verify_homomorphism", "completion.verify"),
    ("srak.completion", "TElt", "__mul__", "completion.telt_mul"),
    ("srak.completion", "TElt", "__add__", "completion.telt_add"),
    ("srak.report", "Report", "to_json", "cli.report"),
)

SPAN_NAMES = frozenset({
    "groups.closure", "groups.reflections", "sra.center", "sra.recheck", "sra.corner", "linalg.rref",
    "cherednik.build", "cherednik.gram", "cherednik.rank", "centralizer.matmul", "completion.iso",
    "completion.verify", "cli.report",
})

LAYERS = ("groups", "coeffs", "sra", "linalg", "cherednik", "centralizer", "completion", "cli")


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith(("_ratio", ".overhead")) else "count"


def _nonzero(entry):
    """Whether a coset-matrix entry is nonzero, without srak's truncating
    equality (a truncated element carries its normal form in ``value``)."""
    return bool(getattr(entry, "value", entry))


class Tracer:
    def __init__(self):
        self.stack = []  # open frames: [start, child seconds, span index or None]
        self.totals = {}  # span name -> [calls, inclusive s, self s, open depth]
        self.counts = {"groups.matrix_products": 0, "centralizer.entry_products": 0,
                       "centralizer.entry_useful": 0, "linalg.rref_rows": 0, "linalg.rref_pivots": 0}
        self.spans = []  # [name, start, end, parent index, job id]
        self.algebras = []  # SRAlgebra instances built while tracing
        self.job = None
        self._saved = []

    def _timed(self, name, fn, after=None):
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        total = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
        keep = name in SPAN_NAMES

        def wrapper(*args, **kwargs):
            span = None
            if keep:
                parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                span = len(spans)
                spans.append([name, 0.0, 0.0, parent, self.job])
            frame = [clock(), 0.0, span]
            stack.append(frame)
            total[3] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                total[3] -= 1
                total[0] += 1
                total[2] += dur - frame[1]
                if not total[3]:
                    total[1] += dur
                if stack:
                    stack[-1][1] += dur
                if span is not None:
                    spans[span][1] = frame[0]
                    spans[span][2] = end
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_rref(self, args, result):
        self.counts["linalg.rref_rows"] += len(args[0])
        self.counts["linalg.rref_pivots"] += len(result[1])

    def _count_matmul(self, args, _result):
        left, right = args
        if not hasattr(right, "mat"):
            return  # scalar multiple, not a matrix product
        k = left.ctx.k
        col_nz = [sum(1 for i in range(k) if _nonzero(left.mat[i][l])) for l in range(k)]
        row_nz = [sum(1 for j in range(k) if _nonzero(right.mat[l][j])) for l in range(k)]
        self.counts["centralizer.entry_products"] += k ** 3
        self.counts["centralizer.entry_useful"] += sum(c * r for c, r in zip(col_nz, row_nz))

    def _wrappers(self, modules):
        """(target, attribute, replacement) for every patch."""
        after = {"linalg.rref": self._count_rref, "centralizer.matmul": self._count_matmul}
        out = []
        for modname, owner, attr, name in TIMED:
            target = modules[modname] if owner is None else getattr(modules[modname], owner)
            out.append((target, attr, self._timed(name, target.__dict__[attr], after.get(name))))
        counts = self.counts
        linalg = modules["srak.linalg"]
        mat_mul = linalg.mat_mul

        def counted_mat_mul(a, b):
            counts["groups.matrix_products"] += 1
            return mat_mul(a, b)

        out.append((linalg, "mat_mul", counted_mat_mul))
        algebra = modules["srak.sra"].SRAlgebra
        init = algebra.__init__
        algebras = self.algebras

        def registered_init(alg, *args, **kwargs):
            init(alg, *args, **kwargs)
            algebras.append(alg)

        out.append((algebra, "__init__", registered_init))
        return out

    def install(self, modules):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for target, attr, replacement in self._wrappers(modules):
            self._saved.append((target, attr, target.__dict__[attr]))
            setattr(target, attr, replacement)

    def uninstall(self):
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def cache_entries(self):
        return sum(len(a._word_cache) + len(a._gexp_cache) + len(a._gmono_cache) for a in self.algebras)

    def release_algebras(self):
        self.algebras.clear()

    def metrics(self, wall, untraced_wall, cache_entries):
        """Per-layer metrics of one traced pass of ``wall`` seconds, as
        {name: (value, unit)}."""
        def calls(name):
            return self.totals.get(name, [0])[0]

        def self_s(name):
            return self.totals.get(name, [0, 0.0, 0.0])[2]

        def incl_s(name):
            return self.totals.get(name, [0, 0.0])[1]

        c = self.counts
        m = {
            "groups.closure_s": incl_s("groups.closure"),
            "groups.matrix_products": c["groups.matrix_products"],
            "coeffs.kernel_calls": calls("coeffs.kernel"),
            "coeffs.kernel_s": self_s("coeffs.kernel"),
            "coeffs.poly_s": self_s("coeffs.poly"),
            "sra.multiply_calls": calls("sra.multiply"),
            "sra.multiply_s": self_s("sra.multiply"),
            "sra.truncate_x_calls": calls("sra.truncate_x"),
            "sra.truncate_x_s": self_s("sra.truncate_x"),
            "sra.center_s": self_s("sra.center"),
            "sra.cache_entries": cache_entries,
            "linalg.rref_calls": calls("linalg.rref"),
            "linalg.rref_s": self_s("linalg.rref"),
            "linalg.rref_rows": c["linalg.rref_rows"],
            "linalg.pivot_ratio": c["linalg.rref_pivots"] / c["linalg.rref_rows"] if c["linalg.rref_rows"] else 0.0,
            "cherednik.dunkl_calls": calls("cherednik.dunkl"),
            "cherednik.dunkl_s": self_s("cherednik.dunkl"),
            "cherednik.gram_s": self_s("cherednik.gram"),
            "cherednik.rank_s": incl_s("cherednik.rank"),
            "centralizer.matmul_calls": calls("centralizer.matmul"),
            "centralizer.matmul_s": self_s("centralizer.matmul"),
            "centralizer.entry_products": c["centralizer.entry_products"],
            "centralizer.entry_useful_ratio": (c["centralizer.entry_useful"] / c["centralizer.entry_products"]
                                               if c["centralizer.entry_products"] else 0.0),
            "completion.telt_mul_calls": calls("completion.telt_mul"),
            "completion.telt_mul_s": self_s("completion.telt_mul"),
            "completion.telt_add_s": self_s("completion.telt_add"),
            "completion.verify_s": incl_s("completion.verify"),
            "cli.report_s": self_s("cli.report"),
            "trace.overhead": wall / untraced_wall,
        }
        return {name: (value, unit_of(name)) for name, value in m.items()}

    def shares(self, wall):
        """Each layer's self time as a share of the traced pass; "other" is
        time in no traced span (the benchmark's own job code, parsing)."""
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, total in self.totals.items():
            layer_self[name.split(".", 1)[0]] += total[2]
        out = {layer: s / wall for layer, s in layer_self.items()}
        out["other"] = max(0.0, 1.0 - sum(layer_self.values()) / wall)
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": self.spans,
                       "totals": {k: v[:3] for k, v in sorted(self.totals.items())}}, fh)
