"""Layer spans and fine-layer counters, installed from outside colorhom.

colorhom has no trace hooks yet, so the benchmark wraps public functions
and patches every name that refers to them in each loaded colorhom
module (``full_check`` reaches the checkers through the names
``colorhom.io.check_*``, for instance).  Two independent installers:

* ``Spans``: one span per call at each layer boundary (name, start, end,
  parent span, document), kept in memory and written as JSON lines when
  the run ends.  Each ``scan_identity`` call also records the identity
  id, key count, violations and job count, plus the bundle of the
  nearest enclosing call that received one, for the scan ledger.
* ``Counters``: call counts on the fine layers (kernel, Scalar, Vector,
  MultilinearMap, Bicharacter), in a pass of their own so their cost
  does not inflate the spans, and a sample of the operands they saw for
  the isolated per-operation timings.
"""

import itertools
import json
import sys
import threading
import time

# (layer, module, function) for every wrapped layer boundary
COARSE = (
    ("cli", "colorhom.cli", "main"),
    ("fixtures", "colorhom.fixtures", "fixture_document"),
    ("io", "colorhom.io", "loads_document"),
    ("io", "colorhom.io", "parse_document"),
    ("io", "colorhom.io", "serialize_bundle"),
    ("io", "colorhom.io", "document_digest"),
    ("io", "colorhom.io", "full_check"),
    ("io", "colorhom.io", "report_document"),
    ("io", "colorhom.io", "render_report_text"),
    ("io", "colorhom.io", "dumps_document"),
    ("constructions", "colorhom.constructions", "akivis_from_algebra"),
    ("constructions", "colorhom.constructions", "twist_akivis"),
    ("constructions", "colorhom.constructions", "twist_nhlp"),
    ("constructions", "colorhom.constructions", "twist_leibniz"),
    ("constructions", "colorhom.constructions", "twist_module"),
    ("constructions", "colorhom.constructions", "nhlp_opposite"),
    ("constructions", "colorhom.constructions", "nhlp_scaled"),
    ("constructions", "colorhom.constructions", "trivial_extension"),
    ("constructions", "colorhom.constructions", "leibniz_from_dialgebra"),
    ("constructions", "colorhom.constructions", "tensor_square_nhlp"),
    ("checkers", "colorhom.checkers", "scan_identity"),
    ("checkers", "colorhom.checkers", "check_skew_symmetry"),
    ("checkers", "colorhom.checkers", "check_akivis_identity"),
    ("checkers", "colorhom.checkers", "check_hom_lie"),
    ("checkers", "colorhom.checkers", "check_flexible_alternative"),
    ("checkers", "colorhom.checkers", "check_flexible_akivis_relation"),
    ("checkers", "colorhom.checkers", "check_hom_associativity"),
    ("checkers", "colorhom.checkers", "check_color_leibniz"),
    ("checkers", "colorhom.checkers", "check_leibniz_consequences"),
    ("checkers", "colorhom.checkers", "check_nhlp"),
    ("checkers", "colorhom.checkers", "check_dialgebra"),
    ("checkers", "colorhom.checkers", "check_module"),
    ("checkers", "colorhom.checkers", "check_endomorphism"),
    ("bundles", "colorhom.bundles", "associator_map"),
    ("bundles", "colorhom.bundles", "is_multiplicative"),
    ("bundles", "colorhom.bundles", "is_sign_commutative"),
    ("linalg", "colorhom.linalg", "check_evenness"),
    ("linalg", "colorhom.linalg", "commutator_map"),
    ("linalg", "colorhom.linalg", "is_endomorphism"),
    ("report", "colorhom.report", "sorted_violations"),
    ("grading", "colorhom.grading", "validate_bicharacter"),
    ("scalars", "colorhom.scalars", "cyclotomic_field"),
)

SCAN = "checkers.scan_identity"


def _patch_everywhere(original, replacement):
    """Point every colorhom module attribute bound to `original` at
    `replacement`; returns the (module, name) pairs patched."""
    patched = []
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("colorhom") or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                patched.append((mod, attr))
    return patched


def _is_bundle(obj):
    return hasattr(obj, "kind") and (hasattr(obj, "space") or hasattr(obj, "algebra"))


class Spans:
    """Span recorder.  A span is a list
    [id, parent, name, start_ns, end_ns, doc, info]; `info` holds the
    scan ledger fields, the first bundle argument and any exception."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []
        self.doc = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name, info=None):
        stack = self._stack()
        span = [next(self._ids), stack[-1][0] if stack else None, name,
                time.perf_counter_ns(), None, self.doc, info]
        stack.append(span)
        return span

    def end(self, span):
        span[4] = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(span)

    def _enclosing_bundle(self):
        for span in reversed(self._stack()):
            info = span[6]
            if info and info.get("bundle_obj") is not None:
                return info["bundle_obj"]
        return None

    def _wrap(self, name, fn):
        begin, end = self.begin, self.end

        if name == SCAN:
            def wrapper(identity_id, keys, defect_fn, jobs=1, note=""):
                keys = list(keys)
                info = {"id": identity_id, "tuples": len(keys), "jobs": jobs,
                        "bundle_obj": None, "scan_bundle": self._enclosing_bundle()}
                span = begin(name, info)
                try:
                    report = fn(identity_id, keys, defect_fn, jobs, note)
                    info["violations"] = len(report.violations)
                    return report
                finally:
                    end(span)
            return wrapper

        def wrapper(*args, **kwargs):
            first = args[0] if args else None
            info = {"bundle_obj": first if _is_bundle(first) else None}
            span = begin(name, info)
            try:
                result = fn(*args, **kwargs)
                if name == "io.dumps_document":
                    info["bytes"] = len(result)  # json.dumps output is ASCII
                return result
            except BaseException as e:
                info["error"] = type(e).__name__
                raise
            finally:
                end(span)
        return wrapper

    def install(self):
        import importlib

        for layer, modname, fname in COARSE:
            mod = importlib.import_module(modname)
            original = getattr(mod, fname)
            wrapper = self._wrap(f"{layer}.{fname}", original)
            self._undo.append((original, _patch_everywhere(original, wrapper)))

    def uninstall(self):
        for original, patched in reversed(self._undo):
            for mod, attr in patched:
                setattr(mod, attr, original)
        self._undo = []

    def run_doc(self, doc, fn):
        """Run fn() under a root span for one document."""
        self.doc = doc
        span = self.begin("bench.document", {"bundle_obj": None})
        try:
            return fn()
        finally:
            self.end(span)
            self.doc = None

    # ---- after the run

    def bundle_digests(self, serialize_bundle, document_digest):
        """Content digest of every bundle a scan ran under, from the
        uninstalled (original) io functions."""
        memo = {}
        for span in self.spans:
            info = span[6]
            if span[2] == SCAN:
                obj = info.pop("scan_bundle")
                if obj is None:
                    info["bundle"] = None
                    continue
                key = id(obj)
                if key not in memo:
                    memo[key] = document_digest(serialize_bundle(obj))
                info["bundle"] = memo[key]
        for span in self.spans:
            if span[6]:
                span[6].pop("bundle_obj", None)

    def self_times(self):
        """Self time (ns) of each span: its duration minus the part its
        children cover.  Children run synchronously inside the parent on
        the same thread, so the covered part is the sum of their
        durations."""
        child = {}
        for s in self.spans:
            if s[1] is not None:
                child[s[1]] = child.get(s[1], 0) + (s[4] - s[3])
        return {s[0]: (s[4] - s[3]) - child.get(s[0], 0) for s in self.spans}

    def write_jsonl(self, path):
        t0 = min((s[3] for s in self.spans), default=0)
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s[0]):
                rec = {"span": s[2], "sid": s[0], "parent": s[1], "doc": s[5],
                       "start_ns": s[3] - t0, "end_ns": s[4] - t0,
                       "self_ns": selfs[s[0]]}
                info = s[6] or {}
                if s[2] == SCAN:
                    rec.update(ledger_fields(s))
                elif info:
                    rec.update({k: v for k, v in info.items() if k in ("bytes", "error")})
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def ledger_fields(span):
    """One scan-ledger record.  The names follow the planned in-program
    trace format: id, tuples, violations, wall_ms, engine, cache_hit."""
    info = span[6]
    return {
        "id": info["id"],
        "bundle": info.get("bundle"),
        "tuples": info["tuples"],
        "violations": info.get("violations"),
        "wall_ms": (span[4] - span[3]) / 1e6,
        "jobs": info["jobs"],
        "engine": "per-tuple",
        "cache_hit": False,
    }


# --------------------------------------------------------------------------
# fine-layer counters


# (metric name, owner path, attribute); an owner is a module or a class
FINE = (
    ("kernel.mul", "kernel", "mul"),
    ("kernel.add", "kernel", "add"),
    ("kernel.sub", "kernel", "sub"),
    ("kernel.normalize", "kernel", "normalize"),
    ("scalars.Scalar.make", "colorhom.scalars.Scalar", "_make"),
    ("linalg.Vector.add", "colorhom.linalg.Vector", "__add__"),
    ("linalg.Vector.scaled", "colorhom.linalg.Vector", "scaled"),
    ("linalg.MultilinearMap.call", "colorhom.linalg.MultilinearMap", "__call__"),
    ("grading.Bicharacter.call", "colorhom.grading.Bicharacter", "__call__"),
)
# operands kept for the isolated timings: every SAMPLE_STRIDE-th call, at
# most SAMPLE_MAX of them
SAMPLE_STRIDE = 101
SAMPLE_MAX = 4000
SAMPLED = ("kernel.mul", "kernel.add", "linalg.MultilinearMap.call")


def _owner(path):
    import importlib

    if path == "kernel":
        from colorhom._backend import kernel

        return kernel
    modname, _, cls = path.rpartition(".")
    return getattr(importlib.import_module(modname), cls)


class Counters:
    """Call counters; itertools.count.__next__ is atomic under the
    interpreter lock, so scans split across threads lose no counts."""

    def __init__(self):
        self.counts = {}
        self.samples = {name: [] for name in SAMPLED}
        self._undo = []

    def _wrap(self, name, fn):
        counter = itertools.count()
        self.counts[name] = counter
        tick = counter.__next__
        if name not in SAMPLED:
            def wrapper(*args):
                tick()
                return fn(*args)
            return wrapper
        keep = self.samples[name]

        def sampled(*args):
            if tick() % SAMPLE_STRIDE == 0 and len(keep) < SAMPLE_MAX:
                keep.append(args)
            return fn(*args)
        return sampled

    def install(self):
        for name, path, attr in FINE:
            owner = _owner(path)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo = []

    def totals(self):
        # count.__repr__ is "count(n)": n calls were made
        return {name: int(repr(c)[6:-1]) for name, c in self.counts.items()}
