"""Document format and report assembly.

Bundles travel as versioned JSON documents: scalars are exact strings
("p" or "p/q", lists of those for cyclotomic fields), operations are
sparse tables of basis-index tuples, maps are dense matrices whose column
j is the image of basis vector j.  Parsing validates everything (field,
group, bicharacter, evenness) and reports the failing path; a parsed
bundle is fully trustworthy in memory.

Reports are JSON too, embedding the tool version and the sha256 digest of
the canonical re-serialization of the input, so a report is stable under
whitespace-only changes to its input.  A law scan's defect is written
straight from the scan's integers (``tables.Defect``), each coefficient
reduced on its own, with no Scalar or Vector in between.

Every document is written as json.dumps(doc, sort_keys=True, indent=1)
writes it.  Before CPython 3.13 json's C encoder cannot indent, so
``indented_json`` writes those bytes instead, with a template for report
violations; from 3.13 on json.dumps itself runs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
import sys

from . import __version__
from .bundles import BUNDLE_TYPES, is_multiplicative, is_sign_commutative
from .checkers import (
    check_akivis_identity,
    check_color_leibniz,
    check_dialgebra,
    check_evenness,
    check_flexible_alternative,
    check_flexible_akivis_relation,
    check_hom_associativity,
    check_hom_lie,
    check_leibniz_consequences,
    check_module,
    check_nhlp,
    check_skew_symmetry,
)
from .errors import InputError, too_many_digits
from .grading import Bicharacter, GradingGroup
from .linalg import EvenMap, GradedSpace, MultilinearMap, Vector
from .record import Record
from .report import CheckReport
from .scalars import Scalar, _ratio_texts, cyclotomic_field, scalar_from_text, scalar_to_text
from .tables import Defect

BUNDLE_SCHEMA = "colorhom-bundle/1"
REPORT_SCHEMA = "colorhom-report/1"

KINDS = tuple(BUNDLE_TYPES)
_INDEX_RE = re.compile(r"0|[1-9][0-9]*", re.ASCII)


class ParsedDocument(Record):
    """A parsed bundle plus any extra named maps riding along (candidate
    twisting maps such as 'beta').  Mutable, so it has no hash."""

    __slots__ = FIELDS = ("bundle", "extra_maps")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, bundle, extra_maps=None):
        super().__init__(bundle, {} if extra_maps is None else extra_maps)


def _fail(path, message):
    raise InputError(f"{path}: {message}")


def _is_int(value):
    """A JSON integer (bool is an int subclass; true is not an integer)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _get(doc, key, path, types):
    if key not in doc:
        _fail(path, f"missing key {key!r}")
    value = doc[key]
    if not isinstance(value, types) or isinstance(value, bool):
        _fail(f"{path}.{key}", f"expected {types}, got {type(value).__name__}")
    return value


def _parse_scalar(field, data, path):
    try:
        return scalar_from_text(field, data)
    except InputError as e:
        _fail(path, str(e))


def _parse_header(doc, path):
    """An algebra document's bicharacter, which carries its field and group."""
    fdoc = _get(doc, "field", path, dict)
    order = _get(fdoc, "cyclotomic_order", f"{path}.field", int)
    if order < 1:
        _fail(f"{path}.field.cyclotomic_order", "must be >= 1")
    field = cyclotomic_field(order)

    gdoc = _get(doc, "grading", path, dict)
    free_rank = _get(gdoc, "free_rank", f"{path}.grading", int)
    torsion = _get(gdoc, "torsion", f"{path}.grading", list)
    try:
        group = GradingGroup(free_rank, tuple(torsion))
    except InputError as e:
        _fail(f"{path}.grading", str(e))

    bmat = _get(doc, "bicharacter", path, list)
    if len(bmat) != group.rank or any(
        not isinstance(r, list) or len(r) != group.rank for r in bmat
    ):
        _fail(f"{path}.bicharacter", f"must be a {group.rank}x{group.rank} matrix")
    matrix = tuple(
        tuple(
            _parse_scalar(field, e, f"{path}.bicharacter[{i}][{j}]")
            for j, e in enumerate(row)
        )
        for i, row in enumerate(bmat)
    )
    try:
        bichar = Bicharacter(group, field, matrix)
    except InputError as e:
        _fail(f"{path}.bicharacter", str(e))
    return bichar


def _parse_basis(doc, path, field, group):
    basis_doc = _get(doc, "basis", path, list)
    names_degrees = []
    for k, item in enumerate(basis_doc):
        if not isinstance(item, dict):
            _fail(f"{path}.basis[{k}]", "expected an object")
        name = _get(item, "name", f"{path}.basis[{k}]", str)
        deg = _get(item, "degree", f"{path}.basis[{k}]", list)
        if len(deg) != group.rank or not all(_is_int(c) for c in deg):
            _fail(f"{path}.basis[{k}].degree",
                  f"expected {group.rank} integer coordinates")
        names_degrees.append((name, tuple(deg)))
    try:
        space = GradedSpace.build(field, group, names_degrees)
    except InputError as e:
        _fail(f"{path}.basis", str(e))
    return space


@functools.lru_cache(maxsize=16)
def _index_keys(dim):
    """The one spelling of each basis index below dim, so no two keys of
    an object name the same index."""
    return {str(i): i for i in range(dim)}


def _parse_vector(space, data, path):
    if not isinstance(data, dict):
        _fail(path, "expected an index -> scalar object")
    indices = _index_keys(space.dim)
    coeffs = {}
    for key, text in data.items():
        i = indices.get(key)
        if i is None:
            if isinstance(key, str) and _INDEX_RE.fullmatch(key):
                _fail(path, f"basis index {key} out of range 0..{space.dim - 1}")
            _fail(path, f"malformed basis index {key!r} "
                        "(expected ASCII digits without sign or leading zeros)")
        coeffs[i] = _parse_scalar(space.field, text, f"{path}.{key}")
    return Vector(space, coeffs)


def _parse_table(spaces, codomain, entries, path):
    if not isinstance(entries, list):
        _fail(path, "expected a list of entries")
    table = {}
    for k, entry in enumerate(entries):
        here = f"{path}[{k}]"
        if not isinstance(entry, dict):
            _fail(here, "expected an object with args/out")
        args = _get(entry, "args", here, list)
        if len(args) != len(spaces) or not all(_is_int(a) for a in args):
            _fail(f"{here}.args", f"expected {len(spaces)} integer indices")
        for a, sp in zip(args, spaces):
            if not (0 <= a < sp.dim):
                _fail(f"{here}.args", f"index {a} out of range 0..{sp.dim - 1}")
        key = tuple(args)
        if key in table:
            _fail(f"{here}.args", f"duplicate entry for {key}")
        out = _get(entry, "out", here, dict)
        table[key] = _parse_vector(codomain, out, f"{here}.out")
    return MultilinearMap(spaces, codomain, table)


def _parse_matrix(space, rows, path):
    if (
        not isinstance(rows, list)
        or len(rows) != space.dim
        or any(not isinstance(r, list) or len(r) != space.dim for r in rows)
    ):
        _fail(path, f"expected a {space.dim}x{space.dim} matrix")
    parsed = tuple(
        tuple(
            _parse_scalar(space.field, e, f"{path}[{i}][{j}]")
            for j, e in enumerate(row)
        )
        for i, row in enumerate(rows)
    )
    return EvenMap(space, parsed)


def _parse_extra_map(space, rows, path):
    """A map riding along with a bundle; the bundle constructors check
    evenness of the maps they hold, so only these are checked here."""
    m = _parse_matrix(space, rows, path)
    rep = check_evenness(m)
    if not rep.passed:
        _fail(path, rep.violations[0].describe())
    return m


def parse_document(doc) -> ParsedDocument:
    """Validate a bundle document and build the in-memory bundle.  Raises
    InputError naming the offending path on the first problem found."""
    if not isinstance(doc, dict):
        raise InputError("document: expected a JSON object")
    schema = _get(doc, "schema", "document", str)
    if schema != BUNDLE_SCHEMA:
        _fail("document.schema", f"expected {BUNDLE_SCHEMA!r}, got {schema!r}")
    kind = _get(doc, "kind", "document", str)
    if kind not in KINDS:
        _fail("document.kind", f"unknown kind {kind!r} (expected one of {KINDS})")
    bundle_type = BUNDLE_TYPES[kind]

    if kind == "module":
        parsed = parse_document(_get(doc, "algebra", "document", dict))
        algebra = parsed.bundle
        if algebra.kind != "leibniz":
            _fail("document.algebra.kind", "module documents embed a leibniz algebra")
        for name in parsed.extra_maps:
            _fail(f"document.algebra.maps.{name}", "a module's algebra carries only 'alpha'")
        aspace = algebra.space
        space = _parse_basis(doc, "document", aspace.field, aspace.group)
        head, spaces = (algebra, space), {"S": space, "A": aspace}
    else:
        bichar = _parse_header(doc, "document")
        space = _parse_basis(doc, "document", bichar.field, bichar.group)
        head, spaces = (space, bichar), {"S": space}

    ops_doc = _get(doc, "ops", "document", dict)
    ops = {}
    for name, _, args in bundle_type.OPS:
        entries = _get(ops_doc, name, "document.ops", list)
        ops[name] = _parse_table(tuple(spaces[s] for s in args), space, entries,
                                 f"document.ops.{name}")
    for name in ops_doc:
        if name not in ops:
            _fail(f"document.ops.{name}", f"unexpected operation for kind {kind!r}")
    maps_doc = _get(doc, "maps", "document", dict)
    twist_name, _ = bundle_type.TWIST
    twist = _parse_matrix(space, _get(maps_doc, twist_name, "document.maps", list),
                          f"document.maps.{twist_name}")
    extras = {}
    for name, rows in maps_doc.items():
        if name == twist_name:
            continue
        if not bundle_type.EXTRA_MAPS:
            _fail(f"document.maps.{name}", f"{kind} documents carry only {twist_name!r}")
        extras[name] = _parse_extra_map(space, rows, f"document.maps.{name}")

    try:
        bundle = bundle_type(*head, *ops.values(), twist)
    except InputError as e:
        _fail("document", str(e))
    return ParsedDocument(bundle, extras)


def _vector_doc(v: Vector):
    return {str(i): scalar_to_text(c) for i, c in v.items()}


def _table_doc(m: MultilinearMap):
    return [
        {"args": list(key), "out": _vector_doc(value)} for key, value in m.entries()
    ]


def _matrix_doc(m: EvenMap):
    return [[scalar_to_text(c) for c in row] for row in m.rows]


def serialize_bundle(bundle, extra_maps=None) -> dict:
    """Inverse of parse_document (up to key order)."""
    doc = {"schema": BUNDLE_SCHEMA, "kind": bundle.kind}
    if bundle.kind == "module":
        doc["algebra"] = serialize_bundle(bundle.algebra)
        space = bundle.module_space
    else:
        space, bichar = bundle.space, bundle.bichar
        doc["field"] = {"cyclotomic_order": space.field.cyclotomic_order}
        doc["grading"] = {
            "free_rank": space.group.free_rank,
            "torsion": list(space.group.torsion_orders),
        }
        doc["bicharacter"] = [[scalar_to_text(e) for e in row] for row in bichar.matrix]
    doc["basis"] = [
        {"name": name, "degree": list(deg.coords)} for name, deg in space.basis
    ]
    doc["ops"] = {name: _table_doc(getattr(bundle, attr)) for name, attr, _ in bundle.OPS}
    twist_name, attr = bundle.TWIST
    doc["maps"] = {twist_name: _matrix_doc(getattr(bundle, attr))}
    for name, m in (extra_maps or {}).items():
        if not bundle.EXTRA_MAPS:
            raise InputError(f"{bundle.kind} documents carry only {twist_name!r}")
        if name == twist_name:
            raise InputError(f"extra map may not be named {twist_name!r}")
        doc["maps"][name] = _matrix_doc(m)
    return doc


def canonical_bytes(doc) -> bytes:
    """Canonical JSON encoding: sorted keys, no whitespace.  The 'report'
    key is excluded so embedding a report does not change a document's
    identity."""
    doc = {k: v for k, v in doc.items() if k != "report"}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def document_digest(doc) -> str:
    return "sha256:" + hashlib.sha256(canonical_bytes(doc)).hexdigest()


def dumps_document(doc) -> str:
    """The text of a document: json.dumps(doc, sort_keys=True, indent=1)
    and a newline."""
    return _indented(doc) + "\n"


# ---------------------------------------------------------------------------
# the indented writer


class _Unwritten(Exception):
    """A value indented_json leaves to json.dumps."""


_esc = json.encoder.encode_basestring_ascii
_VIOLATION_KEYS = {"args", "defect", "note"}
_INT = {int}


def indented_json(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=1), byte for byte.

    Strings, ints, bools, None, lists, tuples and dicts with string keys
    are written here; an object holding anything else (a float, another
    key type) goes to json.dumps whole.  A list under the key
    "violations" is written by template (``_violations``)."""
    try:
        return _text(obj, "")
    except _Unwritten:
        return json.dumps(obj, sort_keys=True, indent=1)


def _block(items, pad, brackets="[]"):
    """Written items inside brackets, one a line at pad plus one space."""
    inner = pad + " "
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def _text(o, pad):
    """o written at indentation pad (the indentation of its own line)."""
    if isinstance(o, str):
        return _esc(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    inner = pad + " "
    if isinstance(o, (list, tuple)):
        return _block([_text(v, inner) for v in o], pad) if o else "[]"
    if not isinstance(o, dict) or not all(isinstance(k, str) for k in o):
        raise _Unwritten
    if not o:
        return "{}"
    return _block([
        _esc(k) + ": " + (_violations(o[k], inner) if k == "violations" and type(o[k]) is list
                          else _text(o[k], inner))
        for k in sorted(o)
    ], pad, "{}")


def _violations(items, pad):
    """A list of report violations, each {"args": [ints], "defect":
    {coordinate: coefficient} or a string or null, "note": string} and
    written by template; an item of any other shape goes to ``_text``.  A
    coefficient is a list of ratio strings, or one of them over Q."""
    if not items:
        return "[]"
    item = pad + " "
    key = item + " "
    value = key + " "
    entry = value + " "
    args_open, value_sep, args_close = f"[\n{value}", f",\n{value}", f"\n{key}]"
    defect_open, defect_close = f"{{\n{value}", f"\n{key}}}"
    coef_open, coef_sep, coef_close = f"[\n{entry}", f",\n{entry}", f"\n{value}]"
    out = []
    for v in items:
        try:
            if type(v) is not dict or v.keys() != _VIOLATION_KEYS:
                raise TypeError
            args, defect, note = v["args"], v["defect"], v["note"]
            if type(args) is not list or (args and set(map(type, args)) != _INT):
                raise TypeError
            args = args_open + value_sep.join(map(str, args)) + args_close if args else "[]"
            if type(defect) is dict and defect:
                coefs = []
                for c in sorted(defect):
                    x = defect[c]
                    if type(x) is list and x:
                        x = coef_open + coef_sep.join(map(_esc, x)) + coef_close
                    else:
                        x = _esc(x)
                    coefs.append(_esc(c) + ": " + x)
                defect = defect_open + value_sep.join(coefs) + defect_close
            else:
                defect = "null" if defect is None else _esc(defect)
            out.append(f'{{\n{key}"args": {args},\n{key}"defect": {defect},\n'
                       f'{key}"note": {_esc(note)}\n{item}}}')
        except TypeError:  # not of that shape: a string where it needs one fails
            out.append(_text(v, item))
    return _block(out, pad)


# json's C encoder indents from CPython 3.13 on; before that, indent=1
# runs json's pure-Python encoder, which indented_json outruns
if sys.version_info >= (3, 13) and json.encoder.c_make_encoder is not None:
    _indented = functools.partial(json.dumps, sort_keys=True, indent=1)
else:
    _indented = indented_json


def loads_document(text) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"document is not valid JSON: {e}") from None
    except ValueError:  # the only other ValueError is CPython's int-string limit
        raise too_many_digits("integer literal in the document") from None
    except RecursionError:
        raise InputError(
            "document nesting exceeds the JSON parser's recursion limit"
        ) from None
    return doc


# ---------------------------------------------------------------------------
# full per-kind check suites and report documents


# A bundle cannot be built with an odd map (the bundles' __post_init__) or
# an invalid bicharacter (Bicharacter.__init__), so these two report lines
# state that guarantee instead of re-checking it.
_EVENNESS = CheckReport("evenness")
_BICHAR_AXIOMS = CheckReport("bicharacter-axioms")


def full_check(bundle, jobs=1):
    """Run every checker applicable to the bundle kind.

    Returns (results, flags) where results is an ordered list of
    (CheckReport, advisory) pairs.  Advisory reports classify structure
    (flexibility, skewness of a Leibniz bracket, ...) and never count
    against certification; non-advisory reports are the laws the kind
    claims, plus well-formedness.  ``jobs`` is ignored; it stays only
    because the perfbench worker passes it."""
    results = [(_EVENNESS, False), (_BICHAR_AXIOMS, False)]
    kind = bundle.kind
    if kind == "module":
        flags = {"algebra_multiplicative": is_multiplicative(bundle.algebra)}
    else:
        flags = {"multiplicative": is_multiplicative(bundle)}
    if kind == "nonassociative":
        classify = check_flexible_alternative(bundle)
        assoc = check_hom_associativity(bundle.product, bundle.twist)
        results += [(classify, True), (assoc, True)]
        flags.update(
            hom_associative=assoc.passed,
            commutative=is_sign_commutative(bundle.product, bundle.bichar),
            flexible=classify.flags["flexible"],
            alternative=classify.flags["alternative"],
        )
    elif kind == "akivis":
        skew = check_skew_symmetry(bundle)
        akivis = check_akivis_identity(bundle)
        results += [(skew, False), (akivis, False)]
        classify = check_flexible_alternative(bundle)
        jacobi = check_hom_lie(bundle)
        results += [(classify, True), (jacobi, True)]
        flags.update(
            flexible=classify.flags["flexible"],
            alternative=classify.flags["alternative"],
            hom_lie=jacobi.passed,
        )
        if bundle.space.is_trivially_graded() and classify.flags["flexible"]:
            results.append((check_flexible_akivis_relation(bundle), False))
    elif kind == "leibniz":
        law = check_color_leibniz(bundle)
        results.append((law, False))
        if law.passed:
            results.append((check_leibniz_consequences(bundle), False))
        skew = check_skew_symmetry(bundle)
        results.append((skew, True))
        flags["skew_symmetric"] = skew.passed
    elif kind == "nhlp":
        rep = check_nhlp(bundle)
        results.append((rep, False))
        flags["commutative"] = rep.flags["commutative"]
    elif kind == "dialgebra":
        results.append((check_dialgebra(bundle), False))
        flags["products_coincide"] = bundle.prod_left == bundle.prod_right
    elif kind == "module":
        results.append((check_module(bundle), False))
    return results, flags


def _defect_doc(defect):
    if defect is None:
        return None
    if isinstance(defect, Defect):  # straight from the scan's integers
        den = defect.den
        if defect.space.field.cyclotomic_order == 1:
            return {str(k): _ratio_texts(nums, den)[0] for k, nums in defect.coords}
        return {str(k): _ratio_texts(nums, den) for k, nums in defect.coords}
    if isinstance(defect, Vector):
        return _vector_doc(defect)
    if isinstance(defect, Scalar):
        return scalar_to_text(defect)
    return str(defect)


def _walk(report, prefix=""):
    path = prefix + report.identity_id
    if not report.subreports:
        yield path, report
        return
    for sub in report.subreports:
        yield from _walk(sub, path + "/")


def report_document(bundle_doc, results, flags) -> dict:
    """Assemble the machine report for a bundle document and its check
    results.  Deterministic: entries follow the fixed checker order and
    violations are canonically sorted."""
    entries = []
    overall = True
    for report, advisory in results:
        for path, leaf in _walk(report):
            entry = {
                "identity": path,
                "passed": leaf.passed,
                "advisory": advisory,
                "violations": [
                    {
                        "args": list(v.args),
                        "defect": _defect_doc(v.raw),
                        "note": v.note,
                    }
                    for v in leaf.violations
                ],
            }
            if leaf.precondition_failure is not None:
                entry["precondition_failed"] = leaf.precondition_failure.identity_id
            if leaf.note:
                entry["note"] = leaf.note
            entries.append(entry)
            if not advisory and not leaf.passed:
                overall = False
    return {
        "schema": REPORT_SCHEMA,
        "tool_version": __version__,
        "input_digest": document_digest(bundle_doc),
        "kind": bundle_doc.get("kind"),
        "passed": overall,
        "results": entries,
        "flags": dict(sorted(flags.items())),
    }


def render_report_text(report_doc) -> str:
    """Human-readable rendering of a report document."""
    lines = [
        f"kind: {report_doc['kind']}    tool: colorhom {report_doc['tool_version']}",
        f"input: {report_doc['input_digest']}",
    ]
    for entry in report_doc["results"]:
        tag = " (advisory)" if entry["advisory"] else ""
        if entry.get("precondition_failed"):
            lines.append(
                f"{entry['identity']}: SKIPPED{tag} "
                f"(precondition {entry['precondition_failed']} failed)"
            )
            continue
        if entry["passed"]:
            lines.append(f"{entry['identity']}: PASS{tag}")
            continue
        lines.append(
            f"{entry['identity']}: FAIL{tag} ({len(entry['violations'])} violations)"
        )
        for v in entry["violations"][:5]:
            where = tuple(v["args"])
            defect = v["defect"]
            note = f" [{v['note']}]" if v["note"] else ""
            lines.append(f"  at {where}: defect {defect}{note}")
        if len(entry["violations"]) > 5:
            lines.append(f"  ... {len(entry['violations']) - 5} more")
    if report_doc["flags"]:
        flagtext = " ".join(f"{k}={str(v).lower()}" for k, v in report_doc["flags"].items())
        lines.append(f"flags: {flagtext}")
    lines.append("result: " + ("PASS" if report_doc["passed"] else "FAIL"))
    return "\n".join(lines) + "\n"
