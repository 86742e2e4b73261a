"""Command-line interface.

Exit codes: 0 success / all checks pass, 1 identity violations or a
construction refusing its input, 2 malformed input or usage errors.

Input paths name JSON documents on disk; a path whose file does not
exist but whose basename matches a built-in fixture (for instance
``fixtures/leibniz-L2``) resolves to that fixture, so the examples
shipped with the tool can be checked without materializing them first.
"""

import argparse
import os
import sys

from . import __version__
from .constructions import (
    akivis_from_algebra,
    leibniz_from_dialgebra,
    tensor_square_nhlp,
    trivial_extension,
    twist_akivis,
    twist_leibniz,
    twist_module,
    twist_nhlp,
)
from .errors import ConstructionError, InputError
from .fixtures import fixture_description, fixture_document, fixture_names
from .io import (
    dumps_document,
    full_check,
    loads_document,
    parse_document,
    render_report_text,
    report_document,
    serialize_bundle,
)

def _load(path):
    """Read a document from a file, or from the fixture registry when the
    path does not exist but names a known fixture."""
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise InputError(f"cannot read {path}: {e}") from None
        doc = loads_document(text)
    else:
        name = os.path.basename(path)
        if name.endswith(".json"):
            name = name[: -len(".json")]
        if name in fixture_names():
            doc = fixture_document(name)
        else:
            raise InputError(f"no such file or fixture: {path}")
    return doc, parse_document(doc)


def _write_output(path, doc):
    text = dumps_document(doc)
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _certified_output(bundle):
    """Serialize a constructed bundle with its own full check report
    embedded.  Returns (document, report_passed)."""
    doc = serialize_bundle(bundle)
    results, flags = full_check(bundle)
    doc["report"] = report_document(doc, results, flags)
    return doc, doc["report"]["passed"]


def _emit_report(report, fmt):
    if fmt == "machine":
        sys.stdout.write(dumps_document(report))
    else:
        sys.stdout.write(render_report_text(report))


def cmd_check(args):
    doc, parsed = _load(args.input)
    results, flags = full_check(parsed.bundle)
    report = report_document(doc, results, flags)
    if args.identity and args.identity != "all":
        wanted = args.identity
        matched = [
            e
            for e in report["results"]
            if e["identity"] == wanted or wanted in e["identity"].split("/")
        ]
        if not matched:
            known = sorted({p for e in report["results"] for p in e["identity"].split("/")})
            raise InputError(
                f"no identity {wanted!r} for this bundle kind; known: {', '.join(known)}"
            )
        report["results"] = matched
        report["passed"] = all(e["passed"] for e in matched)
    _emit_report(report, args.report)
    return 0 if report["passed"] else 1


_CONSTRUCTIONS = {
    "akivis": ("nonassociative", akivis_from_algebra),
    "dialg2leibniz": ("dialgebra", leibniz_from_dialgebra),
    "trivext": ("leibniz", trivial_extension),
    "tensor2": ("nhlp", None),
}


def cmd_construct(args):
    doc, parsed = _load(args.input)
    expected_kind, build = _CONSTRUCTIONS[args.what]
    bundle = parsed.bundle
    if bundle.kind != expected_kind:
        raise InputError(
            f"construct {args.what} expects a {expected_kind} bundle, got {bundle.kind}"
        )
    if args.what == "tensor2":
        out, report = tensor_square_nhlp(bundle, variant=args.variant)
        out_doc, ok = _certified_output(out)
        _write_output(args.output, out_doc)
        if not ok:
            print(report.describe(), file=sys.stderr)
            return 1
        return 0
    out = build(bundle)
    out_doc, ok = _certified_output(out)
    _write_output(args.output, out_doc)
    return 0 if ok else 1


def cmd_twist(args):
    doc, parsed = _load(args.input)
    bundle = parsed.bundle
    if args.power < 0:
        raise InputError("--power must be >= 0")
    if bundle.kind == "module":
        if not args.module:
            raise InputError("module documents are twisted with --module")
        if args.map != "alpha":
            raise InputError(f"--map {args.map!r} does not apply to module documents")
        out = bundle
        for _ in range(args.power):
            out = twist_module(out)
        out_doc, ok = _certified_output(out)
        _write_output(args.output, out_doc)
        return 0 if ok else 1
    if args.module:
        raise InputError(f"--module applies to module documents, not {bundle.kind}")
    if args.map == "alpha":
        beta = bundle.twist
    elif args.map in parsed.extra_maps:
        beta = parsed.extra_maps[args.map]
    else:
        have = ["alpha"] + sorted(parsed.extra_maps)
        raise InputError(f"no map named {args.map!r} in document (have: {', '.join(have)})")
    twists = {"akivis": twist_akivis, "leibniz": twist_leibniz, "nhlp": twist_nhlp}
    if bundle.kind not in twists:
        raise InputError(f"twisting is defined for {sorted(twists)} bundles, not {bundle.kind}")
    out = twists[bundle.kind](bundle, beta, args.power)
    out_doc, ok = _certified_output(out)
    _write_output(args.output, out_doc)
    return 0 if ok else 1


def cmd_examples(args):
    if args.name is None:
        width = max(len(n) for n in fixture_names())
        for name in fixture_names():
            print(f"{name:<{width}}  {fixture_description(name)}")
        return 0
    name = args.name
    if name not in fixture_names():
        raise InputError(
            f"unknown fixture {name!r}; run 'colorhom examples' for the list"
        )
    sys.stdout.write(dumps_document(fixture_document(name)))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="colorhom",
        description="check and build graded algebraic structures with exact arithmetic",
    )
    parser.add_argument("--version", action="version", version=f"colorhom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify the identities of a bundle document")
    p.add_argument("input")
    p.add_argument("--identity", default="all",
                   help="restrict to one identity (default: all for the kind)")
    p.add_argument("--report", choices=("text", "machine"), default="text")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("construct", help="derive a new bundle and certify it")
    p.add_argument("what", choices=sorted(_CONSTRUCTIONS))
    p.add_argument("input")
    p.add_argument("output", help="output path, or - for standard output")
    p.add_argument("--variant", choices=("corrected", "as-printed"), default="corrected",
                   help="tensor2 product rule variant")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("twist", help="twist a bundle along an endomorphism power")
    p.add_argument("input")
    p.add_argument("output", help="output path, or - for standard output")
    p.add_argument("--map", default="alpha",
                   help="name of the twisting map in the document (default alpha; "
                        "module documents take no --map)")
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--module", action="store_true",
                   help="twist a module document along its algebra twist")
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("examples", help="list built-in fixtures or print one")
    p.add_argument("name", nargs="?", default=None)
    p.set_defaults(func=cmd_examples)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            return args.func(args)
        except ConstructionError as e:
            # a defect too long to print is an InputError, so the refusal
            # is built in full before any of it is printed
            text = f"refused: {e}"
            if e.report is not None:
                text += "\n" + e.report.describe()
            print(text, file=sys.stderr)
            return 1
    except (InputError, MemoryError, RecursionError) as e:
        # an input that outgrows memory or the stack is an input error too
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
