"""Command line front end: classification tables, equivalence queries, and the
verification suites.

Exit codes: 0 success or equivalent, 1 inequivalent, 2 input error,
3 cost cap exceeded, 4 internal consistency failure.  Output is
byte-identical for identical inputs.
"""

from __future__ import annotations

import argparse
import sys

from .errors import DEFAULT_WORK_CAP, CapExceeded, InternalConsistencyError, InvalidInput
from .galois import build_galois_model, places
from .rootsys import build_root_system
from .endodata import equivalent
from .elliptic import classify_elliptic
from .localglobal import counterexample_search
from .serialize import (
    certificate_to_dict,
    dumps,
    load_datum,
    report_to_dict,
    report_to_markdown,
    witness_to_dict,
)
from .suites import (
    bijection_suite,
    local_global_suite,
    reduction_suite,
    shapiro_suite,
)

EXIT_OK = 0
EXIT_INEQUIVALENT = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4

VERIFY_FLAGS = ("type", "galois", "max_order", "cap_orbit", "places")
# the verify flags each suite reads; giving any other one is an input error
SUITE_FLAGS = {
    "bijection": ("type", "galois", "max_order", "cap_orbit"),
    "local-global": ("type", "galois", "max_order", "cap_orbit", "places"),
    "reduction": (),
    "shapiro": ("type",),
}
SUITES = tuple(SUITE_FLAGS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="endatlas",
        description="Classify and compare elliptic endoscopic data over finite Galois models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cls = sub.add_parser("classify", help="classification table for a type and Galois model")
    cls.add_argument("--type", required=True, help="Cartan type, e.g. C3 or E7")
    cls.add_argument("--galois", required=True, help="preset name or table:PATH")
    cls.add_argument("--format", choices=("json", "md"), default="json")
    cls.add_argument("--out", help="write the report here instead of stdout")

    eqv = sub.add_parser("equiv", help="test two datum files for equivalence")
    eqv.add_argument("files", nargs=2, metavar="DATUM")
    eqv.add_argument("--out", help="write the witness JSON here")

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", required=True, choices=SUITES)
    ver.add_argument("--type", help="Cartan type (bijection/local-global; base type for shapiro)")
    ver.add_argument("--galois", help="preset name or table:PATH")
    ver.add_argument("--max-order", type=int, default=None)
    ver.add_argument(
        "--cap-orbit", type=int, default=None,
        help="cost cap of the brute-force inventory (bijection, local-global, --places; "
        "default 10^6); the Galois-order and rank caps stay at 10^6",
    )
    ver.add_argument("--places", help="comma-separated generators restricting the place family")
    ver.add_argument("--format", choices=("json", "md"), default="json")
    ver.add_argument("--out", help="write the report here instead of stdout")
    return parser


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_classify(args) -> int:
    rs = build_root_system(args.type)
    galois = build_galois_model(args.galois, rs)
    report = classify_elliptic(rs, galois)
    if args.format == "json":
        _emit(dumps(report_to_dict(report)), args.out)
    else:
        _emit(report_to_markdown(report), args.out)
    return EXIT_OK


def _cmd_equiv(args) -> int:
    d1 = load_datum(args.files[0])
    d2 = load_datum(args.files[1])
    w = equivalent(d1, d2)
    _emit(dumps(witness_to_dict(w)), args.out)
    if w is None:
        sys.stderr.write("inequivalent\n")
        return EXIT_INEQUIVALENT
    return EXIT_OK


def _cmd_verify(args) -> int:
    read = SUITE_FLAGS[args.suite]
    unread = [f for f in VERIFY_FLAGS if f not in read and getattr(args, f) is not None]
    if unread:
        flags = ", ".join("--" + f.replace("_", "-") for f in unread)
        raise InvalidInput(f"suite {args.suite!r} does not read {flags}")
    cap = DEFAULT_WORK_CAP if args.cap_orbit is None else args.cap_orbit
    if args.suite in ("bijection", "local-global"):
        if not args.type or not args.galois:
            raise InvalidInput(f"suite {args.suite!r} needs --type and --galois")
        run = bijection_suite if args.suite == "bijection" else local_global_suite
        subset = None
        try:
            if args.suite == "local-global" and args.places is not None:
                rs = build_root_system(args.type)
                galois = build_galois_model(args.galois, rs)
                wanted = {x.strip() for x in args.places.split(",")}
                subset = [p for p in places(galois) if galois.names[p.generator] in wanted]
                if not subset:
                    raise InvalidInput("no listed place matches --places")
            result = run(args.type, args.galois, max_order=args.max_order, cap=cap)
        except CapExceeded as exc:
            _emit(
                dumps({"suite": args.suite, "ok": False, "cap_exceeded": str(exc)}),
                args.out,
            )
            return EXIT_CAP
        extra = {}
        if subset is not None:
            bound = result.details["order_bound"]
            cert = counterexample_search(rs, galois, subset, bound, cap=cap)
            extra["restricted_places"] = sorted(p.name(galois) for p in subset)
            extra["certificate"] = (
                certificate_to_dict(cert, galois) if cert is not None else None
            )
    elif args.suite == "reduction":
        result = reduction_suite()
        extra = {}
    else:
        base_types = (args.type,) if args.type else ("A1", "A2")
        result = shapiro_suite(base_types)
        extra = {}
    payload = {
        "suite": result.name,
        "ok": result.ok,
        "details": result.details,
        "failures": result.failures,
    }
    payload.update(extra)
    if args.format == "md":
        lines = [f"# Suite {result.name}", "", f"ok: {result.ok}", ""]
        lines += [f"- {k}: {v}" for k, v in sorted(result.details.items())]
        lines += [f"- FAILURE: {f}" for f in result.failures]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(dumps(payload), args.out)
    return EXIT_OK if result.ok else EXIT_INEQUIVALENT


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "equiv":
            return _cmd_equiv(args)
        return _cmd_verify(args)
    except CapExceeded as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return EXIT_CAP
    except (InvalidInput, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except InternalConsistencyError as exc:
        sys.stderr.write(f"internal consistency failure: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
