"""Command-line front end: argument parsing, text formats, rendering and exit codes.

Output goes to stdout as compact JSON, or as indented lines with --output text.
Every malformed input, argument syntax included, is one JSON error object on
stderr with exit 2; long flags must be spelled in full. Exit codes: 0 success /
positive verdict, 1 negative verdict, 2 malformed input, 3 over the work budget,
4 internal error (a contract check failed), 141 stdout closed early (128 +
SIGPIPE). `_cmd_*` handlers return (payload, ok); `main` alone prints, reports
errors and returns the exit code. Integers written as text read -?[0-9]+.
"""

import argparse
import json
import os
import re
import sys
from itertools import accumulate
from pathlib import Path

from .box import delta_from_box, enumerate_box
from .classify import classify_delta, enumerate_admissible
from .constraints import _validated_delta, least_prime_divisor, run_all_checks
from .ehrhart import ehrhart_delta, ehrhart_table
from .groups import exhaustive_search
from .hnf import HNFSpec, build_simplex, closed_form_delta
from .lattice import DEFAULT_BUDGET, BudgetExceededError, Simplex, within_budget

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141

_JSON_INT_LIMIT = 2**53
_EMIT_SLICE = 64  # list items per json.dumps call on output


def _jsonable(obj):
    """Make a payload JSON-safe; integers beyond 2**53 become decimal strings."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, float)):
        return obj
    if isinstance(obj, int):
        return obj if abs(obj) < _JSON_INT_LIMIT else str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if type(obj) in (list, tuple):  # not a record, though every record is a named tuple
        # plain ints in range, such as a delta-vector, pass in one step; bools take the path below
        if set(map(type, obj)) == {int} and -_JSON_INT_LIMIT < min(obj) and max(obj) < _JSON_INT_LIMIT:
            return list(obj)
        return [_jsonable(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _text_lines(obj, indent=0):
    pad = "  " * indent
    labelled = ((f"{k}:", v) for k, v in obj.items()) if isinstance(obj, dict) else (("-", v) for v in obj)
    for label, value in labelled:
        # a nonempty dict, or a list holding a dict or list, nests; anything else prints inline
        if isinstance(value, dict) and value or isinstance(value, list) and any(isinstance(x, (dict, list)) for x in value):
            yield f"{pad}{label}"
            yield from _text_lines(value, indent + 1)
        else:
            yield f"{pad}{label} {_scalar_text(value)}"


def _scalar_text(value):
    """A scalar or a list of scalars as text; null, true and false are spelled as in JSON."""
    if isinstance(value, list):
        return ",".join(map(_scalar_text, value))
    return json.dumps(value) if value is None or isinstance(value, bool) else str(value)


def _json_text(payload):
    """`json.dumps(_jsonable(payload))` in pieces, so the whole text is never held at once."""
    if isinstance(payload, dict):
        yield "{"
        for i, (key, value) in enumerate({str(k): v for k, v in payload.items()}.items()):
            yield f'{", " if i else ""}{json.dumps(key)}: '
            yield from _json_slices(value)
        yield "}"
    else:
        yield from _json_slices(payload)


def _json_slices(obj):
    """A list made JSON-safe and encoded _EMIT_SLICE items at a time; anything else whole."""
    if type(obj) not in (list, tuple):
        yield json.dumps(_jsonable(obj))
        return
    yield "["
    for start in range(0, len(obj), _EMIT_SLICE):
        text = json.dumps(_jsonable(obj[start : start + _EMIT_SLICE]))[1:-1]
        yield ", " + text if start else text
    yield "]"


def _emit(payload, args):
    if args.output == "json":
        for text in _json_text(payload):
            sys.stdout.write(text)
        print(flush=True)
    else:
        print("\n".join(_text_lines(_jsonable(payload))), flush=True)


def _error(kind, message, **extra):
    body = {"error": {"type": kind, "message": message, **extra}}
    print(json.dumps(_jsonable(body)), file=sys.stderr)


def ascii_int(text: str) -> int:
    """Integer written -?[0-9]+; unlike int(), refuses '_', '+', spaces and non-ASCII digits."""
    if not re.fullmatch("-?[0-9]+", text):
        raise ValueError(f"integer required, got {text!r}")
    return int(text)


def _parse_int_list(text, what):
    try:
        return tuple(ascii_int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated list of integers") from None


def _load_simplex(path):
    """Strict parse of a simplex file {"vertices": [[int, ...], ...]}; floats are rejected."""
    text = Path(path).read_text(encoding="utf-8")
    # the file nests three deep; deeper text is refused before the parser, whose depth limit varies by interpreter
    outside_strings = re.sub(r'"(?:[^"\\]|\\.)*"', "", text)
    if max(accumulate((c in "[{") - (c in "]}") for c in outside_strings), default=0) > 3:
        raise ValueError(f"{path}: JSON nested too deeply")
    obj = json.loads(text)
    if not isinstance(obj, dict) or set(obj) != {"vertices"}:
        raise ValueError('expected a JSON object with a single "vertices" key')
    rows = obj["vertices"]
    if not isinstance(rows, list) or not rows:
        raise ValueError('"vertices" must be a nonempty list of integer rows')
    verts = []
    for row in rows:
        if not isinstance(row, list):
            raise ValueError("each vertex must be a list of integers")
        # decimal strings are accepted so outputs stringified beyond 2**53 round-trip
        verts.append(tuple(ascii_int(x) if isinstance(x, str) else x for x in row))
    return Simplex(tuple(verts))


def _box_budget(simplex, budget):
    """Refuse a box group over budget before building it: it has one point per unit of volume."""
    within_budget(simplex.normalized_volume, budget, "box points")
    return simplex


def _spec(args):
    return HNFSpec(args.m, _parse_int_list(args.coeffs, "--coeffs"), args.dim)


def _cmd_delta(args):
    return delta_from_box(_box_budget(_load_simplex(args.simplex), args.budget)), True


def _cmd_box(args):
    points = enumerate_box(_box_budget(_load_simplex(args.simplex), args.budget))
    return [
        {
            "coeffs": [f"{n}/{point.denominator}" for n in point.numerators],
            "degree": point.degree,
        }
        for point in points
    ], True


def _cmd_oracle(args):
    simplex = _load_simplex(args.simplex)
    table = ehrhart_table(simplex, budget=args.budget)
    return {
        "dim": simplex.dim,
        "normalized_volume": simplex.normalized_volume,
        "counts": table.counts,
        "interior_counts": table.interior_counts,
        "delta": table.delta,
    }, True


def _cmd_hnf(args):
    spec = _spec(args)
    simplex = _box_budget(build_simplex(spec), args.budget)
    closed = closed_form_delta(spec)
    via_box = delta_from_box(simplex)
    agree = closed == via_box
    return {
        "spec": spec._asdict(),
        "simplex": {"vertices": simplex.vertices},
        "delta_closed_form": closed,
        "delta_box": via_box,
        "agree": agree,
    }, agree


def _cmd_check(args):
    delta = _validated_delta(_parse_int_list(args.delta, "--delta"))
    m = sum(delta)  # m - 1 exponents, then ((g - 1) // 2)**2 pairs below g, m's least prime divisor
    g = least_prime_divisor(m) if 1 < m <= args.budget + 1 else m  # beyond, m - 1 alone refuses
    within_budget(m - 1 + ((g - 1) // 2) ** 2, args.budget, "exponents and pairs")
    report = run_all_checks(delta)
    payload = dict(report)
    payload["checks"] = {
        name: {"ok": not v, "violations": v} for name, v in report["checks"].items()
    }
    return payload, report["all_pass"]


def _cmd_classify(args):
    violations, found = classify_delta(_parse_int_list(args.delta, "--delta"))
    if violations:
        return {
            "admissible": False,
            "violations": violations,
            "case": None,
            "witness": None,
            "verified": False,
        }, False
    verified = delta_from_box(_box_budget(build_simplex(found.spec), args.budget)) == found.delta
    return {
        "admissible": True,
        "case": {"label": found.case.label, "branch": found.case.branch},
        "witness": found.spec._asdict(),
        "verified": verified,
    }, verified


def _cmd_enumerate(args):
    witnesses = enumerate_admissible(args.volume, args.dim, budget=args.budget)
    payload = {
        "volume": args.volume,
        "dim": args.dim,
        "count": len(witnesses),
        "entries": [
            {
                "delta": w.delta,
                "case": w.case.label,
                "witness": w.spec._asdict(),
            }
            for w in witnesses
        ],
    }
    if not args.exhaustive_crosscheck:
        return payload, True
    searched = set(exhaustive_search(args.dim, args.volume, budget=args.budget))
    admissible_set = {w.delta for w in witnesses}
    match = searched == admissible_set
    payload["crosscheck"] = {
        "match": match,
        "search_only": sorted(searched - admissible_set),
        "enumerate_only": sorted(admissible_set - searched),
    }
    return payload, match


def _cmd_search(args):
    deltas = exhaustive_search(args.dim, args.volume, budget=args.budget)
    return {
        "dim": args.dim,
        "volume": args.volume,
        "count": len(deltas),
        "deltas": deltas,
    }, True


def _cmd_verify(args):
    given = sum(v is not None for v in (args.m, args.coeffs, args.dim))
    if args.simplex is not None and given:
        raise ValueError("give either --simplex or --m/--coeffs/--dim, not both")
    if 0 < given < 3:
        raise ValueError("--m, --coeffs and --dim must be given together")
    if args.simplex is None and not given:
        raise ValueError("give --simplex or --m/--coeffs/--dim")
    spec = _spec(args) if given else None
    simplex = build_simplex(spec) if given else _load_simplex(args.simplex)

    methods = {"box": delta_from_box(_box_budget(simplex, args.budget))}
    if spec is not None:
        methods["closed_form"] = closed_form_delta(spec)
    skipped = None
    try:
        methods["oracle"] = ehrhart_delta(simplex, budget=args.budget)
    except BudgetExceededError as exc:
        methods["oracle"] = None
        skipped = exc.estimate
    computed = [v for v in methods.values() if v is not None]
    agree = all(v == computed[0] for v in computed)
    payload = {"methods": methods, "agree": agree}
    if skipped is not None:
        payload["oracle_skipped_estimate"] = skipped
    return payload, agree


class _Parser(argparse.ArgumentParser):
    """Accepts a long flag by its full name only and raises usage errors for `main` to report."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValueError(message)


_GLOBAL_FLAGS = _Parser(add_help=False)  # actions shared by the top level and every command; `_parse` supplies defaults
_GLOBAL_FLAGS.add_argument("--budget", type=ascii_int, default=argparse.SUPPRESS, help="work budget in cells / box "
                           "points / character values / candidate delta entries / exponents and pairs")
_GLOBAL_FLAGS.add_argument("--output", choices=("json", "text"), default=argparse.SUPPRESS)


def _build_parser():
    parser = _Parser(
        prog="deltasimplex",
        description="Delta-vectors of lattice simplices: compute, validate, classify.",
        parents=[_GLOBAL_FLAGS],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("delta", parents=[_GLOBAL_FLAGS], help="delta-vector via the parallelepiped group")
    p.add_argument("--simplex", required=True, metavar="FILE")
    p.set_defaults(handler=_cmd_delta)

    p = sub.add_parser("box", parents=[_GLOBAL_FLAGS], help="list the parallelepiped points")
    p.add_argument("--simplex", required=True, metavar="FILE")
    p.set_defaults(handler=_cmd_box)

    p = sub.add_parser("oracle", parents=[_GLOBAL_FLAGS], help="dilate counts and delta-vector by brute force")
    p.add_argument("--simplex", required=True, metavar="FILE")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("hnf", parents=[_GLOBAL_FLAGS], help="build a one-row family member and its delta-vector")
    p.add_argument("--m", type=ascii_int, required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--dim", type=ascii_int, required=True)
    p.set_defaults(handler=_cmd_hnf)

    p = sub.add_parser(
        "check", parents=[_GLOBAL_FLAGS],
        help="run all applicable delta-vector checks; exit 0 means no known necessary "
        "condition fails, not that some simplex realizes the vector",
    )
    p.add_argument("--delta", required=True)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("classify", parents=[_GLOBAL_FLAGS], help="admissibility and witness for volume 5 or 7")
    p.add_argument("--delta", required=True)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("enumerate", parents=[_GLOBAL_FLAGS], help="all admissible delta-vectors at a dimension")
    p.add_argument("--volume", type=ascii_int, required=True)
    p.add_argument("--dim", type=ascii_int, required=True)
    p.add_argument("--exhaustive-crosscheck", action="store_true")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("search", parents=[_GLOBAL_FLAGS], help="exhaustive delta-vector search over group characters")
    p.add_argument("--dim", type=ascii_int, required=True)
    p.add_argument("--volume", type=ascii_int, required=True)
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("verify", parents=[_GLOBAL_FLAGS], help="compare all applicable delta-vector methods")
    p.add_argument("--simplex", metavar="FILE")
    p.add_argument("--m", type=ascii_int)
    p.add_argument("--coeffs")
    p.add_argument("--dim", type=ascii_int)
    p.set_defaults(handler=_cmd_verify)

    return parser


def _parse(argv):
    """Parse argv, naming an unknown flag before the command instead of taking its value for the command."""
    try:
        first = _GLOBAL_FLAGS.parse_known_args(argv)[1][:1]
    except ValueError:  # a malformed global flag: the full parse reports argv's first error
        first = []
    if first and first[0].startswith("-") and first[0] not in ("-h", "--help"):
        raise ValueError(f"unrecognized arguments: {first[0]}")
    return _build_parser().parse_args(argv, argparse.Namespace(budget=DEFAULT_BUDGET, output="json"))


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        payload, ok = args.handler(args)
        _emit(payload, args)
        return EXIT_OK if ok else EXIT_NEGATIVE
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except BudgetExceededError as exc:
        _error("budget-exceeded", str(exc), estimate=exc.estimate, budget=exc.budget)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        _error(type(exc).__name__, str(exc))
        return EXIT_USAGE
    except AssertionError as exc:
        _error("internal-error", str(exc))
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
