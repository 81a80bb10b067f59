"""Command line front end.

Exit codes:

* 0 success;
* 2 usage errors: malformed path or increment literals, missing or
  conflicting arguments, a negative ``--max-size``;
* 3 validation errors on otherwise well-formed input: a path that is not
  weakly above nu, and a tree file that cannot be read, is not JSON, lacks
  a key, does not hold a tree of its region or lies over another nu or
  delta than ``--nu``/``--delta``;
* 4 invariant breaches: a census, oracle or flushing mismatch that would
  falsify the implementation.

Every error is reported as one line on stderr, never as a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import oracle
from .order import LatticeLawError, build_lattice
from .paths import (
    ContractError,
    IncrementVector,
    LatticePath,
    NuPath,
    PathSyntaxError,
    all_base_paths,
    enumerate_nu_paths,
    increment_box,
    is_weakly_above,
    parse_increments,
    parse_path,
)
from .transport import (
    horizontal_flushing,
    mtamari_path,
    mtamari_right_formula,
    verify_theorem,
    vertical_flushing,
)
from .trees import GridTree, build_region, left_flushing, right_flushing, tree_from_json
from .vectors import reduced_column_vector, row_vector

USAGE_ERROR = 2
VALIDATION_ERROR = 3
INVARIANT_BREACH = 4


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)


def _parse_delta(text: str, nu: LatticePath) -> IncrementVector:
    try:
        return parse_increments(text, nu)
    except (PathSyntaxError, ContractError) as err:
        raise _Usage(str(err)) from err


class _Usage(Exception):
    pass


class _Validation(Exception):
    pass


class _Breach(Exception):
    pass


def cmd_paths(args) -> int:
    nu = parse_path(args.nu)
    for i, mu in enumerate(enumerate_nu_paths(nu)):
        print(f"{i}\t{mu.path.word}\t{mu.path.composition_str()}")
    return 0


def cmd_lattice(args) -> int:
    nu = parse_path(args.nu)
    delta = _parse_delta(args.delta, nu)
    lattice = build_lattice(nu, delta)
    if args.format == "dot":
        _emit(lattice.to_dot(), args.out)
    elif args.format == "json":
        _emit(json.dumps(lattice.to_json_dict(), indent=2) + "\n", args.out)
    else:
        lines = [f"nu={nu.word} delta={delta} elements={len(lattice)} covers={len(lattice.covers)}"]
        for low, high, valley in lattice.covers:
            lines.append(
                f"{lattice.elements[low].path.word} -> {lattice.elements[high].path.word}"
                f" (valley {valley})"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_census(args) -> int:
    nu = parse_path(args.nu)
    delta = _parse_delta(args.delta, nu)
    census = build_lattice(nu, delta).census()
    if args.format == "json":
        doc = {"nu": nu.word, "delta": list(delta.entries)}
        doc.update(census.to_json_dict())
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
        return 0
    rows = ["length\ttotal\tleft\tright"]
    for k, total in enumerate(census.totals):
        left = census.left[k - 1] if 1 <= k <= len(census.left) else 0
        right = census.right[k - 1] if 1 <= k <= len(census.right) else 0
        rows.append(f"{k}\t{total}\t{left if k else '-'}\t{right if k else '-'}")
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    failures = 0
    if args.nu is None and args.max_size is None:
        raise _Usage("verify needs --nu or --max-size")
    if args.max_size is not None and args.max_size < 0:
        raise _Usage(f"--max-size must be >= 0, got {args.max_size}")
    if args.nu is not None:
        failures += _verify_one(parse_path(args.nu), args)
    if args.max_size is not None:
        for nu in all_base_paths(args.max_size):
            failures += _verify_one(nu, args)
    return INVARIANT_BREACH if failures else 0


def _verify_one(nu: LatticePath, args) -> int:
    report = verify_theorem(nu, sample=args.sample, seed=args.seed)
    status = "ok" if report.all_equal else "MISMATCH"
    print(
        f"{nu.word or '(empty)'}: {report.deltas_checked} deltas, "
        f"census {report.census.totals}, {status}"
    )
    failures = 0 if report.all_equal else 1
    if args.max_size is not None and nu.n > 0:
        failures += _cross_check(nu)
    return failures


def _cross_check(nu: LatticePath) -> int:
    """Oracle census and lattice laws for every increment vector of nu."""
    failures = 0
    for delta in increment_box(nu):
        lattice = build_lattice(nu, delta)
        lattice.check_lattice_laws()
        covers = [(low, high) for low, high, _ in lattice.covers]
        matrix = oracle.closure_from_covers(len(lattice), covers)
        reference = oracle.oracle_census(matrix)
        if tuple(lattice.census().totals) != reference:
            print(f"  oracle mismatch at delta={delta.entries}", file=sys.stderr)
            failures += 1
    return failures


def cmd_flush(args) -> int:
    nu = parse_path(args.nu)
    delta = _parse_delta(args.delta, nu)
    region = build_region(nu, delta)
    if (args.path is None) == (args.tree is None):
        raise _Usage("flush needs exactly one of --path or --tree")
    if args.path is not None:
        candidate = parse_path(args.path)
        if not is_weakly_above(candidate, nu):
            raise _Validation(f"{candidate.word!r} is not weakly above {nu.word!r}")
        tree = right_flushing(NuPath(candidate, nu), region)
        _emit(json.dumps(tree.to_json_dict(), indent=2) + "\n", args.out)
        return 0
    tree = _read_tree(args.tree)
    if tree.region != region:
        raise _Validation(
            f"tree in {args.tree!r} lies over nu={tree.region.nu.word} "
            f"delta={tree.region.delta}, not nu={nu.word} delta={delta}"
        )
    mu = left_flushing(tree)
    _emit(
        json.dumps({"nu": nu.word, "path": mu.path.word, "composition": list(mu.composition)})
        + "\n",
        args.out,
    )
    return 0


def _read_tree(path: str) -> GridTree:
    """The tree stored in a JSON file; any fault in the file is a validation error."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError) as err:
        raise _Validation(f"cannot read tree file {path!r}: {err}") from err
    if not isinstance(data, dict):
        raise _Validation(f"tree file {path!r} holds no tree: not a JSON object")
    for key in ("nu", "delta", "nodes"):
        if key not in data:
            raise _Validation(f"tree file {path!r} lacks the key {key!r}")
    if not (
        isinstance(data["nu"], str)
        and _is_int_list(data["delta"])
        and isinstance(data["nodes"], list)
        and all(_is_int_list(node) and len(node) == 2 for node in data["nodes"])
    ):
        raise _Validation(
            f"tree file {path!r} holds no tree: expected a word nu, "
            "a list of integers delta and nodes as pairs of integers"
        )
    try:
        return tree_from_json(data)
    except (ContractError, PathSyntaxError) as err:
        raise _Validation(f"tree file {path!r} holds no tree: {err}") from err


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(type(v) is int for v in value)


def cmd_transport(args) -> int:
    nu = parse_path(args.nu)
    delta = _parse_delta(args.delta, nu)
    delta2 = _parse_delta(args.delta2, nu)
    candidate = parse_path(args.path)
    if not is_weakly_above(candidate, nu):
        raise _Validation(f"{candidate.word!r} is not weakly above {nu.word!r}")
    source = right_flushing(NuPath(candidate, nu), build_region(nu, delta))
    if args.direction == "h":
        target = horizontal_flushing(source, delta2)
        name, vector = "row_vector", row_vector
    else:
        target = vertical_flushing(source, delta2)
        name, vector = "reduced_column_vector", reduced_column_vector
    kept = vector(source)
    if vector(target) != kept:
        raise _Breach(f"{name} not preserved: {kept} became {vector(target)}")
    doc = {
        "source": source.to_json_dict(),
        "target": target.to_json_dict(),
        "preserved": {name: list(kept)},
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def cmd_mtamari_check(args) -> int:
    base = mtamari_path(args.m, args.n)
    lattice = build_lattice(base, IncrementVector.maximal(base))
    census = lattice.census()
    failures = 0
    for length in range(1, args.n + 1):
        expected = mtamari_right_formula(args.m, args.n, length)
        got = census.right[length - 1] if length <= len(census.right) else 0
        marker = "ok" if expected == got else "MISMATCH"
        if expected != got:
            failures += 1
        print(f"m={args.m} n={args.n} length={length}: formula {expected}, census {got} {marker}")
    return INVARIANT_BREACH if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alttamari", description="alt nu-Tamari lattices and their linear intervals"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("paths", help="list the paths weakly above nu")
    p.add_argument("--nu", required=True)
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("lattice", help="export one lattice")
    p.add_argument("--nu", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--format", choices=("dot", "json", "text"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("census", help="linear interval counts of one lattice")
    p.add_argument("--nu", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", help="check the equal-census theorem")
    p.add_argument("--nu")
    p.add_argument("--max-size", type=int, dest="max_size")
    p.add_argument("--sample", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("flush", help="flush a path to a tree or back")
    p.add_argument("--nu", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--path")
    p.add_argument("--tree")
    p.add_argument("--out")
    p.set_defaults(func=cmd_flush)

    p = sub.add_parser("transport", help="carry a tree between increment vectors")
    p.add_argument("--nu", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--delta2", required=True)
    p.add_argument("--path", required=True)
    p.add_argument("--direction", choices=("h", "v"), default="h")
    p.add_argument("--out")
    p.set_defaults(func=cmd_transport)

    p = sub.add_parser("mtamari-check", help="right-interval formula vs enumeration")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_mtamari_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_Usage, PathSyntaxError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except (_Validation, ContractError) as err:
        print(f"validation error: {err}", file=sys.stderr)
        return VALIDATION_ERROR
    except (_Breach, LatticeLawError) as err:
        print(f"invariant breach: {err}", file=sys.stderr)
        return INVARIANT_BREACH


if __name__ == "__main__":
    sys.exit(main())
