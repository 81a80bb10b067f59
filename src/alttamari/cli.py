"""Command line front end.

Exit codes:

* 0 success;
* 1 standard output closed early, as by ``| head -1``, with nothing on stderr;
* 2 usage errors: malformed path or increment literals, missing, unknown
  or conflicting arguments, an option value that is not an integer or not
  one of its choices, a ``--max-size`` outside 0..12, a ``--sample`` below 2,
  an ``mtamari-check --m`` or ``--n`` below 1, and a path, given or built
  from ``--m`` and ``--n``, with more steps than ``sys.maxsize`` or too long
  to build in memory;
* 3 validation errors on otherwise well-formed input: a path that is not
  weakly above nu, a tree file that cannot be read or holds no tree, or
  one over another nu or delta than ``--nu``/``--delta``, an ``--out``
  file that cannot be written, and an input too large for memory;
* 4 invariant breaches: a census, oracle or flushing mismatch, or a broken
  lattice law (ids that are not a linear extension, no top or a missing
  meet), that would falsify the implementation;
* 130 interrupted, as by Ctrl-C, with no child process left behind.

Every error is reported as one line on stderr, never as a traceback.

``verify --nu`` alone is a one-word run: it checks the theorem for that
word, in this process, without the cross-check below. Every delta whose
census differs from the delta-free one is named on stderr.

``verify --max-size`` uses one process per available core. It forks a
child per core and deals the base paths out to them by estimated cost:
the number of deltas times the square of the lattice size, costliest
first, each to the child with the least load so far. For each of its paths
a child builds the lattice of every delta, checks the lattice laws and the
oracle census against ``census_by_paths`` once per distinct order among
them, checks the theorem, and sends back only the lines to print. The
parent prints them in sweep order and counts the mismatch lines as
failures, so its output and exit code are those of a serial run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import oracle
from .counting import census_by_paths, census_for
from .order import LatticeLawError, build_lattice
from .paths import (
    ContractError,
    IncrementVector,
    LatticePath,
    PathSyntaxError,
    all_base_paths,
    box_size,
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
MAX_SWEEP_SIZE = 12


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as handle:
            handle.write(text)
    except OSError as err:
        raise _Validation(f"cannot write output file {out!r}: {err}") from err


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
        print(f"{i}\t{LatticePath.from_composition(mu).word}\t{','.join(map(str, mu))}")
    return 0


def cmd_lattice(args) -> int:
    nu = parse_path(args.nu)
    delta = _parse_delta(args.delta, nu)
    lattice = build_lattice(delta)
    if args.format == "dot":
        _emit(lattice.to_dot(), args.out)
    elif args.format == "json":
        _emit(json.dumps(lattice.to_json_dict(), indent=2) + "\n", args.out)
    else:
        words = [LatticePath.from_composition(mu).word for mu in lattice.elements]
        lines = [f"{words[low]} -> {words[high]} (valley {k})" for low, high, k in lattice.covers()]
        header = f"nu={nu.word} delta={delta} elements={len(lattice)} covers={len(lines)}"
        _emit("\n".join([header, *lines]) + "\n", args.out)
    return 0


def cmd_census(args) -> int:
    nu = parse_path(args.nu)
    delta = _parse_delta(args.delta, nu)
    census = build_lattice(delta).census()
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
    if args.nu is None and args.max_size is None:
        raise _Usage("verify needs --nu or --max-size")
    if args.max_size is not None and args.max_size < 0:
        raise _Usage(f"--max-size must be >= 0, got {args.max_size}")
    if args.max_size is not None and args.max_size > MAX_SWEEP_SIZE:
        raise _Usage(f"--max-size must be <= {MAX_SWEEP_SIZE}, got {args.max_size}")
    if args.sample is not None and args.sample < 2:
        raise _Usage(f"--sample must be >= 2, got {args.sample}")
    nus = [] if args.nu is None else [parse_path(args.nu)]
    if args.max_size is not None:
        nus += [nu for nu in all_base_paths(args.max_size) if nu not in nus]
    failures = _in_workers(lambda nu: _verify_one(nu, args), nus, _report, _sweep_cost)
    return INVARIANT_BREACH if any(failures) else 0


def _verify_one(nu: LatticePath, args) -> tuple[list[str], str]:
    """The mismatch lines and the theorem line of nu.

    A sweep (``--max-size``) cross-checks nu first; each delta whose
    census differs from the delta-free one adds a line too.
    """
    mismatches = [] if args.max_size is None else _cross_check(nu)
    report = verify_theorem(nu, sample=args.sample, seed=args.seed)
    mismatches += [f"  {mismatch}" for mismatch in report.mismatches]
    status = "ok" if report.all_equal else "MISMATCH"
    line = (
        f"{nu.word or '(empty)'}: {report.deltas_checked} deltas, "
        f"census {report.census.totals}, {status}"
    )
    return mismatches, line


def _report(verdict: tuple[list[str], str]) -> int:
    """Print a verdict of ``_verify_one``: mismatch lines on stderr, the theorem line on stdout.

    Returns the number of mismatch lines, the verdict's failures.
    """
    mismatches, line = verdict
    for message in mismatches:
        print(message, file=sys.stderr)
    print(line)
    return len(mismatches)


def _cross_check(nu: LatticePath) -> list[str]:
    """Lattice laws of each distinct order among the deltas of nu; the oracle mismatch lines.

    The laws (through ``down``) and the oracle (through ``covers()``) read only
    a lattice's covers, which its offsets fix, and vice versa: the groups are
    fixed per nu and each holds a path.  So each distinct offset list is checked
    once, and its verdict stands for every delta that has it.  The oracle census
    is held to ``census_by_paths``; each failing delta gets a line, in box order.
    """
    expected = census_by_paths(nu).totals
    verdicts: dict[tuple, bool] = {}
    mismatches = []
    for delta in increment_box(nu):
        lattice = build_lattice(delta)
        key = tuple(lattice.offsets)
        if key not in verdicts:
            lattice.check_lattice_laws()
            covers = [(low, high) for low, high, _ in lattice.covers()]
            census = oracle.oracle_census(oracle.closure_from_covers(len(lattice), covers))
            verdicts[key] = census == expected
        if not verdicts[key]:
            mismatches.append(f"  oracle mismatch at delta={delta.entries}")
    return mismatches


def _sweep_cost(nu: LatticePath) -> int:
    """Estimated work of ``_cross_check(nu)``: the deltas of its box times N² for N elements.

    The lattice laws visit the N(N - 1)/2 pairs of a lattice once each and
    the oracle census scans the comparable pairs, so both grow as N²; the
    oracle closure is O(N + E) row ORs for E covers.  Every lattice of the
    box has the same N elements.  Deltas that repeat an order skip the laws
    and the oracle, so this is an upper bound; measured serially at sizes 7
    and 9, the children's loads under it still come out even.
    """
    return box_size(nu) * oracle.count_paths_above(nu.word) ** 2


def _assign(costs: list[int], workers: int) -> list[int]:
    """The worker of each item, longest processing time first.

    The items are taken from the costliest down, ties in item order, and
    each goes to the worker with the least estimated load so far (the
    lowest index on ties), so no worker's load exceeds the mean load by
    more than the largest single cost.
    """
    loads, owners = [0] * workers, [0] * len(costs)
    for i in sorted(range(len(costs)), key=costs.__getitem__, reverse=True):
        owners[i] = least = loads.index(min(loads))
        loads[least] += costs[i]
    return owners


def _in_workers(work, items: list, take, cost) -> list:
    """``take(work(item))`` for each item, called in item order.

    The work is done in forked children, one per available core. The items
    are dealt out by ``_assign`` on their ``cost``, so the children finish
    at about the same time. Each child works its items in item order and
    writes each result, or the exception it raised, to its own pipe as one
    pickled frame; results are kept small (lines of text), so the parent
    has little to unpickle. The parent reads the frame of item i
    from the pipe of the child that owns it, so whatever ``take`` prints
    comes out as in a serial run. Items whose child could not be started,
    or ended before writing their frames, are worked on in the parent.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cores or 1, len(items)) if hasattr(os, "fork") else 1
    if workers > 1:  # only forking needs these: a one-item run loads neither
        import pickle
        import signal
    owners = _assign([cost(item) for item in items], workers) if workers > 1 else [0] * len(items)
    readers, pids, taken = [None] * workers, [], []
    try:
        for w in range(workers if workers > 1 else 0):
            fds = ()
            try:
                fds = os.pipe()
                pid = os.fork()
            except OSError:
                for fd in fds:
                    os.close(fd)
                break
            if pid == 0:
                try:
                    sink = open(fds[1], "wb")
                    for item in [item for item, owner in zip(items, owners) if owner == w]:
                        try:
                            frame = work(item)
                        except Exception as err:
                            frame = err
                        sink.write(pickle.dumps(frame))
                        sink.flush()
                finally:
                    os._exit(0)
            pids.append(pid)
            os.close(fds[1])
            readers[w] = open(fds[0], "rb")
        for item, w in zip(items, owners):
            result = None
            if readers[w]:
                try:
                    result = pickle.load(readers[w])
                except (EOFError, pickle.UnpicklingError):  # the child ended early
                    readers[w].close()
                    readers[w] = None
            if result is None:
                result = work(item)
            elif isinstance(result, Exception):
                raise result
            taken.append(take(result))
        return taken
    finally:
        if pids:  # only a started child gives a reader
            # a second Ctrl-C is held, blocked, until every child is reaped:
            # raised inside the loop, it would leave the later children behind
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                for reader in filter(None, readers):
                    reader.close()
                for pid in pids:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def cmd_flush(args) -> int:
    nu = parse_path(args.nu)
    delta = _parse_delta(args.delta, nu)
    region = build_region(delta)
    if (args.path is None) == (args.tree is None):
        raise _Usage("flush needs exactly one of --path or --tree")
    if args.path is not None:
        tree = right_flushing(_path_above(args.path, nu), region)
        _emit(json.dumps(tree.to_json_dict(), indent=2) + "\n", args.out)
        return 0
    tree = _read_tree(args.tree)
    if tree.region != region:
        raise _Validation(
            f"tree in {args.tree!r} lies over nu={tree.region.nu.word} "
            f"delta={tree.region.delta}, not nu={nu.word} delta={delta}"
        )
    mu = left_flushing(tree)
    word = LatticePath.from_composition(mu).word
    _emit(json.dumps({"nu": nu.word, "path": word, "composition": list(mu)}) + "\n", args.out)
    return 0


def _path_above(text: str, nu: LatticePath) -> tuple[int, ...]:
    """The composition of a path literal; a path not weakly above nu is a validation error."""
    candidate = parse_path(text)
    if not is_weakly_above(candidate.composition, nu.composition):
        raise _Validation(f"{candidate.word!r} is not weakly above {nu.word!r}")
    return candidate.composition


def _read_tree(path: str) -> GridTree:
    """The tree stored in a JSON file; any fault in the file is a validation error."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError, RecursionError) as err:
        raise _Validation(f"cannot read tree file {path!r}: {err}") from err
    try:
        return tree_from_json(data)
    except ContractError as err:
        raise _Validation(f"tree file {path!r} {err}") from err


def cmd_transport(args) -> int:
    nu = parse_path(args.nu)
    delta = _parse_delta(args.delta, nu)
    delta2 = _parse_delta(args.delta2, nu)
    source = right_flushing(_path_above(args.path, nu), build_region(delta))
    region2 = build_region(delta2)
    if args.direction == "h":
        target = horizontal_flushing(source, region2)
        name, vector = "row_vector", row_vector
    else:
        target = vertical_flushing(source, region2)
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
    for name, value in (("m", args.m), ("n", args.n)):
        if value < 1:
            raise _Usage(f"--{name} must be >= 1, got {value}")
    if (args.m + 1) * args.n > sys.maxsize:
        raise _Usage(f"(N E^{args.m})^{args.n} has more than {sys.maxsize} steps")
    base = mtamari_path(args.m, args.n)
    census = census_for(IncrementVector.maximal(base))
    failures = 0
    for length in range(1, args.n + 1):
        expected = mtamari_right_formula(args.m, args.n, length)
        got = census.right[length - 1] if length <= len(census.right) else 0
        marker = "ok" if expected == got else "MISMATCH"
        if expected != got:
            failures += 1
        print(f"m={args.m} n={args.n} length={length}: formula {expected}, census {got} {marker}")
    return INVARIANT_BREACH if failures else 0


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a malformed command line as one usage error line.

    ``add_subparsers`` builds the subcommand parsers with this class too.
    """

    def error(self, message: str):
        raise _Usage(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument(
        "--max-size", type=int, dest="max_size",
        help="sweep every base path of at most this many steps, checking the lattice laws "
        "and the oracle too; uses one process per available core",
    )
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
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (_Usage, PathSyntaxError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except (_Validation, ContractError) as err:
        print(f"validation error: {err}", file=sys.stderr)
        return VALIDATION_ERROR
    except MemoryError:
        pass  # reported below, once the failing frames have let go of their memory
    except (_Breach, LatticeLawError) as err:
        print(f"invariant breach: {err}", file=sys.stderr)
        return INVARIANT_BREACH
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT, as a shell reports it
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    print("validation error: out of memory", file=sys.stderr)
    return VALIDATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
