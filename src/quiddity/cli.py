"""Command-line surface.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success or a
passing verification, 1 a verification mismatch, 2 usage errors (including
searches over the work budget without --allow-large, and searches that run
out of memory), 3 an internal failure (such as a builder's "this is a bug"
error), 141 with nothing printed when the reader of stdout closes it early,
as `| head` does (the code a shell reports for a process killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import re
import sys

from . import enumeration, monomial
from .dissections import (
    _eliminate_quads,
    _modulus_kind,
    _require_weighted_first,
    _svg,
    _unchecked_quiddity,
    build_dissection,
    random_dissection,
    triangulate,
)
from .enumeration import SearchConfig, WorkLimitExceeded
from .modmat import check_modulus
from .solutions import (
    _decompose,
    _seq_text,
    as_solution,
    canonicalize,
    normalize_seq,
    oplus,
    solution_sign,
)

ENV_MODULUS = "QUIDDITY_MODULUS"


class UsageError(Exception):
    pass


def _parse_seq(text: str, where: str = "") -> tuple[int, ...]:
    """The integers of comma-separated text; a usage error names the first part that is not one.

    A part that is longer than 16 characters, or whose escapes make its
    repr longer than 40, is shown by its first characters and its length,
    so the error stays one short line whatever the input.
    """
    parts = text.strip().split(",")
    try:
        return tuple(map(int, parts))
    except ValueError:
        pass
    for i, part in enumerate(parts, 1):  # name the first part that is not an integer
        try:
            int(part)
        except ValueError:
            head = part[:16]
            while len(repr(head)) > 40:  # an escape takes up to 10 characters
                head = head[:-1]
            shown = repr(part) if head == part else f"{head!r}... ({len(part)} characters)"
            raise UsageError(f"{where}expected comma-separated integers; "
                             f"entry {i} of {len(parts)} is {shown}") from None


def _modulus(args) -> int:
    n = args.modulus
    text = os.environ.get(ENV_MODULUS)
    if n is None and text:
        try:
            n = int(text)
        except ValueError:
            raise UsageError(f"{ENV_MODULUS} must be an integer, got {text!r}")
    if n is None:
        raise UsageError("no modulus given (use --modulus or " + ENV_MODULUS + ")")
    return check_modulus(n)


def _parse_sizes(args) -> range | tuple[int, ...]:
    if args.size is not None:
        return (args.size,)
    if args.sizes is not None:
        return args.sizes
    raise UsageError("give --size or --sizes")


def _input_label(args) -> str:
    """The input of a failed command for its exit-3 line: sequences, then the modulus.

    Each sequence is written by ``_seq_text``, so the line stays one short line.
    """
    shown = []
    for name in ("left", "right") if args.command == "sum" else ("seq",):
        text = getattr(args, name, None)
        if text is not None:
            shown.append(_seq_text(_parse_seq(text)))
    modulus = _modulus(args)
    return f"{' (+) '.join(shown)} mod {modulus}" if shown else f"modulus {modulus}"


def _emit(args, payload: dict, text_lines: list[str], csv_rows=None):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv":
        for row in csv_rows:
            print(",".join(str(x) for x in row))
    else:
        for line in text_lines:
            print(line)


def _seq_payload(seq, n_mod: int, sign: int | None) -> dict:
    """The JSON payload of a tuple; ``sign`` is its ``solution_sign``."""
    return {
        "modulus": n_mod,
        "seq": list(seq),
        "sign": sign,
        "canonical": list(canonicalize(seq)),
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args) -> int:
    n = _modulus(args)
    seq = normalize_seq(_parse_seq(args.seq), n)
    sign = solution_sign(seq, n)
    payload = _seq_payload(seq, n, sign)
    payload["solution"] = sign is not None
    if sign is None:
        _emit(args, payload, ["not a solution"])
    else:
        _emit(args, payload, [f"solution, sign={'+1' if sign > 0 else '-1'}"])
    return 0


def cmd_sum(args) -> int:
    n = _modulus(args)
    a = normalize_seq(_parse_seq(args.left), n)
    b = normalize_seq(_parse_seq(args.right), n)
    out = oplus(a, b, n)
    _emit(args, _seq_payload(out, n, solution_sign(out, n)), [",".join(map(str, out))])
    return 0


def cmd_canon(args) -> int:
    n = _modulus(args)
    seq = normalize_seq(_parse_seq(args.seq), n)
    rep = canonicalize(seq)
    _emit(args, _seq_payload(rep, n, solution_sign(rep, n)), [",".join(map(str, rep))])
    return 0


def cmd_reduce(args) -> int:
    n = _modulus(args)
    seq = as_solution(_parse_seq(args.seq), n)
    whitelist = None
    if args.right is not None:  # an empty --right is a usage error, not no restriction
        right = normalize_seq(_parse_seq(args.right, "quiddity reduce: argument --right: "), n)
        if len(right) < 3 or solution_sign(right, n) is None:
            raise UsageError(f"--right {_seq_text(right)} is not a solution of size >= 3 mod {n}")
        whitelist = [right]
    w = _decompose(seq, n, whitelist)  # find_decomposition past the checks made above
    if w is None:
        irreducible = whitelist is None or _decompose(seq, n) is None
        payload = {"modulus": n, "seq": list(seq), "irreducible": irreducible}
        _emit(args, payload, ["irreducible" if irreducible
                              else "no splitting has its right part in the given class"])
        return 0
    payload = {
        "modulus": n,
        "seq": list(seq),
        "irreducible": False,
        "witness": w.to_dict(),
    }
    left = ",".join(map(str, w.left))
    right = ",".join(map(str, w.right))
    _emit(args, payload, [f"({left}) (+) ({right})  [dihedral transform {w.transform}]"])
    return 0


def cmd_enumerate(args) -> int:
    n = _modulus(args)
    # an empty --alphabet is an error, not every letter
    alphabet = None if args.alphabet is None else _parse_seq(
        args.alphabet, "quiddity enumerate: argument --alphabet: ")
    sols = enumeration.enumerate_solutions(n, args.size, alphabet, work_limit=args.work_limit)
    payload = {"modulus": n, "n": args.size, "count": len(sols),
               "solutions": [list(s) for s in sols]}
    _emit(args, payload,
          [",".join(map(str, s)) for s in sols],
          csv_rows=[s for s in sols])
    return 0


def _check_shard_flags(args) -> None:
    """Usage errors for shard flags that are each valid alone but not together."""
    if args.jobs > 1:
        for flag, given in (("--shard-count", args.shard_count > 1),
                            ("--shard-index", args.shard_index > 0)):
            if given:
                raise UsageError(f"quiddity classify: argument --jobs: not allowed with {flag}; "
                                 "--jobs deals out shards itself")
    if args.shard_index >= args.shard_count:
        raise UsageError("quiddity classify: argument --shard-index: must be < --shard-count "
                         f"({args.shard_count}), got {args.shard_index}")


def _classify_report(args, n: int):
    _check_shard_flags(args)
    config = SearchConfig(
        modulus=n, sizes=_parse_sizes(args),
        irreducible_only=args.irreducible_only,
        shard_index=args.shard_index, shard_count=args.shard_count,
        keep_witnesses=args.witnesses,
        work_limit=args.work_limit)
    if args.jobs > 1:
        # imported here: it pulls in multiprocessing, which other calls never use
        from concurrent.futures import ProcessPoolExecutor
        config = config._replace(shard_count=args.jobs)
        # the shard count, not the pool size, fixes the merged report; a fork
        # pool starts all its workers at once, so never more than the CPUs
        with ProcessPoolExecutor(max_workers=min(args.jobs, os.cpu_count() or 1)) as pool:
            reports = list(pool.map(enumeration.classify, [
                config._replace(shard_index=i) for i in range(args.jobs)]))
        return enumeration.merge_shards(config, reports)
    return enumeration.classify(config)


def cmd_classify(args) -> int:
    # a witness report holds tens of thousands of tracked objects (N = 6,
    # sizes 3..9) and almost no reference cycles: the cyclic collector would
    # only sweep them again and again as they pile up, so it waits
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _classify(args)
    finally:
        if collecting:
            gc.enable()


def _classify(args) -> int:
    n = _modulus(args)
    report = _classify_report(args, n)
    # only the chosen format's output is built
    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        _emit(args, None, [], csv_rows=[(s.size,) + rep for s in report.sizes
                                        for rep in s.irreducible])
    else:
        lines = []
        for s in report.sizes:
            head = f"n={s.size}:"
            if s.total_classes is not None:
                head += f" {s.total_classes} classes, {s.reducible_count} reducible,"
            head += f" {len(s.irreducible)} irreducible"
            lines.append(head)
            lines.extend("  " + ",".join(map(str, rep)) for rep in s.irreducible)
        _emit(args, None, lines)
    return 0


def cmd_verify(args) -> int:
    n = _modulus(args)
    given = args.sizes is not None or args.size is not None
    report = enumeration.verify_expected(n, _parse_sizes(args) if given else None, args.work_limit)
    sizes = report.sizes  # sorted, each once: LO..HI when contiguous
    scanned = (f"{sizes[0]}..{sizes[-1]}" if sizes[-1] - sizes[0] + 1 == len(sizes)
               else ",".join(map(str, sizes)))
    lines = [f"modulus {n}, sizes {scanned}: " + ("PASS" if report.passed else "FAIL")]
    for s in report.missing:
        lines.append("missing: " + ",".join(map(str, s)))
    for s in report.extra:
        lines.append("extra:   " + ",".join(map(str, s)))
    _emit(args, report.to_dict(), lines)
    return 0 if report.passed else 1


def cmd_monomial(args) -> int:
    n = _modulus(args)
    if args.k is not None:
        rec = monomial.minimal_monomial(n, args.k)
        lines = [f"k={rec.k}: minimal size {rec.minimal_size}, "
                 + ("irreducible" if rec.irreducible else "reducible")]
        if rec.witness:
            lines.append("  witness: (%s) (+) (%s)" % (
                ",".join(map(str, rec.witness.left)),
                ",".join(map(str, rec.witness.right))))
        _emit(args, rec.to_dict(), lines)
        return 0
    report = monomial.monomial_theorem_report(n)
    lines = [f"modulus {n}: " + ("PASS" if report.passed else "FAIL")]
    for c in report.checks:
        lines.append(("  ok  " if c.passed else "  BAD ") + c.description)
    _emit(args, report.to_dict(), lines)
    return 0 if report.passed else 1


def _dissect_common(args, d, q) -> int:
    # q: the quiddity the builder has validated d against; only the chosen
    # format's output is built
    if args.format == "svg":
        print(_svg(d, q))
    elif args.format == "json":
        payload = d.to_dict()
        payload["quiddity"] = list(q)
        _emit(args, payload, [])
    else:
        lines = [f"{d.kind} dissection of an {d.n}-gon; quiddity " + ",".join(map(str, q))]
        for c in d.cells:
            w = "" if c.weight is None else f" weight {c.weight}"
            lines.append("  cell " + "-".join(map(str, c.vertices)) + w)
        for a, b in d.pairs:
            lines.append(f"  split pair: cells {a} and {b}")
        _emit(args, None, lines)
    return 0


def cmd_dissect(args) -> int:
    if args.seq is not None and args.random is not None:
        raise UsageError("quiddity dissect: argument --random: not allowed with a sequence")
    n = _modulus(args)
    kind = _modulus_kind(n)  # --random needs the kind; build_dissection checks it again
    if args.random is not None:
        d = random_dissection(args.random, kind, args.seed)
        return _dissect_common(args, d, _unchecked_quiddity(d))
    if not args.seq:
        raise UsageError("give a sequence or --random N")
    seq = normalize_seq(_parse_seq(args.seq), n)
    return _dissect_common(args, build_dissection(seq, n), seq)


def cmd_triangulate(args) -> int:
    n = _modulus(args)
    seq = normalize_seq(_parse_seq(args.seq), n)
    if args.via_rewrite:
        # the builder has validated d against seq, so the rewrite takes seq as is
        d = build_dissection(seq, n)
        _require_weighted_first(d)
        d = _eliminate_quads(d, seq)
    else:
        d = triangulate(seq, n)
    return _dissect_common(args, d, seq)


def cmd_evidence(args) -> int:
    n = _modulus(args)
    report = enumeration.evidence_scan(n, args.n_max, args.work_limit)
    lines = [f"modulus {n}, scanned sizes 3..{report.n_max} ({report.note})"]
    for size, count in sorted(report.per_size.items()):
        lines.append(f"  n={size}: {count} irreducible classes")
    lines.append(f"largest irreducible size found: {report.max_irreducible_size}")
    _emit(args, report.to_dict(), lines)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(p, formats=("text", "json")):
    p.add_argument("--modulus", "-N", type=int, default=None,
                   help="modulus (0 = integer mode); falls back to $" + ENV_MODULUS)
    p.add_argument("--format", choices=formats, default="text")


def _sizes_arg(text: str) -> range | tuple[int, ...]:
    """``--sizes`` value: a range ``LO..HI`` or a list ``3,4,5``.

    A range stays a ``range``, so a huge one is refused by its length
    before it is listed.
    """
    try:
        if ".." in text:
            lo, hi = text.split("..")
            sizes = range(int(lo), int(hi) + 1)
        else:
            sizes = tuple(int(s) for s in text.split(","))
    except ValueError:
        sizes = ()
    if not sizes:
        raise argparse.ArgumentTypeError(
            f"expected LO..HI with LO <= HI or a comma-separated list, got {text!r}")
    return sizes


def _int_at_least(low: int):
    """An argparse type for integers >= ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are usage errors, not a usage block and exit."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared after that.

    ``parse_args`` returns a fresh namespace on each call, so the shared
    parser carries no state between calls; callers must not modify it.
    Its ``subcommands`` map each command name to that command's parser.
    """
    ap = _Parser(prog="quiddity",
                 description="solution calculus for the +/-identity "
                             "congruence on products of elementary matrices")
    sub = ap.add_subparsers(dest="command", required=True)
    no_budget = dict(dest="work_limit", action="store_const", const=None,
                     default=enumeration.DEFAULT_WORK_LIMIT,
                     help="override the work budget (prints a warning)")

    p = sub.add_parser("check", help="test whether a sequence is a solution")
    _add_common(p)
    p.add_argument("seq")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sum", help="glue two sequences")
    _add_common(p)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("canon", help="canonical representative under rotation/reversal")
    _add_common(p)
    p.add_argument("seq")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("reduce", help="find a splitting witness or report irreducible")
    _add_common(p)
    p.add_argument("seq")
    p.add_argument("--right", default=None,
                   help="restrict the right part to this class (comma-separated)")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("enumerate", help="all solutions of one size")
    _add_common(p, formats=("text", "json", "csv"))
    p.add_argument("--size", "-n", type=int, required=True)
    p.add_argument("--alphabet", default=None, help="restrict entries, e.g. 2,3")
    p.add_argument("--allow-large", **no_budget)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", help="canonical classes per size, with irreducibility")
    _add_common(p, formats=("text", "json", "csv"))
    sizes = p.add_mutually_exclusive_group()
    sizes.add_argument("--size", type=int, default=None)
    sizes.add_argument("--sizes", type=_sizes_arg, default=None, help="e.g. 3..8 or 3,4,5")
    p.add_argument("--irreducible-only", action="store_true")
    p.add_argument("--witnesses", action="store_true",
                   help="record a splitting witness for each reducible class")
    p.add_argument("--shard-index", type=_int_at_least(0), default=0)
    p.add_argument("--shard-count", type=_int_at_least(1), default=1)
    p.add_argument("--jobs", type=_int_at_least(1), default=1,
                   help="fan shards out over processes")
    p.add_argument("--allow-large", **no_budget)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="compare classification against the packaged lists")
    _add_common(p)
    sizes = p.add_mutually_exclusive_group()
    sizes.add_argument("--size", type=int, default=None)
    sizes.add_argument("--sizes", type=_sizes_arg, default=None)
    p.add_argument("--allow-large", **no_budget)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("monomial", help="constant-tuple solutions")
    _add_common(p)
    p.add_argument("--k", type=int, default=None,
                   help="residue; omit to run the irreducibility fact checks")
    p.set_defaults(func=cmd_monomial)

    p = sub.add_parser("dissect", help="realize a solution as a polygon dissection")
    _add_common(p, formats=("text", "json", "svg"))
    p.add_argument("seq", nargs="?")
    p.add_argument("--random", type=int, default=None, metavar="NGON",
                   help="generate a random dissection instead")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_dissect)

    p = sub.add_parser("triangulate", help="all-triangle dissection for a solution")
    _add_common(p, formats=("text", "json", "svg"))
    p.add_argument("seq")
    p.add_argument("--via-rewrite", action="store_true",
                   help="mod 3: build any dissection, then fan quads away")
    p.set_defaults(func=cmd_triangulate)

    p = sub.add_parser("evidence", help="irreducible counts of sizes 3..n_max "
                                        "(default N+3); says nothing past n_max")
    _add_common(p)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--allow-large", **no_budget)
    p.set_defaults(func=cmd_evidence)

    ap.subcommands = sub.choices
    return ap


_NEGATIVE_SEQ = re.compile(r"^-\d+(,-?\d+)*$")


def _shield_negative_seqs(argv):
    # a sequence like -1,-1,-1 would otherwise parse as an option; a leading
    # space makes argparse treat it as positional, and int() strips it
    return [" " + tok if _NEGATIVE_SEQ.match(tok) else tok for tok in argv]


def _parse_args(argv):
    """``build_parser().parse_args(argv)``; a named command's own parser reads the rest once."""
    parser = build_parser()
    command = parser.subcommands.get(argv[0]) if argv else None
    if command is None:  # no arguments, -h or an unknown command
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:  # shown as given, without the shield's space
        parser.error(f"unrecognized arguments: {' '.join(tok.lstrip(' ') for tok in extra)}")
    return args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(_shield_negative_seqs(list(argv)))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "work_limit", 0) is None:  # --allow-large, on a search command
        print("warning: work budget override active", file=sys.stderr)
    # class counts can run past the interpreter's default 4,300 digits
    set_digits = getattr(sys, "set_int_max_str_digits", None)  # Python >= 3.10.7
    if set_digits:
        digits = sys.get_int_max_str_digits()
        set_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the signal module's recipe: point stdout at devnull, so the flush
        # at exit finds nothing to raise on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (UsageError, WorkLimitExceeded, ValueError) as exc:
        # before RuntimeError: WorkLimitExceeded is one
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # RecursionError included; exit 1 would read as a verification mismatch
        print(f"error: {args.command} failed internally on {_input_label(args)}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"error: {args.command} ran out of memory on {_input_label(args)}; "
              "ask for a smaller search", file=sys.stderr)
        return 2
    finally:
        if set_digits:
            set_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
