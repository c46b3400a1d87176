"""Command line for the concept engine.

Subcommands: parse a source file, run redescription passes, run one
task, print the capability matrix, dump a task trace, and verbalize a
fully public unit. Exit codes: 0 success, 1 diagnostics or diffs
present, 2 usage error, 3 I/O error (a closed stdout included).

The knowledge base defaults to the built-in fixture chain; point --kb
(or the RR_KB environment variable) at a saved directory to use your
own.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

from . import capability, dsl, interpreter as itp, ir, kb as kbmod, redescription, tasks

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _add_kb_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kb",
        metavar="DIR",
        default=None,
        help="knowledge base directory (default: $RR_KB, else built-in fixtures)",
    )


def _load_kb(args: argparse.Namespace) -> kbmod.KnowledgeBase:
    raw = args.kb or os.environ.get("RR_KB")
    if not raw:
        return kbmod.KnowledgeBase.canonical()
    return kbmod.KnowledgeBase.load(Path(raw))


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_parse(args: argparse.Namespace) -> int:
    path = Path(args.file)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        units = dsl.parse(dsl.SourceText(text, origin=str(path)))
    except dsl.ParseFailure as exc:
        for error in exc.errors:
            print(f"{exc.origin}:{error}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    sys.stdout.write(dsl.print_canonical(units).text)
    return EXIT_OK


def _print_phase(report, units) -> None:
    sys.stdout.write(redescription.format_report(report))
    for unit in units:
        sys.stdout.write("\n")
        sys.stdout.write(dsl.print_canonical([unit]).text)


def _cmd_redescribe(args: argparse.Namespace) -> int:
    kb = _load_kb(args)
    produced: list[ir.ConceptUnit] = []
    if args.auto:
        reports = kb.advance(threshold=args.threshold)
        for report in reports:  # a refused chain reports without outputs
            sys.stdout.write(redescription.format_report(report))
        if not any(report.outputs for report in reports):
            print("nothing to redescribe: mastery not reached, chain complete or refused")
    elif args.phase == 1:
        by_domain: dict[str, list[ir.ConceptUnit]] = {}
        for unit in kb:
            if unit.kind is ir.UnitKind.INSTANCE:
                by_domain.setdefault(unit.domain, []).append(unit)
        pool = max(by_domain.values(), key=len, default=[])
        unit, report = redescription.antiunify_instances(pool)
        produced = [unit]
        _print_phase(report, produced)
    elif args.phase == 2:
        sources = [
            u for u in kb
            if u.level is ir.Level.E1 and u.kind is ir.UnitKind.CLASS
        ]
        if not sources:
            print("no E1 class to generalize", file=sys.stderr)
            return EXIT_DIAGNOSTICS
        (unit, shared), report = redescription.generalize_to_e2(sources[0])
        produced = [unit, shared]
        _print_phase(report, produced)
    else:
        sources = [
            u for u in kb
            if u.level is ir.Level.E2
            and u.kind is ir.UnitKind.CLASS
            and u.name != ir.GLOBALS_UNIT
        ]
        if not sources:
            print("no E2 class to decompose", file=sys.stderr)
            return EXIT_DIAGNOSTICS
        units, report = redescription.decompose_to_e3(
            sources[0], shared=kb.globals_unit
        )
        produced = list(units)
        _print_phase(report, produced)

    if args.out is not None:
        for unit in produced:
            if kb.unit(unit.name, unit.level) is None:
                kb.add_unit(unit)
        kb.save(args.out)
    return EXIT_OK


def _resolve_run(args: argparse.Namespace):
    kb = _load_kb(args)
    level = ir.Level[args.level]
    task = tasks.build_task(args.task, args.seed)
    outcome, trace = tasks.run(task, list(kb), level)
    return task, level, outcome, trace


def _cmd_run(args: argparse.Namespace) -> int:
    task, level, outcome, trace = _resolve_run(args)
    suffix = f" ({outcome.reason})" if outcome.reason else ""
    print(f"{task.id} at {level.name} (seed {args.seed}): {outcome.kind}{suffix}")
    try:
        fd, path = tempfile.mkstemp(
            prefix=f"rr-{task.id}-{level.name}-", suffix=".tsv"
        )
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(itp.format_trace(trace))
    except OSError as exc:
        print(f"cannot write trace: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"trace: {path}")
    return EXIT_OK


def _cmd_trace(args: argparse.Namespace) -> int:
    _, _, _, trace = _resolve_run(args)
    sys.stdout.write(itp.format_trace(trace))
    return EXIT_OK


def _cmd_matrix(args: argparse.Namespace) -> int:
    matrix = capability.build_matrix(_load_kb(args).kb_by_level())
    if args.diff:
        diffs = capability.compare_expected(matrix)
        if diffs:
            for line in diffs:
                print(line, file=sys.stderr)
            return EXIT_DIAGNOSTICS
        cells = len(matrix.cells)
        print(f"matrix matches golden ({cells} cells)")
        return EXIT_OK
    if args.output == "tsv":
        sys.stdout.write(capability.render_tsv(matrix))
    else:
        sys.stdout.write(capability.render_text(matrix))
    return EXIT_OK


def _cmd_verbalize(args: argparse.Namespace) -> int:
    unit = _load_kb(args).unit(args.unit)
    if unit is None:
        print(f"no unit named {args.unit!r} in the knowledge base", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    sys.stdout.write(capability.verbalize(unit))
    return EXIT_OK


_COMMANDS = {
    "parse": _cmd_parse,
    "redescribe": _cmd_redescribe,
    "run": _cmd_run,
    "matrix": _cmd_matrix,
    "trace": _cmd_trace,
    "verbalize": _cmd_verbalize,
}

# Failures a command reports by printing the exception and exiting with
# EXIT_DIAGNOSTICS; main catches kbmod.IoFailure, a KbError, first.
_DIAGNOSED = (
    dsl.ParseFailure,
    kbmod.KbError,
    tasks.UnknownTaskId,
    capability.MissingLevel,
    capability.NotE3,
    redescription.RedescriptionError,
)


# ---------------------------------------------------------------------------
# Entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrlang",
        description="concept units, their interpreter, and their redescription",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate a source file and print it canonically")
    p.add_argument("file", help="path to a .rr source file")

    p = sub.add_parser("redescribe", help="run redescription passes over the knowledge base")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--phase", type=int, choices=(1, 2, 3))
    group.add_argument("--auto", action="store_true",
                       help="fire whichever phases mastery allows")
    p.add_argument("--threshold", type=_positive_int, default=3,
                   help="solved tasks needed before --auto fires a phase")
    p.add_argument("--out", metavar="DIR", default=None,
                   help="save the grown knowledge base to this directory")
    _add_kb_option(p)

    p = sub.add_parser("run", help="run one task at one level")
    p.add_argument("--task", required=True, choices=tasks.TASK_IDS)
    p.add_argument("--level", required=True, choices=tuple(l.name for l in ir.Level))
    p.add_argument("--seed", type=int, default=0)
    _add_kb_option(p)

    p = sub.add_parser("matrix", help="print the level by task capability matrix")
    p.add_argument("--diff", action="store_true",
                   help="compare against the golden matrix; nonzero exit on drift")
    p.add_argument("--output", choices=("text", "tsv"), default="text")
    _add_kb_option(p)

    p = sub.add_parser("trace", help="dump one task's trace as TSV")
    p.add_argument("--task", required=True, choices=tasks.TASK_IDS)
    p.add_argument("--level", required=True, choices=tuple(l.name for l in ir.Level))
    p.add_argument("--seed", type=int, default=0)
    _add_kb_option(p)

    p = sub.add_parser("verbalize", help="render a fully public unit as sentences")
    p.add_argument("unit", help="unit name to look up in the knowledge base")
    _add_kb_option(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # so a reader that went away shows up here
        return code
    except BrokenPipeError:
        # Nobody reads stdout any more. Point it at devnull so the flush
        # at exit cannot fail again (the "Note on SIGPIPE" in the Python
        # signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except kbmod.IoFailure as exc:
        print(exc, file=sys.stderr)
        return EXIT_IO
    except _DIAGNOSED as exc:
        print(exc, file=sys.stderr)
        return EXIT_DIAGNOSTICS


if __name__ == "__main__":
    sys.exit(main())
