"""Command line interface.

evmlift CODEFILE            lift one file, writing CODEFILE.tac and
                            CODEFILE.metrics.json next to it
evmlift lift --batch DIR    lift every bytecode file in a directory
evmlift lift --sweep FILE   compare the four standard configurations

Exit codes: 0 when the analysis ran to completion (fixpoint or fact
limit), 2 when it timed out, 1 on usage errors (negative numbers included),
input errors (code over 24,576 bytes included) and unwritable outputs, 3
when --batch hit an unexpected error in a file (its traceback goes to
stderr). A batch lifts every file and exits with the worst code.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .analysis import DEFAULT_FACT_LIMIT, STOP_TIMEOUT
from .bytecode import BytecodeError, extract_blocks, read_bytecode_file
from .context import Scheme
from .interpreter import EnvValuation, concrete_execute
from .lifter import render_tac
from .pipeline import DEFAULT_TIMEOUT, RunConfig, run_pipeline

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TIMEOUT = 2
EXIT_CRASH = 3

SUBCOMMANDS = ("lift", "trace")
SKIP_SUFFIXES = (".tac", ".metrics.json")

SWEEP_CONFIGS = (
    ("default", {}),
    ("no-shrinking", {"scheme": Scheme.TRANSACTIONAL}),
    ("no-cloning", {"cloning": False}),
    ("no-preanalysis", {"preanalysis": False}),
)


def _at_least(minimum: int, kind: type = int):
    """argparse type for a number no smaller than minimum; NaN is refused too."""

    def parse(text: str):
        if not (value := kind(text)) >= minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text}")
        return value

    parse.__name__ = kind.__name__  # for argparse's "invalid int value: 'x'"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evmlift", description=__doc__.strip().split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    lift = sub.add_parser("lift", help="lift bytecode to three-address code")
    lift.add_argument("input", nargs="?", help="bytecode file (hex text or raw binary)")
    lift.add_argument("--scheme", choices=["shrinking", "transactional"], default="shrinking")
    lift.add_argument("--context-depth", type=_at_least(0), default=None, metavar="N")
    lift.add_argument("--no-cloning", action="store_true")
    lift.add_argument("--no-preanalysis", action="store_true")
    lift.add_argument("--fact-limit", type=_at_least(0), default=DEFAULT_FACT_LIMIT, metavar="N")
    lift.add_argument("--timeout", type=_at_least(0, float), default=DEFAULT_TIMEOUT, metavar="SECONDS")
    lift.add_argument("--tac-out", metavar="PATH")
    lift.add_argument("--metrics-out", metavar="PATH")
    lift.add_argument("--batch", metavar="DIR", help="lift every file in DIR")
    lift.add_argument("--jobs", type=_at_least(1), default=1, metavar="N")
    lift.add_argument("--sweep", action="store_true", help="print a table over standard configs")

    trace = sub.add_parser("trace", help="run the concrete interpreter and print the visited blocks")
    trace.add_argument("input")
    trace.add_argument("--calldata", default="", metavar="HEX")
    trace.add_argument("--max-steps", type=_at_least(0), default=10_000, metavar="N")
    return parser


def _config_from_args(args: argparse.Namespace, **overrides) -> RunConfig:
    base = dict(
        scheme=Scheme(args.scheme),
        context_depth=args.context_depth,
        cloning=not args.no_cloning,
        preanalysis=not args.no_preanalysis,
        fact_limit=args.fact_limit,
        timeout=args.timeout,
    )
    base.update(overrides)
    return RunConfig(**base)


def _write_atomic(path: Path, text: str) -> None:
    """Write text to a new sibling of path, then rename it over path.

    The sibling is created exclusively with mode 0o666, as open(path, "w")
    would create path, so the umask sets the output's mode.
    """
    tmp = f"{path}.{os.urandom(6).hex()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _lift_one(
    input_path: str,
    config: RunConfig,
    tac_out: str | None = None,
    metrics_out: str | None = None,
) -> tuple[int, str]:
    """Returns (exit code, stop condition or error text)."""
    try:
        code = read_bytecode_file(input_path)
    except (OSError, BytecodeError) as err:
        return EXIT_ERROR, str(err)
    result = run_pipeline(code, config)
    try:
        _write_atomic(Path(tac_out or input_path + ".tac"), render_tac(result.tac))
        _write_atomic(Path(metrics_out or input_path + ".metrics.json"), result.metrics.to_json())
    except OSError as err:
        return EXIT_ERROR, str(err)
    stop = result.metrics.stop_condition
    return (EXIT_TIMEOUT if stop == STOP_TIMEOUT else EXIT_OK), stop


def _batch_worker(job: tuple[str, RunConfig]) -> tuple[str, int, str]:
    path, config = job
    try:
        code, detail = _lift_one(path, config)
    except Exception as err:
        import traceback  # only on a crash, as it loads tokenize and textwrap

        traceback.print_exc()
        return path, EXIT_CRASH, f"internal error: {type(err).__name__}: {err}"
    return path, code, detail


def _run_batch(args: argparse.Namespace) -> int:
    root = Path(args.batch)
    if not root.is_dir():
        print(f"not a directory: {root}", file=sys.stderr)
        return EXIT_ERROR
    inputs = sorted(
        str(p)
        for p in root.iterdir()
        if p.is_file() and not p.name.startswith(".") and not p.name.endswith(SKIP_SUFFIXES)
    )
    if not inputs:
        print(f"no bytecode files in {root}", file=sys.stderr)
        return EXIT_ERROR
    config = _config_from_args(args)
    jobs = [(path, config) for path in inputs]
    # A forking pool starts all its workers at once, so start no more than there are files.
    workers = min(args.jobs, len(jobs))
    if workers > 1:
        import concurrent.futures  # only here, as it loads logging and inspect

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_batch_worker, jobs))
    else:
        rows = [_batch_worker(job) for job in jobs]
    worst = EXIT_OK
    for path, code, detail in rows:
        print(f"{path}: {detail}")
        worst = max(worst, code)
    return worst


def _run_sweep(args: argparse.Namespace) -> int:
    try:
        code = read_bytecode_file(args.input)
    except (OSError, BytecodeError) as err:
        print(str(err), file=sys.stderr)
        return EXIT_ERROR
    headers = (
        "config",
        "polymorphic",
        "unresolved",
        "unstructured",
        "missing-ir",
        "missing-cf",
        "stop",
    )
    rows = [headers]
    worst = EXIT_OK
    for name, overrides in SWEEP_CONFIGS:
        metrics = run_pipeline(code, _config_from_args(args, **overrides)).metrics
        rows.append(
            (
                name,
                str(metrics.polymorphic_jump_target),
                str(metrics.unresolved_operand),
                str(metrics.unstructured_control_flow),
                str(metrics.missing_ir_block),
                str(metrics.missing_control_flow),
                metrics.stop_condition,
            )
        )
        if metrics.stop_condition == STOP_TIMEOUT:
            worst = EXIT_TIMEOUT
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return worst


def _run_trace(args: argparse.Namespace) -> int:
    try:
        code = read_bytecode_file(args.input)
        calldata = bytes.fromhex(args.calldata.removeprefix("0x"))
    except (OSError, BytecodeError, ValueError) as err:
        print(str(err), file=sys.stderr)
        return EXIT_ERROR
    trace = concrete_execute(
        extract_blocks(code), EnvValuation(calldata=calldata), max_steps=args.max_steps
    )
    print("visits:", " ".join(f"0x{b:x}" for b in trace.visits))
    print("halted:", trace.halted)
    print("steps:", trace.steps)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] not in SUBCOMMANDS and argv[0] not in ("-h", "--help"):
        argv.insert(0, "lift")
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as stop:
        # argparse exits 0 after -h and 2 on a usage error; 2 means a timeout here
        if stop.code == 0:
            raise
        return EXIT_ERROR

    if args.command == "trace":
        return _run_trace(args)
    if args.batch:
        if args.input or args.sweep:
            print("--batch takes no positional input and no --sweep", file=sys.stderr)
            return EXIT_ERROR
        return _run_batch(args)
    if not args.input:
        print("an input file or --batch DIR is required", file=sys.stderr)
        return EXIT_ERROR
    if args.sweep:
        return _run_sweep(args)
    config = _config_from_args(args)
    code, detail = _lift_one(args.input, config, args.tac_out, args.metrics_out)
    if code == EXIT_ERROR:
        print(detail, file=sys.stderr)
    else:
        print(f"{args.input}: {detail}")
    return code


if __name__ == "__main__":
    sys.exit(main())
