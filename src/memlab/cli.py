"""Command line surface: pretrain | finetune | baseline | reshuffle | compare | plot.

Every training command reads a run config, executes, and writes
metrics.csv, plot.svg, final.ckpt and a resolved-config echo (config.echo)
into --out, so a run can be reproduced from its echo alone.  Exit codes:
0 success, 1 usage error, 2 runtime or data error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import protocol
from .data import split
from .errors import ConfigError, MemlabError, UsageError
from .persist import (
    _ROWS,
    RunSpec,
    format_real,
    load_checkpoint,
    parse_config,
    phase_config,
    read_metrics_csv,
    render_config,
    save_checkpoint,
    write_metrics_csv,
)
from .svg import emit_svg


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="memlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    def command(name, help_text, **extra_flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run config file")
        p.add_argument("--out", default=".", help="output directory")
        for flag, kwargs in extra_flags.items():
            p.add_argument(flag, **kwargs)
        return p

    command("pretrain", "train on randomly relabeled data (memorization)")
    command("baseline", "train from scratch on true labels")
    command("finetune", "fine-tune a checkpoint on true labels",
            **{"--checkpoint": dict(help="pretrained checkpoint path")})
    command("reshuffle", "sequential memorization of reshuffled labels",
            **{"--rounds": dict(type=int, help="override config rounds"),
               "--threshold": dict(type=float, default=0.9,
                                   help="accuracy for epochs-to-threshold")})
    command("compare", "paired baseline vs pretrained runs over seeds",
            **{"--seeds": dict(help="comma-separated seed list override")})
    command("plot", "render an SVG from an existing metrics CSV",
            **{"--metrics": dict(required=True, help="metrics.csv to plot")})
    return parser


def _emit(out_dir: str, spec: RunSpec, log=None, ckpt=None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.echo"), "wb") as f:
        f.write(render_config(spec).encode("utf-8"))
    if log is not None:
        write_metrics_csv(log, os.path.join(out_dir, "metrics.csv"))
        emit_svg(log, os.path.join(out_dir, "plot.svg"))
    if ckpt is not None:
        save_checkpoint(ckpt, os.path.join(out_dir, "final.ckpt"))


def _flag_check(flag: str, check, *args, **kwargs):
    """check(*args, **kwargs) on a command line value, its range check's
    ValueError reported as a usage error naming ``flag``."""
    try:
        return check(*args, **kwargs)
    except ValueError as e:
        raise UsageError(f"{flag}: {e}") from None


def _run_spec(args, phase: str | None = None) -> RunSpec:
    """The command's parsed config, refused before any corpus is built or
    file written when the epochs it runs (of ``phase``, when given) are 0.
    A phase key of 0 falls back to epochs, so epochs is the key to blame."""
    spec = parse_config(args.config)
    if (phase_config(spec, phase) if phase else spec.train).epochs == 0:
        raise ConfigError(f"epochs must be >= 1 for {args.command}, got 0")
    return spec


def _split_target(spec: RunSpec):
    target = (spec.target or spec.data).build()
    return split(target, spec.train_fraction, spec.train.seed)


def _finish(args, spec: RunSpec, split_name: str, ckpt, log) -> int:
    """Write a training run's artifacts and print its final accuracy."""
    _emit(args.out, spec, log, ckpt)
    final = log.final(split_name)
    print(f"{args.command}: {final.epoch} epochs, final {split_name} accuracy "
          f"{format_real(final.accuracy)}")
    return 0


def _cmd_pretrain(args) -> int:
    spec = _run_spec(args)
    d = spec.data.build()
    return _finish(args, spec, "train",
                   *protocol.pretrain_random(d, spec.arch, spec.train, spec.label_seed))


def _cmd_baseline(args) -> int:
    spec = _run_spec(args)
    tr, va = _split_target(spec)
    return _finish(args, spec, "val", *protocol.baseline(tr, spec.arch, spec.train, va))


def _cmd_finetune(args) -> int:
    spec = _run_spec(args)
    ckpt_path = args.checkpoint or spec.checkpoint
    if not ckpt_path:
        raise UsageError("finetune needs --checkpoint (or a checkpoint config key)")
    spec = replace(spec, checkpoint=ckpt_path)
    pretrained = load_checkpoint(ckpt_path)
    tr, va = _split_target(spec)
    return _finish(args, spec, "val",
                   *protocol.finetune(pretrained, tr, spec.train, val_d=va))


def _cmd_reshuffle(args) -> int:
    _flag_check("--threshold", protocol.check_threshold, args.threshold)
    spec = _run_spec(args, "round")
    if args.rounds is not None:
        spec = _flag_check("--rounds", replace, spec, rounds=args.rounds)
    d = spec.data.build()
    ckpt, log = protocol.reshuffle_experiment(
        d, spec.arch, spec.train, spec.rounds, phase_config(spec, "round").epochs,
        spec.label_seed)
    _emit(args.out, spec, log, ckpt)
    print(f"round  start_acc  epochs_to_{args.threshold:g}")
    for r in log.rounds():
        hit = protocol.epochs_to_threshold(log, r, args.threshold)
        print(f"{r:>5}  {log.round_start_accuracy[r]:>9.4f}  "
              f"{hit if hit is not None else '-':>6}")
    return 0


def _cmd_compare(args) -> int:
    # the pretrain phase may run 0 epochs: that is the compare anchor
    spec = _run_spec(args, "ft")
    if args.seeds:
        seeds = _flag_check("--seeds", _ROWS["seeds"].parse, args.seeds)
        spec = _flag_check("--seeds", replace, spec, seeds=seeds)
    if spec.target is None:
        raise ConfigError("compare needs target.* dataset keys")
    source = spec.data.build()
    target = spec.target.build()
    report = protocol.compare_transfer(source, target, spec.arch,
                                       phase_config(spec, "pre"),
                                       phase_config(spec, "ft"), spec.seeds,
                                       spec.train_fraction)
    _emit(args.out, spec)
    with open(os.path.join(args.out, "report.csv"), "wb") as f:
        rows = ["seed,baseline,pretrained,difference"]
        for s, b, p in zip(report.seeds, report.baseline, report.pretrained):
            rows.append(f"{s},{format_real(b)},{format_real(p)},"
                        f"{format_real(p - b)}")
        f.write(("\n".join(rows) + "\n").encode("utf-8"))
    print(f"{'seed':>6}  {'baseline':>9}  {'pretrained':>10}  {'difference':>10}")
    for s, b, p in zip(report.seeds, report.baseline, report.pretrained):
        print(f"{s:>6}  {b:>9.6f}  {p:>10.6f}  {p - b:>+10.6f}")
    print(f"{'mean':>6}  {sum(report.baseline) / len(report.seeds):>9.6f}  "
          f"{sum(report.pretrained) / len(report.seeds):>10.6f}  "
          f"{report.mean_difference:>+10.6f}")
    print(f"std of difference {report.std_difference:.6f}; "
          f"{report.wins}/{len(report.seeds)} seeds improved")
    return 0


def _cmd_plot(args) -> int:
    spec = parse_config(args.config)
    log = read_metrics_csv(args.metrics)
    _emit(args.out, spec)
    emit_svg(log, os.path.join(args.out, "plot.svg"))
    print(f"plot: {len(log.records)} records, rounds {log.rounds()}")
    return 0


_HANDLERS = {
    "pretrain": _cmd_pretrain,
    "baseline": _cmd_baseline,
    "finetune": _cmd_finetune,
    "reshuffle": _cmd_reshuffle,
    "compare": _cmd_compare,
    "plot": _cmd_plot,
}


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required")
        return _HANDLERS[args.command](args)
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)
    except UsageError as e:
        parser.print_usage(sys.stderr)
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (MemlabError, OSError, ValueError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
