"""Command-line interface: benchmark runs, reports, sweeps, router training,
run comparison, and mini-corpus generation."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import minicorpus
from .dataset import InputFileError, extract_features, load_examples, load_schemas
from .harness import (
    ARM_BOTH,
    ARMS,
    DEFAULT_SWEEP_POINTS,
    EXAMPLE_ID,
    EX_ROWS,
    build_report,
    emit_report,
    load_config,
    load_records,
    realized_router_accuracy,
    report_to_dict,
    router_sweep,
    run_benchmark,
)
from .pipeline import MERGE_LAST_SUBQUERY, MERGE_PLANNER_EXECUTOR
from .router import (
    BRANCH_DIVIDE_AND_MERGE,
    UndefinedAccuracyError,
    oracle_branch,
    route_logistic,
    save_router_model,
    train_logistic,
)


_MERGE_STRATEGIES = {"last": MERGE_LAST_SUBQUERY, "planner": MERGE_PLANNER_EXECUTOR}


def _load_config(path: str, pipeline: dict | None = None, run: dict | None = None):
    """The run configuration, with each pipeline or run setting given here that is
    not None in place of the file's and checked as the file's are. A file or setting
    that cannot serve raises InputFileError; errors of the run stay loud."""
    def given(settings: dict | None) -> dict:
        return {name: value for name, value in (settings or {}).items() if value is not None}

    try:
        config = load_config(path)
        return replace(config, pipeline=replace(config.pipeline, **given(pipeline)), **given(run))
    except ValueError as exc:
        raise InputFileError(str(exc)) from exc


def _cmd_run(args) -> int:
    cs = None if args.cs is None else args.cs == "on"
    config = _load_config(
        args.config,
        {"merge_strategy": _MERGE_STRATEGIES.get(args.merge), "column_selection_enabled": cs},
        {"worker_count": args.workers, "limit": args.limit, "run_dir": args.run_dir},
    )
    records = run_benchmark(config, args.arm)
    report = build_report(records)
    run_dir = Path(config.run_dir)
    emit_report(report, "json", run_dir / "report.json")
    emit_report(report, "markdown", run_dir / "report.md")

    summary = report_to_dict(report)
    print(f"examples: {summary['n']}")
    for key, _ in EX_ROWS:
        if summary[key] is not None:
            print(f"{key}: {summary[key]:.2f}")
    failed = sum(1 for record in records if record.error)
    if failed:
        print(f"records with error notes: {failed}")
    print(f"records: {run_dir / 'records.json'}")
    print(f"report: {run_dir / 'report.md'}")
    return 0


def _cmd_report(args) -> int:
    records = load_records(args.records)
    report = build_report(records)
    if args.reference:
        reference = load_records(args.reference)
        try:
            report.realized_router_accuracy = realized_router_accuracy(
                records, reference
            )
        except UndefinedAccuracyError as exc:
            print(f"realized router accuracy unavailable: {exc}", file=sys.stderr)
    out_dir = Path(args.out)
    emit_report(report, "json", out_dir / "report.json")
    emit_report(report, "markdown", out_dir / "report.md")
    print((out_dir / "report.md").read_text(encoding="utf-8"))
    return 0


def _cmd_sweep(args) -> int:
    records = load_records(args.records)
    tokens = [token for token in args.points.split(",") if token.strip()]
    try:
        curve = router_sweep(records, [float(token) for token in tokens])
    except ValueError as exc:  # a point that is no number in [0, 1], or records lacking a bit
        print(f"splitsql: {exc}", file=sys.stderr)
        return 2
    print("router_accuracy\texpected_ex")
    for accuracy, expected in curve:
        print(f"{accuracy:.2f}\t{float(expected):.2f}")
    if args.out:
        payload = [[accuracy, round(float(expected), 2)] for accuracy, expected in curve]
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2), encoding="utf-8")
        print(f"sweep written to {args.out}")
    return 0


def _cmd_route_train(args) -> int:
    records = load_records(args.records)
    config = _load_config(args.config)
    schemas = load_schemas(config.tables_file)
    examples = load_examples(config.examples_file)

    by_id = {EXAMPLE_ID.format(index): example for index, example in enumerate(examples)}
    rows = []  # (features, 1 when the pipeline alone was correct, 0 when the baseline was)
    for record in records:
        if record.baseline_correct is None or record.module_correct is None:
            continue
        example = by_id.get(record.example_id)
        if example is None:
            print(
                f"record {record.example_id!r} names no example of {config.examples_file}",
                file=sys.stderr,
            )
            return 1
        branch = oracle_branch(record.baseline_correct, record.module_correct)
        if branch is None:
            continue  # only disagreement rows train: elsewhere both arms score alike
        schema = schemas.get(example.db_id)
        if schema is None:
            print(
                f"record {record.example_id!r}: db_id {example.db_id!r} has no schema"
                f" in {config.tables_file}",
                file=sys.stderr,
            )
            return 1
        features = extract_features(example.question, schema)
        rows.append((features, int(branch == BRANCH_DIVIDE_AND_MERGE)))

    if not rows:
        print("no disagreement examples; nothing to train on", file=sys.stderr)
        return 1
    try:
        model = train_logistic(rows, args.lr, args.epochs, args.l2)
    except ValueError as exc:  # a RouterTrainingError, or a hyper-parameter out of range
        print(f"cannot train router: {exc}", file=sys.stderr)
        return 1
    save_router_model(model, args.out)

    hits = sum(
        1
        for features, label in rows
        if (route_logistic(model, features).branch == BRANCH_DIVIDE_AND_MERGE) == bool(label)
    )
    print(f"trained on {len(rows)} disagreement rows")
    print(f"training accuracy: {hits / len(rows):.4f}")
    print(f"model written to {args.out}")
    return 0


def _cmd_compare(args) -> int:
    summary_a = report_to_dict(build_report(load_records(args.a)))
    report_b = build_report(load_records(args.b))
    summary_b = report_to_dict(report_b)

    print(f"{'metric':<16}{args.label_a:>12}{args.label_b:>12}{'delta':>10}")
    for key, _ in EX_ROWS:
        left, right = summary_a[key], summary_b[key]
        if left is None and right is None:
            continue
        left_text = "-" if left is None else f"{left:.2f}"
        right_text = "-" if right is None else f"{right:.2f}"
        delta = "-" if None in (left, right) else f"{right - left:+.2f}"
        print(f"{key:<16}{left_text:>12}{right_text:>12}{delta:>10}")

    if args.ablation:
        # Treat run A as the CS-off arm and run B as the CS-on arm.
        if summary_a["ex_module"] is None or summary_b["ex_module"] is None:
            print("ablation output needs module EX in both runs", file=sys.stderr)
            return 1
        report_b.ablation_rows = [
            (args.ablation, summary_a["ex_module"], summary_b["ex_module"])
        ]
        out = Path(args.out or "ablation.md")
        emit_report(report_b, "markdown", out)
        print(f"ablation report written to {out}")
    return 0


def _cmd_make_corpus(args) -> int:
    root = minicorpus.build_corpus(args.out)
    print(f"mini corpus written to {root}")
    print(f"databases: {', '.join(minicorpus.DB_IDS)}")
    print(f"examples: {len(minicorpus.EXAMPLES)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitsql",
        description="Divide-and-merge text-to-SQL benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a benchmark over the configured dataset")
    run.add_argument("--config", required=True, help="JSON run configuration")
    run.add_argument("--arm", choices=ARMS, default=ARM_BOTH)
    run.add_argument("--merge", choices=_MERGE_STRATEGIES)
    run.add_argument("--cs", choices=("on", "off"))
    run.add_argument("--workers", type=int)
    run.add_argument("--limit", type=int)
    run.add_argument("--run-dir", type=Path)
    run.set_defaults(func=_cmd_run)

    report = sub.add_parser("report", help="build a report from cached records")
    report.add_argument("--records", required=True)
    report.add_argument("--out", default=".")
    report.add_argument(
        "--reference",
        help="both-arm records.json used to score routed decisions",
    )
    report.set_defaults(func=_cmd_report)

    sweep = sub.add_parser("sweep", help="expected EX versus router accuracy")
    sweep.add_argument("--records", required=True)
    sweep.add_argument("--points", default=",".join(map(str, DEFAULT_SWEEP_POINTS)))
    sweep.add_argument("--out")
    sweep.set_defaults(func=_cmd_sweep)

    train = sub.add_parser("route-train", help="train the logistic router")
    train.add_argument("--records", required=True, help="both-arm records.json")
    train.add_argument("--config", required=True)
    train.add_argument("--out", required=True, help="router model JSON path")
    train.add_argument("--lr", type=float, default=0.1)
    train.add_argument("--epochs", type=int, default=500)
    train.add_argument("--l2", type=float, default=0.0)
    train.set_defaults(func=_cmd_route_train)

    compare = sub.add_parser("compare", help="compare two runs' records")
    compare.add_argument("--a", required=True)
    compare.add_argument("--b", required=True)
    compare.add_argument("--label-a", default="A")
    compare.add_argument("--label-b", default="B")
    compare.add_argument(
        "--ablation",
        help="merge-strategy label; emits a CS-off (A) vs CS-on (B) table",
    )
    compare.add_argument("--out")
    compare.set_defaults(func=_cmd_compare)

    corpus = sub.add_parser("make-corpus", help="write the bundled mini corpus")
    corpus.add_argument("--out", required=True)
    corpus.set_defaults(func=_cmd_make_corpus)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputFileError as exc:  # a config, records or corpus file, or another run input
        print(f"splitsql: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
