"""Command-line interface: benchmark runs, reports, sweeps, router training,
run comparison, and mini-corpus generation."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import minicorpus
from .dataset import extract_features, load_examples, load_schemas
from .harness import (
    ARM_BOTH,
    ARMS,
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
    UndefinedAccuracyError,
    dataset_from_outcomes,
    oracle_branch,
    route_logistic,
    save_router_model,
    train_logistic,
)


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.merge:
        config.pipeline.merge_strategy = (
            MERGE_LAST_SUBQUERY if args.merge == "last" else MERGE_PLANNER_EXECUTOR
        )
    if args.cs:
        config.pipeline.column_selection_enabled = args.cs == "on"
    if args.workers:
        config.worker_count = args.workers
    if args.limit is not None:
        config.limit = args.limit
    if args.run_dir:
        config.run_dir = Path(args.run_dir)

    records = run_benchmark(config, args.arm)
    report = build_report(records)
    run_dir = Path(config.run_dir)
    emit_report(report, "json", run_dir / "report.json")
    emit_report(report, "markdown", run_dir / "report.md")

    summary = report_to_dict(report)
    print(f"examples: {summary['n']}")
    for key in ("ex_baseline", "ex_module", "ex_routed", "ex_oracle"):
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
    points = [float(token) for token in args.points.split(",") if token.strip()]
    curve = router_sweep(records, points)
    print("router_accuracy\texpected_ex")
    for accuracy, expected in curve:
        print(f"{accuracy:.2f}\t{float(expected):.2f}")
    if args.out:
        payload = [[accuracy, round(float(expected), 2)] for accuracy, expected in curve]
        Path(args.out).write_text(json.dumps(payload, indent=2), encoding="utf-8")
        print(f"sweep written to {args.out}")
    return 0


def _cmd_route_train(args) -> int:
    records = load_records(args.records)
    config = load_config(args.config)
    schemas = load_schemas(config.tables_file)
    examples = load_examples(config.examples_file)

    # Example ids as run_benchmark assigns them.
    by_id = {f"ex{index:04d}": example for index, example in enumerate(examples)}
    outcomes = []
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
        if oracle_branch(record.baseline_correct, record.module_correct) is None:
            continue  # only disagreement rows train
        schema = schemas.get(example.db_id)
        if schema is None:
            print(
                f"record {record.example_id!r}: db_id {example.db_id!r} has no schema"
                f" in {config.tables_file}",
                file=sys.stderr,
            )
            return 1
        features = extract_features(example.question, schema)
        outcomes.append((features, record.baseline_correct, record.module_correct))

    dataset = dataset_from_outcomes(outcomes)
    if not dataset.rows:
        print("no disagreement examples; nothing to train on", file=sys.stderr)
        return 1
    try:
        model = train_logistic(dataset, args.lr, args.epochs, args.l2)
    except ValueError as exc:  # a RouterTrainingError, or a hyper-parameter out of range
        print(f"cannot train router: {exc}", file=sys.stderr)
        return 1
    save_router_model(model, args.out)

    hits = sum(
        1
        for features, label in dataset.rows
        if (route_logistic(model, features).branch == "divide_and_merge") == bool(label)
    )
    print(f"trained on {len(dataset.rows)} disagreement rows")
    print(f"training accuracy: {hits / len(dataset.rows):.4f}")
    print(f"model written to {args.out}")
    return 0


def _cmd_compare(args) -> int:
    records_a = load_records(args.a)
    records_b = load_records(args.b)
    report_a = report_to_dict(build_report(records_a))
    report_b = report_to_dict(build_report(records_b))

    print(f"{'metric':<16}{args.label_a:>12}{args.label_b:>12}{'delta':>10}")
    for key in ("ex_baseline", "ex_module", "ex_routed", "ex_oracle"):
        left, right = report_a[key], report_b[key]
        if left is None and right is None:
            continue
        left_text = "-" if left is None else f"{left:.2f}"
        right_text = "-" if right is None else f"{right:.2f}"
        delta = "-" if None in (left, right) else f"{right - left:+.2f}"
        print(f"{key:<16}{left_text:>12}{right_text:>12}{delta:>10}")

    if args.ablation:
        # Treat run A as the CS-off arm and run B as the CS-on arm.
        if report_a["ex_module"] is None or report_b["ex_module"] is None:
            print("ablation output needs module EX in both runs", file=sys.stderr)
            return 1
        report = build_report(records_b)
        report.ablation_rows = [
            (args.ablation, report_a["ex_module"], report_b["ex_module"])
        ]
        out = Path(args.out or "ablation.md")
        emit_report(report, "markdown", out)
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
    run.add_argument("--merge", choices=("last", "planner"))
    run.add_argument("--cs", choices=("on", "off"))
    run.add_argument("--workers", type=int)
    run.add_argument("--limit", type=int)
    run.add_argument("--run-dir")
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
    sweep.add_argument("--points", default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
