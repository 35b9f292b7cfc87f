"""Benchmark orchestration over both pipeline arms, report formulas
(execution accuracy, disagreement, oracle routing, router sweep,
schema-complexity correlations), and report emission.

Report percentages are computed as exact rationals (``fractions.Fraction``)
so identities such as oracle = module EX + baseline-only hold exactly;
rounding to two decimals happens only at emission.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from pathlib import Path

from .dataset import (
    BenchmarkExample,
    extract_features,
    load_examples,
    load_schemas,
)
from .executor import (
    DEFAULT_FLOAT_TOLERANCE,
    DEFAULT_TIMEOUT_MS,
    DatabaseOpenError,
    DatasetIntegrityError,
    execution_accuracy,
    execution_memo,
)
from .llm import (KIND_HTTP, CompletionCache, ModelEndpoint, ModelPair, ProviderConfig,
                  _fields, connection_pool)
from .pipeline import (
    MERGE_LAST_SUBQUERY,
    MERGE_PLANNER_EXECUTOR,
    PipelineConfig,
    run_baseline,
    run_divide_and_merge,
    write_trace,
)
from .prompts import load_fewshot, load_templates
from .router import (
    BRANCH_BASELINE,
    BRANCH_DIVIDE_AND_MERGE,
    KIND_HEURISTIC,
    KIND_JUDGE,
    KIND_LOGISTIC,
    UndefinedAccuracyError,
    load_router_model,
    oracle_branch,
    route_heuristic,
    route_judge,
    route_logistic,
)

ARM_BASELINE = "baseline"
ARM_MODULE = "module"
ARM_BOTH = "both"
ARM_ROUTED = "routed"
ARMS = (ARM_BASELINE, ARM_MODULE, ARM_BOTH, ARM_ROUTED)
_ARM_OF_BRANCH = {BRANCH_BASELINE: ARM_BASELINE, BRANCH_DIVIDE_AND_MERGE: ARM_MODULE}

DEFAULT_SWEEP_POINTS = tuple(i / 10 for i in range(11))

STRATEGY_LABELS = {
    MERGE_LAST_SUBQUERY: "Last Sub-query",
    MERGE_PLANNER_EXECUTOR: "Planner&Executor",
}


class EmptyRecordsError(ValueError):
    """A report quantity was requested over zero records."""


class UndefinedCorrelationError(ValueError):
    """Correlation is undefined: zero variance or too few groups."""


@dataclass
class PerExampleRecord:
    """Per-question outcome of a benchmark run.

    Correctness bits are 0/1 when the arm ran and None when it did not
    (single-arm and routed runs leave the other arm unscored).
    """

    example_id: str
    db_id: str
    table_count: int
    baseline_correct: int | None = None
    module_correct: int | None = None
    route_taken: str = ""
    final_sql_baseline: str = ""
    final_sql_module: str = ""
    trace_paths: tuple[str, str] = ("", "")
    error: str = ""


@dataclass
class EvalReport:
    n: int
    ex_baseline: Fraction | None = None
    ex_module: Fraction | None = None
    module_only: Fraction | None = None
    baseline_only: Fraction | None = None
    ex_oracle: Fraction | None = None
    ex_routed: Fraction | None = None
    sweep: list[tuple[float, Fraction]] = field(default_factory=list)
    pearson_r: float | None = None
    spearman_rho: float | None = None
    ablation_rows: list[tuple[str, float, float]] = field(default_factory=list)
    realized_router_accuracy: float | None = None


@dataclass
class EndpointSpec:
    """HTTP endpoint settings for one logical model role."""

    base_url: str
    model_id: str
    api_key_env_var: str = ""
    temperature: float = 0.0
    max_tokens: int = 1024
    request_timeout_ms: int = 60000
    max_retries: int = 2
    retry_backoff_ms: int = 250

    def build(self, pool=None) -> ModelEndpoint:
        provider = ProviderConfig(
            kind=KIND_HTTP,
            base_url=self.base_url,
            api_key_env_var=self.api_key_env_var,
            request_timeout_ms=self.request_timeout_ms,
            max_retries=self.max_retries,
            retry_backoff_ms=self.retry_backoff_ms,
            pool=pool,
        )
        return ModelEndpoint(
            provider=provider,
            model_id=self.model_id,
            temperature=self.temperature,
            max_tokens=self.max_tokens,
        )


@dataclass
class RunConfig:
    tables_file: Path
    examples_file: Path
    run_dir: Path
    reasoning: EndpointSpec | None = None
    coding: EndpointSpec | None = None
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    router_kind: str = KIND_HEURISTIC
    table_threshold: int = 5
    router_model_file: Path | None = None
    worker_count: int = 1
    cache_dir: Path | None = None
    timeout_ms: int = DEFAULT_TIMEOUT_MS
    float_tolerance: float = DEFAULT_FLOAT_TOLERANCE
    prompts_dir: Path | None = None
    fewshot_file: Path | None = None
    limit: int | None = None

    def __post_init__(self):
        if self.worker_count < 1:
            raise ValueError("worker_count must be >= 1")


# The settings a config file may give, as (section, JSON key, field name);
# a key the file leaves out keeps its dataclass default.
_PIPELINE_KEYS = (
    ("pipeline", "merge_strategy", "merge_strategy"),
    ("pipeline", "column_selection", "column_selection_enabled"),
    ("pipeline", "max_refinements", "max_refinements"),
    ("pipeline", "parallel_subqueries", "parallel_subqueries"),
    ("pipeline", "subquery_fanout_width", "subquery_fanout_width"),
)
_RUN_KEYS = (
    ("router", "kind", "router_kind"),
    ("router", "table_threshold", "table_threshold"),
    ("router", "model_file", "router_model_file"),
    ("harness", "worker_count", "worker_count"),
    ("harness", "cache_dir", "cache_dir"),
    ("harness", "limit", "limit"),
    ("executor", "timeout_ms", "timeout_ms"),
    ("executor", "float_tolerance", "float_tolerance"),
    ("prompts", "dir", "prompts_dir"),
    ("prompts", "fewshot_file", "fewshot_file"),
)
_PATH_FIELDS = frozenset({"router_model_file", "cache_dir", "prompts_dir", "fewshot_file"})
_ROLES = ("reasoning_model", "coding_model")
# Every setting a config file may give, by dotted name; harness.run_seed is retired and ignored.
_CONFIG_KEYS = frozenset(
    [f"{section}.{key}" for section, key, _ in _PIPELINE_KEYS + _RUN_KEYS]
    + "dataset.root dataset.tables dataset.examples harness.run_dir harness.run_seed".split()
    + [f"llm.{role}" for role in _ROLES]
    + [f"llm.{role}.{field.name}" for role in _ROLES for field in fields(EndpointSpec)]
)


def _unknown_keys(raw: dict, prefix: str = "") -> list[str]:
    """The dotted name of each section or key of a config file that no setting reads."""
    unknown = []
    for key, value in raw.items():
        name = prefix + key
        if isinstance(value, dict) and any(known.startswith(name + ".") for known in _CONFIG_KEYS):
            unknown += _unknown_keys(value, name + ".")
        elif name not in _CONFIG_KEYS:
            unknown.append(name)
    return unknown


def load_config(path: str | Path) -> RunConfig:
    """Load the JSON run configuration (paths resolve relative to the file)."""
    path = Path(path)
    raw = json.loads(path.read_text(encoding="utf-8"))
    unknown = _unknown_keys(raw)
    if unknown:
        raise ValueError(f"{path}: unknown config key(s): {', '.join(unknown)}")
    base = path.parent

    def resolve(value: str | None) -> Path | None:
        if value is None:
            return None
        candidate = Path(value)
        return candidate if candidate.is_absolute() else base / candidate

    def present(keys: tuple[tuple[str, str, str], ...]) -> dict:
        settings = {}
        for section, key, name in keys:
            if key in raw.get(section, {}):
                value = raw[section][key]
                settings[name] = resolve(value) if name in _PATH_FIELDS else value
        return settings

    dataset = raw.get("dataset", {})
    root = resolve(dataset.get("root")) or base
    tables_file = resolve(dataset.get("tables")) or root / "tables.json"
    examples_file = resolve(dataset.get("examples")) or root / "examples.json"

    llm_section = raw.get("llm", {})

    def endpoint(section_name: str) -> EndpointSpec | None:
        section = llm_section.get(section_name)
        if not section:
            return None
        return EndpointSpec(**section)

    return RunConfig(
        tables_file=tables_file,
        examples_file=examples_file,
        run_dir=resolve(raw.get("harness", {}).get("run_dir")) or base / "runs" / "latest",
        reasoning=endpoint("reasoning_model"),
        coding=endpoint("coding_model"),
        pipeline=PipelineConfig(**present(_PIPELINE_KEYS)),
        **present(_RUN_KEYS),
    )


# ---------------------------------------------------------------------------
# Report formulas
# ---------------------------------------------------------------------------


def _require_bits(records: list[PerExampleRecord], which: str) -> list[int]:
    if not records:
        raise EmptyRecordsError("no records")
    bits = []
    for record in records:
        value = record.baseline_correct if which == "baseline" else record.module_correct
        if value is None:
            raise ValueError(
                f"record {record.example_id} is missing the {which} correctness bit"
            )
        bits.append(value)
    return bits


def _paired_bits(records: list[PerExampleRecord]) -> list[tuple[int, int]]:
    """(baseline bit, module bit) per record; both must be present."""
    return list(zip(_require_bits(records, "baseline"), _require_bits(records, "module")))


def compute_ex(records: list[PerExampleRecord], which: str = "module") -> Fraction:
    """Execution accuracy of one arm, as an exact percent."""
    bits = _require_bits(records, which)
    return Fraction(100 * sum(bits), len(bits))


def disagreement(records: list[PerExampleRecord]) -> tuple[Fraction, Fraction]:
    """(pipeline-only percent, baseline-only percent): the proportions of
    examples where exactly one arm is correct."""
    branches = [oracle_branch(b, m) for b, m in _paired_bits(records)]
    n = len(branches)
    return (
        Fraction(100 * branches.count(BRANCH_DIVIDE_AND_MERGE), n),
        Fraction(100 * branches.count(BRANCH_BASELINE), n),
    )


def oracle_ex(records: list[PerExampleRecord]) -> Fraction:
    """EX of a perfect router: it picks a correct arm whenever one exists."""
    pairs = _paired_bits(records)
    return Fraction(100 * sum(max(b, m) for b, m in pairs), len(pairs))


def router_sweep(
    records: list[PerExampleRecord], accuracies: list[float]
) -> list[tuple[float, Fraction]]:
    """Expected EX as a function of router accuracy a.

    With probability a the router picks the better arm, otherwise the worse
    one; on agreement examples the choice is irrelevant. Affine and
    non-decreasing in a, with EX(1) equal to the oracle EX.
    """
    pairs = _paired_bits(records)
    n = len(pairs)
    best = sum(max(b, m) for b, m in pairs)
    worst = sum(min(b, m) for b, m in pairs)
    points = []
    for accuracy in accuracies:
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"router accuracy {accuracy} outside [0, 1]")
        a = Fraction(accuracy)
        expected = 100 * (a * best + (1 - a) * worst) / n
        points.append((accuracy, expected))
    return points


def pearson(x: list[float], y: list[float]) -> float:
    """Sample Pearson correlation coefficient."""
    if len(x) != len(y):
        raise ValueError("vectors must have equal length")
    n = len(x)
    if n < 2:
        raise ValueError("need at least 2 points")
    mean_x = math.fsum(x) / n
    mean_y = math.fsum(y) / n
    dx = [value - mean_x for value in x]
    dy = [value - mean_y for value in y]
    var_x = math.fsum(d * d for d in dx)
    var_y = math.fsum(d * d for d in dy)
    if var_x == 0.0 or var_y == 0.0:
        raise UndefinedCorrelationError("zero variance input")
    r = math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(var_x * var_y)
    return max(-1.0, min(1.0, r))


def average_ranks(values: list[float]) -> list[float]:
    """1-based ranks; ties receive the mean of their rank range."""
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def spearman(x: list[float], y: list[float]) -> float:
    """Spearman rank correlation: Pearson over average-ranked values."""
    return pearson(average_ranks(list(x)), average_ranks(list(y)))


def complexity_correlation(records: list[PerExampleRecord]) -> tuple[float, float]:
    """Correlate schema size with the pipeline's per-group EX advantage.

    Records are grouped by table_count; each group's delta is the pipeline
    EX minus the baseline EX, in percent.
    """
    pairs = _paired_bits(records)
    groups: dict[int, list[tuple[int, int]]] = {}
    for record, bits in zip(records, pairs):
        groups.setdefault(record.table_count, []).append(bits)
    if len(groups) < 2:
        raise UndefinedCorrelationError("need records spanning >= 2 table counts")
    table_counts = []
    deltas = []
    for count in sorted(groups):
        group = groups[count]
        size = len(group)
        module_pct = 100.0 * sum(m for _, m in group) / size
        baseline_pct = 100.0 * sum(b for b, _ in group) / size
        table_counts.append(float(count))
        deltas.append(module_pct - baseline_pct)
    return pearson(table_counts, deltas), spearman(table_counts, deltas)


def routed_ex(records: list[PerExampleRecord]) -> Fraction:
    """EX achieved by the routed arm: each record scored on its chosen branch.

    A failed example (an error note and no route) counts as wrong.
    """
    if not records:
        raise EmptyRecordsError("no records")
    total = 0
    for record in records:
        if record.error and not record.route_taken:
            continue
        if record.route_taken not in _ARM_OF_BRANCH:
            raise ValueError(f"record {record.example_id} has no route_taken")
        bit = getattr(record, f"{_ARM_OF_BRANCH[record.route_taken]}_correct")
        if bit is None:
            raise ValueError(f"record {record.example_id} routed arm was not scored")
        total += bit
    return Fraction(100 * total, len(records))


def realized_router_accuracy(
    routed_records: list[PerExampleRecord],
    reference_records: list[PerExampleRecord],
) -> float:
    """Accuracy of routed decisions against disagreement-oracle labels.

    reference_records must carry both correctness bits (a ``both`` run over
    the same examples); only disagreement examples are scored.
    """
    reference = {r.example_id: r for r in reference_records}
    scored = []
    for record in routed_records:
        ref = reference.get(record.example_id)
        oracle = None if ref is None else oracle_branch(ref.baseline_correct, ref.module_correct)
        if record.route_taken and oracle is not None:
            scored.append(record.route_taken == oracle)
    if not scored:
        raise UndefinedAccuracyError("no disagreement examples to score against")
    return sum(scored) / len(scored)


def build_report(
    records: list[PerExampleRecord],
    sweep_points: tuple[float, ...] = DEFAULT_SWEEP_POINTS,
) -> EvalReport:
    """Compute every report quantity the record set supports."""
    if not records:
        raise EmptyRecordsError("no records")
    report = EvalReport(n=len(records))

    has_baseline = all(r.baseline_correct is not None for r in records)
    has_module = all(r.module_correct is not None for r in records)
    if has_baseline:
        report.ex_baseline = compute_ex(records, "baseline")
    if has_module:
        report.ex_module = compute_ex(records, "module")
    if has_baseline and has_module:
        report.module_only, report.baseline_only = disagreement(records)
        report.ex_oracle = oracle_ex(records)
        report.sweep = router_sweep(records, list(sweep_points))
        try:
            report.pearson_r, report.spearman_rho = complexity_correlation(records)
        except UndefinedCorrelationError:
            pass
    # A routed run: every example was routed or failed before its route.
    if any(r.route_taken for r in records) and all(r.route_taken or r.error for r in records):
        report.ex_routed = routed_ex(records)
    return report


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _pct(value: Fraction | float | None, digits: int = 2) -> float | None:
    """A report value rounded for emission; None stays None."""
    if value is None:
        return None
    return round(float(value), digits)


def report_to_dict(report: EvalReport) -> dict:
    return {
        "n": report.n,
        "ex_baseline": _pct(report.ex_baseline),
        "ex_module": _pct(report.ex_module),
        "module_only": _pct(report.module_only),
        "baseline_only": _pct(report.baseline_only),
        "ex_oracle": _pct(report.ex_oracle),
        "ex_routed": _pct(report.ex_routed),
        "sweep": [[a, _pct(value)] for a, value in report.sweep],
        "pearson_r": _pct(report.pearson_r, digits=4),
        "spearman_rho": _pct(report.spearman_rho, digits=4),
        "ablation": [
            {
                "merge_strategy": label,
                "ex_without_cs": _pct(without),
                "ex_with_cs": _pct(with_cs),
            }
            for label, without, with_cs in report.ablation_rows
        ],
        "realized_router_accuracy": _pct(report.realized_router_accuracy, digits=4),
    }


def _table(title: str, header: tuple[str, ...], rows: list[tuple[str, ...]]) -> list[str]:
    """The markdown lines of a titled table, ending with a blank line."""
    lines = [f"## {title}", "", f"| {' | '.join(header)} |", "|" + "---|" * len(header)]
    return lines + [f"| {' | '.join(row)} |" for row in rows] + [""]


def report_to_markdown(report: EvalReport) -> str:
    lines = ["# Benchmark report", "", f"Examples: {report.n}", ""]

    arms = (("Baseline", report.ex_baseline), ("Divide-and-merge", report.ex_module),
            ("Routed", report.ex_routed), ("Oracle routing", report.ex_oracle))
    arm_rows = [(name, f"{_pct(value):.2f}") for name, value in arms if value is not None]
    if arm_rows:
        lines += _table("Execution accuracy", ("Arm", "EX (%)"), arm_rows)

    if report.ablation_rows:
        header = ("Merge strategy", "EX w/o CS (%)", "EX with CS (%)")
        rows = [(label, f"{_pct(without):.2f}", f"{_pct(with_cs):.2f}")
                for label, without, with_cs in report.ablation_rows]
        lines += _table("Column selection and merge strategy", header, rows)

    if report.module_only is not None and report.baseline_only is not None:
        row = (f"{_pct(report.module_only):.2f}", f"{_pct(report.baseline_only):.2f}")
        lines += _table("Disagreement", ("Pipeline only (%)", "Baseline only (%)"), [row])

    if report.sweep:
        rows = [(f"{a:.2f}", f"{_pct(value):.2f}") for a, value in report.sweep]
        lines += _table("Router-accuracy sweep", ("Router accuracy", "Expected EX (%)"), rows)

    if report.realized_router_accuracy is not None:
        lines.append(
            f"Realized router accuracy: {report.realized_router_accuracy:.4f}"
        )
        lines.append("")

    if report.pearson_r is not None and report.spearman_rho is not None:
        lines += [
            "## Schema-complexity correlation",
            "",
            f"Pearson r = {report.pearson_r:.2f}, Spearman rho = {report.spearman_rho:.2f}",
            "",
        ]
    return "\n".join(lines)


def emit_report(report: EvalReport, fmt: str, path: str | Path) -> Path:
    """Write the report as machine-stable JSON or paper-style markdown."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        payload = json.dumps(report_to_dict(report), indent=2, sort_keys=True)
        path.write_text(payload + "\n", encoding="utf-8")
    elif fmt == "markdown":
        path.write_text(report_to_markdown(report), encoding="utf-8")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return path


# ---------------------------------------------------------------------------
# Benchmark runner
# ---------------------------------------------------------------------------


_RECORD_FIELDS = tuple(f.name for f in fields(PerExampleRecord))


def record_from_dict(data: dict) -> PerExampleRecord:
    record = PerExampleRecord(**{name: data[name] for name in _RECORD_FIELDS if name in data})
    record.trace_paths = tuple(record.trace_paths)
    return record


def write_records(path: str | Path, records: list[PerExampleRecord]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(records, indent=2, sort_keys=True, default=_fields)
    path.write_text(payload + "\n", encoding="utf-8")


def load_records(path: str | Path) -> list[PerExampleRecord]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return [record_from_dict(row) for row in data]


def run_benchmark(
    config: RunConfig,
    arm: str,
    *,
    endpoints_for=None,
) -> list[PerExampleRecord]:
    """Run a benchmark over the configured dataset.

    ``endpoints_for(example_id, example) -> ModelPair`` supplies the model
    endpoints per example; by default the configured HTTP endpoints are
    shared across examples. With a ``cache_dir``, every model call goes
    through one CompletionCache opened on it, so a rerun makes only the calls
    whose full request it has not seen; every example is still routed, run,
    scored and written.

    Each example runs inside its own execution_memo(), so every distinct
    query runs at most once per example and scoring reuses the outcomes
    its refine loops already observed. Records come back, and records.json
    lists them, in the examples file's order.
    """
    if arm not in ARMS:
        raise ValueError(f"unknown arm {arm!r}")

    schemas = load_schemas(config.tables_file)
    examples = load_examples(config.examples_file)
    if config.limit is not None:
        examples = examples[: config.limit]

    templates = load_templates(config.prompts_dir)
    fewshot = load_fewshot(config.fewshot_file)

    # route(example, schema, pair, transcript) -> RouteDecision, for a routed run.
    route = None
    if arm == ARM_ROUTED:
        router_model = None
        if config.router_kind == KIND_LOGISTIC:
            if config.router_model_file is None:
                raise ValueError("logistic routing requires router.model_file")
            router_model = load_router_model(config.router_model_file)
        routers = {
            KIND_HEURISTIC: lambda example, schema, pair, transcript: route_heuristic(
                extract_features(example.question, schema), config.table_threshold
            ),
            KIND_LOGISTIC: lambda example, schema, pair, transcript: route_logistic(
                router_model, extract_features(example.question, schema)
            ),
            KIND_JUDGE: lambda example, schema, pair, transcript: route_judge(
                example.question, schema, pair.reasoning, templates=templates,
                transcript=transcript,
            ),
        }
        if config.router_kind not in routers:
            raise ValueError(f"unknown router kind {config.router_kind!r}")
        route = routers[config.router_kind]

    # The two arms, keyed by the name their record fields and trace files carry.
    arms = {
        ARM_BASELINE: lambda example, schema, pair, example_id: run_baseline(
            example, schema, pair.coding, fewshot, schema.db_file_path,
            config.pipeline.max_refinements, example_id=example_id, templates=templates,
            timeout_ms=config.timeout_ms,
        ),
        ARM_MODULE: lambda example, schema, pair, example_id: run_divide_and_merge(
            example, schema, config.pipeline, pair, schema.db_file_path,
            example_id=example_id, templates=templates, fewshot=fewshot,
            timeout_ms=config.timeout_ms,
        ),
    }
    # The arms every example runs; a routed example runs the one its route names.
    arms_run = {ARM_BOTH: tuple(arms), ARM_ROUTED: ()}.get(arm, (arm,))

    pools = {}  # one keep-alive pool per base_url, enough for every concurrent call
    if endpoints_for is None:
        if config.reasoning is None or config.coding is None:
            raise ValueError("config must define reasoning_model and coding_model")
        specs = (config.reasoning, config.coding)
        fanout = config.pipeline.subquery_fanout_width if config.pipeline.parallel_subqueries else 1
        pools = {url: connection_pool(url, config.worker_count * fanout)
                 for url in {spec.base_url for spec in specs}}
        shared = ModelPair(*(spec.build(pools[spec.base_url]) for spec in specs))

        def endpoints_for(example_id, example):
            return shared

    run_dir = Path(config.run_dir)
    traces_dir = run_dir / "traces"
    cache = None if config.cache_dir is None else CompletionCache(config.cache_dir)
    connections: dict = {}  # execution_memo's pool: idle connections per database

    def process(item: tuple[int, BenchmarkExample]) -> PerExampleRecord:
        index, example = item
        example_id = f"ex{index:04d}"
        schema = schemas.get(example.db_id)
        try:
            if schema is None:
                raise DatasetIntegrityError(f"unknown db_id {example.db_id!r}")
            pair = endpoints_for(example_id, example)
            if cache is not None:
                pair = ModelPair(
                    reasoning=replace(pair.reasoning, cache=cache),
                    coding=replace(pair.coding, cache=cache),
                )
            record = PerExampleRecord(example_id, example.db_id, schema.table_count)
            which_arms = arms_run
            router_transcript = []
            notes = []
            trace_paths = {ARM_BASELINE: "", ARM_MODULE: ""}
            with execution_memo(connections):
                if route is not None:
                    record.route_taken = route(example, schema, pair, router_transcript).branch
                    which_arms = (_ARM_OF_BRANCH[record.route_taken],)
                for which in which_arms:
                    trace = arms[which](example, schema, pair, example_id)
                    if trace.error:
                        bit = 0
                        notes.append(f"{which}: {trace.error}")
                    else:
                        outcome = execution_accuracy(
                            example,
                            trace.final_sql,
                            schema.db_file_path,
                            timeout_ms=config.timeout_ms,
                            float_tolerance=config.float_tolerance,
                        )
                        bit = int(outcome.verdict.equal)
                    setattr(record, f"{which}_correct", bit)
                    setattr(record, f"final_sql_{which}", trace.final_sql)
                    # A routed example runs one arm; its trace lists the judge's call first.
                    trace.transcript[:0] = router_transcript
                    path = traces_dir / f"{example_id}_{which}.json"
                    write_trace(path, trace)
                    trace_paths[which] = str(path)
        except (DatasetIntegrityError, DatabaseOpenError) as exc:
            table_count = 0 if schema is None else schema.table_count
            failed = PerExampleRecord(example_id, example.db_id, table_count, error=str(exc))
            for which in arms_run:
                setattr(failed, f"{which}_correct", 0)
            return failed
        record.trace_paths = (trace_paths[ARM_BASELINE], trace_paths[ARM_MODULE])
        record.error = "; ".join(notes)
        return record

    try:
        if config.worker_count == 1:
            records = [process(item) for item in enumerate(examples)]
        else:
            with ThreadPoolExecutor(max_workers=config.worker_count) as pool:
                records = list(pool.map(process, enumerate(examples)))
    finally:
        for idle in connections.values():
            for connection in idle:
                connection.close()
        for http_pool in pools.values():
            http_pool.clear()
        if cache is not None:
            cache.close()

    write_records(run_dir / "records.json", records)
    return records
