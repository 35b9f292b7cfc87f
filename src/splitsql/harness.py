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
import os
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from fractions import Fraction
from pathlib import Path

from .dataset import (
    BenchmarkExample,
    InputFileError,
    extract_features,
    load_examples,
    load_schemas,
    read_json,
)
from .executor import (
    DEFAULT_TIMEOUT_MS,
    DatabaseOpenError,
    DatasetIntegrityError,
    execution_accuracy,
    execution_memo,
)
from .llm import (KIND_HTTP, CompletionCache, ModelEndpoint, ModelPair, ProviderConfig,
                  ProviderError, _fields, connection_pool)
from .pipeline import (
    PipelineConfig,
    _map_threads,
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
    ROUTER_KINDS,
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
# The report's EX values as (field, label), in the order every listing of them gives.
EX_ROWS = (("ex_baseline", "Baseline"), ("ex_module", "Divide-and-merge"),
           ("ex_routed", "Routed"), ("ex_oracle", "Oracle routing"))

# The id of the example at index i of the examples file: EXAMPLE_ID.format(i).
EXAMPLE_ID = "ex{:04d}"


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

    def __post_init__(self):
        self.build()  # ProviderConfig and ModelEndpoint check these settings at load

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
    prompts_dir: Path | None = None
    fewshot_file: Path | None = None
    limit: int | None = None

    def __post_init__(self):
        if self.worker_count < 1:
            raise ValueError("worker_count must be >= 1")
        if self.limit is not None and self.limit < 1:
            raise ValueError("limit must be >= 1")
        if self.router_kind not in ROUTER_KINDS:
            raise ValueError(f"unknown router kind {self.router_kind!r}")
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive")


# The settings a config file may give, as (section, JSON key, field name);
# a key the file leaves out keeps its default. Each takes the JSON type of its
# field's annotation (see _setting).
_PIPELINE_KEYS = (
    ("pipeline", "merge_strategy", "merge_strategy"),
    ("pipeline", "column_selection", "column_selection_enabled"),
    ("pipeline", "max_refinements", "max_refinements"),
    ("pipeline", "parallel_subqueries", "parallel_subqueries"),
)
_RUN_KEYS = (
    ("dataset", "tables", "tables_file"),
    ("dataset", "examples", "examples_file"),
    ("llm", "reasoning_model", "reasoning"),
    ("llm", "coding_model", "coding"),
    ("router", "kind", "router_kind"),
    ("router", "table_threshold", "table_threshold"),
    ("router", "model_file", "router_model_file"),
    ("harness", "run_dir", "run_dir"),
    ("harness", "worker_count", "worker_count"),
    ("harness", "cache_dir", "cache_dir"),
    ("harness", "limit", "limit"),
    ("executor", "timeout_ms", "timeout_ms"),
    ("prompts", "dir", "prompts_dir"),
    ("prompts", "fewshot_file", "fewshot_file"),
)
# Every setting a config file may give, by dotted name.
_CONFIG_KEYS = frozenset(
    [f"{section}.{key}" for section, key, _ in _PIPELINE_KEYS + _RUN_KEYS]
    + ["dataset.root"]
    + [f"llm.{role}.{field.name}" for section, role, _ in _RUN_KEYS if section == "llm"
       for field in fields(EndpointSpec)]
)
# The JSON type, and its name, that a config file gives for each annotated Python type.
_JSON_TYPES = {int: (int, "an integer"), float: ((int, float), "a number"),
               bool: (bool, "true or false"), str: (str, "a string"), Path: (str, "a path string")}


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


def _setting(name: str, value, owner: type, field_name: str, base: Path):
    """A config file's value for owner's field, checked against the field's annotation:
    bool is not an integer, an integer serves as a float, a path is a string (resolved
    against base), a dataclass is an object of its settings (an empty one is None) that
    gives each setting without a default, and null serves only where the default is None."""
    default = owner.__dataclass_fields__[field_name].default
    if value is None and default is None:
        return None
    hint = typing.get_type_hints(owner)[field_name]
    kind = next(kind for kind in typing.get_args(hint) or (hint,) if kind is not type(None))
    wanted, described = (dict, "an object") if is_dataclass(kind) else _JSON_TYPES[kind]
    if not isinstance(value, wanted) or isinstance(value, bool) and kind is not bool:
        null = " or null" if default is None else ""
        raise ValueError(f"{name} must be {described}{null}, not {json.dumps(value)}")
    if kind is Path:
        return base / value  # an absolute path stays as it is
    if is_dataclass(kind):
        missing = [f.name for f in fields(kind) if f.default is MISSING and f.name not in value]
        if value and missing:
            raise ValueError(f"{name}.{missing[0]} must be given")
        return kind(**{key: _setting(f"{name}.{key}", item, kind, key, base)
                       for key, item in value.items()}) if value else None
    return value


def load_config(path: str | Path) -> RunConfig:
    """Load the JSON run configuration (paths resolve relative to the file)."""
    path = Path(path)
    raw = read_json(path, "config file", dict)
    unknown = _unknown_keys(raw)
    if unknown:
        raise ValueError(f"{path}: unknown config key(s): {', '.join(unknown)}")
    base = path.parent

    def given(owner: type, keys: tuple[tuple[str, str, str], ...]) -> dict:
        return {name: _setting(f"{section}.{key}", raw[section][key], owner, name, base)
                for section, key, name in keys if key in raw.get(section, {})}

    # The dataset root is a path, as the files in it are.
    root = given(RunConfig, (("dataset", "root", "tables_file"),)).get("tables_file", base)
    defaults = {"tables_file": root / "tables.json", "examples_file": root / "examples.json",
                "run_dir": base / "runs" / "latest"}
    return RunConfig(pipeline=PipelineConfig(**given(PipelineConfig, _PIPELINE_KEYS)),
                     **{**defaults, **given(RunConfig, _RUN_KEYS)})


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
        **{key: _pct(getattr(report, key)) for key, _ in EX_ROWS},
        "module_only": _pct(report.module_only),
        "baseline_only": _pct(report.baseline_only),
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

    arms = ((label, getattr(report, key)) for key, label in EX_ROWS)
    arm_rows = [(label, f"{_pct(value):.2f}") for label, value in arms if value is not None]
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


# What each field of a records file may hold: a test, and what a failing value should be.
_A_STRING = (lambda value: isinstance(value, str), "a string")
_A_BIT = (lambda value: value is None or type(value) is int and value in (0, 1), "0, 1 or null")
_RECORD_FIELD_CHECKS = {
    **dict.fromkeys(("example_id", "db_id", "final_sql_baseline", "final_sql_module", "error"),
                    _A_STRING),
    "table_count": (lambda value: type(value) is int, "an int"),
    "baseline_correct": _A_BIT,
    "module_correct": _A_BIT,
    "trace_paths": (lambda value: isinstance(value, list) and len(value) == 2
                    and all(isinstance(path, str) for path in value), "two strings"),
    "route_taken": (lambda value: value in ("", BRANCH_BASELINE, BRANCH_DIVIDE_AND_MERGE),
                    f'"", "{BRANCH_BASELINE}" or "{BRANCH_DIVIDE_AND_MERGE}"'),
}


def write_records(path: str | Path, records: list[PerExampleRecord]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(records, indent=2, sort_keys=True, default=_fields)
    path.write_text(payload + "\n", encoding="utf-8")


def load_records(path: str | Path) -> list[PerExampleRecord]:
    """The records write_records wrote. InputFileError names the file when it cannot be read,
    is not JSON, or is not a non-empty list of objects that each give the fields without a
    default; it names the record and field too when a field holds what write_records never wrote."""
    data = read_json(path, "records file")
    if not data:
        raise InputFileError(f"{path}: a records file holds no records")
    records = []
    for index, row in enumerate(data):
        if not isinstance(row, dict):
            raise InputFileError(f"{path}: record {index} is not a JSON object")
        missing = [name for name in ("example_id", "db_id", "table_count") if name not in row]
        if missing:
            raise InputFileError(f"{path}: record {index} lacks {', '.join(missing)}")
        for name, (valid, wanted) in _RECORD_FIELD_CHECKS.items():
            if name in row and not valid(row[name]):
                raise InputFileError(f"{path}: record {index} field {name} must be {wanted},"
                                     f" not {json.dumps(row[name])}")
        # The checks name every field; a key that names none is not read.
        record = PerExampleRecord(**{k: v for k, v in row.items() if k in _RECORD_FIELD_CHECKS})
        record.trace_paths = tuple(record.trace_paths)
        records.append(record)
    return records


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
    # Check the settings again: a config may have been changed since it was built.
    config = replace(config, pipeline=replace(config.pipeline))

    schemas = load_schemas(config.tables_file)
    examples = load_examples(config.examples_file)[: config.limit]
    templates = load_templates(config.prompts_dir)
    fewshot = load_fewshot(config.fewshot_file)
    router_model = None
    if arm == ARM_ROUTED and config.router_kind == KIND_LOGISTIC:
        if config.router_model_file is None:
            raise InputFileError("logistic routing requires router.model_file")
        router_model = load_router_model(config.router_model_file)

    def route(example, schema, pair, transcript):  # a routed run's RouteDecision
        if config.router_kind == KIND_JUDGE:
            return route_judge(example.question, schema, pair.reasoning, templates=templates,
                               transcript=transcript)
        features = extract_features(example.question, schema)
        if config.router_kind == KIND_LOGISTIC:
            return route_logistic(router_model, features)
        return route_heuristic(features, config.table_threshold)

    # The two arms, keyed by the name their record fields and trace files carry. Built
    # here, not at import, so that it holds whatever the module names are bound to now.
    arms = {ARM_BASELINE: run_baseline, ARM_MODULE: run_divide_and_merge}
    # The arms every example runs; a routed example runs the one its route names.
    arms_run = {ARM_BOTH: tuple(arms), ARM_ROUTED: ()}.get(arm, (arm,))

    pools = {}  # one keep-alive pool per base_url, shared by every concurrent call
    if endpoints_for is None:
        if config.reasoning is None or config.coding is None:
            raise ValueError("config must define reasoning_model and coding_model")
        specs = (config.reasoning, config.coding)
        pools = {url: connection_pool(url) for url in {spec.base_url for spec in specs}}
        shared = ModelPair(*(spec.build(pools[spec.base_url]) for spec in specs))

        def endpoints_for(example_id, example):
            return shared

    run_dir = Path(config.run_dir)
    traces_dir = str(run_dir / "traces")  # joined as a str: pathlib interns every path part
    cache = None if config.cache_dir is None else CompletionCache(config.cache_dir)
    connections: dict = {}  # execution_memo's pool: idle connections per database

    def process(item: tuple[int, BenchmarkExample]) -> PerExampleRecord:
        index, example = item
        example_id = EXAMPLE_ID.format(index)
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
                if arm == ARM_ROUTED:
                    try:
                        record.route_taken = route(example, schema, pair, router_transcript).branch
                    except ProviderError as exc:
                        notes.append(f"{KIND_JUDGE}: provider error: {exc}")
                    else:
                        which_arms = (_ARM_OF_BRANCH[record.route_taken],)
                for which in which_arms:
                    trace = arms[which](
                        example, schema, config.pipeline, pair, schema.db_file_path,
                        example_id=example_id, templates=templates, fewshot=fewshot,
                        timeout_ms=config.timeout_ms,
                    )
                    if trace.error:
                        bit = 0
                        notes.append(f"{which}: {trace.error}")
                    else:  # the outcome is not kept while the next arm runs
                        bit = int(execution_accuracy(
                            example,
                            trace.final_sql,
                            schema.db_file_path,
                            timeout_ms=config.timeout_ms,
                        ).verdict.equal)
                    setattr(record, f"{which}_correct", bit)
                    setattr(record, f"final_sql_{which}", trace.final_sql)
                    # A routed example runs one arm; its trace lists the judge's call first.
                    trace.transcript[:0] = router_transcript
                    path = os.path.join(traces_dir, f"{example_id}_{which}.json")
                    write_trace(path, trace)
                    trace_paths[which] = path
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
        records = _map_threads(process, list(enumerate(examples)), config.worker_count)
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
