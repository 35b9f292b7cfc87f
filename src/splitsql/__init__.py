"""Divide-and-merge text-to-SQL with adaptive routing and an
execution-accuracy benchmark harness."""

__version__ = "0.1.0"

from .dataset import (
    BenchmarkExample,
    DatabaseSchema,
    FeatureVector,
    extract_features,
    load_examples,
    load_schemas,
    reduce_schema,
    serialize_schema,
)
from .executor import (
    ComparisonVerdict,
    ExecOutcome,
    ResultTable,
    compare_results,
    execute_sql,
    execution_accuracy,
    has_top_level_order_by,
)
from .llm import (
    ChatMessage,
    CompletionCache,
    CompletionRequest,
    CompletionResponse,
    ModelEndpoint,
    ModelPair,
    ProviderConfig,
    TranscriptEntry,
    complete,
    scripted_provider,
)
from .pipeline import (
    PipelineConfig,
    PipelineTrace,
    StageContext,
    SubQuery,
    SubQuestion,
    column_select,
    decompose,
    generate_subquery,
    merge_last,
    merge_plan_execute,
    run_baseline,
    run_divide_and_merge,
    select_tables,
)
from .prompts import (
    FewShotExample,
    PromptTemplate,
    extract_sql,
    parse_subquestions,
    render,
)
from .router import (
    RouteDecision,
    RouterModel,
    RoutingDataset,
    route_heuristic,
    route_judge,
    route_logistic,
    router_accuracy,
    train_logistic,
)
from .harness import (
    EvalReport,
    PerExampleRecord,
    RunConfig,
    build_report,
    compute_ex,
    complexity_correlation,
    disagreement,
    emit_report,
    oracle_ex,
    pearson,
    router_sweep,
    run_benchmark,
    spearman,
)
