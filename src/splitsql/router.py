"""Per-question routing between the one-step baseline and the divide-and-merge
pipeline: a table-count heuristic, a trainable logistic model, and an LLM judge."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import mul
from pathlib import Path

from .dataset import DatabaseSchema, FeatureVector, FEATURE_NAMES
from .llm import ModelEndpoint, TranscriptEntry, _fields
from .prompts import STAGE_JUDGE, load_templates, render

BRANCH_BASELINE = "baseline"
BRANCH_DIVIDE_AND_MERGE = "divide_and_merge"

KIND_HEURISTIC = "heuristic"
KIND_LOGISTIC = "logistic"
KIND_JUDGE = "judge"
ROUTER_KINDS = (KIND_HEURISTIC, KIND_LOGISTIC, KIND_JUDGE)

_STD_FLOOR = 1e-9
_FEATURE_COUNT = len(FEATURE_NAMES)


class RouterTrainingError(ValueError):
    """The routing dataset cannot train a classifier (e.g. one class only)."""


class UndefinedAccuracyError(ValueError):
    """Router accuracy is undefined: no disagreement examples."""


@dataclass(frozen=True)
class RouteDecision:
    branch: str
    score: float  # confidence that divide_and_merge is the better arm
    note: str = ""

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError("score must be in [0, 1]")


@dataclass(frozen=True)
class RouterModel:
    weights: tuple[float, ...]
    bias: float
    feature_means: tuple[float, ...]
    feature_stds: tuple[float, ...]

    def __post_init__(self):
        for name, values in (
            ("weights", self.weights),
            ("feature_means", self.feature_means),
            ("feature_stds", self.feature_stds),
        ):
            if len(values) != _FEATURE_COUNT:
                raise ValueError(f"{name} must have length {_FEATURE_COUNT}")
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{name} must be finite, got {list(values)}")
        if not math.isfinite(self.bias):
            raise ValueError(f"bias must be finite, got {self.bias}")
        if any(std <= 0 for std in self.feature_stds):
            raise ValueError("feature stds must be positive")


def oracle_branch(baseline_bit: int | None, module_bit: int | None) -> str | None:
    """The branch that alone was correct, or None when both arms were, neither
    was, or a bit is missing; only such disagreement examples carry a label."""
    if module_bit == 1 and baseline_bit == 0:
        return BRANCH_DIVIDE_AND_MERGE
    if baseline_bit == 1 and module_bit == 0:
        return BRANCH_BASELINE
    return None


def route_heuristic(features: FeatureVector, table_threshold: int) -> RouteDecision:
    """Route on schema size alone: big schemas go to the pipeline."""
    if features.table_count >= table_threshold:
        return RouteDecision(BRANCH_DIVIDE_AND_MERGE, 1.0)
    return RouteDecision(BRANCH_BASELINE, 0.0)


def train_logistic(
    rows: list[tuple[FeatureVector, int]],
    learning_rate: float = 0.1,
    epochs: int = 500,
    l2: float = 0.0,
) -> RouterModel:
    """Full-batch gradient descent on L2-regularized logistic loss.

    Features are standardized per coordinate over the training data (std
    floored at 1e-9); the standardization parameters are stored on the model.
    """
    if not learning_rate > 0:  # also rejects NaN
        raise ValueError("learning_rate must be positive")
    if epochs < 1:
        raise ValueError("epochs must be positive")
    if not l2 >= 0:
        raise ValueError("l2 must be >= 0")
    if learning_rate * l2 >= 2:  # no such run converges
        raise RouterTrainingError(
            f"training diverged: with learning_rate * l2 = {learning_rate * l2:g}, each step"
            f" scales the weights by {1 - learning_rate * l2:g}; keep the product below 2"
        )
    if len(rows) < 2:
        raise RouterTrainingError("need at least 2 rows to train")
    labels = [label for _, label in rows]
    if min(labels) == max(labels):
        raise RouterTrainingError("training data contains a single class")

    n = len(rows)
    raw = list(zip(*(fv.as_tuple() for fv, _ in rows)))
    means = [math.fsum(column) / n for column in raw]
    stds = [max(math.sqrt(math.fsum((x - m) ** 2 for x in column) / n), _STD_FLOOR)
            for column, m in zip(raw, means)]
    columns = [[(x - m) / s for x in column] for column, m, s in zip(raw, means, stds)]

    # Steps converge when learning_rate * (L + l2) < 2, where L bounds the logistic loss's
    # curvature: the largest eigenvalue of Z'Z / (4n), Z the standardized features and ones.
    smoothness = _largest_eigenvalue([*columns, [1.0] * n]) / (4 * n)
    if learning_rate * (smoothness + l2) >= 2:
        raise RouterTrainingError(
            f"training cannot converge: learning_rate * (L + l2) = "
            f"{learning_rate * (smoothness + l2):g}, where L = {smoothness:g} is the"
            f" curvature bound of this data's loss; keep the product below 2"
        )
    weights = [0.0] * _FEATURE_COUNT
    bias = 0.0
    try:  # a run that diverges ends in fsum's overflow or inf - inf, or in a non-finite model
        for _ in range(epochs):
            residual = [_sigmoid(math.fsum(map(mul, z, weights)) + bias) - label
                        for z, label in zip(zip(*columns), labels)]
            weights = [w - learning_rate * (math.fsum(map(mul, column, residual)) / n + l2 * w)
                       for w, column in zip(weights, columns)]
            bias = bias - learning_rate * (math.fsum(residual) / n)
        return RouterModel(tuple(weights), bias, tuple(means), tuple(stds))
    except (OverflowError, ValueError):
        raise RouterTrainingError("training diverged; lower the learning rate or l2") from None


def _largest_eigenvalue(columns: list[list[float]]) -> float:
    """The largest eigenvalue of Z'Z, Z the matrix of these columns, by cyclic Jacobi rotations."""
    a = [[math.fsum(map(mul, left, right)) for right in columns] for left in columns]
    for _ in range(50):  # a 7 x 7 matrix needs under ten sweeps; the rest rotate nothing
        for p, q in ((p, q) for q in range(len(a)) for p in range(q)):
            if abs(a[p][q]) > 1e-18 * (abs(a[p][p]) + abs(a[q][q])):  # else below rounding
                theta = (a[q][q] - a[p][p]) / (2 * a[p][q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c, s = 1 / math.hypot(t, 1.0), t / math.hypot(t, 1.0)
                for row in a:  # A J, then J'(A J), for the rotation J in the (p, q) plane
                    row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
                a[p], a[q] = ([c * x - s * y for x, y in zip(a[p], a[q])],
                              [s * x + c * y for x, y in zip(a[p], a[q])])
                a[p][q] = a[q][p] = 0.0
    return max(a[i][i] for i in range(len(a)))


def _sigmoid(logit: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-logit))
    except OverflowError:  # a logit below about -709: the true score is under 1e-307
        return 0.0


def route_logistic(model: RouterModel, features: FeatureVector) -> RouteDecision:
    standardized = [(x - mean) / std for x, mean, std in
                    zip(features.as_tuple(), model.feature_means, model.feature_stds)]
    score = _sigmoid(math.fsum(map(mul, standardized, model.weights)) + model.bias)
    return RouteDecision(BRANCH_DIVIDE_AND_MERGE if score >= 0.5 else BRANCH_BASELINE, score)


def route_judge(
    question: str,
    schema: DatabaseSchema,
    reasoning_model: ModelEndpoint,
    *,
    templates: dict[str, str] | None = None,
    transcript: list[TranscriptEntry] | None = None,
) -> RouteDecision:
    """Ask the reasoning model for a single SIMPLE/COMPLEX verdict.

    An unparseable reply routes to the baseline (the cheap default) with an
    annotation.
    """
    prompt = render(
        (templates or load_templates())[STAGE_JUDGE],
        {"question": question, "schema": schema.prompt_text},
    )
    reply = reasoning_model.ask(prompt, transcript=transcript, stage_label=STAGE_JUDGE)
    verdict = reply.strip().upper()
    if verdict == "COMPLEX":
        return RouteDecision(BRANCH_DIVIDE_AND_MERGE, 1.0)
    if verdict == "SIMPLE":
        return RouteDecision(BRANCH_BASELINE, 0.0)
    return RouteDecision(BRANCH_BASELINE, 0.5, note=f"unparseable judge reply: {reply[:60]!r}")


def save_router_model(model: RouterModel, path: str | Path) -> None:
    payload = {**_fields(model), "feature_names": FEATURE_NAMES}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")


def load_router_model(path: str | Path) -> RouterModel:
    """The model save_router_model wrote. A file that is not a JSON object, lacks a
    field, or holds a field that is not a list of numbers (one number for bias) raises
    ValueError naming the file; RouterModel rejects a wrong length or a non-finite value."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: router model file is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: router model file does not hold a JSON object")
    names = payload.get("feature_names")
    if names is not None and names != list(FEATURE_NAMES):
        raise ValueError(
            f"{path}: router model feature order {names} does not match {list(FEATURE_NAMES)}"
        )
    fields = {}
    for name in ("weights", "bias", "feature_means", "feature_stds"):
        if name not in payload:
            raise ValueError(f"{path}: router model file lacks {name!r}")
        numbers = [payload[name]] if name == "bias" else payload[name]
        if not isinstance(numbers, list) or not all(type(n) in (int, float) for n in numbers):
            raise ValueError(f"{path}: router model {name!r} is not numbers: {payload[name]!r}")
        fields[name] = float(payload[name]) if name == "bias" else tuple(payload[name])
    return RouterModel(**fields)
