"""Per-question routing between the one-step baseline and the divide-and-merge
pipeline: a table-count heuristic, a trainable logistic model, and an LLM judge."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .dataset import DatabaseSchema, FeatureVector, FEATURE_NAMES, serialize_schema
from .llm import ModelEndpoint, TranscriptEntry, _fields
from .prompts import STAGE_JUDGE, PromptTemplate, default_templates, render

if TYPE_CHECKING:
    import numpy as np

BRANCH_BASELINE = "baseline"
BRANCH_DIVIDE_AND_MERGE = "divide_and_merge"

KIND_HEURISTIC = "heuristic"
KIND_LOGISTIC = "logistic"
KIND_JUDGE = "judge"

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
    router_kind: str
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


@dataclass
class RoutingDataset:
    """(features, label) rows; label 1 means only divide_and_merge was correct."""

    rows: list[tuple[FeatureVector, int]]


def oracle_branch(baseline_bit: int | None, module_bit: int | None) -> str | None:
    """The branch that alone was correct, or None when both arms were, neither
    was, or a bit is missing; only such disagreement examples carry a label."""
    if module_bit == 1 and baseline_bit == 0:
        return BRANCH_DIVIDE_AND_MERGE
    if baseline_bit == 1 and module_bit == 0:
        return BRANCH_BASELINE
    return None


def dataset_from_outcomes(
    outcomes: list[tuple[FeatureVector, int, int]],
) -> RoutingDataset:
    """Build a routing dataset from (features, baseline bit, module bit) triples.

    Only disagreement examples carry a label: 1 when the pipeline alone was
    correct, 0 when the baseline alone was. Agreement examples are skipped
    because either routing choice gives the same outcome.
    """
    rows = []
    for features, baseline_bit, module_bit in outcomes:
        branch = oracle_branch(baseline_bit, module_bit)
        if branch is not None:
            rows.append((features, int(branch == BRANCH_DIVIDE_AND_MERGE)))
    return RoutingDataset(rows=rows)


def route_heuristic(features: FeatureVector, table_threshold: int) -> RouteDecision:
    """Route on schema size alone: big schemas go to the pipeline."""
    if features.table_count >= table_threshold:
        return RouteDecision(BRANCH_DIVIDE_AND_MERGE, 1.0, KIND_HEURISTIC)
    return RouteDecision(BRANCH_BASELINE, 0.0, KIND_HEURISTIC)


def _matrix(rows: list[tuple[FeatureVector, int]]) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np
    features = np.array([fv.as_tuple() for fv, _ in rows], dtype=np.float64)
    labels = np.array([label for _, label in rows], dtype=np.float64)
    return features, labels


def train_logistic(
    data: RoutingDataset,
    learning_rate: float = 0.1,
    epochs: int = 500,
    l2: float = 0.0,
) -> RouterModel:
    """Full-batch gradient descent on L2-regularized logistic loss.

    Features are standardized per coordinate over the training data (std
    floored at 1e-9); the standardization parameters are stored on the model.
    """
    import numpy as np
    if learning_rate <= 0:
        raise ValueError("learning_rate must be positive")
    if epochs < 1:
        raise ValueError("epochs must be positive")
    if l2 < 0:
        raise ValueError("l2 must be >= 0")
    if learning_rate * l2 >= 2:  # no such run converges
        raise RouterTrainingError(
            f"training diverged: with learning_rate * l2 = {learning_rate * l2:g}, each step"
            f" scales the weights by {1 - learning_rate * l2:g}; keep the product below 2"
        )
    if len(data.rows) < 2:
        raise RouterTrainingError("need at least 2 rows to train")
    features, labels = _matrix(data.rows)
    if labels.min() == labels.max():
        raise RouterTrainingError("training data contains a single class")

    means = features.mean(axis=0)
    stds = np.maximum(features.std(axis=0), _STD_FLOOR)
    standardized = (features - means) / stds

    n = len(labels)
    weights = np.zeros(_FEATURE_COUNT)
    bias = 0.0
    for _ in range(epochs):
        logits = standardized @ weights + bias
        probabilities = 1.0 / (1.0 + np.exp(-logits))
        residual = probabilities - labels
        grad_weights = standardized.T @ residual / n + l2 * weights
        grad_bias = residual.mean()
        weights = weights - learning_rate * grad_weights
        bias = bias - learning_rate * grad_bias
    if not (np.isfinite(weights).all() and math.isfinite(bias)):
        raise RouterTrainingError("training diverged; lower the learning rate or l2")

    return RouterModel(
        weights=tuple(float(w) for w in weights),
        bias=float(bias),
        feature_means=tuple(float(m) for m in means),
        feature_stds=tuple(float(s) for s in stds),
    )


def logistic_loss(model: RouterModel, data: RoutingDataset, l2: float = 0.0) -> float:
    """Mean cross-entropy plus the L2 penalty, for a model on a dataset."""
    import numpy as np
    features, labels = _matrix(data.rows)
    standardized = (features - np.array(model.feature_means)) / np.array(model.feature_stds)
    logits = standardized @ np.array(model.weights) + model.bias
    # log(1 + exp(z)) - y*z, computed stably.
    per_row = np.logaddexp(0.0, logits) - labels * logits
    penalty = 0.5 * l2 * float(np.dot(model.weights, model.weights))
    return float(per_row.mean() + penalty)


def route_logistic(model: RouterModel, features: FeatureVector) -> RouteDecision:
    import numpy as np
    raw = np.array(features.as_tuple())
    standardized = (raw - np.array(model.feature_means)) / np.array(model.feature_stds)
    logit = float(standardized @ np.array(model.weights) + model.bias)
    try:
        score = 1.0 / (1.0 + math.exp(-logit))
    except OverflowError:  # a logit below about -709: the true score is under 1e-307
        score = 0.0
    branch = BRANCH_DIVIDE_AND_MERGE if score >= 0.5 else BRANCH_BASELINE
    return RouteDecision(branch, score, KIND_LOGISTIC)


def route_judge(
    question: str,
    schema: DatabaseSchema,
    reasoning_model: ModelEndpoint,
    *,
    templates: dict[str, PromptTemplate] | None = None,
    transcript: list[TranscriptEntry] | None = None,
) -> RouteDecision:
    """Ask the reasoning model for a single SIMPLE/COMPLEX verdict.

    An unparseable reply routes to the baseline (the cheap default) with an
    annotation.
    """
    prompt = render(
        (templates or default_templates())[STAGE_JUDGE],
        {"question": question, "schema": serialize_schema(schema)},
    )
    reply = reasoning_model.ask(prompt, transcript=transcript, stage_label=STAGE_JUDGE)
    verdict = reply.strip().upper()
    if verdict == "COMPLEX":
        return RouteDecision(BRANCH_DIVIDE_AND_MERGE, 1.0, KIND_JUDGE)
    if verdict == "SIMPLE":
        return RouteDecision(BRANCH_BASELINE, 0.0, KIND_JUDGE)
    return RouteDecision(
        BRANCH_BASELINE, 0.5, KIND_JUDGE, note=f"unparseable judge reply: {reply[:60]!r}"
    )


def router_accuracy(
    decisions: list[RouteDecision], oracle_branches: list[str | None]
) -> float:
    """Fraction of decisions matching the oracle branch, over the subset of
    examples where the oracle branch is defined (exactly one arm correct)."""
    if len(decisions) != len(oracle_branches):
        raise ValueError("decisions and oracle_branches must have equal length")
    scored = [
        (decision.branch == oracle)
        for decision, oracle in zip(decisions, oracle_branches)
        if oracle is not None
    ]
    if not scored:
        raise UndefinedAccuracyError("no disagreement examples to score against")
    return sum(scored) / len(scored)


def save_router_model(model: RouterModel, path: str | Path) -> None:
    payload = {**_fields(model), "feature_names": FEATURE_NAMES}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")


def load_router_model(path: str | Path) -> RouterModel:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    names = payload.get("feature_names")
    if names is not None and tuple(names) != FEATURE_NAMES:
        raise ValueError(
            f"router model feature order {names} does not match {list(FEATURE_NAMES)}"
        )
    return RouterModel(
        weights=tuple(payload["weights"]),
        bias=float(payload["bias"]),
        feature_means=tuple(payload["feature_means"]),
        feature_stds=tuple(payload["feature_stds"]),
    )
