from __future__ import annotations

import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from helpers import scripted_endpoint
from splitsql.dataset import FeatureVector, InputFileError, extract_features
from splitsql.harness import PerExampleRecord, realized_router_accuracy
from splitsql.router import (
    BRANCH_BASELINE,
    BRANCH_DIVIDE_AND_MERGE,
    RouterModel,
    RouterTrainingError,
    UndefinedAccuracyError,
    _largest_eigenvalue,
    load_router_model,
    oracle_branch,
    route_heuristic,
    route_judge,
    route_logistic,
    save_router_model,
    train_logistic,
)


def _features(
    table_count=3,
    column_count=20,
    foreign_key_count=2,
    question_token_count=8,
    aggregation=0,
    superlative=0,
) -> FeatureVector:
    return FeatureVector(
        table_count=table_count,
        column_count=column_count,
        foreign_key_count=foreign_key_count,
        question_token_count=question_token_count,
        question_has_aggregation_keyword=aggregation,
        question_has_superlative_keyword=superlative,
    )


Rows = list[tuple[FeatureVector, int]]


def _separable_dataset() -> Rows:
    rows = []
    for _ in range(50):
        rows.append((_features(table_count=1), 0))
        rows.append((_features(table_count=10), 1))
    return rows


def _training_accuracy(model: RouterModel, data: Rows) -> float:
    hits = 0
    for features, label in data:
        decision = route_logistic(model, features)
        hits += (decision.branch == BRANCH_DIVIDE_AND_MERGE) == bool(label)
    return hits / len(data)


def _reference_loss(model: RouterModel, data: Rows, l2: float) -> float:
    """Independent loss recomputation from the model outputs (no numpy)."""
    total = 0.0
    for features, label in data:
        z = model.bias
        for value, mean, std, weight in zip(
            features.as_tuple(), model.feature_means, model.feature_stds, model.weights
        ):
            z += weight * (value - mean) / std
        total += math.log1p(math.exp(-abs(z))) + max(z, 0.0) - label * z
    penalty = 0.5 * l2 * sum(w * w for w in model.weights)
    return total / len(data) + penalty


def _brute_force_threshold_separable(data: Rows) -> bool:
    """Oracle: does any threshold on the single varying feature separate
    the labels perfectly?"""
    points = sorted((fv.table_count, label) for fv, label in data)
    values = sorted({v for v, _ in points})
    candidates = [values[0] - 1] + values + [values[-1] + 1]
    for threshold in candidates:
        if all((value >= threshold) == bool(label) for value, label in points):
            return True
    return False


# ---------------------------------------------------------------------------
# heuristic router
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "table_count,threshold,branch",
    [
        (8, 5, BRANCH_DIVIDE_AND_MERGE),
        (2, 5, BRANCH_BASELINE),
        (5, 5, BRANCH_DIVIDE_AND_MERGE),  # >= rule at the boundary
    ],
)
def test_heuristic_threshold_rule(table_count, threshold, branch):
    decision = route_heuristic(_features(table_count=table_count), threshold)
    assert decision.branch == branch
    assert decision.score in (0.0, 1.0)


def test_heuristic_is_monotone_in_table_count():
    previous_dm = False
    for count in range(0, 51):
        is_dm = (
            route_heuristic(_features(table_count=count), 7).branch
            == BRANCH_DIVIDE_AND_MERGE
        )
        assert not (previous_dm and not is_dm)
        previous_dm = is_dm


# ---------------------------------------------------------------------------
# logistic router
# ---------------------------------------------------------------------------


def test_training_reaches_perfect_accuracy_on_separable_set():
    data = _separable_dataset()
    assert _brute_force_threshold_separable(data)
    model = train_logistic(data, learning_rate=0.1, epochs=500)
    assert _training_accuracy(model, data) == 1.0


def test_trained_model_routes_large_schema_to_pipeline():
    model = train_logistic(_separable_dataset(), learning_rate=0.1, epochs=500)
    assert route_logistic(model, _features(table_count=10)).branch == BRANCH_DIVIDE_AND_MERGE
    assert route_logistic(model, _features(table_count=1)).branch == BRANCH_BASELINE


def test_identical_features_mixed_labels_has_no_signal():
    rows = [(_features(), i % 2) for i in range(40)]
    model = train_logistic(rows, learning_rate=0.1, epochs=300, l2=0.1)
    assert _training_accuracy(model, rows) == 0.5
    assert math.sqrt(sum(w * w for w in model.weights)) < 1e-9
    assert abs(model.bias) < 1e-6


def test_single_class_data_is_training_error():
    rows = [(_features(table_count=i), 1) for i in range(1, 6)]
    with pytest.raises(RouterTrainingError):
        train_logistic(rows)


@pytest.mark.parametrize("count", [0, 1])
def test_fewer_than_two_rows_is_a_training_error(count):
    with pytest.raises(RouterTrainingError, match="need at least 2 rows"):
        train_logistic(_separable_dataset()[:count])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("learning_rate, l2", [(1.0, 2.0), (0.5, 6.0), (40.0, 0.05)])
def test_training_refuses_a_step_that_cannot_converge(learning_rate, l2):
    with pytest.raises(RouterTrainingError, match="keep the product below 2"):
        train_logistic(_separable_dataset(), learning_rate=learning_rate, epochs=5, l2=l2)
    # The separable set's loss has curvature bound L = 0.25: a step is stable
    # while learning_rate * (0.25 + l2) < 2.
    stable = min(learning_rate, 1.9 / (0.25 + l2 / 2))
    model = train_logistic(_separable_dataset(), learning_rate=stable, epochs=5, l2=l2 / 2)
    assert all(map(math.isfinite, model.weights))


@pytest.mark.parametrize("learning_rate, l2", [(4.0, 0.3), (8.0, 0.0), (7.8, 0.01)])
def test_training_refuses_a_step_the_loss_curvature_makes_unstable(learning_rate, l2):
    # learning_rate * l2 < 2, but learning_rate * (0.25 + l2) >= 2.
    with pytest.raises(RouterTrainingError, match=r"learning_rate \* \(L \+ l2\) = .*L = 0.25"):
        train_logistic(_separable_dataset(), learning_rate=learning_rate, epochs=5, l2=l2)


@settings(max_examples=60, deadline=None)
@given(
    learning_rate=st.floats(0.05, 12.0),
    l2=st.sampled_from([0.0, 0.01, 0.3]),
    noisy=st.booleans(),
)
def test_every_accepted_step_never_raises_the_loss(learning_rate, l2, noisy):
    data = _separable_dataset()
    if noisy:
        data = data[:80] + [(_features(table_count=10), 0)]
    try:
        train_logistic(data, learning_rate=learning_rate, epochs=1, l2=l2)
    except RouterTrainingError:
        assert learning_rate * (0.25 + l2) >= 2 * (1 - 1e-9)  # the bound is exact here
        return
    models = [train_logistic(data, learning_rate, epochs, l2) for epochs in range(1, 13)]
    losses = [_reference_loss(model, data, l2) for model in models]
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_loss_non_increasing_per_epoch_at_small_lr():
    data = _separable_dataset()
    # Add label noise so the loss cannot just race to zero.
    noisy = data[:80] + [(_features(table_count=10), 0)]
    for dataset, l2 in ((data, 0.0), (noisy, 0.01)):
        losses = []
        for epochs in range(1, 31):
            model = train_logistic(dataset, learning_rate=0.01, epochs=epochs, l2=l2)
            losses.append(_reference_loss(model, dataset, l2))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_zero_model_scores_half_and_routes_to_pipeline():
    model = RouterModel(
        weights=(0.0,) * 6,
        bias=0.0,
        feature_means=(0.0,) * 6,
        feature_stds=(1.0,) * 6,
    )
    decision = route_logistic(model, _features())
    assert decision.score == 0.5
    assert decision.branch == BRANCH_DIVIDE_AND_MERGE  # >= 0.5 rule


def test_score_is_monotone_in_weighted_feature():
    model = RouterModel(
        weights=(5.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        bias=0.0,
        feature_means=(3.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        feature_stds=(1.0,) * 6,
    )
    scores = [
        route_logistic(model, _features(table_count=count)).score for count in range(12)
    ]
    assert scores == sorted(scores)
    assert scores[-1] > 0.999


def _bias_only_model(bias: float) -> RouterModel:
    """A model whose logit is exactly its bias, whatever the features."""
    return RouterModel(
        weights=(0.0,) * 6, bias=bias, feature_means=(0.0,) * 6, feature_stds=(1.0,) * 6
    )


def test_a_very_negative_logit_routes_to_the_baseline():
    # A weight of -1000 on table_count gives the logit -1000; math.exp(1000) overflows.
    model = RouterModel(
        weights=(-1000.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        bias=0.0,
        feature_means=(0.0,) * 6,
        feature_stds=(1.0,) * 6,
    )
    decision = route_logistic(model, _features(table_count=1))
    assert (decision.branch, decision.score) == (BRANCH_BASELINE, 0.0)
    for logit in (-709.79, -745.2, -1e300):
        assert route_logistic(_bias_only_model(logit), _features()).score == 0.0


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6))
def test_logistic_score_is_the_sigmoid_wherever_it_is_representable(logit):
    decision = route_logistic(_bias_only_model(logit), _features())
    if -logit <= 709.0:
        assert decision.score == 1.0 / (1.0 + math.exp(-logit))
    else:
        assert decision.score == 0.0
    assert decision.branch == (
        BRANCH_DIVIDE_AND_MERGE if decision.score >= 0.5 else BRANCH_BASELINE
    )


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["weights", "bias", "feature_means", "feature_stds"])
def test_a_non_finite_model_is_rejected(name, value):
    fields = {
        "weights": (0.5,) * 6, "bias": 0.0, "feature_means": (0.0,) * 6, "feature_stds": (1.0,) * 6
    }
    fields[name] = value if name == "bias" else (1.0,) * 5 + (value,)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        RouterModel(**fields)


def test_a_model_file_holding_nan_fails_when_it_loads(tmp_path):
    path = tmp_path / "router.json"
    save_router_model(train_logistic(_separable_dataset(), epochs=10), path)
    payload = json.loads(path.read_text())
    payload["weights"][0] = math.nan
    path.write_text(json.dumps(payload))  # json writes NaN, and reads it back
    with pytest.raises(InputFileError, match=f"^{re.escape(str(path))}: weights must be finite"):
        load_router_model(path)


@pytest.mark.parametrize("edit", [
    lambda payload: [payload["weights"]],  # not a JSON object
    lambda payload: {k: v for k, v in payload.items() if k != "bias"},
    lambda payload: {k: v for k, v in payload.items() if k != "feature_stds"},
    lambda payload: {**payload, "weights": ["0.5"] * 6},
    lambda payload: {**payload, "feature_means": [None] * 6},
    lambda payload: {**payload, "feature_stds": 1.0},
    lambda payload: {**payload, "bias": "0.5"},
    lambda payload: {**payload, "bias": True},
], ids=["array", "no-bias", "no-stds", "text-weights", "null-means", "scalar-stds",
        "text-bias", "bool-bias"])
def test_a_malformed_model_file_names_itself_when_it_loads(tmp_path, edit):
    path = tmp_path / "router.json"
    save_router_model(train_logistic(_separable_dataset(), epochs=10), path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(InputFileError, match=f"^{re.escape(str(path))}: (a )?router model"):
        load_router_model(path)


def test_decisions_invariant_under_feature_rescaling():
    def scaled_features(fv: FeatureVector, factor: float) -> FeatureVector:
        return FeatureVector(
            table_count=fv.table_count,
            column_count=int(fv.column_count * factor),
            foreign_key_count=fv.foreign_key_count,
            question_token_count=fv.question_token_count,
            question_has_aggregation_keyword=fv.question_has_aggregation_keyword,
            question_has_superlative_keyword=fv.question_has_superlative_keyword,
        )

    rows = [
        (_features(table_count=2, column_count=10), 0),
        (_features(table_count=9, column_count=55), 1),
        (_features(table_count=3, column_count=18), 0),
        (_features(table_count=8, column_count=61), 1),
        (_features(table_count=4, column_count=22), 0),
        (_features(table_count=7, column_count=47), 1),
    ] * 5
    evaluation = [_features(table_count=c, column_count=6 * c) for c in range(1, 11)]

    base_model = train_logistic(rows, epochs=300)
    base_decisions = [route_logistic(base_model, fv).branch for fv in evaluation]

    factor = 1000.0
    scaled_rows = [(scaled_features(fv, factor), label) for fv, label in rows]
    scaled_model = train_logistic(scaled_rows, epochs=300)
    scaled_decisions = [
        route_logistic(scaled_model, scaled_features(fv, factor)).branch
        for fv in evaluation
    ]
    assert base_decisions == scaled_decisions


def test_model_file_round_trip(tmp_path):
    model = train_logistic(_separable_dataset(), epochs=100)
    path = tmp_path / "router.json"
    save_router_model(model, path)
    loaded = load_router_model(path)
    assert loaded == model


def test_model_file_rejects_reordered_features(tmp_path):
    model = train_logistic(_separable_dataset(), epochs=10)
    path = tmp_path / "router.json"
    save_router_model(model, path)
    text = path.read_text().replace("table_count", "zz_renamed")
    path.write_text(text)
    with pytest.raises(InputFileError, match="feature order"):
        load_router_model(path)


# ---------------------------------------------------------------------------
# numpy reference: the logistic router as it was trained with numpy. numpy is
# only in the dev extra, so these tests skip without it.
# ---------------------------------------------------------------------------


def _noisy_dataset() -> Rows:
    return _separable_dataset()[:80] + [(_features(table_count=10), 0)]


def _bundled_dataset(schemas, examples) -> Rows:
    """The rows route-train trains on for the CLI tests' records over the bundled
    corpus: the pipeline alone is right on the first 8 examples, the baseline
    alone on the last 6."""
    labels = [1] * 8 + [None] * 6 + [0] * 6
    return [
        (extract_features(example.question, schemas[example.db_id]), label)
        for example, label in zip(examples, labels) if label is not None
    ]


@pytest.fixture(params=["separable", "noisy", "bundled"])
def dataset(request, schemas, examples) -> Rows:
    if request.param == "bundled":
        return _bundled_dataset(schemas, examples)
    return _separable_dataset() if request.param == "separable" else _noisy_dataset()


def _reference_train(rows: Rows, learning_rate: float, epochs: int, l2: float):
    """The deleted numpy training loop: (weights, bias, means, stds, design), the
    design being the standardized features with a ones column."""
    np = pytest.importorskip("numpy")
    features = np.array([fv.as_tuple() for fv, _ in rows], dtype=np.float64)
    labels = np.array([label for _, label in rows], dtype=np.float64)
    means = features.mean(axis=0)
    stds = np.maximum(features.std(axis=0), 1e-9)
    standardized = (features - means) / stds
    n = len(labels)
    weights = np.zeros(features.shape[1])
    bias = 0.0
    for _ in range(epochs):
        residual = 1.0 / (1.0 + np.exp(-(standardized @ weights + bias))) - labels
        weights = weights - learning_rate * (standardized.T @ residual / n + l2 * weights)
        bias = bias - learning_rate * residual.mean()
    return weights, bias, means, stds, np.column_stack([standardized, np.ones(n)])


def _reference_eigenvalue(design) -> float:
    np = pytest.importorskip("numpy")
    return float(np.linalg.eigvalsh(design.T @ design)[-1])


def test_the_largest_eigenvalue_matches_numpy_on_the_test_datasets(dataset):
    *_, design = _reference_train(dataset, 0.1, 0, 0.0)
    ours = _largest_eigenvalue([list(column) for column in design.T])
    assert math.isclose(ours, _reference_eigenvalue(design), rel_tol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.lists(st.integers(-10**6, 10**6).map(lambda k: k / 1000), min_size=7, max_size=7),
    min_size=1, max_size=40,
))
def test_the_largest_eigenvalue_matches_numpy_on_any_gram_matrix(rows):
    np = pytest.importorskip("numpy")
    design = np.array(rows, dtype=np.float64)
    ours = _largest_eigenvalue([list(column) for column in design.T])
    reference = _reference_eigenvalue(design)
    assert math.isclose(ours, reference, rel_tol=1e-12) or ours == reference == 0.0


def _reference_score(weights, bias, means, stds, features: FeatureVector) -> float:
    """The deleted numpy route_logistic's score."""
    np = pytest.importorskip("numpy")
    logit = float((np.array(features.as_tuple()) - means) / stds @ weights + bias)
    try:
        return 1.0 / (1.0 + math.exp(-logit))
    except OverflowError:
        return 0.0


@pytest.mark.parametrize("learning_rate, epochs, l2", [(0.1, 500, 0.0), (0.5, 200, 0.01)])
def test_training_matches_the_numpy_reference(
    dataset, examples, schemas, learning_rate, epochs, l2
):
    weights, bias, means, stds, _ = _reference_train(dataset, learning_rate, epochs, l2)
    model = train_logistic(dataset, learning_rate, epochs, l2)
    assert max(abs(ours - theirs) for ours, theirs in zip(model.weights, weights)) <= 1e-12
    assert abs(model.bias - bias) <= 1e-12
    assert all(map(math.isclose, model.feature_means, means))
    assert all(map(math.isclose, model.feature_stds, stds))

    # No decision flips at the score 0.5, on a training row or on a bundled example.
    evaluation = [fv for fv, _ in dataset]
    evaluation += [extract_features(ex.question, schemas[ex.db_id]) for ex in examples]
    for features in evaluation:
        reference = _reference_score(weights, bias, means, stds, features)
        assert (route_logistic(model, features).score >= 0.5) == (reference >= 0.5)


# ---------------------------------------------------------------------------
# judge router
# ---------------------------------------------------------------------------


def test_judge_complex_routes_to_pipeline(schemas):
    endpoint = scripted_endpoint([("SIMPLE or COMPLEX", "COMPLEX")])
    decision = route_judge("q", schemas["customer_orders"], endpoint)
    assert decision.branch == BRANCH_DIVIDE_AND_MERGE
    assert endpoint.provider.script.call_count == 1


def test_judge_simple_routes_to_baseline(schemas):
    endpoint = scripted_endpoint([("SIMPLE or COMPLEX", "simple")])
    decision = route_judge("q", schemas["customer_orders"], endpoint)
    assert decision.branch == BRANCH_BASELINE
    assert decision.note == ""


def test_judge_unparseable_falls_back_with_note(schemas):
    endpoint = scripted_endpoint([("SIMPLE or COMPLEX", "maybe")])
    decision = route_judge("q", schemas["customer_orders"], endpoint)
    assert decision.branch == BRANCH_BASELINE
    assert decision.score == 0.5
    assert "maybe" in decision.note
    assert endpoint.provider.script.call_count == 1


# ---------------------------------------------------------------------------
# router accuracy and dataset labelling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "baseline_bit, module_bit, branch",
    [
        (0, 0, None),
        (0, 1, BRANCH_DIVIDE_AND_MERGE),
        (0, None, None),
        (1, 0, BRANCH_BASELINE),
        (1, 1, None),
        (1, None, None),
        (None, 0, None),
        (None, 1, None),
        (None, None, None),
    ],
)
def test_oracle_branch_truth_table(baseline_bit, module_bit, branch):
    assert oracle_branch(baseline_bit, module_bit) == branch


_BIT = st.sampled_from([0, 1, None])
_ROUTE = st.sampled_from([BRANCH_BASELINE, BRANCH_DIVIDE_AND_MERGE])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_BIT, _BIT, _ROUTE), max_size=20))
def test_only_oracle_examples_are_labelled_and_scored(rows):
    oracles = [oracle_branch(b, m) for b, m, _ in rows]
    reference = [PerExampleRecord(f"ex{i:04d}", "db", 3, b, m) for i, (b, m, _) in enumerate(rows)]
    routed = [
        PerExampleRecord(f"ex{i:04d}", "db", 3, route_taken=route)
        for i, (_, _, route) in enumerate(rows)
    ]
    for record, oracle in zip(routed, oracles):
        if oracle is None:
            with pytest.raises(UndefinedAccuracyError):
                realized_router_accuracy([record], reference)
        else:
            assert realized_router_accuracy([record], reference) == (record.route_taken == oracle)
    hits = [route == oracle for (_, _, route), oracle in zip(rows, oracles) if oracle is not None]
    if hits:
        assert realized_router_accuracy(routed, reference) == sum(hits) / len(hits)
