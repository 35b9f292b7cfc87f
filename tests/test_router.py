from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from helpers import scripted_endpoint
from splitsql.dataset import FeatureVector
from splitsql.harness import PerExampleRecord, realized_router_accuracy
from splitsql.router import (
    BRANCH_BASELINE,
    BRANCH_DIVIDE_AND_MERGE,
    RouteDecision,
    RouterModel,
    RouterTrainingError,
    RoutingDataset,
    UndefinedAccuracyError,
    dataset_from_outcomes,
    load_router_model,
    logistic_loss,
    oracle_branch,
    route_heuristic,
    route_judge,
    route_logistic,
    router_accuracy,
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


def _separable_dataset() -> RoutingDataset:
    rows = []
    for _ in range(50):
        rows.append((_features(table_count=1), 0))
        rows.append((_features(table_count=10), 1))
    return RoutingDataset(rows=rows)


def _training_accuracy(model: RouterModel, data: RoutingDataset) -> float:
    hits = 0
    for features, label in data.rows:
        decision = route_logistic(model, features)
        hits += (decision.branch == BRANCH_DIVIDE_AND_MERGE) == bool(label)
    return hits / len(data.rows)


def _reference_loss(model: RouterModel, data: RoutingDataset, l2: float) -> float:
    """Independent loss recomputation from the model outputs (no numpy)."""
    total = 0.0
    for features, label in data.rows:
        z = model.bias
        for value, mean, std, weight in zip(
            features.as_tuple(), model.feature_means, model.feature_stds, model.weights
        ):
            z += weight * (value - mean) / std
        total += math.log1p(math.exp(-abs(z))) + max(z, 0.0) - label * z
    penalty = 0.5 * l2 * sum(w * w for w in model.weights)
    return total / len(data.rows) + penalty


def _brute_force_threshold_separable(data: RoutingDataset) -> bool:
    """Oracle: does any threshold on the single varying feature separate
    the labels perfectly?"""
    points = sorted((fv.table_count, label) for fv, label in data.rows)
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
    assert decision.router_kind == "heuristic"
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
    model = train_logistic(RoutingDataset(rows), learning_rate=0.1, epochs=300, l2=0.1)
    assert _training_accuracy(model, RoutingDataset(rows)) == 0.5
    assert math.sqrt(sum(w * w for w in model.weights)) < 1e-9
    assert abs(model.bias) < 1e-6


def test_single_class_data_is_training_error():
    rows = [(_features(table_count=i), 1) for i in range(1, 6)]
    with pytest.raises(RouterTrainingError):
        train_logistic(RoutingDataset(rows))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("learning_rate, l2", [(1.0, 2.0), (0.5, 6.0), (40.0, 0.05)])
def test_training_refuses_a_step_that_cannot_converge(learning_rate, l2):
    with pytest.raises(RouterTrainingError, match="keep the product below 2"):
        train_logistic(_separable_dataset(), learning_rate=learning_rate, epochs=5, l2=l2)
    model = train_logistic(_separable_dataset(), learning_rate=learning_rate, epochs=5, l2=l2 / 2)
    assert all(map(math.isfinite, model.weights))


def test_loss_non_increasing_per_epoch_at_small_lr():
    data = _separable_dataset()
    # Add label noise so the loss cannot just race to zero.
    noisy = RoutingDataset(data.rows[:80] + [(_features(table_count=10), 0)])
    for dataset, l2 in ((data, 0.0), (noisy, 0.01)):
        losses = []
        for epochs in range(1, 31):
            model = train_logistic(dataset, learning_rate=0.01, epochs=epochs, l2=l2)
            losses.append(_reference_loss(model, dataset, l2))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_reference_loss_matches_module_loss():
    data = _separable_dataset()
    model = train_logistic(data, epochs=50)
    assert abs(_reference_loss(model, data, 0.0) - logistic_loss(model, data)) < 1e-9


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
    with pytest.raises(ValueError, match="^weights must be finite"):
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

    base_model = train_logistic(RoutingDataset(rows), epochs=300)
    base_decisions = [route_logistic(base_model, fv).branch for fv in evaluation]

    factor = 1000.0
    scaled_rows = [(scaled_features(fv, factor), label) for fv, label in rows]
    scaled_model = train_logistic(RoutingDataset(scaled_rows), epochs=300)
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
    with pytest.raises(ValueError, match="feature order"):
        load_router_model(path)


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


def _decision(branch: str) -> RouteDecision:
    return RouteDecision(branch=branch, score=0.5, router_kind="oracle")


def test_router_accuracy_fractions():
    dm, base = BRANCH_DIVIDE_AND_MERGE, BRANCH_BASELINE
    decisions = [_decision(dm), _decision(dm), _decision(base), _decision(base)]
    assert router_accuracy(decisions, [dm, dm, base, base]) == 1.0
    assert router_accuracy(decisions, [base, base, dm, dm]) == 0.0
    assert router_accuracy(decisions, [dm, dm, base, dm]) == 0.75


def test_router_accuracy_skips_agreement_examples():
    decisions = [_decision(BRANCH_BASELINE), _decision(BRANCH_DIVIDE_AND_MERGE)]
    assert router_accuracy(decisions, [None, BRANCH_DIVIDE_AND_MERGE]) == 1.0


def test_router_accuracy_undefined_without_disagreements():
    with pytest.raises(UndefinedAccuracyError):
        router_accuracy([_decision(BRANCH_BASELINE)], [None])


def test_dataset_from_outcomes_labels_disagreements_only():
    fv = _features()
    dataset = dataset_from_outcomes(
        [(fv, 0, 1), (fv, 1, 0), (fv, 1, 1), (fv, 0, 0)]
    )
    assert [label for _, label in dataset.rows] == [1, 0]


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
    dataset = dataset_from_outcomes(
        [(_features(table_count=i), b, m) for i, (b, m, _) in enumerate(rows)]
    )
    assert [(fv.table_count, label) for fv, label in dataset.rows] == [
        (i, int(oracle == BRANCH_DIVIDE_AND_MERGE))
        for i, oracle in enumerate(oracles)
        if oracle is not None
    ]

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
