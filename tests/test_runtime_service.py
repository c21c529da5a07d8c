"""Tests for the serving layer: batched inference, parallel fitting, caching.

Three contracts:

* ``effort_response(batched=True)`` matches the per-level reference loop to
  floating-point reduction order (the batched path is the default);
* any ``n_jobs`` produces a bit-identical model (seeds are pre-drawn
  serially before the thread fan-out);
* :class:`RiskMapService` caches repeated queries and protects its cache
  from caller mutation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PawsPredictor
from repro.core.uncertainty import UncertaintyScaler
from repro.data import MFNP, generate_dataset
from repro.exceptions import (
    ConfigurationError,
    DeadlineExceededError,
    NotFittedError,
)
from repro.ml import (
    BaggingClassifier,
    DecisionTreeClassifier,
    GaussianProcessClassifier,
)
from repro.runtime import RiskMapService, parallel_map, resolve_n_jobs
from repro.runtime.resilience import collect_stats

from tests.conftest import make_blobs


@pytest.fixture(scope="module")
def park_split():
    data = generate_dataset(MFNP.scaled(0.4), seed=0)
    return data.dataset.split_by_test_year(4)


@pytest.fixture(scope="module")
def fitted_gpb(park_split):
    return PawsPredictor(
        model="gpb", iware=True, n_classifiers=4, n_estimators=2, seed=3
    ).fit(park_split.train)


# ---------------------------------------------------------------------------
# parallel_map plumbing
# ---------------------------------------------------------------------------
class TestParallelMap:
    def test_preserves_order(self):
        assert parallel_map(lambda x: x * x, range(20), n_jobs=4) == [
            x * x for x in range(20)
        ]

    def test_serial_fallbacks(self):
        assert parallel_map(lambda x: x + 1, [1, 2, 3], n_jobs=1) == [2, 3, 4]
        assert parallel_map(lambda x: x + 1, [], n_jobs=8) == []
        assert parallel_map(lambda x: x + 1, [5], n_jobs=8) == [6]

    def test_resolve_n_jobs(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(3) == 3
        assert resolve_n_jobs(-1) >= 1
        with pytest.raises(ConfigurationError):
            resolve_n_jobs(0)

    def test_exceptions_propagate(self):
        def boom(x):
            raise ValueError("boom")

        with pytest.raises(ValueError):
            parallel_map(boom, [1, 2, 3], n_jobs=2)


# ---------------------------------------------------------------------------
# Single-pass prediction statistics
# ---------------------------------------------------------------------------
class TestPredictionStats:
    def test_gp_matches_separate_calls(self, rng):
        X, y = make_blobs(rng, n_per_class=40)
        gp = GaussianProcessClassifier(rng=np.random.default_rng(0)).fit(X, y)
        proba, var = gp.prediction_stats(X)
        np.testing.assert_array_equal(proba, gp.predict_proba(X))
        np.testing.assert_array_equal(var, gp.predict_variance(X))

    def test_bagging_matches_separate_calls(self, rng):
        X, y = make_blobs(rng, n_per_class=40)
        seed_rng = np.random.default_rng(2)
        factory = lambda: DecisionTreeClassifier(  # noqa: E731
            max_depth=4, rng=np.random.default_rng(int(seed_rng.integers(2**31)))
        )
        bag = BaggingClassifier(factory, n_estimators=4).fit(X, y)
        proba, var = bag.prediction_stats(X)
        np.testing.assert_array_equal(proba, bag.predict_proba(X))
        np.testing.assert_array_equal(var, bag.mean_member_variance(X))

    def test_gp_bagging_uses_intrinsic_variance(self, rng):
        X, y = make_blobs(rng, n_per_class=30)
        seed_rng = np.random.default_rng(2)
        factory = lambda: GaussianProcessClassifier(  # noqa: E731
            max_points=40, rng=np.random.default_rng(int(seed_rng.integers(2**31)))
        )
        bag = BaggingClassifier(factory, n_estimators=2).fit(X, y)
        proba, var = bag.prediction_stats(X)
        np.testing.assert_array_equal(proba, bag.predict_proba(X))
        np.testing.assert_array_equal(var, bag.mean_member_variance(X))
        assert bag.has_intrinsic_variance


# ---------------------------------------------------------------------------
# Batched effort response == per-level reference loop
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("model", ["svb", "dtb", "gpb"])
@pytest.mark.parametrize("iware", [True, False])
class TestBatchedEffortResponse:
    def test_matches_per_level_loop(self, park_split, model, iware):
        predictor = PawsPredictor(
            model=model, iware=iware, n_classifiers=4, n_estimators=2, seed=3
        ).fit(park_split.train)
        X = park_split.test.feature_matrix
        grid = np.linspace(0.0, 5.0, 7)
        risk_loop, nu_loop = predictor.effort_response(X, grid, batched=False)
        risk_batch, nu_batch = predictor.effort_response(X, grid, batched=True)
        np.testing.assert_allclose(risk_batch, risk_loop, atol=1e-12, rtol=0)
        np.testing.assert_allclose(nu_batch, nu_loop, atol=1e-12, rtol=0)
        # The zero-effort anchor survives the batched path.
        assert (risk_batch[:, 0] == 0.0).all()


# ---------------------------------------------------------------------------
# Parallel fitting is bit-identical to serial
# ---------------------------------------------------------------------------
class TestParallelFitIdentity:
    @pytest.mark.parametrize("model", ["dtb", "gpb"])
    def test_iware_predictor(self, park_split, model):
        serial = PawsPredictor(
            model=model, iware=True, n_classifiers=4, n_estimators=2, seed=3
        ).fit(park_split.train)
        parallel = PawsPredictor(
            model=model, iware=True, n_classifiers=4, n_estimators=2, seed=3,
            n_jobs=4,
        ).fit(park_split.train)
        X = park_split.test.feature_matrix
        np.testing.assert_array_equal(
            parallel.predict_proba(X), serial.predict_proba(X)
        )
        np.testing.assert_array_equal(
            parallel.predict_variance(X), serial.predict_variance(X)
        )

    def test_flat_predictor(self, park_split):
        serial = PawsPredictor(
            model="dtb", iware=False, n_estimators=3, seed=5
        ).fit(park_split.train)
        parallel = PawsPredictor(
            model="dtb", iware=False, n_estimators=3, seed=5, n_jobs=4
        ).fit(park_split.train)
        X = park_split.test.feature_matrix
        np.testing.assert_array_equal(
            parallel.predict_proba(X), serial.predict_proba(X)
        )

    def test_bagging_inbag_counts_identical(self, rng):
        X, y = make_blobs(rng, n_per_class=40)

        def build(n_jobs):
            seed_rng = np.random.default_rng(2)
            factory = lambda: DecisionTreeClassifier(  # noqa: E731
                max_depth=4,
                rng=np.random.default_rng(int(seed_rng.integers(2**31))),
            )
            return BaggingClassifier(
                factory, n_estimators=4, rng=np.random.default_rng(9),
                n_jobs=n_jobs,
            ).fit(X, y)

        serial, parallel = build(1), build(4)
        np.testing.assert_array_equal(parallel.inbag_counts_, serial.inbag_counts_)
        np.testing.assert_array_equal(
            parallel.predict_proba(X), serial.predict_proba(X)
        )


# ---------------------------------------------------------------------------
# RiskMapService caching
# ---------------------------------------------------------------------------
class TestRiskMapService:
    def test_requires_fitted_predictor(self):
        with pytest.raises(NotFittedError):
            RiskMapService(PawsPredictor())

    def test_rejects_non_predictor(self):
        with pytest.raises(ConfigurationError):
            RiskMapService(object())  # type: ignore[arg-type]

    def test_effort_response_cache_hit(self, fitted_gpb, park_split):
        service = RiskMapService(fitted_gpb)
        X = park_split.test.feature_matrix
        grid = np.linspace(0.0, 4.0, 5)
        first = service.effort_response(X, grid)
        second = service.effort_response(X, grid)
        info = service.cache_info()
        assert info["misses"] == 1 and info["hits"] == 1
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])
        direct_risk, direct_nu = fitted_gpb.effort_response(X, grid)
        np.testing.assert_array_equal(first[0], direct_risk)
        np.testing.assert_array_equal(first[1], direct_nu)

    def test_cache_immune_to_caller_mutation(self, fitted_gpb, park_split):
        service = RiskMapService(fitted_gpb)
        X = park_split.test.feature_matrix
        grid = np.linspace(0.0, 4.0, 5)
        risk, __ = service.effort_response(X, grid)
        risk[:] = -1.0
        fresh, __ = service.effort_response(X, grid)
        assert (fresh >= 0.0).all()

    def test_cache_hit_restores_uncertainty_scaler(self, fitted_gpb, park_split):
        service = RiskMapService(fitted_gpb)
        X = park_split.test.feature_matrix
        grid_a = np.linspace(0.0, 4.0, 5)
        grid_b = np.linspace(0.0, 6.0, 8)
        service.effort_response(X, grid_a)
        scaler_a = fitted_gpb.uncertainty_scaler
        service.effort_response(X, grid_b)
        assert fitted_gpb.uncertainty_scaler is not scaler_a
        service.effort_response(X, grid_a)  # cache hit
        assert fitted_gpb.uncertainty_scaler is scaler_a

    def test_distinct_queries_miss(self, fitted_gpb, park_split):
        service = RiskMapService(fitted_gpb)
        X = park_split.test.feature_matrix
        service.effort_response(X, np.linspace(0.0, 4.0, 5))
        service.effort_response(X, np.linspace(0.0, 4.0, 6))
        assert service.cache_info()["misses"] == 2

    def test_risk_map_effort_levels_cached_separately(self, fitted_gpb, park_split):
        service = RiskMapService(fitted_gpb)
        X = park_split.test.feature_matrix
        at_two = service.risk_map(X, effort=2.0)
        at_four = service.risk_map(X, effort=4.0)
        unconditional = service.risk_map(X)
        assert service.cache_info()["misses"] == 3
        assert at_two.shape == at_four.shape == unconditional.shape
        np.testing.assert_array_equal(
            service.risk_map(X, effort=2.0), at_two
        )
        assert service.cache_info()["hits"] == 1

    def test_lru_eviction(self, fitted_gpb, park_split):
        service = RiskMapService(fitted_gpb, max_entries=1)
        X = park_split.test.feature_matrix
        service.risk_map(X, effort=1.0)
        service.risk_map(X, effort=2.0)
        assert service.cache_info()["entries"] == 1
        service.risk_map(X, effort=1.0)  # evicted -> miss again
        assert service.cache_info()["misses"] == 3

    def test_save_and_from_saved(self, fitted_gpb, park_split, tmp_path):
        service = RiskMapService(fitted_gpb)
        service.save(tmp_path / "svc")
        restored = RiskMapService.from_saved(tmp_path / "svc")
        X = park_split.test.feature_matrix
        np.testing.assert_array_equal(
            restored.risk_map(X, effort=2.0), service.risk_map(X, effort=2.0)
        )

    def test_clear_cache(self, fitted_gpb, park_split):
        service = RiskMapService(fitted_gpb)
        X = park_split.test.feature_matrix
        service.risk_map(X, effort=1.0)
        service.clear_cache()
        assert service.cache_info()["entries"] == 0
        assert service.member_cache_info()["entries"] == 0


# ---------------------------------------------------------------------------
# Member-pass cache: every effort is a mix of one cached model pass
# ---------------------------------------------------------------------------
MEMBER_MODELS = {
    "GPB-iW": {"model": "gpb"},
    "DTB-iW": {"model": "dtb"},
    "DTB-iW-balanced": {"model": "dtb", "balanced": True},
    "GPB": {"model": "gpb", "iware": False},
    "DTB": {"model": "dtb", "iware": False},
}
EFFORTS = (None, 0.0, 0.35, 1.5, 4.0, 50.0)
GRID = np.array([0.0, 0.5, 1.5, 1.5, 4.0])


@pytest.fixture(scope="module")
def member_models(park_split):
    return {
        name: PawsPredictor(
            n_classifiers=3, n_estimators=2, gp_max_points=120, seed=7,
            **config,
        ).fit(park_split.train)
        for name, config in MEMBER_MODELS.items()
    }


def _reference_effort_response(predictor, X, grid):
    """The batched effort response as computed before the member-pass
    cache: separate member probability and variance sweeps, the qualified
    weight products, the zero-effort anchor and a fresh uncertainty scaler."""
    ensemble = predictor._ensemble
    if ensemble is None:
        risk = np.repeat(predictor.predict_proba(X)[:, None], grid.size, axis=1)
        raw = np.repeat(predictor.predict_variance(X)[:, None], grid.size, axis=1)
    else:
        mask = ensemble.thresholds_[:, None] <= grid[None, :]
        mask[0, :] = True
        weighted = ensemble.weights_[:, None] * mask
        denom = weighted.sum(axis=0)
        denom[denom <= 0] = 1.0
        risk = ensemble.member_probabilities(X).T @ weighted / denom
        raw = ensemble.member_variances(X).T @ weighted / denom
    risk[:, grid == 0.0] = 0.0
    return risk, UncertaintyScaler().fit(raw.ravel()).transform(raw)


class TestMemberPassCache:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("tile_size", [None, 1, 7])
    @pytest.mark.parametrize("name", sorted(MEMBER_MODELS))
    def test_served_surfaces_equal_the_direct_calls(
        self, member_models, park_split, name, tile_size, backend
    ):
        predictor = member_models[name]
        X = park_split.test.feature_matrix[:40]
        service = RiskMapService(
            predictor, tile_size=tile_size, n_jobs=2, backend=backend
        )
        for effort in EFFORTS:
            np.testing.assert_array_equal(
                service.risk_map(X, effort=effort),
                predictor.predict_proba(X, effort=effort),
            )
        risk, nu = service.effort_response(X, GRID)
        ref_risk, ref_nu = _reference_effort_response(predictor, X, GRID)
        np.testing.assert_array_equal(risk, ref_risk)
        np.testing.assert_array_equal(nu, ref_nu)
        assert service.member_cache_info()["misses"] == 1

    @pytest.mark.parametrize("name", sorted(MEMBER_MODELS))
    def test_library_effort_response_unchanged(
        self, member_models, park_split, name
    ):
        predictor = member_models[name]
        X = park_split.test.feature_matrix
        risk, nu = predictor.effort_response(X, GRID)
        ref_risk, ref_nu = _reference_effort_response(predictor, X, GRID)
        np.testing.assert_array_equal(risk, ref_risk)
        np.testing.assert_array_equal(nu, ref_nu)

    def test_twenty_efforts_share_one_member_pass(
        self, member_models, park_split
    ):
        predictor = member_models["GPB-iW"]
        X = park_split.test.feature_matrix
        with collect_stats() as one_pass:
            predictor.member_surfaces(X)
        service = RiskMapService(predictor)
        for effort in np.linspace(0.1, 6.0, 20):
            service.risk_map(X, effort=float(effort))
        service.effort_response(X, GRID)
        assert service.cache_info()["misses"] == 21
        members = service.member_cache_info()
        assert members["misses"] == 1 and members["hits"] == 20
        assert service.resilience_info()["fanouts"] == one_pass.fanouts

    def test_keyed_by_feature_content(self, member_models, park_split):
        """A token re-registered to new features must not reuse the old
        pass; an equal-content copy of the old features must."""
        predictor = member_models["GPB-iW"]
        old = park_split.test.feature_matrix
        new = old[::-1].copy()
        service = RiskMapService(predictor)
        token = service.register_features("park", old)
        service.risk_map(token, effort=1.0)
        service.register_features("park", new)
        expected = predictor.predict_proba(new, effort=2.0)
        assert not np.array_equal(expected, predictor.predict_proba(old, effort=2.0))
        np.testing.assert_array_equal(service.risk_map(token, effort=2.0), expected)
        np.testing.assert_array_equal(
            service.risk_map(old.copy(), effort=3.0),
            predictor.predict_proba(old, effort=3.0),
        )
        members = service.member_cache_info()
        assert members["misses"] == 2 and members["hits"] == 1

    def test_zero_capacity_caches_nothing(self, member_models, park_split):
        service = RiskMapService(member_models["DTB-iW"], max_entries=0)
        X = park_split.test.feature_matrix
        service.risk_map(X, effort=1.0)
        service.risk_map(X, effort=2.0)
        members = service.member_cache_info()
        assert members["misses"] == 2 and members["entries"] == 0

    def test_deadline_overrun_caches_no_pass(self, member_models, park_split):
        service = RiskMapService(member_models["GPB-iW"])
        X = park_split.test.feature_matrix
        with pytest.raises(DeadlineExceededError):
            service.risk_map(X, effort=1.0, deadline=1e-9)
        assert service.member_cache_info()["entries"] == 0
        assert service.cache_info()["entries"] == 0

    @pytest.mark.parametrize("effort", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_nonfinite_or_negative_effort(
        self, member_models, park_split, effort
    ):
        predictor = member_models["GPB-iW"]
        X = park_split.test.feature_matrix
        with pytest.raises(ConfigurationError, match="effort"):
            RiskMapService(predictor).risk_map(X, effort=effort)
        with pytest.raises(ConfigurationError, match="effort"):
            predictor.mix_effort(predictor.member_surfaces(X), effort)

    def test_rejects_nonfinite_grid(self, member_models, park_split):
        predictor = member_models["GPB-iW"]
        X = park_split.test.feature_matrix
        grid = np.array([0.0, 1.0, np.inf])
        with pytest.raises(ConfigurationError, match="finite"):
            RiskMapService(predictor).effort_response(X, grid)
        with pytest.raises(ConfigurationError, match="finite"):
            predictor.effort_response(X, np.array([0.0, np.nan]))
