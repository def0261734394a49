"""The PR's API redesign: configs, build(), Index protocol, errors."""

import warnings

import numpy as np
import pytest

import repro.errors as errors
from repro.resilience import ResilienceConfig, RetryPolicy
from repro.retrieval import (
    DataNode,
    FeatureIndex,
    Index,
    IVFIndex,
    RetrievalService,
    ServiceConfig,
    ShardedGallery,
)

from tests.resilience.conftest import build_service, make_videos


@pytest.fixture
def engine():
    return build_service(num_nodes=2, gallery_size=8).engine


class TestServiceConfig:
    def test_defaults(self):
        config = ServiceConfig()
        assert config.m == 10
        assert config.query_budget is None
        assert config.preprocessor is None
        assert config.quantize_queries is False

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(m=0)
        with pytest.raises(ValueError):
            ServiceConfig(query_budget=-1)

    def test_with_returns_modified_copy(self):
        config = ServiceConfig(m=5)
        changed = config.with_(query_budget=100)
        assert changed.m == 5 and changed.query_budget == 100
        assert config.query_budget is None


class TestConstruction:
    def test_build_is_warning_free(self, engine):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            service = RetrievalService.build(engine, m=7, query_budget=50)
        assert service.m == 7
        assert service.query_budget == 50

    def test_bare_init_is_warning_free(self, engine):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            service = RetrievalService(engine)
        assert service.m == 10

    def test_config_init_is_warning_free(self, engine):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            service = RetrievalService(engine, config=ServiceConfig(m=4))
        assert service.m == 4

    def test_legacy_and_config_together_rejected(self, engine):
        with pytest.raises(TypeError):
            RetrievalService(engine, m=3, config=ServiceConfig())

    def test_build_rejects_unknown_fields(self, engine):
        with pytest.raises(TypeError):
            RetrievalService.build(engine, nonsense=1)

    def test_build_layers_overrides_on_config(self, engine):
        service = RetrievalService.build(
            engine, ServiceConfig(m=4, query_budget=9), m=6)
        assert service.m == 6
        assert service.query_budget == 9

    def test_build_installs_resilience(self):
        config = ResilienceConfig(replication=2, retry=RetryPolicy(seed=1))
        service = build_service(num_nodes=2, gallery_size=0)
        engine = service.engine
        rebuilt = RetrievalService.build(engine, resilience=config)
        assert rebuilt.engine.resilience is config
        assert engine.gallery.replication == 2


class TestIndexProtocol:
    def test_all_implementations_conform(self):
        gallery = ShardedGallery(num_nodes=2)
        for implementation in (FeatureIndex(), IVFIndex(),
                               DataNode("node-0"), gallery):
            assert isinstance(implementation, Index), type(implementation)

    def test_signatures_agree(self):
        rng = np.random.default_rng(0)
        features = rng.random((6, 4))
        ids = [f"v{i}" for i in range(6)]
        labels = list(range(6))
        implementations = [FeatureIndex(), IVFIndex(num_cells=2, rng=0),
                           DataNode("node-0"), ShardedGallery(num_nodes=2)]
        for implementation in implementations:
            implementation.add_batch(ids, labels, features)
            assert len(implementation) == 6
            assert sorted(implementation.labels_of()) == labels
            single = implementation.search(features[0], 3)
            assert len(single) == 3
            batch = implementation.search_batch(features[:2], 3)
            assert len(batch) == 2 and len(batch[0]) == 3

    def test_batch_matches_sequential(self):
        rng = np.random.default_rng(1)
        features = rng.random((8, 4))
        ids = [f"v{i}" for i in range(8)]
        labels = list(range(8))
        for implementation in (FeatureIndex(), DataNode("node-0"),
                               ShardedGallery(num_nodes=3)):
            implementation.add_batch(ids, labels, features)
            queries = rng.random((3, 4))
            batch = implementation.search_batch(queries, 4)
            singles = [implementation.search(query, 4) for query in queries]
            assert [[e.video_id for e in entries] for entries in batch] == \
                [[e.video_id for e in entries] for entries in singles]


class TestErrorHierarchy:
    def test_hierarchy(self):
        assert issubclass(errors.QueryBudgetExceeded, errors.RetrievalError)
        assert issubclass(errors.NodeDownError, errors.RetrievalError)
        assert issubclass(errors.RetrievalUnavailable, errors.RetrievalError)
        assert issubclass(errors.DeadlineExceeded,
                          errors.RetrievalUnavailable)
        assert issubclass(errors.RetrievalError, errors.ReproError)
        assert issubclass(errors.ReproError, RuntimeError)

    def test_legacy_import_paths_alias(self):
        from repro.retrieval import NodeDownError, QueryBudgetExceeded
        from repro.retrieval.nodes import NodeDownError as nodes_alias
        from repro.retrieval.service import (
            QueryBudgetExceeded as service_alias,
        )

        assert NodeDownError is errors.NodeDownError
        assert nodes_alias is errors.NodeDownError
        assert QueryBudgetExceeded is errors.QueryBudgetExceeded
        assert service_alias is errors.QueryBudgetExceeded

    def test_catchable_via_base(self):
        with pytest.raises(errors.RetrievalError):
            raise errors.RetrievalUnavailable("down")


class TestResilienceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(replication=0)
        with pytest.raises(ValueError):
            ResilienceConfig(deadline_s=-1.0)
        with pytest.raises(ValueError):
            ResilienceConfig(on_data_loss="explode")

    def test_with_sugar(self):
        config = ResilienceConfig(replication=2)
        changed = config.with_(deadline_s=0.5)
        assert changed.replication == 2
        assert changed.deadline_s == 0.5
        assert config.deadline_s is None
