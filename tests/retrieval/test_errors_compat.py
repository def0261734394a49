"""The errors consolidation and the service constructor: module import
paths alias the canonical ``repro.errors`` classes, and a service is
built only from a :class:`ServiceConfig` (the pre-config kwargs are
gone)."""

import pytest

import repro.errors as errors
import repro.retrieval as retrieval
import repro.retrieval.nodes as nodes
import repro.retrieval.service as service_module
from repro.retrieval.config import ServiceConfig
from repro.retrieval.service import RetrievalService


class TestErrorAliases:
    def test_service_module_aliases_canonical_errors(self):
        assert service_module.QueryBudgetExceeded is errors.QueryBudgetExceeded
        assert service_module.RetrievalUnavailable is errors.RetrievalUnavailable

    def test_nodes_module_aliases_canonical_errors(self):
        assert nodes.NodeDownError is errors.NodeDownError
        assert nodes.DeadlineExceeded is errors.DeadlineExceeded
        assert nodes.RetrievalUnavailable is errors.RetrievalUnavailable

    def test_package_reexports_canonical_errors(self):
        for name in ("DeadlineExceeded", "NodeDownError",
                     "QueryBudgetExceeded", "RetrievalError",
                     "RetrievalUnavailable"):
            assert getattr(retrieval, name) is getattr(errors, name), name

    def test_hierarchy_is_catchable_at_every_level(self):
        # Callers written against any era of the API keep catching.
        assert issubclass(errors.QueryBudgetExceeded, errors.RetrievalError)
        assert issubclass(errors.NodeDownError, errors.RetrievalError)
        assert issubclass(errors.DeadlineExceeded,
                          errors.RetrievalUnavailable)
        assert issubclass(errors.RetrievalError, errors.ReproError)
        assert issubclass(errors.ReproError, RuntimeError)


class TestLegacyServiceConstructor:
    def test_pre_config_kwargs_are_rejected(self):
        for kwargs in ({"m": 3}, {"query_budget": 5},
                       {"preprocessor": None}, {"quantize_queries": True}):
            with pytest.raises(TypeError):
                RetrievalService(object(), **kwargs)

    def test_config_path_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            service = RetrievalService(object(),
                                       config=ServiceConfig(m=6))
        assert service.m == 6

    def test_build_rejects_unknown_override(self):
        with pytest.raises(TypeError, match="unknown ServiceConfig"):
            RetrievalService.build(object(), nonsense=1)
