"""Tier selection wiring: registry, gallery/service plumbing, and the
end-to-end DUO attack against a compressed tier."""

import numpy as np
import pytest

from repro.hashindex import BinaryHashIndex, IVFPQIndex
from repro.hashindex.tiers import INDEX_TIERS, resolve_index_tier
from repro.qa.generators import draw_clustered_gallery
from repro.qa.pairs import _qa_priors, duo_query_attack
from repro.qa.world import build_world
from repro.retrieval import FeatureIndex, RetrievalEngine, ShardedGallery
from repro.retrieval.config import ServiceConfig
from repro.retrieval.index import FeatureIndex as ExactIndex


class TestRegistry:
    def test_known_tiers(self):
        assert set(INDEX_TIERS) == {"exact", "hamming", "ivfpq"}

    def test_factories_build_the_right_types(self):
        from repro.retrieval.similarity import negative_l2

        assert isinstance(resolve_index_tier("exact")(negative_l2),
                          FeatureIndex)
        assert isinstance(resolve_index_tier("hamming")(negative_l2),
                          BinaryHashIndex)
        assert isinstance(resolve_index_tier("ivfpq")(negative_l2),
                          IVFPQIndex)

    def test_unknown_tier_raises(self):
        with pytest.raises(KeyError):
            resolve_index_tier("annoy")

    def test_service_config_validates_tier(self):
        assert ServiceConfig(index_tier="ivfpq").index_tier == "ivfpq"
        for value in ("annoy", "ivf"):
            with pytest.raises(KeyError):
                ServiceConfig(index_tier=value)


def _filled_gallery(tier="exact", num_nodes=2, rows=60, dim=12, seed=4):
    rng = np.random.default_rng(seed)
    ids, labels, features = draw_clustered_gallery(rng, rows, dim)
    gallery = ShardedGallery(num_nodes=num_nodes, index_tier=tier)
    gallery.add_batch(ids, labels, features)
    return gallery, features


class TestGalleryWiring:
    def test_constructor_tier_reaches_fresh_gallery(self):
        gallery, _ = _filled_gallery(tier="hamming")
        assert gallery.index_tier == "hamming"
        for node in gallery.nodes:
            assert isinstance(node.index, BinaryHashIndex)

    def test_switch_preserves_rows_and_reranked_results(self):
        gallery, features = _filled_gallery(tier="exact")
        exact_results = gallery.search(features[3], k=5)
        before = sum(len(node.index) for node in gallery.nodes)
        gallery.set_index_tier("hamming")
        assert gallery.index_tier == "hamming"
        assert sum(len(node.index) for node in gallery.nodes) == before
        # Exact rerank means the compressed tier reproduces the exact
        # ranking on this small, well-separated gallery.
        assert gallery.search(features[3], k=5) == exact_results

    def test_switch_to_same_tier_is_noop(self):
        gallery, _ = _filled_gallery(tier="exact")
        nodes_before = [node.index for node in gallery.nodes]
        gallery.set_index_tier("exact")
        assert [node.index for node in gallery.nodes] == nodes_before

    def test_rows_added_after_switch_are_searchable(self):
        gallery, features = _filled_gallery(tier="ivfpq")
        gallery.add("late-row", 42, features[0] + 0.001)
        result = gallery.search(features[0] + 0.001, k=1)
        assert result[0].video_id == "late-row"


class TestServiceWiring:
    def test_service_build_applies_config_tier(self):
        from repro.qa.world import tiny_extractor
        from repro.retrieval.service import RetrievalService

        engine = RetrievalEngine(tiny_extractor(3), num_nodes=2)
        service = RetrievalService.build(engine, m=3, index_tier="hamming")
        assert engine.index_tier == "hamming"
        assert service.config.index_tier == "hamming"
        for node in engine.gallery.nodes:
            assert isinstance(node.index, BinaryHashIndex)

    def test_build_world_tier_switch_preserves_rankings(self):
        """The compressed tiers serve end-to-end through
        RetrievalService + ShardedGallery with exact-rerank parity on
        the tiny qa world."""
        world = build_world(11, cache_size=0)
        query = world.original
        baseline = [e.video_id for e in world.service.query(query)]
        for tier in ("hamming", "ivfpq"):
            world = build_world(11, cache_size=0)
            world.engine.configure_index_tier(tier)
            assert world.engine.index_tier == tier
            assert [e.video_id for e in world.service.query(query)] == baseline


@pytest.mark.parametrize("tier", ["hamming", "ivfpq"])
def test_duo_attack_completes_under_budget_on_compressed_tier(tier):
    """A DUO query-stage attack against the
    compressed tier completes under the same query budget the exact
    tier needs (the rerank stage returns exact scores, so the attack
    loop sees the same objective landscape)."""
    def run(selected_tier, budget):
        world = build_world(11, cache_size=0, query_budget=budget)
        world.engine.configure_index_tier(selected_tier)
        priors = _qa_priors(world.original.pixels.shape, 20)
        report = duo_query_attack(priors, 2, world.service,
                                  16).run(world.original, world.target)
        return report.adversarial, report.trace, world.service.query_count

    _, _, exact_queries = run("exact", budget=None)
    adversarial, trace, used = run(tier, budget=exact_queries)
    assert used <= exact_queries
    assert len(trace) > 0
    assert adversarial.pixels.shape == (8, 16, 16, 3) or \
        adversarial.pixels.ndim == 4
