"""The defaults every experiment's setup starts from, set in code only."""

from repro.attacks.config import AttackConfig
from repro.attacks.registry import DEFAULT_STRATEGY
from repro.perf import EmbeddingCache, gemm_conv
from repro.qa.world import tiny_extractor
from repro.retrieval import RetrievalEngine, ShardedGallery
from repro.serving import ServingConfig


def test_config_defaults():
    serving = ServingConfig()
    assert (serving.max_batch_size, serving.workers) == (8, 1)
    assert ShardedGallery().index_tier == "exact"
    engine = RetrievalEngine(tiny_extractor(3), num_nodes=2)
    assert engine.index_tier == "exact"
    assert engine.embedding_cache.capacity == EmbeddingCache().capacity == 256
    assert gemm_conv.MAX_PLANS == 64
    assert AttackConfig().strategy == DEFAULT_STRATEGY == "duo"
