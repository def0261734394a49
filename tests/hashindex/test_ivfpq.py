"""Product quantization, ADC tables, and the IVF-PQ index."""

import dataclasses

import numpy as np
import pytest

from repro.hashindex import IVFPQIndex, MemmapStore, ProductQuantizer
from repro.qa.generators import draw_clustered_gallery
from repro.retrieval import FeatureIndex


def _gallery(seed=0, rows=120, dim=16):
    rng = np.random.default_rng(seed)
    ids, labels, features = draw_clustered_gallery(rng, rows, dim)
    return ids, labels, features, rng


class TestProductQuantizer:
    def test_codes_are_uint8_per_subvector(self, rng):
        matrix = rng.normal(size=(60, 16))
        pq = ProductQuantizer(num_subvectors=4, ksub=16, rng=0).fit(matrix)
        codes = pq.encode(matrix)
        assert codes.dtype == np.uint8
        assert codes.shape == (60, 4)

    def test_adc_matches_reconstruction_distance(self, rng):
        """ADC lookup distances equal ‖query − reconstruction‖² computed
        the long way through the codebooks."""
        matrix = rng.normal(size=(80, 12))
        pq = ProductQuantizer(num_subvectors=3, ksub=8, rng=1).fit(matrix)
        codes = pq.encode(matrix)
        query = rng.normal(size=12)
        via_table = pq.adc_distances(pq.adc_table(query), codes)
        reconstructed = np.concatenate(
            [pq.codebooks[m, codes[:, m]] for m in range(3)], axis=1)
        direct = ((query[None, :] - reconstructed) ** 2).sum(axis=1)
        np.testing.assert_allclose(via_table, direct, rtol=1e-10, atol=1e-10)

    def test_pads_non_divisible_dims(self, rng):
        matrix = rng.normal(size=(40, 10))  # 10 not divisible by 4
        pq = ProductQuantizer(num_subvectors=4, ksub=8, rng=0).fit(matrix)
        codes = pq.encode(matrix)
        assert codes.shape == (40, 4)
        # Encoding a second time is stable (no state mutation).
        np.testing.assert_array_equal(codes, pq.encode(matrix))

    def test_self_encoding_is_nearest(self, rng):
        """Tight clusters encode to codewords whose ADC distance to the
        cluster's own members is smaller than to other clusters."""
        near = rng.normal(scale=0.05, size=(30, 8))
        far = 10.0 + rng.normal(scale=0.05, size=(30, 8))
        matrix = np.concatenate([near, far])
        pq = ProductQuantizer(num_subvectors=2, ksub=4, rng=0).fit(matrix)
        codes = pq.encode(matrix)
        distances = pq.adc_distances(pq.adc_table(near[0]), codes)
        assert distances[:30].max() < distances[30:].min()

    def test_unfit_raises(self, rng):
        pq = ProductQuantizer(num_subvectors=2, ksub=4)
        with pytest.raises(RuntimeError):
            pq.encode(rng.normal(size=(4, 8)))


class TestIVFPQIndex:
    def test_recall_floor_on_clustered_gallery(self):
        ids, labels, features, rng = _gallery(rows=150, dim=16)
        index = IVFPQIndex(num_cells=8, nprobe=4, num_subvectors=8,
                           rerank=48, rng=1)
        index.add_batch(ids, labels, features)
        exact = FeatureIndex()
        exact.add_batch(ids, labels, features)
        anchors = rng.choice(150, size=12, replace=False)
        queries = features[anchors] + 0.05 * rng.normal(size=(12, 16))
        assert index.recall_at_k(exact, queries, k=10) >= 0.9

    def test_recall_monotone_in_nprobe(self):
        ids, labels, features, rng = _gallery(rows=140, dim=12)
        exact = FeatureIndex()
        exact.add_batch(ids, labels, features)
        queries = features[rng.choice(140, size=10, replace=False)]
        recalls = []
        for nprobe in (1, 8):
            index = IVFPQIndex(num_cells=8, nprobe=nprobe,
                               num_subvectors=6, rerank=64, rng=3)
            index.add_batch(ids, labels, features)
            recalls.append(index.recall_at_k(exact, queries, k=10))
        assert recalls[0] <= recalls[1]

    def test_empty_probe_falls_back_to_full_gallery(self):
        """If every probed cell is empty the scan widens to all rows, so
        the rerank contract (k results when the gallery has k rows)
        still holds."""
        ids, labels, features, _ = _gallery(rows=40, dim=8)
        index = IVFPQIndex(num_cells=4, nprobe=4, num_subvectors=4,
                           rerank=16, rng=2)
        index.add_batch(ids, labels, features)
        built = index.build()
        # Empty every cell of the published build.
        index._builds[built.rows] = dataclasses.replace(
            built, cells=[np.array([], dtype=np.int64) for _ in built.cells])
        result = index.search(features[0], k=5)
        assert len(result) == 5
        assert result[0].video_id == "v0"

    def test_cells_clamp_to_row_count(self):
        ids, labels, features, _ = _gallery(rows=5, dim=8)
        index = IVFPQIndex(num_cells=64, nprobe=4, num_subvectors=4,
                           rerank=8, rng=0)
        index.add_batch(ids, labels, features)
        assert len(index.search(features[2], k=3)) == 3

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            IVFPQIndex(num_cells=0)
        with pytest.raises(ValueError):
            IVFPQIndex(nprobe=0)
        with pytest.raises(ValueError):
            IVFPQIndex(rerank=0)

    def test_memmap_results_match_ram(self, tmp_path):
        ids, labels, features, rng = _gallery(rows=90, dim=16)
        queries = features[:5] + 0.02 * rng.normal(size=(5, 16))
        ram = IVFPQIndex(num_cells=6, nprobe=3, num_subvectors=4,
                         rerank=24, rng=5)
        mapped = IVFPQIndex(num_cells=6, nprobe=3, num_subvectors=4,
                            rerank=24, rng=5, store=MemmapStore(tmp_path))
        ram.add_batch(ids, labels, features)
        mapped.add_batch(ids, labels, features)
        assert mapped.search_batch(queries, k=7) == ram.search_batch(queries, k=7)

    def test_memmap_persists_codes_and_codebooks(self, tmp_path):
        ids, labels, features, _ = _gallery(rows=60, dim=16)
        index = IVFPQIndex(num_cells=4, nprobe=2, num_subvectors=4,
                           rerank=16, rng=0, store=MemmapStore(tmp_path))
        index.add_batch(ids, labels, features)
        index.build()
        assert "pq_codes@60" in index.store
        assert "pq_codebooks@60" in index.store
        assert "exact_features@60" in index.store
        stats = index.memory_stats()
        assert stats["mapped_bytes"] >= stats["float_feature_bytes"]

    def test_memmap_drops_evicted_builds(self, tmp_path):
        """Each watermark's build maps its own arrays; evicting a build
        past ``BUILD_SLOTS`` unmaps them, so ``mapped_bytes`` counts
        exactly the cached builds."""
        from repro.hashindex.base import BUILD_SLOTS

        ids, labels, features, _ = _gallery(rows=60, dim=16)
        index = IVFPQIndex(num_cells=4, nprobe=2, num_subvectors=4,
                           rerank=16, rng=0, store=MemmapStore(tmp_path))
        index.add_batch(ids, labels, features)
        watermarks = [60 - step for step in range(BUILD_SLOTS + 1)]
        for rows in watermarks:
            index.build(rows)
        assert "exact_features@60" not in index.store
        assert not (tmp_path / "exact_features_60.npy").exists()
        cached = [index.build(rows) for rows in watermarks[1:]]
        assert index.store.mapped_bytes == sum(
            built.exact.nbytes + built.codes.nbytes
            + built.quantizer.codebooks.nbytes for built in cached)
