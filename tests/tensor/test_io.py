"""Tests for MatrixMarket persistence."""

import numpy as np
import pytest

from repro.tensor.io import (
    matrix_market_header,
    matrix_market_name,
    read_matrix_market,
    write_matrix_market,
)
from repro.tensor.sparse import SparseMatrix


class TestHeaderOnlyReads:
    def test_dimensions_without_parsing_entries(self, tmp_path, powerlaw):
        path = tmp_path / "graph.mtx"
        write_matrix_market(powerlaw, path)
        assert matrix_market_header(path) == (
            powerlaw.num_rows, powerlaw.num_cols, powerlaw.nnz, False)

    def test_dimensions_through_gzip(self, tmp_path, tiny_dense_matrix):
        path = tmp_path / "tiny.mtx.gz"
        write_matrix_market(tiny_dense_matrix, path)
        assert matrix_market_header(path) == (4, 4, tiny_dense_matrix.nnz, False)

    def test_dimensions_reject_non_matrix_market(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("not a header\n")
        with pytest.raises(ValueError, match="MatrixMarket"):
            matrix_market_header(path)

    def test_name_strips_extensions(self):
        assert matrix_market_name("/data/cage12.mtx.gz") == "cage12"
        assert matrix_market_name("cant.mtx") == "cant"


class TestRoundtrip:
    def test_real_roundtrip(self, tmp_path, tiny_dense_matrix):
        path = tmp_path / "tiny.mtx"
        write_matrix_market(tiny_dense_matrix, path)
        loaded = read_matrix_market(path)
        assert loaded == tiny_dense_matrix

    def test_pattern_roundtrip_keeps_positions(self, tmp_path, tiny_dense_matrix):
        path = tmp_path / "tiny_pattern.mtx"
        write_matrix_market(tiny_dense_matrix, path, pattern=True)
        loaded = read_matrix_market(path)
        assert loaded.nnz == tiny_dense_matrix.nnz
        assert np.all(loaded.values() == 1.0)

    def test_gzip_roundtrip(self, tmp_path, powerlaw):
        path = tmp_path / "graph.mtx.gz"
        write_matrix_market(powerlaw, path)
        loaded = read_matrix_market(path)
        assert loaded == powerlaw

    def test_name_from_filename(self, tmp_path, tiny_dense_matrix):
        path = tmp_path / "workload42.mtx"
        write_matrix_market(tiny_dense_matrix, path)
        assert read_matrix_market(path).name == "workload42"

    def test_explicit_name(self, tmp_path, tiny_dense_matrix):
        path = tmp_path / "x.mtx"
        write_matrix_market(tiny_dense_matrix, path)
        assert read_matrix_market(path, name="custom").name == "custom"


class TestReaderEdgeCases:
    def test_symmetric_matrix_is_mirrored(self, tmp_path):
        path = tmp_path / "sym.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 2\n"
            "2 1 5.0\n"
            "3 3 7.0\n"
        )
        loaded = read_matrix_market(path)
        dense = loaded.to_dense()
        assert dense[1, 0] == 5.0 and dense[0, 1] == 5.0
        assert dense[2, 2] == 7.0
        assert loaded.nnz == 3

    def test_comments_are_skipped(self, tmp_path):
        path = tmp_path / "comments.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment line\n"
            "% another\n"
            "2 2 1\n"
            "1 2 3.5\n"
        )
        loaded = read_matrix_market(path)
        assert loaded.to_dense()[0, 1] == 3.5

    def test_not_matrix_market_raises(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("hello world\n")
        with pytest.raises(ValueError):
            read_matrix_market(path)

    def test_array_format_rejected(self, tmp_path):
        path = tmp_path / "arr.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
        with pytest.raises(ValueError):
            read_matrix_market(path)

    def test_truncated_file_raises(self, tmp_path):
        path = tmp_path / "trunc.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 5\n"
            "1 1 1.0\n"
        )
        with pytest.raises(ValueError):
            read_matrix_market(path)

    def test_pattern_file_values_default_to_one(self, tmp_path):
        path = tmp_path / "pat.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 3 2\n"
            "1 1\n"
            "2 3\n"
        )
        loaded = read_matrix_market(path)
        assert loaded.csr.shape == (2, 3)
        assert np.all(loaded.values() == 1.0)
