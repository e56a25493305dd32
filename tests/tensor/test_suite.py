"""Tests for the synthetic evaluation workload suite."""

import pytest

from repro.tensor.suite import WorkloadSuite, default_suite, small_suite


class TestDefaultSuite:
    def test_has_22_workloads(self):
        assert len(default_suite()) == 22

    def test_names_match_table2(self):
        names = default_suite().names
        assert names[0] == "rma10"
        assert names[-1] == "roadNet-CA"
        assert "amazon0312" in names and "web-Google" in names

    def test_categories(self):
        suite = default_suite()
        linear = [s for s in suite if s.category == "linear-system"]
        graph = [s for s in suite if s.category == "graph"]
        assert len(linear) == 9
        assert len(graph) == 13

    def test_specs_have_paper_metadata(self):
        for spec in default_suite():
            assert spec.paper_rows > 1000
            assert 0.99 < spec.paper_sparsity < 1.0

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            default_suite().matrix("not-a-workload")

    def test_contains(self):
        suite = default_suite()
        assert "rma10" in suite
        assert "nope" not in suite


class TestSmallSuite:
    def test_has_three_workloads(self, test_suite):
        assert len(test_suite) == 3

    def test_matrices_are_sparse(self, test_suite):
        for name in test_suite.names:
            matrix = test_suite.matrix(name)
            assert matrix.sparsity > 0.9
            assert matrix.nnz > 0

    def test_matrix_is_cached(self, test_suite):
        assert test_suite.matrix("tiny-fem") is test_suite.matrix("tiny-fem")

    def test_deterministic_across_instances(self):
        a = small_suite().matrix("tiny-social")
        b = small_suite().matrix("tiny-social")
        assert a == b

    def test_matrices_builds_all(self, test_suite):
        matrices = test_suite.matrices()
        assert set(matrices) == set(test_suite.names)

    def test_spec_lookup(self, test_suite):
        spec = test_suite.spec("tiny-road")
        assert spec.category == "graph"


class TestSuiteMechanics:
    def test_duplicate_names_rejected(self, test_suite):
        specs = [test_suite.spec("tiny-fem"), test_suite.spec("tiny-fem")]
        with pytest.raises(ValueError):
            WorkloadSuite(specs)

    def test_subset_preserves_matrices(self, test_suite):
        subset = test_suite.subset(["tiny-fem"])
        assert subset.names == ["tiny-fem"]
        assert subset.matrix("tiny-fem") == test_suite.matrix("tiny-fem")

    def test_subset_unknown_name_raises(self, test_suite):
        with pytest.raises(KeyError):
            test_suite.subset(["missing"])

    def test_different_seed_changes_matrices(self):
        a = small_suite(seed=1).matrix("tiny-social")
        b = small_suite(seed=2).matrix("tiny-social")
        assert a != b


class TestPairedOperands:
    def test_paired_matrix_differs_from_primary(self, test_suite):
        primary = test_suite.matrix("tiny-social")
        pair = test_suite.paired_matrix("tiny-social")
        assert pair.csr.shape == primary.csr.shape  # same structure class
        assert pair != primary                      # different instance

    def test_paired_matrix_deterministic_across_instances(self):
        a = small_suite().paired_matrix("tiny-fem")
        b = small_suite().paired_matrix("tiny-fem")
        assert (a.csr != b.csr).nnz == 0

    def test_paired_matrix_cached(self, test_suite):
        assert test_suite.paired_matrix("tiny-road") is \
            test_suite.paired_matrix("tiny-road")

    def test_paired_matrix_unknown_name_raises(self, test_suite):
        with pytest.raises(KeyError):
            test_suite.paired_matrix("missing")

    def test_subset_carries_pairs_over(self, test_suite):
        pair = test_suite.paired_matrix("tiny-fem")
        subset = test_suite.subset(["tiny-fem"])
        assert subset.paired_matrix("tiny-fem") is pair

    def test_explicit_b_builder_wins(self, test_suite):
        from dataclasses import replace

        import scipy.sparse as sp

        from repro.tensor.sparse import SparseMatrix

        other = SparseMatrix(sp.identity(600), name="explicit-b")
        spec = replace(test_suite.spec("tiny-fem"),
                       b_builder=lambda rng: other)
        suite = WorkloadSuite([spec], seed=test_suite.seed)
        assert suite.paired_matrix("tiny-fem") is other

    def test_stream_index_matches_position(self, test_suite):
        assert [test_suite.stream_index(n) for n in test_suite.names] == [0, 1, 2]
        with pytest.raises(KeyError):
            test_suite.stream_index("missing")


class TestStreamDeterminism:
    """Regression guards for the per-workload stream derivation.

    A workload's matrix stream is ``default_rng(seed * 1_000_003 + stream
    index)`` and its pair stream the same at ``+ _PAIR_STREAM_OFFSET`` — both
    pure functions of ``(suite seed, stream index)``.  Subsets and re-ordered
    suites carry their parent's indices, so every stream must survive both.
    """

    def test_matrix_stream_derivation_is_pinned(self, test_suite):
        import numpy as np

        for name in test_suite.names:
            index = test_suite.stream_index(name)
            stream = np.random.default_rng(
                test_suite.seed * 1_000_003 + index)
            expected = test_suite.spec(name).build(stream)
            assert test_suite.matrix(name) == expected

    def test_pair_stream_derivation_is_pinned(self):
        import numpy as np

        from repro.tensor.suite import _PAIR_STREAM_OFFSET

        suite = small_suite()
        name = suite.names[1]
        stream = np.random.default_rng(
            suite.seed * 1_000_003 + _PAIR_STREAM_OFFSET
            + suite.stream_index(name))
        assert suite.paired_matrix(name) == suite.spec(name).build_pair(stream)

    def test_lazy_subset_rebuilds_identical_matrices(self):
        # The subset is taken BEFORE anything is built, so it cannot carry
        # cached matrices — it must re-derive the parent's streams.
        parent = small_suite()
        subset = small_suite().subset(["tiny-road", "tiny-fem"])
        for name in subset.names:
            assert subset.matrix(name) == parent.matrix(name)
            assert subset.paired_matrix(name) == parent.paired_matrix(name)

    def test_reordered_subset_preserves_streams(self):
        parent = small_suite()
        reordered = small_suite().subset(list(reversed(parent.names)))
        assert reordered.names == list(reversed(parent.names))
        for name in parent.names:
            assert reordered.stream_index(name) == parent.stream_index(name)
            assert reordered.matrix(name) == parent.matrix(name)

    def test_subset_of_subset_preserves_streams(self):
        parent = small_suite()
        nested = small_suite().subset(["tiny-social", "tiny-road"]) \
            .subset(["tiny-road"])
        assert nested.stream_index("tiny-road") == \
            parent.stream_index("tiny-road")
        assert nested.matrix("tiny-road") == parent.matrix("tiny-road")

    def test_subset_descriptors_match_full_suite(self):
        # End to end: every kernel's operands and counts built from a subset
        # equal the full suite's.
        from repro.model.workload import WorkloadDescriptor
        from repro.tensor.kernels import kernel_names

        for kernel in kernel_names():
            full = WorkloadDescriptor.from_suite(
                small_suite(), "tiny-social", kernel=kernel)
            sub = WorkloadDescriptor.from_suite(
                small_suite().subset(["tiny-social"]), "tiny-social",
                kernel=kernel)
            assert sub.a == full.a
            assert (sub.b.num_rows, sub.b.num_cols, sub.b.nnz) == \
                (full.b.num_rows, full.b.num_cols, full.b.nnz)
            assert sub.operation_counts == full.operation_counts

    def test_synth_subset_preserves_streams(self):
        from repro.tensor.suite import synth_suite

        specs = ["uniform:n=120,nnz=700", "banded:n=130"]
        parent = synth_suite(specs)
        subset = synth_suite(specs).subset([parent.names[1]])
        assert subset.matrix(parent.names[1]) == parent.matrix(parent.names[1])

    def test_explicit_stream_indices_override_positions(self):
        suite = small_suite()
        shifted = WorkloadSuite(
            [suite.spec(n) for n in suite.names], seed=suite.seed,
            stream_indices={"tiny-fem": 2, "tiny-road": 0})
        # tiny-fem now draws tiny-road's original stream and vice versa;
        # tiny-social (index 1) is untouched.
        assert shifted.matrix("tiny-social") == suite.matrix("tiny-social")
        assert shifted.matrix("tiny-fem") != suite.matrix("tiny-fem")

    def test_stream_indices_for_unknown_workload_rejected(self, test_suite):
        with pytest.raises(KeyError, match="unknown workloads"):
            WorkloadSuite([test_suite.spec("tiny-fem")],
                          stream_indices={"missing": 3})
