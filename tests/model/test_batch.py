"""Differential tests: the batched grid evaluator vs. the per-point engine.

The batch engine (:mod:`repro.model.batch`) promises *bit-identical* reports
to ``AnalyticalEngine.evaluate`` — not merely within tolerance — so every
comparison here uses exact ``==`` on floats.  The acceptance bar of the PR
(agreement to 1e-9) is implied.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator.config import ArchitectureConfig, scaled_default_config
from repro.accelerator.extensor import AcceleratorVariant, ExTensorModel
from repro.model.batch import BatchWorkloadEvaluator
from repro.model.workload import WorkloadDescriptor
from repro.tensor.kernels import kernel_names
from repro.tensor.suite import synth_suite


def golden_reports(workload, architecture, overbooking_target):
    """The per-point engine's reports for one grid cell (the reference)."""
    variants = [
        AcceleratorVariant.naive(),
        AcceleratorVariant.prescient(),
        AcceleratorVariant.overbooking(overbooking_target=overbooking_target),
    ]
    model = ExTensorModel(architecture=architecture, variants=variants)
    return model.evaluate_workload(workload)


def assert_reports_match(got, want, context=""):
    """Exact equality, itemized first so failures name the diverging field."""
    assert list(got) == list(want), context
    for name in want:
        g, w = got[name], want[name]
        assert g.cycles == w.cycles, (context, name, "cycles")
        assert g.bound == w.bound, (context, name, "bound")
        assert g.energy.as_dict() == w.energy.as_dict(), (context, name, "energy")
        for level in ("dram", "global_buffer"):
            g_level = getattr(g.traffic, level)
            w_level = getattr(w.traffic, level)
            for field in ("stationary_reads", "stationary_baseline",
                          "streaming_reads", "output_writes"):
                assert getattr(g_level, field) == getattr(w_level, field), \
                    (context, name, level, field)
        assert g.details == w.details, (context, name, "details")
        # Full dataclass equality sweeps up every remaining field.
        assert g == w, (context, name)


def config_grid(base, *, y_values, glb_capacities=None,
                pe_buffer_capacities=None, num_pes=None):
    """The cross product of the axes as ``(architecture, y)`` cells; an axis
    left ``None`` stays at the base architecture's value."""
    return [(base.with_overrides(glb_capacity_words=glb,
                                 pe_buffer_capacity_words=pe, num_pes=pes),
             float(y))
            for glb in glb_capacities or (base.glb_capacity_words,)
            for pe in pe_buffer_capacities or (base.pe_buffer_capacity_words,)
            for pes in num_pes or (base.num_pes,)
            for y in y_values]


SMALL_GRID = dict(
    y_values=(0.05, 0.10, 0.22),
    glb_capacities=(2048, 8192),
    pe_buffer_capacities=(128, 256),
    num_pes=(4, 16, 64),
)


class TestDifferentialAgainstEngine:
    @pytest.mark.parametrize("kernel", kernel_names())
    def test_matches_engine_across_kernels(self, test_suite, kernel):
        configs = config_grid(scaled_default_config(), **SMALL_GRID)
        for name in test_suite.names:
            workload = WorkloadDescriptor.from_suite(test_suite, name,
                                                     kernel=kernel)
            batched = BatchWorkloadEvaluator(workload).prime(configs)
            for (architecture, y), got in zip(configs, batched):
                want = golden_reports(workload, architecture, y)
                assert_reports_match(got, want, f"{kernel}/{name}/y={y}")

    def test_matches_engine_on_synth_models(self):
        suite = synth_suite([
            "uniform:n=200,nnz=2400",
            "power_law_rows:n=220,nnz=2600,alpha=1.7",
            "banded:n=240,bandwidth=10",
        ])
        configs = config_grid(scaled_default_config(),
                              y_values=(0.10, 0.30),
                              glb_capacities=(4096,),
                              pe_buffer_capacities=(256,),
                              num_pes=(16, 128))
        for name in suite.names:
            workload = WorkloadDescriptor.from_suite(suite, name)
            batched = BatchWorkloadEvaluator(workload).prime(configs)
            for (architecture, y), got in zip(configs, batched):
                want = golden_reports(workload, architecture, y)
                assert_reports_match(got, want, f"synth/{name}/y={y}")

    def test_unprimed_single_cell_matches(self, test_suite):
        workload = WorkloadDescriptor.from_suite(test_suite,
                                                 test_suite.names[0])
        evaluator = BatchWorkloadEvaluator(workload)
        architecture = scaled_default_config().with_overrides(num_pes=32)
        got = evaluator.reports(architecture, 0.17)
        want = golden_reports(workload, architecture, 0.17)
        assert_reports_match(got, want, "unprimed")

    def test_variant_key_order_matches_model(self, test_suite):
        workload = WorkloadDescriptor.from_suite(test_suite,
                                                 test_suite.names[1])
        architecture = scaled_default_config()
        got = BatchWorkloadEvaluator(workload).reports(architecture, 0.10)
        want = ExTensorModel(architecture=architecture).evaluate_workload(
            workload)
        assert list(got) == list(want)

    def test_shared_y_axis_dedups_naive_and_prescient(self, test_suite):
        workload = WorkloadDescriptor.from_suite(test_suite,
                                                 test_suite.names[0])
        evaluator = BatchWorkloadEvaluator(workload)
        architecture = scaled_default_config()
        low, high = evaluator.prime([(architecture, 0.05),
                                     (architecture, 0.30)])
        naive = AcceleratorVariant.naive().name
        prescient = AcceleratorVariant.prescient().name
        # Same objects, not merely equal: within one prime call the y axis
        # shares one evaluation.
        assert low[naive] is high[naive]
        assert low[prescient] is high[prescient]
        assert low[AcceleratorVariant.overbooking(
            overbooking_target=0.05).name] is not high[
                AcceleratorVariant.overbooking(overbooking_target=0.30).name]

    def test_prime_returns_reports_aligned_with_configs(self, test_suite):
        workload = WorkloadDescriptor.from_suite(test_suite,
                                                 test_suite.names[0])
        configs = config_grid(scaled_default_config(), y_values=(0.22, 0.05),
                              num_pes=(64, 4))
        configs.append(configs[0])  # a repeated cell keeps its slot
        got = BatchWorkloadEvaluator(workload).prime(configs)
        assert len(got) == len(configs)
        for (architecture, y), reports in zip(configs, got):
            assert_reports_match(reports,
                                 golden_reports(workload, architecture, y),
                                 f"aligned/y={y}")


class TestRandomGrids:
    """Hypothesis: any random grid agrees with the per-point engine."""

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_random_grid_matches_engine(self, data):
        y_values = data.draw(st.lists(
            st.floats(min_value=0.01, max_value=0.45),
            min_size=1, max_size=3), label="y_values")
        glb = data.draw(st.lists(st.integers(min_value=256, max_value=16384),
                                 min_size=1, max_size=2, unique=True),
                        label="glb_capacities")
        pe = data.draw(st.lists(st.integers(min_value=32, max_value=1024),
                                min_size=1, max_size=2, unique=True),
                       label="pe_buffer_capacities")
        pes = data.draw(st.lists(st.integers(min_value=1, max_value=512),
                                 min_size=1, max_size=2, unique=True),
                        label="num_pes")

        from repro.tensor.generators import banded_matrix

        matrix = banded_matrix(180, bandwidth=7, band_fill=0.75,
                               off_band_nnz=250, rng=11, name="hyp-banded")
        workload = WorkloadDescriptor.gram(matrix)
        configs = config_grid(scaled_default_config(), y_values=y_values,
                              glb_capacities=glb, pe_buffer_capacities=pe,
                              num_pes=pes)
        batched = BatchWorkloadEvaluator(workload).prime(configs)
        # Aligned with the configs (duplicated y values included), and every
        # cell bit-identical to the golden engine.
        assert len(batched) == len(configs)
        for (architecture, y), got in zip(configs, batched):
            want = golden_reports(workload, architecture, y)
            assert_reports_match(got, want, f"hyp/y={y}")


class TestArchitectureHashCache:
    def test_hash_stable_and_consistent_with_eq(self):
        a = ArchitectureConfig(num_pes=32)
        b = ArchitectureConfig(num_pes=32)
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash(a)  # second call hits the cache

    def test_cached_hash_not_pickled(self):
        import pickle

        a = ArchitectureConfig(num_pes=32)
        hash(a)  # populate the cache
        assert "_hash" in a.__dict__
        restored = pickle.loads(pickle.dumps(a))
        assert "_hash" not in restored.__dict__
        assert restored == a and hash(restored) == hash(a)
