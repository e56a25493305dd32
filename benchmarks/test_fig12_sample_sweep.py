"""Benchmark regenerating Fig. 12: Swiftiles error vs. the sample budget k."""

from repro.experiments import fig12


def test_fig12_sample_sweep(benchmark, context, run_once):
    result = run_once(benchmark, fig12.run, context)
    print("\n" + fig12.format_result(result))
    assert result.k_values[0] == 0
    mae_at = dict(zip(result.k_values, result.mae_values))
    # Sampling helps: a moderate sample budget beats no sampling at all, and
    # is close to the fully-sampled error (diminishing returns, Fig. 12).
    assert mae_at[10] <= mae_at[0]
    assert mae_at[50] <= mae_at[1] + 1e-9
    assert mae_at[10] <= result.full_sampling_mae + 0.05
