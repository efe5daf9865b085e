"""Table 8: the effect of multi-task training.

Paper claim: training one model with per-microarchitecture decoder heads is
at least as accurate as training separate single-task models for GRANITE and
Ithemal+ (e.g. GRANITE Ivy Bridge 7.02 % single-task vs 6.67 % multi-task),
while costing roughly one third per microarchitecture.  (Vanilla Ithemal is
the exception — its dot-product decoder is too weak to benefit.)
"""

from repro.data.datasets import TARGET_MICROARCHITECTURES
from repro.eval import paper_reference as paper
from repro.eval import run_experiment
from repro.eval.experiments import TABLE8_ARMS, format_table8, multitask_mape

from conftest import format_paper_comparison

MODEL_NAMES = ("granite", "ithemal+")


def test_table8_multitask_vs_singletask(benchmark, quick_scale):
    results = benchmark.pedantic(
        lambda: run_experiment(TABLE8_ARMS, quick_scale)[quick_scale.seed],
        rounds=1,
        iterations=1,
    )

    print()
    print(format_table8(results))
    rows = []
    for model_name in MODEL_NAMES:
        for microarchitecture in TARGET_MICROARCHITECTURES:
            paper_single, paper_multi = paper.TABLE8_MULTI_TASK_MAPE[model_name][microarchitecture]
            rows.append(
                (
                    f"{model_name}/{microarchitecture} multi-task MAPE",
                    results[model_name].mape(microarchitecture),
                    paper_multi,
                )
            )
    print(format_paper_comparison("Table 8 — multi-task MAPE", rows))

    for model_name in MODEL_NAMES:
        single_average, multi_average = multitask_mape(results, model_name)
        improvement = single_average - multi_average
        print(
            f"{model_name}: single-task mean MAPE {single_average:.3f}, "
            f"multi-task mean MAPE {multi_average:.3f}, improvement {improvement:+.3f}"
        )
        # Paper shape: multi-task training does not hurt — the shared GNN /
        # LSTM learns a representation strong enough to serve all three
        # microarchitectures at once.  (Allow a small tolerance since the
        # quick runs are noisy.)
        assert multi_average <= single_average + 0.06

    # Multi-task GRANITE also keeps its advantage over multi-task Ithemal+.
    granite_multi = results["granite"].average_mape()
    ithemal_multi = results["ithemal+"].average_mape()
    assert granite_multi < ithemal_multi * 1.10
