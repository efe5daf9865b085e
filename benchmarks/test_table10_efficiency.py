"""Table 10: computational efficiency (run time per batch of 100 blocks).

Paper claims:
* On the GPU, GRANITE's training and inference are ~3x faster per batch than
  Ithemal's; on a CPU, GRANITE inference is ~27 % *slower* (the graph ops do
  not benefit from the GPU's parallelism there).  This reproduction runs on
  CPU only, so the absolute ordering of the families is reported but not
  asserted.
* The overhead of multi-task heads is negligible: the training cost per
  microarchitecture of a three-headed model is roughly one third of training
  three single-task models.  This claim is asserted.
"""


from repro.eval import paper_reference as paper
from repro.eval.timing import format_table10, table10_timings

from conftest import format_paper_comparison


def test_table10_per_batch_runtime(benchmark, quick_scale):
    timings = benchmark.pedantic(
        lambda: table10_timings(quick_scale, batch_size=100, num_blocks=300),
        rounds=1,
        iterations=1,
    )

    print()
    print(format_table10(timings))
    rows = [
        (
            "granite multi-task train s/batch",
            timings["granite_multi"].training_seconds_per_batch,
            paper.TABLE10_RUNTIME_SECONDS[("granite_multi", "gpu_training")],
        ),
        (
            "ithemal+ multi-task train s/batch",
            timings["ithemal+_multi"].training_seconds_per_batch,
            paper.TABLE10_RUNTIME_SECONDS[("ithemal+_multi", "gpu_training")],
        ),
        (
            "granite multi-task infer s/batch",
            timings["granite_multi"].inference_seconds_per_batch,
            paper.TABLE10_RUNTIME_SECONDS[("granite_multi", "gpu_inference")],
        ),
        (
            "ithemal+ multi-task infer s/batch",
            timings["ithemal+_multi"].inference_seconds_per_batch,
            paper.TABLE10_RUNTIME_SECONDS[("ithemal+_multi", "gpu_inference")],
        ),
    ]
    print(format_paper_comparison("Table 10 — seconds per batch of 100 blocks", rows))

    # Sanity: inference is cheaper than training for every configuration.
    for name, timing in timings.items():
        assert timing.inference_seconds_per_batch < timing.training_seconds_per_batch, name

    # Paper shape: adding multi-task heads costs little — the three-headed
    # model's per-batch time is far below 3x the single-task time, so the
    # *per-microarchitecture* cost drops to roughly a third.
    for family in ("granite", "ithemal+"):
        single = timings[f"{family}_single"].training_seconds_per_batch
        multi = timings[f"{family}_multi"].training_seconds_per_batch
        per_task_ratio = (multi / 3.0) / single
        print(f"{family}: multi-task per-microarchitecture cost = {per_task_ratio:.2f}x single-task")
        assert multi < 2.0 * single
        assert per_task_ratio < 0.67
