"""Figure 8(b): offline pre-training cost vs number of meta-tasks |TM|.

Paper shape: both meta-task generation time and meta-training time grow
linearly with |TM|, and the cost is essentially independent of the dataset
size (CAR is half of SDSS but trains only ~12% faster).

On top of the paper's figure, this bench reports the adapted-evaluation
pass (``Eval``), which rides the same stacked executors as training.
"""

import time

import pytest

from repro.bench import build_lte, print_series
from repro.core.meta_training import MetaHyperParams, MetaTrainer

TASK_COUNTS = (20, 40, 80, 160)


def _trainer(state):
    return MetaTrainer(
        ku=state.summary.ku, input_width=state.preprocessor.width,
        params=MetaHyperParams(epochs=1, local_steps=5, pretrain_epochs=1),
        seed=0)


def _stage_times(lte, n_tasks):
    state = lte.states[list(lte.states)[0]]
    start = time.perf_counter()
    tasks = state.task_generator.generate(n_tasks)
    generate_s = time.perf_counter() - start

    trainer = _trainer(state)
    start = time.perf_counter()
    trainer.train(tasks, state.encode_scaled)
    train_s = time.perf_counter() - start

    eval_tasks = tasks[:min(len(tasks), 20)]
    start = time.perf_counter()
    trainer.evaluate(eval_tasks, state.encode_scaled)
    eval_s = time.perf_counter() - start
    return generate_s, train_s, eval_s


@pytest.mark.benchmark(group="fig8b")
def test_fig8b_pretraining_cost(benchmark, scale, report):
    def run():
        series = {"Generate(CAR)": [], "Train(CAR)": [],
                  "Generate(SDSS)": [], "Train(SDSS)": [],
                  "Eval(SDSS)": []}
        for dataset in ("car", "sdss"):
            lte = build_lte(dataset, budget=30, scale=scale, train=False)
            for n_tasks in TASK_COUNTS:
                gen_s, train_s, eval_s = _stage_times(lte, n_tasks)
                name = dataset.upper()
                series["Generate({})".format(name)].append(gen_s)
                series["Train({})".format(name)].append(train_s)
                if dataset == "sdss":
                    series["Eval(SDSS)"].append(eval_s)
        return series

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    with report():
        print_series("Figure 8(b): pre-training cost vs |TM| (seconds)",
                     "|TM|", list(TASK_COUNTS), series)

    # Roughly linear growth: 8x tasks costs less than ~24x time (very loose
    # to absorb scheduler noise) and more than 2x.
    for name in ("Train(CAR)", "Train(SDSS)"):
        ratio = series[name][-1] / max(series[name][0], 1e-9)
        assert 1.5 < ratio < 24.0
    # Cost is driven by |TM|, not dataset size: SDSS (2x rows) within 3x of
    # CAR's training time at the largest task count.
    assert series["Train(SDSS)"][-1] < 3.0 * series["Train(CAR)"][-1] + 1.0
