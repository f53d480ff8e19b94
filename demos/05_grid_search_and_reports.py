"""Pick hyperparameters with stratified cross-validation, then score the pick.

The grid is the cartesian product of feature reductions and model
hyperparameters; every cell is scored with k-fold accuracy where the
reduction is refit inside each fold so no test statistics leak in.
"""

from wlclass.model_selection import (
    GridSpec,
    ReductionSpec,
    evaluate_pipeline,
    format_report,
    grid_search,
)
from wlclass.synth import default_4_class_spec, generate_corpus
from wlclass.windowing import WindowPolicy, build_challenge_dataset

dataset = build_challenge_dataset(
    generate_corpus(default_4_class_spec(seed=21, jobs_per_class=15), threads=2),
    WindowPolicy("middle", length=540),
    split_ratio=0.8,
    split_seed=0,
)

spec = GridSpec(
    "rf",
    {"n_trees": [25, 100]},
    reduction_grid=(ReductionSpec("cov"), ReductionSpec("pca", k=16)),
    folds=5,
    seed=0,
)
result = grid_search(dataset.x_train, dataset.y_train, spec)

print("cross-validated accuracy per cell:")
for index, cell in enumerate(result.cells):
    marker = " <- selected" if index == result.best_cell else ""
    print(f"  {cell.describe():<20} {100 * result.mean_accuracy[index]:6.2f}% "
          f"(+/- {100 * result.std_accuracy[index]:.2f}){marker}")

# the winning cell was refit on the full training split; score it honestly
report = evaluate_pipeline(result.pipeline, dataset.x_test, dataset.y_test,
                           dataset.model_train, dataset_id="demo:test")
print()
print(format_report(report))
