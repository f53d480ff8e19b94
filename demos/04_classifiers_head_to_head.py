"""Train the three from-scratch classifier families on the same features.

All three consume a plain (rows x features, labels) pair: bootstrap-bagged
gini trees, one-vs-rest SMO support vector machines, and second-order
gradient-boosted regression trees with l1/l2 shrinkage on leaf weights.
"""

import numpy as np

from wlclass.classifiers import predict
from wlclass.classifiers.forest import train_forest
from wlclass.classifiers.gbt import GbtParams, train_gbt
from wlclass.classifiers.serialize import deserialize_model, serialize_model
from wlclass.classifiers.svm import train_svm_multiclass
from wlclass.model_selection import ReductionSpec, fit_reduction
from wlclass.synth import default_4_class_spec, generate_corpus
from wlclass.windowing import WindowPolicy, build_challenge_dataset

dataset = build_challenge_dataset(
    generate_corpus(default_4_class_spec(seed=9, jobs_per_class=20)),
    WindowPolicy("middle", length=540),
    split_ratio=0.8,
    split_seed=0,
)
reduction, train = fit_reduction(ReductionSpec("cov"), dataset.x_train)
test = reduction.transform(dataset.x_test)
print(f"features: {train.shape[0]} train / {test.shape[0]} test rows, "
      f"{train.shape[1]} columns")

models = {
    "forest": train_forest(train, dataset.y_train, n_trees=100, seed=0),
    "svm": train_svm_multiclass(train, dataset.y_train, C=1.0),
    "gbt": train_gbt(train, dataset.y_train, GbtParams(rounds=40, max_depth=3)),
}
for name, model in models.items():
    accuracy = 100.0 * float((predict(model, test) == dataset.y_test).mean())
    print(f"{name:>6}: {accuracy:6.2f}% test accuracy")

# every family shares one deterministic container format
blob = serialize_model(models["forest"], provenance={"trained_on": "demo corpus"})
restored, provenance = deserialize_model(blob)
print(f"forest serialized to {len(blob)} bytes, provenance {provenance},")
print("identical predictions after round trip:",
      np.array_equal(predict(models['forest'], test), predict(restored, test)))

retrained = train_forest(train, dataset.y_train, n_trees=100, seed=0)
print("retraining with the same seed is byte-identical:",
      serialize_model(retrained) == serialize_model(models["forest"]))
