"""Cut fixed windows from variable-length trials and reduce them to features.

Windowing picks one contiguous slice per trial (start, middle, or seeded
random offset). Features are either the 28 unique entries of the 7x7
sensor Gram matrix after pooled standardization, or a PCA projection of
the flattened window.
"""

import numpy as np

from wlclass.features import (
    apply_standardizer,
    covariance_feature_matrix,
    covariance_feature_names,
    fit_standardizer,
)
from wlclass.model_selection import ReductionSpec, fit_reduction
from wlclass.synth import default_4_class_spec, generate_corpus
from wlclass.windowing import WindowPolicy, build_challenge_dataset, extract_window

corpus = generate_corpus(default_4_class_spec(seed=3, jobs_per_class=8))

# the three policies pick different slices of the same 600-ish sample trial
n = corpus[0].series.shape[0]
for policy in (WindowPolicy("start", length=540), WindowPolicy("middle", length=540),
               WindowPolicy("random", seed=11, length=540)):
    window = extract_window(corpus[0], policy)
    print(f"{policy.kind:>6} policy on a {n}-sample trial -> rows "
          f"[{window.source_offset}, {window.source_offset + 540})")

dataset = build_challenge_dataset(corpus, WindowPolicy("middle", length=540),
                                  split_ratio=0.8, split_seed=0)
print(f"split: {dataset.x_train.shape[0]} train / {dataset.x_test.shape[0]} test windows")

# standardization is fit on the training split only, then applied everywhere
std = fit_standardizer(dataset.x_train)
z_train = apply_standardizer(std, dataset.x_train)
residual = float(np.abs(z_train.mean(axis=(0, 1))).max())
print(f"largest pooled train mean after standardizing: {residual:.2e}")

cov = covariance_feature_matrix(dataset.x_train, std)
print(f"covariance features: {cov.shape[1]} per window, first three names:")
for name in covariance_feature_names()[:3]:
    print("  ", name)

pca = fit_reduction(ReductionSpec("pca", k=16), dataset.x_train)
print("pca reduction:", pca.spec.describe(), "->", pca.transform(dataset.x_test).shape)
