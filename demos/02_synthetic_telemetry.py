"""Generate synthetic GPU telemetry and poke at its statistical structure.

Each class is a mean sensor profile plus correlated Gaussian wiggle; the
noise knob adds white noise on top, so small values give well-separated
classes and large values bury the correlation signal.
"""

import numpy as np

from wlclass.synth import default_4_class_spec, default_26_class_spec, generate_corpus

spec = default_4_class_spec(seed=7, jobs_per_class=5, noise=0.3)
corpus = generate_corpus(spec)
print(f"{len(corpus)} trials, classes: {sorted({t.label_name for t in corpus})}")

first = corpus[0]
print(f"first trial {first.job_id}: {first.series.shape[0]} samples x "
      f"{first.series.shape[1]} sensors")

# physical adjustments keep the channels plausible
util = first.series[:, :2]
print(f"utilization stays in [0, 100]: min {util.min():.1f}, max {util.max():.1f}")
free, used = first.series[:, 2], first.series[:, 3]
print("free + used memory is constant:", np.allclose(free + used, free[0] + used[0]))

# the empirical correlation of a long trial tracks the class blueprint
long_spec = default_4_class_spec(seed=7, jobs_per_class=1, noise=0.0,
                                 length_range=(20000, 20001))
long_trial = generate_corpus(long_spec, physical=False)[0]
empirical = np.corrcoef(long_trial.series.T)
blueprint = np.array(spec.classes[0].correlation)
print(f"max |empirical - blueprint| correlation at noise 0: "
      f"{np.abs(empirical - blueprint).max():.3f}")

# the realistic corpus: 26 workload classes with fixed job counts
full = default_26_class_spec(seed=1, scale=0.05)
jobs = sum(c.job_count for c in full.classes)
print(f"26-class corpus at scale 0.05: {jobs} jobs, "
      f"smallest class has {min(c.job_count for c in full.classes)}")
