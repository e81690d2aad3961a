"""Compare fixed vs sampled Dirichlet pseudo-counts (B and B*).

The pseudo-counts gate how strongly an active phenotype pulls patient
mass toward itself. Holding them fixed keeps phenotypes interpretable;
sampling them (by a Gibbs step given the token assignments and the
activations) lets the model adapt the gate to the data.

Run:  python3 demos/02_sampling_pseudocounts.py
"""

import numpy as np

from ss3m import (
    DocLengthSpec,
    Hyperparameters,
    TrainOptions,
    generate,
    labels_from_activations,
    train,
)
from ss3m.gibbs import B_FIXED, B_SAMPLED, MISSING_FIX_ZERO

hyper = Hyperparameters(
    num_phenotypes=4,
    num_labeled=3,
    num_sources=1,
    alpha=0.3,
    gamma=(0.05,),
    bstar_shape=2.0,   # moderate inactive prior so both modes mix well
    bstar_scale=0.5,
    iterations=80,
)

corpus, truth = generate(hyper, [50], DocLengthSpec.poisson(60, 1),
                         150, seed=5)
labels = labels_from_activations(truth, hyper.num_labeled)

for mode in (B_FIXED, B_SAMPLED):
    options = TrainOptions(missing_label_mode=MISSING_FIX_ZERO,
                           b_mode=mode, seed=1)
    trace = train(corpus, labels, hyper, options)
    state = trace.best_state
    print(f"b_mode={mode}")
    print(f"  best log-likelihood: {trace.best_log_likelihood:.1f}")
    print(f"  B  = {np.round(state.B, 3)}")
    print(f"  B* = {state.Bstar:.4g}")
    print()

print("true B was", np.round(truth.B, 3), "and true B* was",
      f"{truth.Bstar:.4g}")
