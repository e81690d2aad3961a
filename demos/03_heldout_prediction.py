"""Held-out label prediction and the baseline comparison table.

Trains the model on one half of a synthetic corpus, predicts phenotype
activations for unseen patients on the other half, and prints the full
metric table with the naive Bayes / logistic regression baselines.

Run:  python3 demos/03_heldout_prediction.py
Takes a few seconds.
"""

from ss3m import (
    DocLengthSpec,
    Hyperparameters,
    TrainOptions,
    evaluate_suite,
    generate,
    labels_from_activations,
    reports_to_table,
    train,
    train_unstructured,
)
from ss3m.data_io import split
from ss3m.gibbs import (
    B_FIXED,
    B_SAMPLED,
    MISSING_ESTIMATE,
    MISSING_FIX_ZERO,
)

hyper = Hyperparameters(
    num_phenotypes=5,
    num_labeled=4,
    num_sources=1,
    alpha=0.5,
    gamma=(0.05,),
    bstar_shape=2.0,
    bstar_scale=0.5,
    iterations=60,
)

corpus, truth = generate(hyper, [60], DocLengthSpec.poisson(80, 1),
                         240, seed=21)
labels = labels_from_activations(truth, hyper.num_labeled)
(train_c, train_l), (test_c, test_l), _ = split(corpus, labels, 0.8, seed=0)
print(f"{train_c.num_patients} train / {test_c.num_patients} test patients")

variants = {
    "ss3m_smplA0_smplB": (MISSING_ESTIMATE, B_SAMPLED),
    "ss3m_smplA0_fixB": (MISSING_ESTIMATE, B_FIXED),
    "ss3m_fixA0_smplB": (MISSING_FIX_ZERO, B_SAMPLED),
    "ss3m_fixA0_fixB": (MISSING_FIX_ZERO, B_FIXED),
}
artifacts = {}
for name, (mm, bm) in variants.items():
    print(f"training {name} ...")
    trace = train(train_c, train_l, hyper,
                  TrainOptions(missing_label_mode=mm, b_mode=bm, seed=2))
    artifacts[name] = (trace.best_state, trace.best_log_likelihood)

print("training mc3m_sp (no labels, structured prior) ...")
h0 = Hyperparameters(
    num_phenotypes=5, num_labeled=0, num_sources=1, alpha=0.5,
    gamma=(0.05,), bstar_shape=2.0, bstar_scale=0.5, iterations=60)
trace = train(train_c, None, h0,
              TrainOptions(missing_label_mode=MISSING_ESTIMATE,
                           b_mode=B_FIXED, seed=2))
artifacts["mc3m_sp"] = (trace.best_state, trace.best_log_likelihood)

print("training mc3m (flat Dirichlet prior) ...")
trace = train_unstructured(train_c, hyper, concentration=1.0, seed=2)
artifacts["mc3m"] = (trace.best_state, trace.best_log_likelihood)

print("evaluating ...")
reports = evaluate_suite(artifacts, train_c, train_l, test_c, test_l,
                         hyper, burn_in=30, samples=60, seed=4,
                         lr_lam=1.0, lr_epochs=150)
print()
print(reports_to_table(reports))
