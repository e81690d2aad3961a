"""Geweke's joint-distribution test of the training sweep (Geweke 2004,
"Getting it right", JASA 99:799).

Two simulators draw from the joint law of the latents and the tokens:

  * marginal-conditional: a fresh forward draw from the prior each time
    (model.generate with a new seed; with B fixed, the same draw with B
    and Bstar held at constants, so theta and the tokens are redrawn given
    them);
  * successive-conditional: one chain that alternates a full training
    sweep with a redraw of the assignments and tokens given theta and phi
    (model.draw_tokens).

If every kernel of the sweep leaves the posterior invariant, the chain's
stationary law is the joint law, so every test function has the same mean
under both. Each mean is compared with a z-test: independent draws on one
side, batch-means standard errors for the chain on the other, at
SIGNIFICANCE with a Bonferroni correction over every comparison in this
file.

The models are tiny (D 2-3, P 2-3, S 1-2, V 2-3, documents of 4-5 tokens)
and have no labels (P_lab = 0): labels add no likelihood term, and the
chain must be able to move every activation. The Bstar prior is moderate,
Gamma(2, 0.5), rather than the paper's spike at zero: a draw below
PROB_FLOOR is floored there, in generate and after each draw of the
sweep's B step, which would bias the chain's Bstar draws against the
prior's. At Gamma(2, 0.5) such a draw never happens.
"""

import numpy as np
import pytest
from scipy.stats import norm

from conftest import make_hyper
from ss3m.gibbs import (
    B_FIXED,
    B_SAMPLED,
    TrainOptions,
    ZPlan,
    clamp_matrix,
    sweep,
)
from ss3m.model import (
    Corpus,
    DocLengthSpec,
    draw_tokens,
    generate,
    prior_matrix,
)
from ss3m.util import sample_dirichlet

pytestmark = pytest.mark.acceptance

SIGNIFICANCE = 0.001
N_BATCHES = 50

PRIORS = dict(alpha=0.3, b_shape=2.0, b_scale=2.0, bstar_shape=2.0,
              bstar_scale=0.5)
# (id, hyper, B mode, D, vocabulary sizes, document length,
#  prior draws, chain sweeps)
CASES = [
    ("P3_S1_sampled", make_hyper(P=3, S=1, gamma=0.5, **PRIORS), B_SAMPLED,
     3, [3], 4, 4000, 6000),
    ("P2_S2_sampled", make_hyper(P=2, S=2, gamma=0.5, **PRIORS), B_SAMPLED,
     2, [2, 3], 5, 4000, 6000),
    ("P3_S1_fixed", make_hyper(P=3, S=1, gamma=0.5, **PRIORS), B_FIXED,
     3, [3], 4, 4000, 6000),
    ("P2_S2_fixed", make_hyper(P=2, S=2, gamma=0.5, **PRIORS), B_FIXED,
     2, [2, 3], 5, 4000, 6000),
]
# B and Bstar of the fixed-B cases
FIXED_BSTAR = 0.7


def _fixed_b(P):
    return np.linspace(1.0, 4.0, P)


def statistics(state, b_mode):
    """(names, values): mean B and log Bstar (sampled B only), the active
    fraction, theta_00, the mass theta puts on active phenotypes, phi_000
    and the number of tokens assigned to each phenotype."""
    P = state.A.shape[1]
    names, values = [], []
    if b_mode == B_SAMPLED:
        names += ["mean B", "log Bstar"]
        values += [state.B.mean(), np.log(state.Bstar)]
    names += ["active fraction", "theta_00", "active mass", "phi_000"]
    values += [state.A.mean(), state.theta[0, 0],
               (state.A * state.theta).sum(axis=1).mean(),
               state.phi[0][0, 0]]
    totals = np.zeros(P)
    for z_s in state.z:
        for z in z_s:
            totals += np.bincount(z, minlength=P)
    names += [f"tokens on {p}" for p in range(P)]
    values += list(totals)
    return names, np.array(values)


def prior_draw(hyper, b_mode, D, vocab_sizes, length, seed):
    """(corpus, state) from the prior, with B and Bstar held at the fixed
    values when b_mode is fixed."""
    corpus, state = generate(hyper, vocab_sizes,
                             DocLengthSpec.fixed(length, hyper.num_sources),
                             D, seed=seed)
    if b_mode == B_FIXED:
        rng = np.random.default_rng((seed, 1))
        state.B = _fixed_b(hyper.num_phenotypes)
        state.Bstar = FIXED_BSTAR
        state.theta = sample_dirichlet(
            prior_matrix(state.A, state.B, state.Bstar), rng)
        corpus = redraw_tokens(state, corpus, rng)
    return corpus, state


def redraw_tokens(state, corpus, rng):
    """A corpus of the same document lengths with new tokens, and new
    assignments in state, drawn given theta and phi."""
    tokens = []
    for s, phi_s in enumerate(state.phi):
        lengths = np.array([w.size for w in corpus.tokens[s]])
        state.z[s], w_s = draw_tokens(state.theta, phi_s, lengths, rng)
        tokens.append(w_s)
    return Corpus(vocab=corpus.vocab, tokens=tokens)


def _n_comparisons():
    return sum(len(statistics(prior_draw(h, mode, D, v, n, 0)[1], mode)[0])
               for _, h, mode, D, v, n, _, _ in CASES)


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_sweep_leaves_the_joint_law_invariant(case):
    name, hyper, b_mode, D, vocab_sizes, length, n_prior, n_chain = case
    seed = CASES.index(case)

    prior = np.array([
        statistics(prior_draw(hyper, b_mode, D, vocab_sizes, length,
                              seed * 10 ** 6 + i)[1], b_mode)[1]
        for i in range(n_prior)])

    corpus, state = prior_draw(hyper, b_mode, D, vocab_sizes, length,
                               seed * 10 ** 6 + n_prior)
    options = TrainOptions(b_mode=b_mode)
    clamp = clamp_matrix(None, options, D, hyper.num_phenotypes)
    rng = np.random.default_rng((seed, 2))
    chain = np.empty((n_chain, prior.shape[1]))
    for it in range(n_chain):
        # the tokens are redrawn every sweep, and the plan with them
        sweep(state, ZPlan(corpus, hyper.num_phenotypes), clamp,
              options.b_mode, hyper, rng)
        corpus = redraw_tokens(state, corpus, rng)
        names, chain[it] = statistics(state, b_mode)

    batch_means = chain.reshape(N_BATCHES, -1, chain.shape[1]).mean(axis=1)
    se_chain = batch_means.std(axis=0, ddof=1) / np.sqrt(N_BATCHES)
    se_prior = prior.std(axis=0, ddof=1) / np.sqrt(n_prior)
    z = ((chain.mean(axis=0) - prior.mean(axis=0))
         / np.sqrt(se_chain ** 2 + se_prior ** 2))
    bound = norm.isf(SIGNIFICANCE / (2 * _n_comparisons()))
    detail = ", ".join(f"{n} z={v:+.2f}" for n, v in zip(names, z))
    ok = bool(np.all(np.abs(z) < bound))
    print(f"geweke [{name}]: {'PASS' if ok else 'FAIL'} (|z| < {bound:.2f}; "
          f"{detail})", flush=True)
    assert ok, detail
