import math

import numpy as np
import pytest
import scipy.stats as st
from scipy.special import gammaln

from conftest import make_hyper, random_tiny_state
from ss3m import hmc
from ss3m.errors import ConfigError
from ss3m.hmc import FunctionTarget, b_target, bstar_target, hmc_step, leapfrog
from ss3m.model import ModelState, complete_data_log_likelihood

SIGNIFICANCE = 0.001

GAUSSIAN = FunctionTarget(lambda x: -0.5 * float(x @ x), lambda x: -x)


def hamiltonian(target, x, p):
    return -target.log_density(x) + 0.5 * float(np.dot(p, p))


def finite_diff_gradient(target, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (target.log_density(x + e) - target.log_density(x - e)) / (2 * h)
    return g


class TestLeapfrog:
    def test_energy_conservation_harmonic(self):
        x0, p0 = np.array([1.0]), np.array([1.0])
        x1, p1 = leapfrog(x0, p0, GAUSSIAN, 0.01, 25)
        dh = hamiltonian(GAUSSIAN, x1, p1) - hamiltonian(GAUSSIAN, x0, p0)
        assert abs(dh) < 1e-3

    def test_reversibility(self):
        x0, p0 = np.array([0.3, -1.2]), np.array([0.8, 0.4])
        target = FunctionTarget(lambda x: -0.5 * float(x @ x), lambda x: -x)
        x1, p1 = leapfrog(x0, p0, target, 0.05, 30)
        x2, p2 = leapfrog(x1, -p1, target, 0.05, 30)
        assert np.allclose(x2, x0, atol=1e-8)
        assert np.allclose(-p2, p0, atol=1e-8)

    def test_volume_preservation(self):
        # finite-difference Jacobian of the phase-space map has det ~ 1
        eps, L, h = 0.1, 10, 1e-6

        def flow(v):
            x, p = leapfrog(v[:1], v[1:], GAUSSIAN, eps, L)
            return np.concatenate([x, p])

        v0 = np.array([0.7, -0.2])
        J = np.zeros((2, 2))
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            J[:, i] = (flow(v0 + e) - flow(v0 - e)) / (2 * h)
        assert abs(np.linalg.det(J) - 1.0) < 1e-4

    def test_guards(self):
        with pytest.raises(ConfigError):
            leapfrog(np.zeros(1), np.zeros(1), GAUSSIAN, 0.0, 5)
        with pytest.raises(ConfigError):
            leapfrog(np.zeros(1), np.zeros(1), GAUSSIAN, 0.1, 0)


class TestHmcStep:
    def test_gaussian_moments(self, rng):
        # well-mixing settings; fixed seed makes the check deterministic
        x = np.zeros(1)
        samples = []
        for _ in range(10 ** 4):
            res = hmc_step(x, GAUSSIAN, 0.45, 5, rng)
            x = res.next_point
            samples.append(x[0])
        samples = np.array(samples[500:])
        assert abs(samples.mean()) < 3 * samples.std() / math.sqrt(len(samples) / 4)
        assert 0.9 < samples.var() < 1.1

    def test_acceptance_rate_at_paper_settings(self, rng):
        x = np.array([1.0])
        accepted = 0
        n = 2000
        for _ in range(n):
            res = hmc_step(x, GAUSSIAN, 0.01, 25, rng)
            x = res.next_point
            accepted += res.accepted
        assert accepted / n > 0.95

    def test_rejected_step_keeps_point(self, rng):
        # huge step size forces rejections on a steep target
        steep = FunctionTarget(lambda x: -50.0 * float(x @ x),
                               lambda x: -100.0 * x)
        x = np.array([0.1])
        saw_reject = False
        for _ in range(200):
            res = hmc_step(x, steep, 1.5, 10, rng)
            if not res.accepted:
                assert np.array_equal(res.next_point, x)
                saw_reject = True
            x = res.next_point
        assert saw_reject

    def test_ks_against_standard_normal(self, rng):
        x = np.zeros(1)
        samples = np.empty(10 ** 5)
        for i in range(500):  # burn-in
            x = hmc_step(x, GAUSSIAN, 0.45, 5, rng).next_point
        for i in range(samples.size):
            x = hmc_step(x, GAUSSIAN, 0.45, 5, rng).next_point
            samples[i] = x[0]
        assert st.kstest(samples, "norm").pvalue > 0.001


class TestBTargets:
    def test_prior_only_mode(self, rng):
        # no active patients for p=0: along eta_0, the transformed-Gamma
        # mode at eta_0 = log(shape*scale)
        h = make_hyper(P=2, b_shape=10.0, b_scale=1.0)
        state, _ = random_tiny_state(rng, P=2)
        state.A[:, 0] = 0
        target = b_target(state, h)
        grid = np.linspace(-3.0, 5.0, 801)
        values = [target.log_density(np.array([e, math.log(state.B[1])]))
                  for e in grid]
        best = grid[int(np.argmax(values))]
        assert abs(best - math.log(10.0)) <= grid[1] - grid[0]

    def test_gradient_matches_finite_differences(self, rng):
        h = make_hyper(P=3, alpha=0.3)
        for _ in range(100):
            state, _ = random_tiny_state(rng, D=3, P=3, bstar_low=1e-3)
            target = b_target(state, h)
            eta = rng.uniform(-2.0, 2.5, size=3)
            got = target.gradient(eta)
            want = finite_diff_gradient(target, eta)
            assert got == pytest.approx(want, rel=1e-5)

    def test_density_finite_over_wide_range(self, rng):
        h = make_hyper(P=2)
        state, _ = random_tiny_state(rng, P=2)
        target = b_target(state, h)
        for eta in np.linspace(-20, 20, 41):
            for point in ([eta, eta], [eta, -eta]):
                assert math.isfinite(target.log_density(np.array(point)))

    def test_vector_move_is_stationary(self, rng):
        # The chain of B moves, with A, theta and Bstar held fixed, has
        # the means of log B_1 and log B_2 that 2-D quadrature of the
        # conditional gives. The quadrature is built from the Gamma and
        # Dirichlet densities, not from the target.
        A = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.int8)
        theta = np.array([[0.7, 0.3], [0.4, 0.6], [0.2, 0.8]])
        state = ModelState(theta=theta, phi=[], z=[], A=A, B=np.ones(2),
                           Bstar=0.3)
        h = make_hyper(P=2, b_shape=2.0, b_scale=1.5)
        grid = np.linspace(-9.0, 6.0, 601)
        eta_grid = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1)
        b = np.exp(eta_grid)
        log_p = (st.gamma.logpdf(b, h.b_shape, scale=h.b_scale)
                 + eta_grid).sum(axis=-1)
        for d in range(A.shape[0]):
            conc = np.where(A[d] == 1, b, state.Bstar)
            log_p += (gammaln(conc.sum(axis=-1)) - gammaln(conc).sum(axis=-1)
                      + ((conc - 1.0) * np.log(theta[d])).sum(axis=-1))
        weights = np.exp(log_p - log_p.max())
        exact = (weights[..., None] * eta_grid).sum(axis=(0, 1)) / weights.sum()

        target = b_target(state, h)
        eta = np.zeros(2)
        draws = np.empty((20000, 2))
        for i in range(draws.shape[0]):
            eta = hmc_step(eta, target, 0.2, 10, rng).next_point
            draws[i] = eta
        batches = draws[2000:].reshape(50, -1, 2).mean(axis=1)
        z = ((batches.mean(axis=0) - exact)
             / (batches.std(axis=0, ddof=1) / math.sqrt(batches.shape[0])))
        # two-sided, Bonferroni over the two means
        assert np.all(np.abs(z) < st.norm.isf(SIGNIFICANCE / 4)), (z, exact)

    def test_bstar_prior_only_when_all_active(self, rng):
        h = make_hyper(P=2, bstar_shape=2.0, bstar_scale=0.5)
        state, _ = random_tiny_state(rng, P=2)
        state.A[:] = 1
        target = bstar_target(state, h)
        grid = np.linspace(-6.0, 4.0, 1001)
        values = [target.log_density(np.array([e])) for e in grid]
        best = grid[int(np.argmax(values))]
        assert abs(best - math.log(2.0 * 0.5)) <= grid[1] - grid[0]

    def test_bstar_gradient_matches_finite_differences(self, rng):
        h = make_hyper(P=3, alpha=0.3)
        for _ in range(100):
            state, _ = random_tiny_state(rng, D=3, P=3, bstar_low=1e-3)
            target = bstar_target(state, h)
            eta = np.array([rng.uniform(-4.0, 1.5)])
            got = target.gradient(eta)
            want = finite_diff_gradient(target, eta)
            assert got == pytest.approx(want, rel=1e-5)

    def test_matches_likelihood_deltas(self, rng):
        # differencing two B vectors gives identical deltas from the HMC
        # target and the complete-data log-likelihood
        h = make_hyper(P=2, alpha=0.3)
        for _ in range(20):
            state, corpus = random_tiny_state(rng, D=3, P=2, bstar_low=1e-2)
            state.A[0, 0] = 1  # at least one active patient for p=0
            target = b_target(state, h)
            b1, b2 = rng.uniform(0.5, 5.0, size=(2, 2))
            t_delta = (target.log_density(np.log(b2))
                       - target.log_density(np.log(b1)))
            lls = []
            for b in (b1, b2):
                state.B = b
                lls.append(complete_data_log_likelihood(state, corpus, h))
            # remove the exp-transform Jacobian (+eta) present in the target
            jac = float(np.sum(np.log(b2) - np.log(b1)))
            assert t_delta - jac == pytest.approx(lls[1] - lls[0], abs=1e-9)

    def test_bstar_matches_likelihood_deltas(self, rng):
        h = make_hyper(P=2, alpha=0.3)
        for _ in range(20):
            state, corpus = random_tiny_state(rng, D=3, P=2)
            state.A[0, 0] = 0
            target = bstar_target(state, h)
            v1, v2 = 0.05, 0.8
            t_delta = (target.log_density(np.array([math.log(v2)]))
                       - target.log_density(np.array([math.log(v1)])))
            lls = []
            for v in (v1, v2):
                state.Bstar = v
                lls.append(complete_data_log_likelihood(state, corpus, h))
            jac = math.log(v2) - math.log(v1)
            assert t_delta - jac == pytest.approx(lls[1] - lls[0], abs=1e-9)
