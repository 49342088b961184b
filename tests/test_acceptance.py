"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criterion 7 is a long paper-scale spot check; it is skipped unless
the environment variable CHAINVAR_PAPER_SCALE is set.
"""

import math
import os

import numpy as np
import pytest

from chainvar import (
    Chain,
    Ar1Params,
    ExperimentConfig,
    ar1_simulate,
    ar1_truth,
    load_logit_data,
    log_posterior,
    log_posterior_grad,
    logdet_pd,
    mis,
    misadj,
    mk,
    run_replications,
    uis,
)
from chainvar.autocov import LagPairSequence, autocov
from chainvar.samplers import replication_stream

MASTER_SEED = 20260809


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def shared_p4_run():
    """One 200-replication benchmark run shared by criteria 3, 4, and 5."""
    config = ExperimentConfig(
        model="ar1",
        model_params={"kind": "hadamard", "p": 4},
        n=100_000,
        replications=200,
        level=0.9,
        methods=("uis", "mk", "mis", "misadj"),
        regions=("ellipsoid", "cube", "bonferroni"),
        truth={"kind": "analytic"},
        master_seed=MASTER_SEED,
    )
    report = run_replications(config)
    truth = ar1_truth(Ar1Params.hadamard_fixture(4))
    return report, logdet_pd(truth.Sigma)


def test_criterion_1_scalar_long_run_oracle():
    # the closed form must give exactly 4, and the simulated variance of
    # the replicate means must agree within +-15%
    params = Ar1Params.scalar(0.5, v=1.0)
    truth = ar1_truth(params)
    exact = truth.Sigma[0, 0] == 4.0
    means = [
        float(ar1_simulate(params, 100_000, replication_stream(MASTER_SEED, r)).mean[0])
        for r in range(200)
    ]
    long_run = 100_000 * float(np.var(means, ddof=1))
    in_band = 3.4 <= long_run <= 4.6
    _report(1, exact and in_band,
            f"analytic long-run variance {truth.Sigma[0, 0]}, "
            f"simulated n*var(mean) = {long_run:.3f} in [3.4, 4.6]")


def test_criterion_2_pair_sum_and_partial_sum_properties():
    # closed-form spectra of the 12-dimensional fixture: its coefficient
    # matrix has exactly dyadic eigenvalues, so every pair sum and
    # truncated sum diagonalizes in the same basis with analytic modes
    p = 12
    params = Ar1Params.hadamard_fixture(p)
    truth = ar1_truth(params)
    d = np.sort(0.5 ** np.arange(1, p + 1))
    assembled = np.sort(np.linalg.eigvalsh(params.A))
    ok = bool(np.abs(assembled - d).max() <= 1e-12)

    c = 1.0 / (1.0 - d**2)
    xi = []
    for i in range(22):
        modes = d ** (2 * i) * (1.0 + d) * c
        ok &= bool(np.all(modes > 0.0))                        # pair sums PD
        diff_modes = d ** (2 * i) * (1.0 + d)                  # minus the next pair
        ok &= bool(np.all(diff_modes > 0.0))
        xi.append(float(np.min(modes)))
        lib = truth.pair_sum_eigenvalues(i)
        ok &= bool(np.allclose(np.sort(lib), np.sort(modes), rtol=1e-10))
    ok &= all(xi[i + 1] < xi[i] for i in range(21))            # strictly decreasing
    ok &= xi[21] < 1e-10 * xi[0]                               # and vanishing

    # matrix-space cross-check where rounding still resolves the spectrum
    for i in range(3):
        ok &= bool(np.linalg.eigvalsh(truth.pair_sum(i))[0] > 0.0)

    logdets = []
    for m in range(21):
        modes = c * (2.0 * (1.0 - d ** (2 * m + 2)) / (1.0 - d) - 1.0)
        ok &= bool(np.all(modes > 0.0))
        logdets.append(float(np.log(modes).sum()))
    limit = float(np.log(1.0 / (1.0 - d) ** 2).sum())
    ok &= all(logdets[m] > logdets[m - 1] for m in range(1, 21))  # strictly increasing
    ok &= logdets[20] <= limit                                    # bounded by the limit
    ok &= bool(np.linalg.eigvalsh(truth.partial_sum(0))[0] > 0.0)  # first sum already PD
    matrix_lds = [
        float(np.log(np.linalg.eigvalsh(truth.partial_sum(m))).sum()) for m in range(21)
    ]
    ok &= all(matrix_lds[m] > matrix_lds[m - 1] for m in range(1, 21))

    _report(2, ok,
            f"pair sums and decrements PD for i=0..21, smallest eigenvalue "
            f"falls {xi[0]:.4f} -> {xi[21]:.2e}, log-dets rise to "
            f"{logdets[20]:.6f} <= {limit:.6f}")


def test_criterion_3_overestimation_desk_scale(shared_p4_run):
    report, ld_true = shared_p4_run
    p = 4
    entries = lambda name: [
        rec["methods"][name] for rec in report.records
        if "failed" not in rec["methods"][name]
    ]
    mis_gaps = np.array([e["logdet"] for e in entries("mis")]) - ld_true
    adj_gaps = np.array([e["logdet"] for e in entries("misadj")]) - ld_true
    median_ok = (np.median(mis_gaps) >= -0.02 * p) and (np.median(adj_gaps) >= -0.02 * p)
    dominance_ok = all(
        rec["methods"]["misadj"]["logdet"] >= rec["methods"]["mis"]["logdet"]
        for rec in report.records
        if "failed" not in rec["methods"]["mis"]
        and "failed" not in rec["methods"]["misadj"]
        and rec["methods"]["mis"]["pd"]
    )
    # stronger tail form: nearly every replication overestimates
    tail_frac = float(np.mean(mis_gaps >= -0.05 * p))
    _report(3, median_ok and dominance_ok and tail_frac >= 0.9,
            f"median log-det gaps mis {np.median(mis_gaps):+.4f}, "
            f"misadj {np.median(adj_gaps):+.4f} (needed >= {-0.02 * p}); "
            f"misadj >= mis in every PD replication: {dominance_ok}; "
            f"tail fraction {tail_frac:.3f}")


def test_criterion_4_coverage_ordering(shared_p4_run):
    report, _ = shared_p4_run
    mis_row = report.row("mis")
    adj_row = report.row("misadj")
    mk_row = report.row("mk")
    uis_row = report.row("uis")
    band_ok = (0.85 <= mis_row.coverage <= 0.95) and (0.85 <= adj_row.coverage <= 0.95)
    pooled = math.hypot(mk_row.coverage_se, mis_row.coverage_se)
    mk_ok = mk_row.coverage <= mis_row.coverage + pooled
    uis_ok = uis_row.coverage < mis_row.coverage
    _report(4, band_ok and mk_ok and uis_ok,
            f"coverage mis {mis_row.coverage:.3f}, misadj {adj_row.coverage:.3f} "
            f"in [0.85, 0.95]; mk {mk_row.coverage:.3f} <= mis + {pooled:.3f}; "
            f"uncorrected univariate cube {uis_row.coverage:.3f} < mis")


def test_criterion_5_ess_ordering(shared_p4_run):
    report, _ = shared_p4_run
    order = ("mk", "mis", "misadj", "uis")
    rows = [report.row(name) for name in order]
    ok = True
    gaps = []
    for hi, lo in zip(rows, rows[1:]):
        slack = math.hypot(hi.ess_se, lo.ess_se)
        ok &= hi.ess_mean >= lo.ess_mean - slack
        gaps.append(f"{hi.method} {hi.ess_mean:.0f} >= {lo.method} {lo.ess_mean:.0f}")
    _report(5, ok, "mean ESS ordering with one pooled s.e. slack: " + "; ".join(gaps))


def test_criterion_6_log_posterior_gradient():
    # the packaged data is the synthetic stand-in, so the sampler-fixture
    # check is the analytic-vs-finite-difference gradient agreement
    data = load_logit_data()
    rng = np.random.default_rng(MASTER_SEED)
    h = 1e-6
    worst = 0.0
    for _ in range(10):
        beta = rng.standard_normal(5) * 1.5
        grad = log_posterior_grad(beta, data)
        for k in range(5):
            e = np.zeros(5)
            e[k] = h
            fd = (log_posterior(beta + e, data) - log_posterior(beta - e, data)) / (2 * h)
            worst = max(worst, abs(fd - grad[k]) / max(1.0, abs(grad[k])))
    _report(6, worst <= 1e-6,
            f"max relative gradient error over 50 directional checks: {worst:.2e} "
            f"(synthetic stand-in data; canonical-data acceptance-rate check n/a)")


@pytest.mark.skipif(
    not os.environ.get("CHAINVAR_PAPER_SCALE"),
    reason="paper-scale spot check (about 1 min with OPENBLAS_NUM_THREADS=1, "
           "about 1.2 s per run on 2 CPUs); set CHAINVAR_PAPER_SCALE=1",
)
def test_criterion_7_paper_scale_ess_ratio():
    from chainvar.autocov import LagPairSequence
    from chainvar.diagnostics import ess

    params = Ar1Params.hadamard_fixture(12)
    n = 1_000_000
    ratios = []
    for r in range(50):
        chain = ar1_simulate(params, n, replication_stream(MASTER_SEED, r))
        pairs = LagPairSequence(chain)
        est = mis(pairs)
        ratios.append(ess(n, pairs.gamma0, est.sigma) / n)
    mean_ratio = float(np.mean(ratios))
    ok = abs(mean_ratio - 0.839) <= 0.05 * 0.839
    _report(7, ok, f"mean mis ESS/n over 50 runs at n=1e6: {mean_ratio:.4f} "
                   f"(target 0.839 +- 5%)")


def test_criterion_8_univariate_coincidences():
    rng = np.random.default_rng(88)
    identical = 0
    for _ in range(100):
        n = int(rng.integers(50, 400))
        coef = rng.uniform(0.2, 0.8)
        x = rng.standard_normal(n)
        for i in range(1, n):
            x[i] = coef * x[i - 1] + x[i]
        chain = Chain(x)
        a = mis(chain)
        b = misadj(chain)
        if a.sigma[0, 0] == b.sigma[0, 0] and (a.s_n, a.t_n) == (b.s_n, b.t_n):
            identical += 1
    chain = ar1_simulate(Ar1Params.scalar(0.5), 100_000, seed=MASTER_SEED)
    values = [uis(chain).sigma2, mis(chain).sigma[0, 0], mk(chain).sigma[0, 0]]
    spread = (max(values) - min(values)) / max(values)
    _report(8, identical == 100 and spread <= 0.05,
            f"mis == misadj bit-for-bit on {identical}/100 scalar chains; "
            f"uis/mis/mk at n=1e5 spread {spread:.4f} (values {values})")


def test_criterion_9_brute_force_equivalence():
    def brute_autocov(values, t):
        n, p = values.shape
        mu = values.mean(axis=0)
        out = np.zeros((p, p))
        for i in range(n - t):
            out += np.outer(values[i] - mu, values[i + t] - mu)
        return out / n

    def brute_pair(values, i):
        def sym(t):
            g = brute_autocov(values, t)
            return (g + g.T) / 2
        return sym(2 * i) + sym(2 * i + 1)

    def brute_partial(values, m):
        total = -brute_autocov(values, 0)
        for i in range(m + 1):
            total = total + 2 * brute_pair(values, i)
        return total

    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 201))
        p = int(rng.integers(1, 6))
        values = rng.standard_normal((n, p)) * 3.0
        chain = Chain(values)
        pairs = LagPairSequence(chain)
        mmax = pairs.max_index
        for t in sorted({0, 1, 2, n - 1}):
            worst = max(worst, np.abs(autocov(chain, t) - brute_autocov(values, t)).max())
        for idx in sorted({0, mmax // 2, mmax}):
            worst = max(worst, np.abs(pairs.pair(idx) - brute_pair(values, idx)).max())
            worst = max(worst, np.abs(pairs.partial_sum(idx) - brute_partial(values, idx)).max())
    _report(9, worst <= 1e-12,
            f"max |fast - double loop| over 50 chains (n<=200, p<=5): {worst:.2e}")
