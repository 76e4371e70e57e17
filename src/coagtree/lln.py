"""Statistical experiments: law-of-large-numbers sweeps and finite-N law checks.

``run_lln`` estimates E<f, mu~_t^N> by Monte Carlo over a ladder of system
sizes and compares against the limit functional; ``jump_density_test`` and
``survival_test`` check the finite-N jump-chain density and the survival
exponential on isolated small systems.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from . import limit as limit_measure
from .kernels import Kernel, check_gelation
from .simulate import (
    EmpiricalHistoricalMeasure,
    SimConfig,
    empirical_measure,
    evaluate_functional,
    rng_for,
    simulate_direct,
)
from .smoluchowski import MassSpectrum, solve


@dataclass(frozen=True)
class ExperimentPlan:
    kernel: Kernel
    mu0: MassSpectrum
    t: float
    functionals: tuple  # ((name, callable), ...)
    n_ladder: tuple = (100, 1000, 10000)
    replicas: tuple = (20000, 2000, 200)  # aligned with n_ladder
    seed: int = 0
    tau_max_leaves: int = 4
    quad_tol: float = 1e-8
    solver_tol: float = 1e-8
    jobs: int = 1

    def __post_init__(self):
        if len(self.replicas) != len(self.n_ladder):
            raise ValueError("need one replica count per ladder size")
        if len(self.n_ladder) < 2:
            raise ValueError("ladder needs at least two sizes")
        if any(r < 30 for r in self.replicas):
            raise ValueError("need at least 30 replicas per size for CLT intervals")
        check_gelation(self.kernel, self.mu0.masses, self.mu0.weights, self.t)

    def masses_for(self, n: int) -> tuple:
        """Deterministic composition of n particles matching mu0's proportions."""
        w = np.asarray(self.mu0.weights, dtype=float)
        counts = np.floor(w / w.sum() * n).astype(int)
        while counts.sum() < n:
            counts[int(np.argmax(w / w.sum() * n - counts))] += 1
        out = []
        for m, c in zip(self.mu0.masses, counts):
            out.extend([float(m)] * int(c))
        return tuple(out)


@dataclass(frozen=True)
class LadderRow:
    functional: str
    n: int
    replicas: int
    mean: float
    variance: float
    se: float
    limit_value: float
    limit_error: float

    @property
    def discrepancy(self) -> float:
        return abs(self.mean - self.limit_value)

    @property
    def z(self) -> float:
        denom = self.se + self.limit_error
        return self.discrepancy / denom if denom > 0 else math.inf


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple  # LadderRow
    slopes: dict  # functional name -> log-log variance slope
    verdicts: dict  # functional name -> "PASS" | "FAIL" | "INCONCLUSIVE"
    tail_bounds: dict  # functional name -> limit-side truncation tail

    @property
    def passed(self) -> bool:
        return all(v == "PASS" for v in self.verdicts.values())

    def rows_for(self, name: str) -> list:
        return [r for r in self.rows if r.functional == name]

    def to_json(self) -> str:
        payload = {
            "rows": [r.__dict__ | {"discrepancy": r.discrepancy, "z": r.z}
                     for r in self.rows],
            "variance_slopes": self.slopes,
            "verdicts": self.verdicts,
            "tail_bounds": self.tail_bounds,
        }
        return json.dumps(payload, indent=2)

    def to_text(self) -> str:
        lines = [
            f"{'functional':<24}{'N':>8}{'replicas':>10}{'mean':>14}"
            f"{'SE':>12}{'limit':>14}{'z':>8}"
        ]
        for r in self.rows:
            lines.append(
                f"{r.functional:<24}{r.n:>8}{r.replicas:>10}{r.mean:>14.6f}"
                f"{r.se:>12.2e}{r.limit_value:>14.6f}{r.z:>8.2f}"
            )
        for name, verdict in self.verdicts.items():
            slope = self.slopes.get(name)
            lines.append(f"{name}: {verdict} (variance slope {slope:+.2f})")
        return "\n".join(lines)


def _replica_values(kernel: Kernel, masses: tuple, t: float, seed: int,
                    stream: int, start: int, count: int,
                    functionals: tuple) -> np.ndarray:
    out = np.empty((count, len(functionals)))
    cfg = SimConfig(len(masses), masses, kernel, t, seed=seed)
    for k in range(count):
        replica = start + k
        log = simulate_direct(cfg, rng_for(seed, replica, stream))
        m = empirical_measure(log, t)
        for c, (_, f) in enumerate(functionals):
            out[k, c] = evaluate_functional(m, f)
    return out


def _worker(args) -> np.ndarray:
    return _replica_values(*args)


def run_lln(plan: ExperimentPlan) -> ConvergenceReport:
    """Monte Carlo ladder in N against the limit functional.

    Verdict per functional: PASS when the discrepancy at the largest N is
    within 3*(SE + quadrature error), the discrepancy ladder is non-increasing
    within combined-noise slack, and the replica variance decreases.
    """
    path = solve(plan.mu0, plan.kernel, plan.t, tol=plan.solver_tol)
    limits = {}
    tails = {}
    for name, f in plan.functionals:
        res = limit_measure.functional(
            f, plan.tau_max_leaves, path, plan.kernel, plan.mu0, plan.t,
            tol=plan.quad_tol)
        limits[name] = res
        tails[name] = res.tail_bound

    rows = []
    per_size = []
    for stream, (n, reps) in enumerate(zip(plan.n_ladder, plan.replicas)):
        masses = plan.masses_for(n)
        chunk = max(1, reps // max(plan.jobs * 4, 1))
        tasks = [
            (plan.kernel, masses, plan.t, plan.seed, stream, s,
             min(chunk, reps - s), plan.functionals)
            for s in range(0, reps, chunk)
        ]
        if plan.jobs > 1:
            with ProcessPoolExecutor(max_workers=plan.jobs) as pool:
                parts = list(pool.map(_worker, tasks))
        else:
            parts = [_worker(task) for task in tasks]
        vals = np.concatenate(parts, axis=0)
        per_size.append((n, vals))
        for c, (name, _) in enumerate(plan.functionals):
            col = vals[:, c]
            mean = float(col.mean())
            var = float(col.var(ddof=1))
            rows.append(LadderRow(
                name, n, reps, mean, var, math.sqrt(var / reps),
                limits[name].value, limits[name].error))

    slopes = {}
    verdicts = {}
    for name, _ in plan.functionals:
        seq = sorted(rows_n := [r for r in rows if r.functional == name],
                     key=lambda r: r.n)
        final = seq[-1]
        ok_final = final.discrepancy <= 3.0 * (final.se + final.limit_error)
        ok_monotone = all(
            b.discrepancy <= a.discrepancy + 2.0 * (a.se + b.se)
            for a, b in zip(seq, seq[1:]))
        ok_variance = all(
            b.variance < a.variance or a.variance == 0.0
            for a, b in zip(seq, seq[1:]))
        logs_n = np.log([r.n for r in seq])
        with np.errstate(divide="ignore"):
            logs_v = np.log([max(r.variance, 1e-300) for r in seq])
        slopes[name] = float(np.polyfit(logs_n, logs_v, 1)[0])
        if ok_final and ok_monotone and ok_variance:
            verdicts[name] = "PASS"
        elif final.se > max(abs(final.limit_value), 1.0):
            verdicts[name] = "INCONCLUSIVE"
        else:
            verdicts[name] = "FAIL"
    return ConvergenceReport(tuple(rows), slopes, verdicts, tails)


# ---------------------------------------------------------------------------
# finite-N law checks


@dataclass(frozen=True)
class JumpDensityReport:
    n: int
    replicas: int
    merged_fraction: float
    chi2_pvalue: float
    pair_pvalue: float  # first-pair multinomial; 1.0 when n == 2
    passed: bool


# equal-width bins of the first-merge-time histogram in jump_density_test
JUMP_TIME_BINS = 20


def jump_density_test(n: int, masses, kernel: Kernel, t: float,
                      replicas: int = 100000, seed: int = 0) -> JumpDensityReport:
    """Check simulated event times against the analytic jump-chain density.

    For an isolated n-particle system the first merge time has density
    R*exp(-R*s) with R the total pair rate; binned counts are tested by
    chi-squared at p > 0.001.  For n = 3 the identity of the first merged
    pair is additionally tested against probabilities proportional to the
    kernel values.
    """
    if n not in (2, 3):
        raise ValueError("jump density test supports n in {2, 3}")
    masses = tuple(float(m) for m in masses)
    kmat = kernel.matrix(np.asarray(masses))
    pair_ids = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pair_rates = np.array([kmat[i, j] / n for i, j in pair_ids])
    total_rate = float(pair_rates.sum())

    first_times = []
    first_pairs = []
    cfg = SimConfig(n, masses, kernel, t, seed=seed)
    for replica in range(replicas):
        log = simulate_direct(cfg, rng_for(seed, replica, stream=7))
        if log.events:
            e = log.events[0]
            first_times.append(e.time)
            first_pairs.append((min(e.left, e.right), max(e.left, e.right)))

    merged = len(first_times)
    edges = np.linspace(0.0, t, JUMP_TIME_BINS + 1)
    counts, _ = np.histogram(first_times, bins=edges)
    cdf = 1.0 - np.exp(-total_rate * edges)
    probs = np.diff(cdf) / cdf[-1]  # conditioned on a merge before t
    chi2_p = float(stats.chisquare(counts, merged * probs).pvalue)

    pair_p = 1.0
    if n == 3:
        observed = np.array([first_pairs.count(p) for p in pair_ids])
        expected = merged * pair_rates / total_rate
        pair_p = float(stats.chisquare(observed, expected).pvalue)
    passed = chi2_p > 0.001 and pair_p > 0.001
    return JumpDensityReport(n, replicas, merged / replicas, chi2_p, pair_p, passed)


@dataclass(frozen=True)
class SurvivalReport:
    n: int
    t: float
    replicas: int
    direct_estimate: float
    direct_se: float
    exponential_estimate: float
    exponential_se: float
    passed: bool

    @property
    def sigma_distance(self) -> float:
        denom = math.hypot(self.direct_se, self.exponential_se)
        gap = abs(self.direct_estimate - self.exponential_estimate)
        return gap / denom if denom > 0 else math.inf


def survival_test(n: int, t: float, kernel: Kernel, replicas: int = 100000,
                  seed: int = 0, mass: float = 1.0) -> SurvivalReport:
    """Two independent estimates of P(particle 1 still unmerged at t).

    Direct: frequency over n-particle runs.  Exponential: average over
    (n-1)-particle background runs (rates still scaled by n) of
    exp(-int_0^t sum_clusters K(y1, m_cluster(r)) dr / n).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    masses = (float(mass),) * n
    if t == 0:
        return SurvivalReport(n, t, replicas, 1.0, 0.0, 1.0, 0.0, True)

    alive = 0
    cfg = SimConfig(n, masses, kernel, t, seed=seed)
    for replica in range(replicas):
        log = simulate_direct(cfg, rng_for(seed, replica, stream=11))
        if all(e.left != 0 and e.right != 0 for e in log.events):
            alive += 1
    p_direct = alive / replicas
    se_direct = math.sqrt(max(p_direct * (1 - p_direct), 1e-300) / replicas)

    bg_masses = (float(mass),) * (n - 1)
    y1 = float(mass)
    vals = np.empty(replicas)
    cfg = SimConfig(n - 1, bg_masses, kernel, t, seed=seed, rate_n=n)
    for replica in range(replicas):
        log = simulate_direct(cfg, rng_for(seed, replica, stream=13))
        live = {i: m for i, m in enumerate(bg_masses)}
        g = sum(float(kernel.evaluate(y1, m)) for m in live.values())
        integral = 0.0
        prev = 0.0
        for e in log.events:
            integral += g * (e.time - prev)
            prev = e.time
            ma = live.pop(e.left)
            mb = live.pop(e.right)
            live[e.node] = ma + mb
            g += float(kernel.evaluate(y1, ma + mb)) \
                - float(kernel.evaluate(y1, ma)) - float(kernel.evaluate(y1, mb))
        integral += g * (t - prev)
        vals[replica] = math.exp(-integral / n)
    p_exp = float(vals.mean())
    se_exp = float(vals.std(ddof=1) / math.sqrt(replicas))

    gap = abs(p_direct - p_exp)
    passed = gap <= 3.0 * math.hypot(se_direct, se_exp)
    return SurvivalReport(n, t, replicas, p_direct, se_direct, p_exp, se_exp, passed)


@dataclass(frozen=True)
class ConstructionReport:
    n: int
    replicas: int
    ks_pvalue: float
    pair_pvalue: float
    passed: bool


def construction_agreement_test(n: int, masses, kernel: Kernel, t: float,
                                replicas: int = 100000,
                                seed: int = 0) -> ConstructionReport:
    """Direct vs coupled construction: same law of (first event time, pair).

    Kolmogorov-Smirnov on first-event times, chi-squared contingency on the
    identity of the first merged pair; PASS at p > 0.001 for both.
    """
    from .simulate import simulate_coupled

    masses = tuple(float(m) for m in masses)
    samples = {"direct": ([], []), "coupled": ([], [])}
    for construction, (times, pairs) in samples.items():
        sim = simulate_direct if construction == "direct" else simulate_coupled
        stream = 17 if construction == "direct" else 19
        cfg = SimConfig(n, masses, kernel, t, seed=seed,
                        construction=construction)
        for replica in range(replicas):
            log = sim(cfg, rng_for(seed, replica, stream))
            if log.events:
                e = log.events[0]
                times.append(e.time)
                pairs.append((min(e.left, e.right), max(e.left, e.right)))

    ks_p = float(stats.ks_2samp(samples["direct"][0], samples["coupled"][0]).pvalue)
    pair_ids = sorted(set(samples["direct"][1]) | set(samples["coupled"][1]))
    table = np.array([
        [samples[c][1].count(p) for p in pair_ids] for c in ("direct", "coupled")
    ])
    pair_p = float(stats.chi2_contingency(table).pvalue)
    passed = ks_p > 0.001 and pair_p > 0.001
    return ConstructionReport(n, replicas, ks_p, pair_p, passed)


def tightness_diagnostic(m: EmpiricalHistoricalMeasure, n0: int) -> float:
    """Empirical-measure weight carried by trees with at least n0 leaves."""
    return m.weight * sum(1 for tree in m.atoms if tree.n_leaves >= n0)
