"""Statistical experiments: law-of-large-numbers sweeps and finite-N law checks.

``run_lln`` estimates E<f, mu~_t^N> by Monte Carlo over a ladder of system
sizes and compares against the limit functional; ``jump_density_test`` and
``survival_test`` check the finite-N jump-chain density and the survival
exponential on isolated small systems.  ``jump_density_test`` computes its
chi-square p-values in closed form with ``math`` alone, so the package needs
numpy and nothing else; ``scipy.stats.chisquare`` is their test oracle.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import limit as limit_measure
from .kernels import Kernel, check_gelation
from .simulate import (
    EmpiricalHistoricalMeasure,
    SimConfig,
    empirical_measure,
    evaluate_functional,
    replica_stream,
    simulate,
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
    jobs: int = 1
    solver_tol: ClassVar[float] = 1e-8

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        if len(self.replicas) != len(self.n_ladder):
            raise ValueError("need one replica count per ladder size")
        if len(self.n_ladder) < 2:
            raise ValueError("ladder needs at least two sizes")
        if any(r < 30 for r in self.replicas):
            raise ValueError("need at least 30 replicas per size for CLT intervals")
        # the field names in quotes, as a plan file's keys
        if not 0 < self.t < math.inf:
            raise ValueError(f'"t" must be positive and finite, got {self.t!r}')
        sizes = self.n_ladder
        if not all(isinstance(n, numbers.Integral) and n >= 1 for n in sizes) \
                or len(set(sizes)) < len(sizes):
            raise ValueError(f'"n_ladder" needs distinct positive integer sizes, got {sizes!r}')
        names = [name for name, _ in self.functionals]
        if not names or len(set(names)) < len(names):
            raise ValueError(f'"functionals" needs one or more distinct names, got {names!r}')
        if not sum(self.mu0.weights) > 0:
            raise ValueError(f'"mu0" needs a positive total weight, got {self.mu0.weights!r}')
        if not isinstance(self.tau_max_leaves, numbers.Integral) or self.tau_max_leaves < 1:
            raise ValueError('"tau_max_leaves" must be an integer of at least 1, got '
                             f"{self.tau_max_leaves!r}")
        if not self.quad_tol > 0:
            raise ValueError(f'"quad_tol" must be positive, got {self.quad_tol!r}')
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f'"seed" must be a nonnegative integer, got {self.seed!r}')
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
    # run telemetry, not part of to_json: the solve's relative mass leak,
    # accepted steps and right-hand-side evaluations, the unconverged limit
    # terms per functional, the limit terms read over all functionals and
    # the distinct time integrals behind them, and per ladder size N (keyed
    # str(N)) replicas, events, proposals and acceptance; solve_s, limit_s
    # and the ladder's seconds per size
    counters: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v == "PASS" for v in self.verdicts.values())

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
                    functionals: tuple) -> tuple:
    """Functional values of replicas start..start+count-1, one row each, and
    the runs' total events and thinning proposals."""
    out = np.empty((count, len(functionals)))
    events = proposals = 0
    cfg = SimConfig(masses, kernel, t)
    rng_at = replica_stream(seed, stream)
    for k in range(count):
        log = simulate(cfg, rng_at(start + k))
        events += len(log.events)
        proposals += log.proposals
        m = empirical_measure(log, t)
        for c, (_, f) in enumerate(functionals):
            out[k, c] = evaluate_functional(m, f)
    return out, events, proposals


def run_lln(plan: ExperimentPlan) -> ConvergenceReport:
    """Monte Carlo ladder in N against the limit functional.

    The limit side of every functional comes from one
    ``limit.functionals`` call, which integrates their shared terms once.
    With ``jobs == 1`` each ladder size is one ``_replica_values`` task, so
    one ``SimConfig`` and its sampler state serve all its replicas; with
    more jobs a size is split into four tasks per worker.  Either way
    replica k of size index i draws from ``replica_stream(seed, i)(k)``.

    Verdict per functional: PASS when the discrepancy at the largest N is
    within 3*(SE + quadrature error), the discrepancy ladder is non-increasing
    within combined-noise slack, and the replica variance decreases.
    """
    start = time.perf_counter()
    path = solve(plan.mu0, plan.kernel, plan.t, tol=plan.solver_tol)
    solved = time.perf_counter()
    names, fs = zip(*plan.functionals)
    results = limit_measure.functionals(fs, plan.tau_max_leaves, path, plan.mu0, plan.t,
                                        tol=plan.quad_tol)
    limits = dict(zip(names, results))
    tails = {name: res.tail_bound for name, res in limits.items()}
    timings = {"solve_s": solved - start, "limit_s": time.perf_counter() - solved,
               "ladder_s": {}}
    counters = {"mass_leak": path.leak,
                "solver_steps": path.steps, "solver_nfev": path.nfev,
                "unconverged_terms": {name: res.unconverged for name, res in limits.items()},
                "limit_terms": sum(res.terms for res in results),
                "limit_integrals": results[0].integrals}

    if plan.jobs > 1:
        # imported here: concurrent.futures.process and multiprocessing add
        # 1 to 2 MB to every import of the package, and most runs are serial
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=plan.jobs)
        run = pool.map
    else:
        pool, run = nullcontext(), map
    rows = []
    with pool:  # one pool for the whole ladder
        for stream, (n, reps) in enumerate(zip(plan.n_ladder, plan.replicas)):
            size_start = time.perf_counter()
            masses = plan.masses_for(n)
            # a serial rung is one task, so one SimConfig serves all of it
            chunk = reps if plan.jobs == 1 else max(1, reps // (plan.jobs * 4))
            tasks = [
                (plan.kernel, masses, plan.t, plan.seed, stream, s,
                 min(chunk, reps - s), plan.functionals)
                for s in range(0, reps, chunk)
            ]
            parts = list(run(_replica_values, *zip(*tasks)))
            vals = np.concatenate([p[0] for p in parts], axis=0)
            events = sum(p[1] for p in parts)
            proposals = sum(p[2] for p in parts)
            counters[str(n)] = {"replicas": reps, "events": events, "proposals": proposals,
                                "acceptance": events / proposals if proposals else None}
            timings["ladder_s"][str(n)] = time.perf_counter() - size_start
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
        seq = sorted((r for r in rows if r.functional == name), key=lambda r: r.n)
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
    return ConvergenceReport(tuple(rows), slopes, verdicts, tails, counters, timings)


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


def _chi2_tail(df: int, x: float) -> float:
    """P(X > x) for X chi-square with integer ``df`` >= 1 degrees of freedom.

    With y = x / 2 it is e^-y sum_{i<m} y^i / i! for df = 2m, and
    erfc(sqrt y) + e^-y sum_{i<m} y^(i+1/2) / Gamma(i + 3/2) for df = 2m + 1.
    Each term is the one before it times y / (i + 1), or y / (i + 3/2), and
    the terms are summed exactly; at x = 0 the tail is 1.0 exactly.
    """
    if not 0.0 <= x < math.inf:
        raise ValueError(f"chi-square statistic must be finite and nonnegative, got {x!r}")
    y = 0.5 * x
    m, odd = divmod(df, 2)
    term = math.exp(-y)
    if odd:
        term *= 2.0 * math.sqrt(y / math.pi)  # e^-y y^(1/2) / Gamma(3/2)
    terms = [math.erfc(math.sqrt(y))] if odd else []
    for i in range(m):
        terms.append(term)
        term *= y / (i + 1.5 if odd else i + 1)
    return math.fsum(terms)


def _chi2_pvalue(observed, expected) -> float:
    """Pearson chi-square p-value: the chi-square tail, with one degree of
    freedom less than the cells, at the statistic sum (observed -
    expected)^2 / expected.  The tests hold it within 1e-12 relative of
    ``scipy.stats.chisquare``."""
    stat = float(np.sum((observed - expected) ** 2 / expected))
    return _chi2_tail(len(observed) - 1, stat)


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
    if replicas < 2:  # a standard error, and so a verdict, needs two
        raise ValueError(f"replicas must be at least 2, got {replicas!r}")
    if not math.isfinite(t):  # the time bins would run to infinity
        raise ValueError(f"t must be finite, got {t!r}")
    masses = tuple(float(m) for m in masses)
    kmat = kernel.matrix(np.asarray(masses))
    pair_ids = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pair_rates = np.array([kmat[i, j] / n for i, j in pair_ids])
    total_rate = float(pair_rates.sum())

    first_times = []
    first_pairs = []
    cfg = SimConfig(masses, kernel, t)
    rng_at = replica_stream(seed, stream=7)
    for replica in range(replicas):
        log = simulate(cfg, rng_at(replica))
        if log.events:
            s, i, j = log.events[0]
            first_times.append(s)
            first_pairs.append((i, j))  # rows have left < right

    merged = len(first_times)
    if merged == 0:
        raise ValueError(f"no replica merged before t = {t!r} in replicas = {replicas}: "
                         "the first-merge-time law has nothing to test")
    edges = np.linspace(0.0, t, JUMP_TIME_BINS + 1)
    counts, _ = np.histogram(first_times, bins=edges)
    cdf = 1.0 - np.exp(-total_rate * edges)
    probs = np.diff(cdf) / cdf[-1]  # conditioned on a merge before t
    chi2_p = _chi2_pvalue(counts, merged * probs)

    pair_p = 1.0
    if n == 3:
        observed = np.array([first_pairs.count(p) for p in pair_ids])
        expected = merged * pair_rates / total_rate
        pair_p = _chi2_pvalue(observed, expected)
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
                  seed: int = 0) -> SurvivalReport:
    """Two independent estimates of P(particle 1 still unmerged at t), all
    n masses 1.

    Direct: frequency over n-particle runs.  Exponential: average over
    (n-1)-particle background runs (rates still scaled by n) of
    exp(-int_0^t sum_clusters K(1, m_cluster(r)) dr / n).  The sum starts
    at the same float in every run and moves by K(1, a + b) - K(1, a) -
    K(1, b) at a merge of masses a and b; K(1, m) is evaluated once per
    distinct mass of the whole test.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if replicas < 2:  # a standard error, and so a verdict, needs two
        raise ValueError(f"replicas must be at least 2, got {replicas!r}")
    if not math.isfinite(t):  # all would merge: both estimates 0, a vacuous pass
        raise ValueError(f"t must be finite, got {t!r}")
    masses = (1.0,) * n
    if t == 0:
        return SurvivalReport(n, t, replicas, 1.0, 0.0, 1.0, 0.0, True)

    alive = 0
    cfg = SimConfig(masses, kernel, t)
    rng_at = replica_stream(seed, stream=11)
    for replica in range(replicas):
        log = simulate(cfg, rng_at(replica))
        if all(i != 0 for _, i, _ in log.events):  # left < right: 0 is only ever left
            alive += 1
    p_direct = alive / replicas
    se_direct = math.sqrt(max(p_direct * (1 - p_direct), 1e-300) / replicas)

    bg_masses = masses[1:]
    vals = np.empty(replicas)
    cfg = SimConfig(bg_masses, kernel, t, rate_n=n)
    rng_at = replica_stream(seed, stream=13)
    rate = {m: float(kernel.evaluate(1.0, m)) for m in set(bg_masses)}  # K(1, m) by mass m
    g0 = sum(rate[m] for m in bg_masses)
    for replica in range(replicas):
        log = simulate(cfg, rng_at(replica))
        mass = list(bg_masses)  # by node id: merge k makes node n - 1 + k
        g = g0
        integral = 0.0
        prev = 0.0
        for s, i, j in log.events:
            integral += g * (s - prev)
            prev = s
            ma, mb = mass[i], mass[j]
            x = ma + mb
            mass.append(x)
            rx = rate.get(x)
            if rx is None:
                rx = rate[x] = float(kernel.evaluate(1.0, x))
            g += rx - rate[ma] - rate[mb]
        integral += g * (t - prev)
        vals[replica] = math.exp(-integral / n)
    p_exp = float(vals.mean())
    se_exp = float(vals.std(ddof=1) / math.sqrt(replicas))

    gap = abs(p_direct - p_exp)
    passed = gap <= 3.0 * math.hypot(se_direct, se_exp)
    return SurvivalReport(n, t, replicas, p_direct, se_direct, p_exp, se_exp, passed)


def tightness_diagnostic(m: EmpiricalHistoricalMeasure, n0: int) -> float:
    """Empirical-measure weight carried by trees with at least n0 leaves."""
    shapes, shape = m.shapes, m.shape
    return m.weight * sum(1 for i in m.atoms if shapes[shape[i]].n_leaves >= n0)
