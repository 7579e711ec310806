"""The benchmark's workloads: inputs, timed rounds, output checks and the
traced replay through the program's public stage functions.

A round is the unit a run repeats: one ``bwfrechet test`` call for the CLI
workload, one size study of a fixed number of trials for a study workload.
Every partial-effect test in a round is one operation.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import statistics
import sys
import time
import warnings

import numpy as np
from scipy import stats

import bwfrechet
from bwfrechet import cli, dataio, experiments, frechet, manifold, partial_test, simgen

import checks
from spans import Recorder

EXAMPLE = 1            # commuting responses: the closed-form checks rely on it
P_Y, P_Z, D = 3, 3, 6
ALPHA = 0.05
STAT_RTOL = 1e-9       # closed form against the program; both are exact up to rounding
FOC_RTOL = 1e-6        # first-order residual relative to tr(fit); the solver stops at 1e-8
FROM_FITS_RTOL = 1e-8  # statistic and trace rebuilt from the program's own fits
FIT_SAMPLE = 48        # query points replayed through weighted_frechet_mean
THREADS = 1            # fit threads of every workload; the layer probe also times 2
TRANSPORT_SAMPLE = 32  # evaluation points replayed through TransportBatch


@dataclasses.dataclass(frozen=True)
class Spec:
    name: str
    n: int
    tests_per_round: int
    cli: bool
    mc_draws: int = 100_000

    def tiny(self):
        """The same workload at a size that runs in seconds (self-check mode)."""
        return dataclasses.replace(self, n=120, tests_per_round=min(self.tests_per_round, 2), mc_draws=2000)


SPECS = {
    spec.name: spec
    for spec in (
        Spec("test-ex1-n800", n=800, tests_per_round=1, cli=True),
        Spec("size-ex1-n200", n=200, tests_per_round=5, cli=False),
    )
}


def round_seed(seed, index):
    """Root seed of study round ``index``: rounds see fresh data draws."""
    return int(np.random.SeedSequence((int(seed), int(index))).generate_state(1)[0])


def _quiet(fn, *args):
    """Call ``fn`` with its stdout captured and solver warnings silenced."""
    with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return fn(*args)


def _median(values):
    return float(statistics.median(values))


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


class Bench:
    def __init__(self, spec, seed, workdir):
        self.spec = spec
        self.seed = int(seed)
        self.workdir = workdir
        self.data_path = os.path.join(workdir, "data.json")

    # -- inputs --------------------------------------------------------------

    def study_config(self, index):
        s = self.spec
        return experiments.ExperimentConfig(
            example=EXAMPLE, n=s.n, p_y=P_Y, p_z=P_Z, d=D, trials=s.tests_per_round,
            alpha=ALPHA, mc_draws=s.mc_draws, seed=round_seed(self.seed, index), threads=THREADS,
        )

    def trial_data(self, config, index):
        data_seed, _ = experiments.trial_seeds(config.seed, index)
        return simgen.generate(config.sim_config(seed=data_seed))[0]

    def make_inputs(self):
        """Write the CLI dataset with ``simulate``, or draw the first study round."""
        s = self.spec
        if s.cli:
            code = _quiet(cli.main, [
                "simulate", "--example", str(EXAMPLE), "--n", str(s.n), "--p-y", str(P_Y),
                "--p-z", str(P_Z), "--d", str(D), "--seed", str(self.seed), "--out", self.data_path,
            ])
            if code != 0:
                raise RuntimeError(f"simulate exited with {code}")
            return
        config = self.study_config(0)
        self.first_round = [self.trial_data(config, i) for i in range(s.tests_per_round)]

    # -- timed rounds --------------------------------------------------------

    def run_round(self, index):
        """One round; returns (attempted, failed, output)."""
        s = self.spec
        if s.cli:
            out = os.path.join(self.workdir, f"result-{index}.json")
            code = _quiet(cli.main, [
                "test", "--data", self.data_path, "--threads", str(THREADS), "--seed", str(self.seed),
                "--mc-draws", str(s.mc_draws), "--out", out,
            ])
            return 1, int(code != 0), out if code == 0 else None
        result = _quiet(experiments.run_size_study, self.study_config(index))
        return s.tests_per_round, s.tests_per_round - result.completed, result

    # -- output checks -------------------------------------------------------

    def check_test(self, x, q, p1, statistic, p_value, quantile, reject, eigenvalues):
        """Check one test's outputs against the closed form and the exact mixture."""
        lam = np.asarray(eigenvalues)
        checks.require(lam.min() >= 0 and np.all(np.diff(lam) <= 0), "eigenvalues not nonnegative and descending")
        ref_stat, ref_eig, ref_trace = checks.ex1_closed_form(x, q, p1)
        checks.require(abs(statistic - ref_stat) <= STAT_RTOL * ref_stat,
                       f"statistic {statistic!r} vs closed form {ref_stat!r}")
        checks.require(lam.shape == ref_eig.shape and checks.rel_err(lam, ref_eig) <= STAT_RTOL,
                       f"eigenvalues differ from the closed form by {checks.rel_err(lam, ref_eig):.3g}")
        checks.require(abs(lam.sum() - ref_trace) <= STAT_RTOL * ref_trace,
                       f"eigenvalue sum {lam.sum()!r} vs kernel trace {ref_trace!r}")
        checks.check_calibration(statistic, p_value, quantile, lam, ALPHA, self.spec.mc_draws)
        checks.require(reject == (statistic > quantile), "reject flag disagrees with statistic > quantile")

    def check_outputs(self, outputs):
        """Check every round's outputs; raises checks.CheckFailed."""
        if self.spec.cli and outputs:
            self._check_cli(outputs)
        else:
            for index, result in enumerate(outputs):
                self._check_study(index, result)

    def _check_cli(self, paths):
        with open(paths[0], "rb") as fh:
            raw = fh.read()
        for path in paths[1:]:
            with open(path, "rb") as fh:
                checks.require(fh.read() == raw, f"{os.path.basename(path)} differs from the first round's result")
        result = json.loads(raw)
        with open(self.data_path, "rb") as fh:
            data_raw = fh.read()
        checks.require(result["input_sha256"] == hashlib.sha256(data_raw).hexdigest(), "input_sha256 mismatch")
        data = json.loads(data_raw)
        x = np.asarray(data["covariates"], dtype=float)
        q = np.asarray(data["responses"], dtype=float)
        n1 = (x.shape[0] + 1) // 2
        diag = result["diagnostics"]
        checks.require((diag["n1"], diag["n2"]) == (n1, x.shape[0] - n1), "split sizes in result.json")
        checks.require(result["mc_draws"] == self.spec.mc_draws and result["alpha"] == ALPHA, "options in result.json")
        self.check_test(x, q, data["p1"], result["statistic"], result["p_value"], result["quantile"],
                        result["reject"], result["eigenvalues"])

    def _check_study(self, index, result):
        config = self.study_config(index)
        done = [r for r in result.records if r.error is None]
        checks.require(result.completed == len(done) == config.trials, "study did not complete every trial")
        rejections = sum(1 for r in done if r.reject)
        checks.require(result.rejections == rejections, "rejection count disagrees with the records")
        checks.require(result.rejection_rate == rejections / len(done), "rejection rate disagrees with the records")
        low = 0.0 if rejections == 0 else stats.beta.ppf(0.025, rejections, len(done) - rejections + 1)
        high = 1.0 if rejections == len(done) else stats.beta.ppf(0.975, rejections + 1, len(done) - rejections)
        checks.require(abs(result.ci_low - low) <= 1e-12 and abs(result.ci_high - high) <= 1e-12,
                       "Clopper-Pearson interval")
        for rec in done:
            data = self.first_round[rec.index] if index == 0 else self.trial_data(config, rec.index)
            self.check_test(data.covariates, data.responses, data.p1, rec.statistic, rec.p_value,
                            rec.quantile, rec.reject, rec.eigenvalues)

    # -- traced replay -------------------------------------------------------

    def replay(self, rec, index):
        """Replay round ``index`` test by test through the public stage functions.

        Returns one dict per test with its statistic, eigenvalues, p-value,
        quantile and the objects the layer probes reuse.
        """
        s = self.spec
        out = []
        if s.cli:
            jobs = [(None, self.seed)]
        else:
            config = self.study_config(index)
            jobs = [(config, i) for i in range(config.trials)]
        for config, key in jobs:
            with rec.span("test"):
                if config is None:
                    with rec.span("dataio.load_dataset"):
                        data = dataio.load_dataset(self.data_path)
                    with rec.span("dataio.dataset_checksum"):
                        dataio.dataset_checksum(self.data_path)
                    mc_seed = key
                else:
                    with rec.span("experiments.trial_seeds"):
                        data_seed, mc_seed = experiments.trial_seeds(config.seed, key)
                    with rec.span("simgen.generate"):
                        data, _ = simgen.generate(config.sim_config(seed=data_seed))
                with rec.span("partial_test.split_dataset"):
                    split = partial_test.split_dataset(data)
                with rec.span("partial_test.fit_first_half"):
                    fit = _quiet(partial_test.fit_first_half, split, frechet.SolverOptions(), THREADS)
                with rec.span("partial_test.test_statistic"):
                    statistic = partial_test.test_statistic(fit)
                with rec.span("partial_test.kernel_matrix"):
                    kernel = partial_test.kernel_matrix(fit)
                with rec.span("partial_test.null_eigenvalues"):
                    lam = partial_test.null_eigenvalues(kernel)
                with rec.span("partial_test.mixture_quantile"):
                    quantile = partial_test.mixture_quantile(lam, ALPHA, s.mc_draws, mc_seed)
                with rec.span("partial_test.p_value"):
                    p_value = partial_test.p_value(statistic, lam, s.mc_draws, mc_seed)
            out.append({"statistic": statistic, "p_value": p_value, "quantile": quantile,
                        "eigenvalues": lam, "data": data, "split": split, "fit": fit})
        return out

    def untraced_values(self, output):
        """(statistic, p-value, quantile, eigenvalues) of each test of a round."""
        if self.spec.cli:
            with open(output, encoding="utf-8") as fh:
                r = json.load(fh)
            return [(r["statistic"], r["p_value"], r["quantile"], np.asarray(r["eigenvalues"]))]
        return [(r.statistic, r.p_value, r.quantile, np.asarray(r.eigenvalues)) for r in output.records]

    def check_replay(self, replayed, output):
        """The replay must reproduce the untraced outputs exactly."""
        expected = self.untraced_values(output)
        checks.require(len(expected) == len(replayed), "replay ran a different number of tests")
        for exp, got in zip(expected, replayed):
            same = (exp[0] == got["statistic"] and exp[1] == got["p_value"] and exp[2] == got["quantile"]
                    and np.array_equal(exp[3], got["eigenvalues"]))
            checks.require(same, "traced replay did not reproduce the untraced statistic, eigenvalues and p-value")

    def check_from_fits(self, test):
        """Rebuild the statistic and kernel trace from the program's fits."""
        data, fit = test["data"], test["fit"]
        stat, trace, resid = checks.statistic_and_trace(
            data.covariates, data.responses, data.p1, fit.means_second, fit.means_second_imputed)
        checks.require(resid.max() <= FOC_RTOL, f"a fit misses its first-order condition by {resid.max():.3g}")
        checks.require(abs(stat - test["statistic"]) <= FROM_FITS_RTOL * stat,
                       f"statistic {test['statistic']!r} vs rebuilt from fits {stat!r}")
        lam_sum = float(np.sum(test["eigenvalues"]))
        checks.require(abs(lam_sum - trace) <= FROM_FITS_RTOL * trace,
                       f"eigenvalue sum {lam_sum!r} vs kernel trace rebuilt from fits {trace!r}")

    # -- per-layer probes ----------------------------------------------------

    def layer_probes(self, rec, test):
        """Per-layer numbers measured apart from the replay, on its first test."""
        s = self.spec
        data, split, fit = test["data"], test["split"], test["fit"]
        m = {}
        path = os.path.join(self.workdir, "probe.json")
        with rec.span("probe.dataio"):
            m["dataio.write_s"] = _median([_timed(dataio.write_dataset, path, data)[0] for _ in range(3)])
            m["dataio.load_s"] = _median([_timed(dataio.load_dataset, path)[0] for _ in range(3)])
            m["dataio.checksum_s"] = _median([_timed(dataio.dataset_checksum, path)[0] for _ in range(3)])
        with rec.span("probe.simgen"):
            if s.cli:
                config = simgen.SimConfig(example=EXAMPLE, n=s.n, p_y=P_Y, p_z=P_Z, d=D, seed=self.seed)
            else:
                study = self.study_config(0)
                config = study.sim_config(seed=experiments.trial_seeds(study.seed, 0)[0])
            m["simgen.generate_s"] = _median([_timed(simgen.generate, config)[0] for _ in range(3)])

        with rec.span("probe.frechet"):
            q1 = split.first_responses
            x1 = split.first_covariates
            x2 = split.second_covariates
            xhat2 = partial_test.imputed_covariates(x2, split.moments)
            points = np.concatenate([x1, x2, xhat2])
            stored = np.concatenate([fit.means_first, fit.means_second, fit.means_second_imputed])
            times, iters = [], []
            for k in np.unique(np.linspace(0, points.shape[0] - 1, FIT_SAMPLE).astype(int)):
                w = frechet.regression_weights(points[k], x1, split.moments)
                dt, res = _timed(_quiet, frechet.weighted_frechet_mean, q1, w)
                checks.require(np.array_equal(res.mean, stored[k]), f"weighted_frechet_mean replay differs at point {k}")
                times.append(dt)
                iters.append(res.iterations)
            m["frechet.fit_ms"] = 1e3 * _median(times)
            m["frechet.iterations_per_fit"] = float(np.mean(iters))
            m["frechet.iterations_max"] = int(max(iters))
            m["frechet.fits_per_test"] = int(fit.n_fits)

        with rec.span("probe.manifold"):
            times = []
            for k in np.unique(np.linspace(0, split.n2 - 1, TRANSPORT_SAMPLE).astype(int)):
                t0 = time.perf_counter()
                batch = manifold.TransportBatch(fit.means_second_imputed[k], q1)
                batch.maps()
                batch.dt_factors()
                times.append(time.perf_counter() - t0)
            m["manifold.transport_batch_ms"] = 1e3 * _median(times)

        with rec.span("probe.threads"):
            t2, _ = _timed(_quiet, partial_test.fit_first_half, split, frechet.SolverOptions(), 2)
            m["partial_test.fit_thread_speedup"] = rec.durations("partial_test.fit_first_half")[0] / t2

        lam = test["eigenvalues"]
        m["partial_test.kernel_rank"] = int(np.sum(lam > lam[0] * lam.size * np.finfo(float).eps))
        m["partial_test.calibration_normals"] = int(s.mc_draws * lam.size)
        m["partial_test.first_half_fit_mb"] = held_bytes([getattr(fit, f.name) for f in dataclasses.fields(fit)
                                                          if f.name not in ("split", "options")]) / 1e6
        return m


def held_bytes(obj):
    """Bytes of the arrays an object holds, through lists and operator wrappers."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(held_bytes(item) for item in obj)
    if isinstance(obj, manifold.SymOperator):
        return obj.matrix.nbytes
    return 0


STAGES = {
    "partial_test.split_s": "partial_test.split_dataset",
    "partial_test.fit_first_half_s": "partial_test.fit_first_half",
    "partial_test.statistic_s": "partial_test.test_statistic",
    "partial_test.kernel_s": "partial_test.kernel_matrix",
    "partial_test.eigen_s": "partial_test.null_eigenvalues",
    "partial_test.calibration_s": "partial_test.p_value",
}


def traced_run(bench):
    """A warm-up round, a timed untraced round, its traced replay and the layer probes.

    The public ``mixture_quantile`` and ``p_value`` each draw the normals,
    where ``run_partial_test`` draws them once, so the replay's
    ``mixture_quantile`` spans are taken out of its trial times and of the
    tracing overhead. Returns (tests attempted, per-layer metrics, recorder,
    trace header).
    """
    attempted = 0
    for _ in range(2):  # the first round warms the process; the second is the baseline
        t0 = time.perf_counter()
        a, failed, output = bench.run_round(0)
        untraced = time.perf_counter() - t0
        attempted += a
        checks.require(not failed, f"{failed} of {a} tests failed in an untraced round")
    bench.check_outputs([output])

    rec = Recorder()
    t0 = time.perf_counter()
    with rec.span("replay"):
        replayed = bench.replay(rec, 0)
    traced = time.perf_counter() - t0
    bench.check_replay(replayed, output)
    bench.check_from_fits(replayed[0])

    extra = rec.durations("partial_test.mixture_quantile")
    overhead = traced - sum(extra) - untraced
    metrics = {name: _median(rec.durations(span)) for name, span in STAGES.items()}
    metrics["experiments.trial_s"] = _median([t - q for t, q in zip(rec.durations("test"), extra)])
    metrics.update(bench.layer_probes(rec, replayed[0]))
    metrics["frechet.nonconverged_per_test"] = float(np.mean([t["fit"].nonconverged for t in replayed]))
    metrics["trace.overhead_s"] = overhead
    header = {"workload": bench.spec.name, "seed": bench.seed, "untraced_s": untraced,
              "traced_s": traced, "extra_calibration_s": sum(extra), "overhead_s": overhead,
              "program": getattr(bwfrechet, "__version__", None), "python": sys.version.split()[0]}
    return attempted + len(replayed), metrics, rec, header
