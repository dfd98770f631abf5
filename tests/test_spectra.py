import numpy as np
import pytest
from numpy.testing import assert_allclose

from nmqubit.spectra import (
    FIT_MAX_SPANS,
    FitResult,
    LorentzianComponent,
    SpectrumSamples,
    _cost,
    _peak_pick,
    fit_lorentzian_mixture,
    lorentzian_psd,
    mixture_psd,
    nested_fits,
)

from conftest import kernel_psd_error, memory_kernel


class TestLorentzian:
    def test_peak_value(self):
        c = LorentzianComponent(center=10.0, linewidth=0.6, weight=1.0)
        assert lorentzian_psd(10.0, c) == pytest.approx(1.0)

    def test_half_width(self):
        c = LorentzianComponent(center=10.0, linewidth=0.6, weight=1.0)
        assert lorentzian_psd(10.3, c) == pytest.approx(0.5)
        assert lorentzian_psd(9.7, c) == pytest.approx(0.5)

    def test_hand_value(self):
        # 0.09 / (0.09 + 0.36) = 0.2
        c = LorentzianComponent(center=10.0, linewidth=0.6, weight=1.0)
        assert lorentzian_psd(10.6, c) == pytest.approx(0.2)

    def test_component_validation(self):
        with pytest.raises(ValueError):
            LorentzianComponent(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            LorentzianComponent(1.0, 1.0, -0.5)


class TestMixture:
    def test_single_component(self):
        c = LorentzianComponent(2.0, 0.5, 1.0)
        w = np.linspace(0, 4, 7)
        assert_allclose(mixture_psd(w, [c]), lorentzian_psd(w, c))

    def test_zero_weights(self):
        comps = [LorentzianComponent(1.0, 0.5, 0.0), LorentzianComponent(2.0, 0.3, 0.0)]
        assert mixture_psd(1.5, comps) == 0.0

    def test_peak_additivity(self):
        comps = [LorentzianComponent(2.0, 0.5, 0.7), LorentzianComponent(2.0, 0.5, 0.3)]
        assert mixture_psd(2.0, comps) == pytest.approx(1.0)

    def test_nonnegative_and_permutation_invariant(self, rng):
        comps = [
            LorentzianComponent(float(rng.uniform(-2, 2)), float(rng.uniform(0.1, 2)),
                                float(rng.uniform(0, 3)))
            for _ in range(4)
        ]
        w = np.linspace(-5, 5, 101)
        j1 = mixture_psd(w, comps)
        j2 = mixture_psd(w, comps[::-1])
        assert np.all(j1 >= 0)
        assert_allclose(j1, j2, atol=1e-12)


class TestMemoryKernel:
    def test_t0_real_sum(self):
        comps = [LorentzianComponent(1.0, 0.5, 2.0), LorentzianComponent(3.0, 1.2, 0.4)]
        val = memory_kernel(0.0, comps)
        want = 2.0 * 0.25 + 0.4 * 0.6
        assert val == pytest.approx(want)
        assert val.imag == 0.0

    def test_single_component_decay(self):
        c = LorentzianComponent(3.0, 0.8, 1.0)
        ts = np.linspace(0, 10, 50)
        mags = np.abs(memory_kernel(ts, [c]))
        assert_allclose(mags, 0.4 * np.exp(-0.4 * ts), atol=1e-12)
        assert np.all(np.diff(mags) < 0)

    def test_hand_value(self):
        # 0.3 e^{-0.3} e^{-10i}
        c = LorentzianComponent(10.0, 0.6, 1.0)
        want = 0.3 * np.exp(-0.3) * np.exp(-10j)
        assert memory_kernel(1.0, [c]) == pytest.approx(want)

    def test_bound(self, rng):
        comps = [
            LorentzianComponent(float(rng.uniform(-3, 3)), float(rng.uniform(0.1, 2)),
                                float(rng.uniform(0, 2)))
            for _ in range(3)
        ]
        bound = sum(c.weight * c.linewidth / 2 for c in comps)
        ts = rng.uniform(0, 20, size=25)
        assert np.all(np.abs(memory_kernel(ts, comps)) <= bound + 1e-12)


class TestKernelPsdConsistency:
    def test_fine_grid(self):
        c = LorentzianComponent(10.0, 0.6, 1.0)
        grid = np.linspace(8.2, 11.8, 19)
        err = kernel_psd_error(c, grid, t_max=50 / 0.6, dt=1e-3)
        assert err <= 1e-3

    def test_refinement_improves(self):
        c = LorentzianComponent(5.0, 0.8, 1.0)
        grid = np.linspace(3.5, 6.5, 11)
        coarse = kernel_psd_error(c, grid, t_max=15.0, dt=4e-3)
        fine = kernel_psd_error(c, grid, t_max=30.0, dt=2e-3)
        assert fine < coarse

    def test_degenerate_peak_grid(self):
        c = LorentzianComponent(10.0, 0.6, 1.0)
        err = kernel_psd_error(c, [10.0], t_max=50 / 0.6, dt=1e-3)
        assert err == pytest.approx(abs(1.0 - 1.0), abs=1e-3)


class TestFitting:
    def truth(self):
        return (
            LorentzianComponent(1.0, 0.5, 1.0),
            LorentzianComponent(3.0, 1.2, 0.4),
        )

    def samples(self, comps, lo=-3.0, hi=7.0, n=400):
        w = np.linspace(lo, hi, n)
        return SpectrumSamples(w, mixture_psd(w, comps))

    def test_recover_two_components_near_truth_init(self):
        truth = self.truth()
        samples = self.samples(truth)
        init = (
            LorentzianComponent(1.1, 0.6, 0.9),
            LorentzianComponent(2.8, 1.0, 0.5),
        )
        fit = fit_lorentzian_mixture(samples, init)
        got = sorted(fit.components, key=lambda c: c.center)
        for g, r in zip(got, sorted(truth, key=lambda c: c.center)):
            assert abs(g.center - r.center) / abs(r.center) < 1e-4
            assert abs(g.linewidth - r.linewidth) / r.linewidth < 1e-4
            assert abs(g.weight - r.weight) / r.weight < 1e-4

    def test_single_exact_fit(self):
        c = LorentzianComponent(2.0, 0.8, 1.3)
        samples = self.samples([c], lo=-1.0, hi=5.0, n=60)
        (fit,) = nested_fits(samples, 1)
        assert fit.rmse <= 1e-10

    def test_flat_spectrum_reports_honestly(self):
        w = np.linspace(0, 5, 40)
        samples = SpectrumSamples(w, np.full(40, 0.3))
        (fit,) = nested_fits(samples, 1)
        assert fit.rmse > 0  # a single line cannot be flat
        assert np.isfinite(fit.rmse)

    def test_insufficient_samples(self):
        w = np.linspace(0, 1, 5)
        samples = SpectrumSamples(w, np.ones(5))
        with pytest.raises(ValueError, match="need at least 6 samples"):
            fit_lorentzian_mixture(samples, self.truth())

    def test_peak_picking_initialization(self):
        # the one-line fit sits on the tallest peak, and the line added for
        # n = 2 on the largest peak of its residual
        fits = nested_fits(self.samples(self.truth()), 2)
        (first,) = fits[0].components
        assert abs(first.center - 1.0) < 0.2
        assert abs(fits[1].components[1].center - 3.0) < 0.6

    def test_nested_residuals_non_increasing(self):
        samples = self.samples(self.truth())
        fits = nested_fits(samples, 3)
        assert fits[1].rmse <= fits[0].rmse
        assert fits[2].rmse <= fits[1].rmse

    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["right-only", "left-only"])
    def test_peak_pick_one_sided_crossing(self, side):
        # the peak sits on the grid's edge, so only one half-maximum crossing
        # exists and the width is twice its distance from the center
        w = np.linspace(0.0, 4.0, 401)
        values = lorentzian_psd(w, LorentzianComponent(0.0, 1.0, 1.0))
        if side < 0:
            w, values = -w[::-1], values[::-1]
        pick = _peak_pick(w, values)
        assert abs(pick.center) < 1e-3
        assert abs(pick.linewidth - 1.0) < 1e-3

    def test_flat_spectrum_nested_residuals_non_increasing(self):
        # no line in the width box is flat, so later lines fit the remainder
        w = np.linspace(0, 5, 40)
        rmse = [fit.rmse for fit in nested_fits(SpectrumSamples(w, np.full(40, 0.3)), 3)]
        assert rmse[1] <= rmse[0] and rmse[2] <= rmse[1]

    def test_surplus_lines_keep_an_exact_fit(self):
        # any weight on a line added to an exact fit raises the residual, so
        # only its zero-weight start keeps the residual from rising
        samples = self.samples([LorentzianComponent(2.0, 0.8, 1.3)], lo=-1.0, hi=5.0, n=60)
        rmse = [fit.rmse for fit in nested_fits(samples, 3)]
        assert rmse[0] <= 1e-10
        assert rmse[1] <= rmse[0] and rmse[2] <= rmse[1]

    def test_start_off_the_grid_overflows_silently(self):
        # a line started far off the grid has almost no gradient, so the first
        # steps overflow the model; they are refused without a numpy warning
        w = np.linspace(-2.0, 6.0, 20)
        samples = SpectrumSamples(w, np.random.default_rng(1).uniform(0.0, 1.0, 20))
        start = (LorentzianComponent(50.0, 0.5, 1.0),)
        fit = fit_lorentzian_mixture(samples, start)
        (line,) = fit.components
        assert np.isfinite([line.center, line.linewidth, line.weight]).all()
        assert w[1] - w[0] <= line.linewidth <= FIT_MAX_SPANS * (w[-1] - w[0])
        assert fit.rmse <= np.sqrt(_cost(samples, start) / len(w))

    def test_start_outside_the_box_begins_at_its_edge(self):
        # a line started too narrow or too wide for the grid begins at the
        # box's edge and fits the line inside; left where it started, it would
        # refuse every step that does not bring it inside at once
        w = np.linspace(-2.0, 6.0, 20)
        truth = LorentzianComponent(2.0, 1.0, 1.0)
        samples = SpectrumSamples(w, mixture_psd(w, (truth,)))
        for width in (1e-3, 1e3):
            fit = fit_lorentzian_mixture(samples, (LorentzianComponent(2.0, width, 1.0),))
            (line,) = fit.components
            assert fit.rmse < 1e-12
            assert_allclose([line.center, line.linewidth, line.weight], [2.0, 1.0, 1.0],
                            rtol=1e-12)
        # a start outside the box that no line inside it matches is returned
        narrow = (LorentzianComponent(2.1, 0.01, 1.0),)
        samples = SpectrumSamples(w, mixture_psd(w, narrow))
        assert fit_lorentzian_mixture(samples, narrow).components == narrow

    def test_exact_start_is_returned(self):
        # pack then unpack moves linewidth and weight by an ULP; the start is
        # exact, so the fit reports the start itself
        start = (LorentzianComponent(2.0, 0.8, 1.3),)
        fit = fit_lorentzian_mixture(self.samples(start), start)
        assert fit.rmse == 0.0
        assert fit.components == start

    @pytest.mark.parametrize("n,seed,n_max", [(40, 9, 3), (20, 9, 2), (40, 17, 3), (20, 48, 3)]
                             + [(n, seed, 3) for n in (20, 40, 55) for seed in range(7)])
    def test_unstructured_spectrum_fits_stay_valid(self, n, seed, n_max):
        # steps that underflow a linewidth to 0 or overflow the model are
        # refused, silently: a numpy warning fails the suite.  Without the
        # linewidth box, seed 17 at n = 40 fitted a line of width 1.6e149 and
        # seed 48 at n = 20 one of width 2.2e-116
        w = np.linspace(-2.0, 6.0, n)
        samples = SpectrumSamples(w, np.random.default_rng(seed).uniform(0.0, 1.0, n))
        fits = nested_fits(samples, n_max)
        # the box, up to the ULP by which the fitter's log transform moves a
        # linewidth: a line started at the grid spacing may come back below it
        ulp = 4 * np.finfo(float).eps
        box = np.min(np.diff(w)) * (1 - ulp), FIT_MAX_SPANS * (w[-1] - w[0]) * (1 + ulp)
        for fit in fits:
            assert np.isfinite(fit.rmse)
            for c in fit.components:
                assert np.isfinite([c.center, c.linewidth, c.weight]).all()
                assert c.linewidth > 0 and c.weight >= 0
                assert box[0] <= c.linewidth <= box[1]
        assert all(b.rmse <= a.rmse for a, b in zip(fits, fits[1:]))

    def test_transforms_keep_constraints(self):
        samples = self.samples(self.truth())
        fits = nested_fits(samples, 3)
        for fit in fits:
            for c in fit.components:
                assert c.linewidth > 0
                assert c.weight >= 0


class TestSamplesCsv:
    def test_roundtrip(self, tmp_path, rng):
        w = np.sort(rng.uniform(-2, 2, size=12))
        w += np.arange(12) * 1e-6  # enforce strict increase
        vals = rng.uniform(0, 1, size=12)
        samples = SpectrumSamples(w, vals)
        path = samples.write_csv(tmp_path / "spec.csv")
        back = SpectrumSamples.read_csv(path)
        assert_allclose(back.omega, samples.omega)
        assert_allclose(back.values, samples.values)

    @pytest.mark.parametrize("row", ["0.5", "0.5,abc", "0.5,1.0,2.0"])
    def test_malformed_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "spec.csv"
        path.write_text(f"# comment\nomega,psd\n0.0,1.0\n{row}\n")
        with pytest.raises(ValueError, match=r"spec\.csv, line 4"):
            SpectrumSamples.read_csv(path)

    @pytest.mark.parametrize("header", ["", "omega,psd\n"])
    def test_every_row_kept_with_or_without_header(self, tmp_path, header):
        path = tmp_path / "spec.csv"
        path.write_text(f"# comment\n{header}0.0,1.0\n1.0,0.5\n2.0,0.25\n")
        back = SpectrumSamples.read_csv(path)
        assert_allclose(back.omega, [0.0, 1.0, 2.0])
        assert_allclose(back.values, [1.0, 0.5, 0.25])

    def test_bad_first_row_is_not_a_header(self, tmp_path):
        # a header's first field is not a number, so "1.0,2.0x" is a bad row
        path = tmp_path / "spec.csv"
        path.write_text("1.0,2.0x\n2.0,0.5\n3.0,0.25\n4.0,0.125\n")
        with pytest.raises(ValueError, match=r"spec\.csv, line 1: expected two numbers"):
            SpectrumSamples.read_csv(path)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpectrumSamples(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            SpectrumSamples(np.array([0.0, 1.0]), np.array([1.0, -1.0]))
