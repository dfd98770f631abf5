"""Lorentzian power spectra, the matching exponential memory kernels, their
numeric Fourier consistency, and least-squares fitting of arbitrary target
spectra by Lorentzian mixtures.

Each component contributes S(w) = (g^2/4) / ((g^2/4) + (w - c)^2), the squared
magnitude of the one-sided Fourier transform of the causal kernel
xi(t) = (g/2) exp(-(g/2 + i c) t).  A mixture J(w) = sum_k kappa_k S_k(w) can
approximate any reasonable nonnegative spectrum, which is what the fitter is
for.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: iteration budget of the damped Gauss-Newton fit loop
FIT_MAX_ITER = 200
#: the fit converges when the squared residual changes by less than this share
FIT_REL_TOL = 1e-10


@dataclass(frozen=True)
class LorentzianComponent:
    """One Lorentzian line: center frequency, linewidth (FWHM), and weight."""

    center: float
    linewidth: float
    weight: float

    def __post_init__(self) -> None:
        if self.linewidth <= 0:
            raise ValueError(f"linewidth must be > 0, got {self.linewidth}")
        if self.weight < 0:
            raise ValueError(f"weight must be >= 0, got {self.weight}")


@dataclass(frozen=True)
class SpectrumSamples:
    """Target spectrum samples on a strictly increasing frequency grid."""

    omega: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.omega, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if w.ndim != 1 or w.shape != v.shape:
            raise ValueError("omega and values must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(v))):
            raise ValueError("spectrum samples must be finite")
        if len(w) > 1 and np.any(np.diff(w) <= 0):
            raise ValueError("omega grid must be strictly increasing")
        if np.any(v < 0):
            raise ValueError("spectrum values must be nonnegative")
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "omega", w)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.omega)

    @classmethod
    def from_pairs(cls, pairs) -> SpectrumSamples:
        arr = np.asarray(list(pairs), dtype=float)
        return cls(arr[:, 0], arr[:, 1])

    def write_csv(self, path) -> Path:
        path = Path(path)
        lines = ["omega,psd"]
        lines += [f"{float(w)!r},{float(v)!r}" for w, v in zip(self.omega, self.values)]
        path.write_text("\n".join(lines) + "\n")
        return path

    @classmethod
    def read_csv(cls, path) -> SpectrumSamples:
        rows = []
        header_seen = False
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if not header_seen:
                    header_seen = True  # one-line column header
                    continue
                w, v = line.split(",")[:2]
                rows.append((float(w), float(v)))
        if not rows:
            raise ValueError(f"spectrum file {path} has no data rows")
        return cls.from_pairs(rows)


def lorentzian_psd(omega, comp: LorentzianComponent):
    """Unit-peak Lorentzian centered on comp.center with HWHM linewidth/2."""
    q = comp.linewidth * comp.linewidth / 4.0
    delta = np.asarray(omega, dtype=float) - comp.center
    out = q / (q + delta * delta)
    return float(out) if np.isscalar(omega) else out


def mixture_psd(omega, comps):
    """Weighted sum of component spectra."""
    out = np.zeros_like(np.asarray(omega, dtype=float))
    for c in comps:
        out = out + c.weight * lorentzian_psd(np.asarray(omega, dtype=float), c)
    return float(out) if np.isscalar(omega) else out


def memory_kernel(t, comps):
    """Causal kernel sum_k kappa_k (gamma_k/2) exp(-(gamma_k/2 + i omega_k) t).

    Defined for t >= 0 only; |value| is bounded by sum_k kappa_k gamma_k / 2.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("memory kernel is causal; t must be >= 0")
    out = np.zeros_like(t_arr, dtype=complex)
    for c in comps:
        out = out + c.weight * (c.linewidth / 2.0) * np.exp(
            -(c.linewidth / 2.0 + 1j * c.center) * t_arr
        )
    return complex(out) if np.isscalar(t) else out


def kernel_psd_consistency(comps, omega_grid, t_max: float, dt: float) -> float:
    """Max grid error between |one-sided FT of each kernel component|^2 and its
    Lorentzian spectrum, using trapezoidal quadrature on [0, t_max].

    Requires dt to resolve the fastest oscillation (20 samples per period) and
    t_max to cover the slowest decay (at least 10 / min linewidth).
    """
    comps = tuple(comps)
    if not comps:
        raise ValueError("at least one component is required")
    omega_grid = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    if dt <= 0 or t_max <= 0:
        raise ValueError("dt and t_max must be > 0")
    w_scale = max(np.max(np.abs(omega_grid)), max(abs(c.center) for c in comps))
    if w_scale > 0 and dt > (2.0 * np.pi / w_scale) / 20.0:
        raise ValueError(
            f"dt={dt:g} too coarse for frequencies up to {w_scale:g}; "
            f"need dt <= {(2.0 * np.pi / w_scale) / 20.0:g}"
        )
    slowest = min(c.linewidth for c in comps)
    if t_max < 10.0 / slowest:
        raise ValueError(
            f"t_max={t_max:g} too short for linewidth {slowest:g}; "
            f"need t_max >= {10.0 / slowest:g}"
        )
    t = np.arange(0.0, t_max + 0.5 * dt, dt)
    weights = np.full(len(t), dt)
    weights[0] = weights[-1] = 0.5 * dt
    worst = 0.0
    for c in comps:
        xi = (c.linewidth / 2.0) * np.exp(-(c.linewidth / 2.0 + 1j * c.center) * t)
        for w in omega_grid:
            ft = np.sum(weights * xi * np.exp(1j * w * t))
            err = abs(abs(ft) ** 2 - lorentzian_psd(float(w), c))
            worst = max(worst, float(err))
    return worst


@dataclass
class FitResult:
    components: tuple[LorentzianComponent, ...]
    rmse: float
    converged: bool
    iterations: int


def _pack(comps) -> np.ndarray:
    # parameters per component: center, log(linewidth), sqrt(weight)
    theta = np.empty(3 * len(comps))
    for k, c in enumerate(comps):
        theta[3 * k] = c.center
        theta[3 * k + 1] = np.log(c.linewidth)
        theta[3 * k + 2] = np.sqrt(c.weight)
    return theta


def _unpack(theta: np.ndarray) -> tuple[LorentzianComponent, ...]:
    comps = []
    for k in range(len(theta) // 3):
        comps.append(
            LorentzianComponent(
                center=float(theta[3 * k]),
                linewidth=float(np.exp(theta[3 * k + 1])),
                weight=float(theta[3 * k + 2] ** 2),
            )
        )
    return tuple(comps)


def _residual_and_jacobian(theta: np.ndarray, omega: np.ndarray, target: np.ndarray):
    n = len(theta) // 3
    model = np.zeros_like(omega)
    jac = np.empty((len(omega), 3 * n))
    for k in range(n):
        c, u, v = theta[3 * k], theta[3 * k + 1], theta[3 * k + 2]
        g = np.exp(u)
        kap = v * v
        q = g * g / 4.0
        delta = omega - c
        denom = q + delta * delta
        s = q / denom
        model += kap * s
        # d s / d c, chain-ruled transforms for linewidth and weight
        jac[:, 3 * k] = kap * 2.0 * q * delta / (denom * denom)
        jac[:, 3 * k + 1] = kap * g * (g / 2.0) * delta * delta / (denom * denom)
        jac[:, 3 * k + 2] = 2.0 * v * s
    return model - target, jac


def _peak_pick(omega: np.ndarray, resid: np.ndarray) -> LorentzianComponent:
    """Initialize one component from the largest residual peak: its location
    sets the center, the half-maximum crossings the linewidth, its height the
    weight."""
    j = int(np.argmax(resid))
    center = float(omega[j])
    height = float(max(resid[j], 1e-12))
    half = height / 2.0

    def cross(direction: int) -> float | None:
        i = j
        while 0 <= i + direction < len(omega):
            i += direction
            if resid[i] <= half:
                # linear interpolation between i-direction and i
                w0, w1 = omega[i - direction], omega[i]
                r0, r1 = resid[i - direction], resid[i]
                if r0 == r1:
                    return float(w1)
                frac = (r0 - half) / (r0 - r1)
                return float(w0 + frac * (w1 - w0))
        return None

    left, right = cross(-1), cross(+1)
    if left is not None and right is not None:
        width = right - left
    elif left is not None:
        width = 2.0 * (center - left)
    elif right is not None:
        width = 2.0 * (right - center)
    else:
        width = (omega[-1] - omega[0]) / 4.0
    spacing = np.min(np.diff(omega)) if len(omega) > 1 else 1.0
    width = max(width, spacing)
    return LorentzianComponent(center=center, linewidth=width, weight=height)


def default_initialization(samples: SpectrumSamples, n: int) -> tuple[LorentzianComponent, ...]:
    """Sequential peak picking on the residual spectrum."""
    comps: list[LorentzianComponent] = []
    for _ in range(n):
        resid = samples.values - mixture_psd(samples.omega, comps)
        comps.append(_peak_pick(samples.omega, resid))
    return tuple(comps)


def fit_lorentzian_mixture(samples: SpectrumSamples, n: int, init=None) -> FitResult:
    """Fit an n-component Lorentzian mixture to sampled spectrum values.

    Parameters
    ----------
    samples : SpectrumSamples
        Target (omega, value) samples; at least 3n points are required.
    n : int
        Number of components.
    init : sequence of LorentzianComponent, optional
        Starting components; peak picking on the residual spectrum otherwise.

    Returns
    -------
    FitResult
        Fitted components, root-mean-square residual, a convergence flag, and
        the number of iterations spent.  Linewidths stay positive and weights
        nonnegative through internal log/sqrt transforms.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(samples) < 3 * n:
        raise ValueError(
            f"need at least {3 * n} samples to fit {n} components, got {len(samples)}"
        )
    omega = samples.omega
    target = samples.values
    comps = tuple(init) if init is not None else default_initialization(samples, n)
    if len(comps) != n:
        raise ValueError(f"init must provide {n} components, got {len(comps)}")

    theta = _pack(comps)
    resid, jac = _residual_and_jacobian(theta, omega, target)
    cost = float(resid @ resid)
    lam = 1e-3
    converged = cost <= 1e-30
    iterations = 0
    while not converged and iterations < FIT_MAX_ITER:
        iterations += 1
        a = jac.T @ jac
        g = jac.T @ resid
        diag = np.diag(a).copy()
        diag[diag <= 0] = 1e-12
        try:
            step = np.linalg.solve(a + lam * np.diag(diag), -g)
        except np.linalg.LinAlgError:
            lam = min(lam * 10.0, 1e12)
            continue
        trial = theta + step
        trial_resid, trial_jac = _residual_and_jacobian(trial, omega, target)
        trial_cost = float(trial_resid @ trial_resid)
        if trial_cost < cost:
            change = (cost - trial_cost) / max(cost, 1e-300)
            theta, resid, jac, cost = trial, trial_resid, trial_jac, trial_cost
            lam = max(lam / 3.0, 1e-12)
            if change < FIT_REL_TOL or cost <= 1e-30:
                converged = True
                break
        else:
            lam = min(lam * 10.0, 1e12)
            if lam >= 1e12:
                break

    # Report through one canonical evaluation path, and never return a result
    # worse than the starting point (best-so-far semantics).
    def canonical_cost(cs) -> float:
        r = mixture_psd(omega, cs) - target
        return float(r @ r)

    final = _unpack(theta)
    best, best_cost = final, canonical_cost(final)
    init_cost = canonical_cost(comps)
    if init_cost < best_cost:
        best, best_cost = comps, init_cost
    return FitResult(
        components=best,
        rmse=float(np.sqrt(best_cost / len(omega))),
        converged=converged,
        iterations=iterations,
    )


def nested_fits(samples: SpectrumSamples, n_max: int) -> list[FitResult]:
    """Fits for n = 1 .. n_max where each initialization reuses the previous
    components plus one candidate picked from the residual peak.

    The candidate is tried at several weights including zero, so each fit
    starts no worse than its predecessor ended and the reported residual is
    non-increasing in n.
    """
    results: list[FitResult] = []
    for n in range(1, n_max + 1):
        if n == 1 or not results:
            fit = fit_lorentzian_mixture(samples, n)
        else:
            prev = results[-1].components
            resid = samples.values - mixture_psd(samples.omega, prev)
            extra = _peak_pick(samples.omega, resid)
            best_init = None
            best_cost = np.inf
            for scale in (1.0, 0.5, 0.1, 0.0):
                cand = LorentzianComponent(extra.center, extra.linewidth, extra.weight * scale)
                comps = prev + (cand,)
                r = mixture_psd(samples.omega, comps) - samples.values
                c = float(r @ r)
                if c < best_cost:
                    best_cost = c
                    best_init = comps
            fit = fit_lorentzian_mixture(samples, n, init=best_init)
        results.append(fit)
    return results
