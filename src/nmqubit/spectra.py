"""Lorentzian power spectra and least-squares fitting of arbitrary target
spectra by Lorentzian mixtures.

Each component contributes S(w) = (g^2/4) / ((g^2/4) + (w - c)^2), the squared
magnitude of the one-sided Fourier transform of the causal kernel
xi(t) = (g/2) exp(-(g/2 + i c) t), which is the memory of one damped mode.
A mixture J(w) = sum_k kappa_k S_k(w) can approximate any reasonable
nonnegative spectrum; ``nested_fits`` fits 1 .. n components, each start
taking one more line from the largest residual peak.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: iteration budget of the damped Gauss-Newton fit loop
FIT_MAX_ITER = 200
#: the fit converges when the squared residual changes by less than this share
FIT_REL_TOL = 1e-10
#: widest fitted linewidth, in grid spans: wider, a line is flat to 4% on the grid
FIT_MAX_SPANS = 10.0


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

    def write_csv(self, path) -> Path:
        path = Path(path)
        lines = ["omega,psd"]
        lines += [f"{float(w)!r},{float(v)!r}" for w, v in zip(self.omega, self.values)]
        path.write_text("\n".join(lines) + "\n")
        return path

    @classmethod
    def read_csv(cls, path) -> SpectrumSamples:
        """Rows of ``omega,psd`` after ``#`` comments; the first other line is
        a column header when its first field does not parse as a number."""
        rows, linenos = [], []
        first = True
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    w, v = line.split(",")
                    rows.append((float(w), float(v)))
                    linenos.append(lineno)
                except ValueError:
                    if not (first and _is_header(line)):
                        raise ValueError(f"{path}, line {lineno}: expected two numbers "
                                         f"'omega,psd', got {line!r}") from None
                first = False
        if not rows:
            raise ValueError(f"spectrum file {path} has no data rows")
        try:
            return cls(*np.array(rows).T)
        except ValueError:
            # each rule holds row by row or between neighbours: name the first row breaking one
            for i, lineno in enumerate(linenos):
                try:
                    cls(*np.array(rows[max(i - 1, 0):i + 1]).T)
                except ValueError as exc:
                    raise ValueError(f"{path}, line {lineno}: {exc}") from None
            raise


def _is_header(line: str) -> bool:
    try:
        float(line.split(",")[0])
    except ValueError:
        return True
    return False


def lorentzian_psd(omega, comp: LorentzianComponent):
    """Unit-peak Lorentzian centered on comp.center with HWHM linewidth/2."""
    q = comp.linewidth * comp.linewidth / 4.0
    delta = np.asarray(omega, dtype=float) - comp.center
    out = q / (q + delta * delta)
    return float(out) if np.isscalar(omega) else out


def mixture_psd(omega, comps):
    """Weighted sum of component spectra."""
    w = np.asarray(omega, dtype=float)
    out = sum((c.weight * lorentzian_psd(w, c) for c in comps), np.zeros_like(w))
    return float(out) if np.isscalar(omega) else out


@dataclass
class FitResult:
    components: tuple[LorentzianComponent, ...]
    rmse: float
    converged: bool
    iterations: int


def _pack(comps) -> np.ndarray:
    # one row per line: center, log(linewidth), sqrt(weight)
    return np.array([(c.center, np.log(c.linewidth), np.sqrt(c.weight)) for c in comps]).ravel()


def _unpack(theta: np.ndarray) -> tuple[LorentzianComponent, ...]:
    return tuple(LorentzianComponent(float(c), float(np.exp(u)), float(v ** 2))
                 for c, u, v in theta.reshape(-1, 3))


def _residual_and_jacobian(theta: np.ndarray, omega: np.ndarray, target: np.ndarray):
    model = np.zeros_like(omega)
    jac = np.empty((len(omega), len(theta) // 3, 3))
    for k, (c, u, v) in enumerate(theta.reshape(-1, 3)):
        g = np.exp(u)
        kap = v * v
        q = g * g / 4.0
        delta = omega - c
        denom = q + delta * delta
        s = q / denom
        model += kap * s
        # d s / d c, chain-ruled transforms for linewidth and weight
        jac[:, k, 0] = kap * 2.0 * q * delta / (denom * denom)
        jac[:, k, 1] = kap * g * (g / 2.0) * delta * delta / (denom * denom)
        jac[:, k, 2] = 2.0 * v * s
    return model - target, jac.reshape(len(omega), -1)


def _peak_pick(omega: np.ndarray, resid: np.ndarray) -> LorentzianComponent:
    """Initialize one component from the largest residual peak: its location
    sets the center, the half-maximum crossings the linewidth, its height the
    weight."""
    j = int(np.argmax(resid))
    center = float(omega[j])
    height = float(max(resid[j], 1e-12))
    half = height / 2.0

    def cross(inner: int, i: int) -> float:
        # linear interpolation between the last sample above half and the first below
        w0, w1, r0, r1 = omega[inner], omega[i], resid[inner], resid[i]
        return float(w1) if r0 == r1 else float(w0 + (r0 - half) / (r0 - r1) * (w1 - w0))

    below = np.flatnonzero(resid <= half)
    lo, hi = below[below < j], below[below > j]
    left = cross(lo[-1] + 1, lo[-1]) if len(lo) else None
    right = cross(hi[0] - 1, hi[0]) if len(hi) else None
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


def _cost(samples: SpectrumSamples, comps) -> float:
    """Squared residual of the mixture ``comps`` on the samples."""
    r = mixture_psd(samples.omega, comps) - samples.values
    return float(r @ r)


@np.errstate(all="ignore")  # a trial step may overflow; the loop then refuses it
def fit_lorentzian_mixture(samples: SpectrumSamples, init) -> FitResult:
    """Fit a Lorentzian mixture to sampled spectrum values, starting from the
    components ``init``; the mixture has n = len(init) components and needs
    at least 3n samples.

    Returns the fitted components, the root-mean-square residual, a
    convergence flag and the number of iterations spent.  Log/sqrt transforms
    keep linewidths positive and weights nonnegative.  A start outside the
    box [grid spacing, ``FIT_MAX_SPANS`` grid spans] begins at its edge, a
    step that leaves it or whose cost or Jacobian is not finite is refused,
    and ``init`` itself, box or not, is returned when no fit beats it.
    """
    comps = tuple(init)
    n = len(comps)
    if n < 1:
        raise ValueError("init must hold at least one component")
    if len(samples) < 3 * n:
        raise ValueError(
            f"need at least {3 * n} samples to fit {n} components, got {len(samples)}"
        )
    omega = samples.omega
    target = samples.values
    box = np.log(np.min(np.diff(omega))), np.log(FIT_MAX_SPANS * (omega[-1] - omega[0]))

    theta = _pack(comps)
    theta[1::3] = np.clip(theta[1::3], *box)
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
        if (trial_cost < cost and np.isfinite(trial_jac).all()
                and np.all((box[0] <= trial[1::3]) & (trial[1::3] <= box[1]))):
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
    final = _unpack(theta)
    best, best_cost = final, _cost(samples, final)
    init_cost = _cost(samples, comps)
    if init_cost < best_cost:
        best, best_cost = comps, init_cost
    return FitResult(
        components=best,
        rmse=float(np.sqrt(best_cost / len(omega))),
        converged=converged,
        iterations=iterations,
    )


def nested_fits(samples: SpectrumSamples, n_max: int) -> list[FitResult]:
    """Fits for n = 1 .. n_max where each start is the previous components
    (none for n = 1) plus one candidate picked from the residual peak.

    The candidate is tried at several weights including zero, so each fit
    starts no worse than its predecessor ended and the reported residual is
    non-increasing in n.
    """
    results: list[FitResult] = []
    prev: tuple[LorentzianComponent, ...] = ()
    for _ in range(n_max):
        extra = _peak_pick(samples.omega, samples.values - mixture_psd(samples.omega, prev))
        starts = [prev + (LorentzianComponent(extra.center, extra.linewidth, extra.weight * scale),)
                  for scale in (1.0, 0.5, 0.1, 0.0)]
        results.append(fit_lorentzian_mixture(samples, min(starts, key=lambda c: _cost(samples, c))))
        prev = results[-1].components
    return results
