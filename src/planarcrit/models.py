"""Isotropic covariance models for smooth stationary planar Gaussian fields.

A centered stationary isotropic Gaussian field psi on the plane is
determined by its reduced covariance Gamma(z - w) = E[psi(z) psi(w)],
which is radial: Gamma(t) = sigma(|t|^2) for a smooth profile sigma.
Equivalently, by Bochner's theorem, Gamma is the Fourier transform of a
finite symmetric spectral measure F,

    Gamma(t) = int exp(-i lam . t) F(dlam),

and isotropy makes F rotation invariant, so it is described by its
radial part: a finite measure mu on [0, inf) with moments

    R_n = int l^n mu(dl),        R_0 = sigma(0) = Var(psi).

Every quantity downstream (critical-point intensity, repulsion factor,
Kac-Rice integrands) is driven by the derivatives of sigma at 0 and the
plane moments of F.  Writing J0 for the Bessel function,

    sigma(x)      = int J0(l sqrt(x)) mu(dl)
    sigma^(j)(0)  = (-1)^j R_{2j} / (4^j j!)

so eta0 = sigma'(0) = -R_2/4 < 0, mu0 = sigma''(0) = R_4/32 > 0,
nu0 = sigma'''(0) = -R_6/384 < 0 for every non-trivial model, and the
plane moments

    m_{a,b} = int lam_1^a lam_2^b F(dlam)
            = R_{a+b} (a-1)!! (b-1)!! / (a+b)!!     (a, b even)

vanish whenever a or b is odd and satisfy the isotropy relations
m_{4,0} = 3 m_{2,2} and m_{6,0} = 5 m_{4,2}.

Five families are implemented.  Each has closed-form radial moments,
spectral frequency sampling and one profile evaluator,
sigma_derivative(j, x), which computes in the dtype of the lag x
(longdouble when x is, float64 otherwise), and derivative_covariance
follows its points the same way.  It is exact except for the truncated
power law, whose radial measure becomes a fixed 64-ring rule; the
untruncated one is evaluated only at lag 0, in closed form:

    BargmannFock(k)            sigma(x) = exp(-k x); F = N(0, 2k I)
    RandomWave(k)              sigma(x) = J0(k sqrt(x)); F uniform on
                               the circle of radius k
    ShiftedRandomWave(tau,s,k) F = tau^2 delta_0 + s^2 (circle k)
    PowerLawTruncated(t)       planar density |lam|^-7 on 1 <= |lam| <= t,
                               normalized so sigma(0) = 1; t = inf allowed
                               (then R_n diverges for n >= 5)
    Interpolation(s, l, r)     spectral mixture s F_l + (1-s) F_r
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

__all__ = [
    "CovarianceModel",
    "BargmannFock",
    "RandomWave",
    "ShiftedRandomWave",
    "PowerLawTruncated",
    "Interpolation",
    "SigmaDerivatives",
    "MomentDivergenceError",
    "sigma_derivatives",
    "effective_wavenumber",
    "exact_ring_terms",
    "spectral_moment",
    "derivative_covariance",
    "model_from_config",
    "model_to_config",
]

# Highest total derivative order supported per point.
MAX_DERIVATIVE_ORDER = 4

# Rings of the truncated power law's discrete radial measure: Gauss-
# Legendre nodes in u = log l, where the radius density is smooth, so
# R_0..R_8 come out to ~1e-14 for t up to 1000.  Both precisions share
# the rings, so every covariance entry comes from one exact discrete
# spectral measure (what near-degenerate Schur complements require).
_GL_ORDER = 64

# Largest |k^2 x / 4| at which the alternating 80-bit 0F1 series is
# summed: its cancellation error is ~1e-17 of sigma^(j)(0) at 30 but
# 1e-13 at 100.  Past it the double hyp0f1 (within 5e-16) is used; at
# such lags the conditioning is well posed in doubles anyway.
_SERIES_MAX_ARG = 30.0


class MomentDivergenceError(ArithmeticError):
    """A required spectral moment is infinite for this model."""


@dataclass(frozen=True)
class SigmaDerivatives:
    """Derivatives of the radial covariance profile at the origin.

    Attributes
    ----------
    eta0 : float
        sigma'(0), strictly negative; Var(d_i psi) = -2 eta0.
    mu0 : float
        sigma''(0), strictly positive; Var(d_12 psi) = 4 mu0.
    nu0 : float
        sigma'''(0), strictly negative (-inf when the 6th radial moment
        diverges); Var(d_iii psi) = -120 nu0.
    upsilon : float
        sigma''''(0); finite only when the model has 8 spectral moments.
    """

    eta0: float
    mu0: float
    nu0: float
    upsilon: float

    def __post_init__(self) -> None:
        if not (self.eta0 < 0 < self.mu0) or not (self.nu0 < 0):
            raise ValueError(
                f"sign invariants eta0 < 0 < mu0, nu0 < 0 violated: "
                f"({self.eta0}, {self.mu0}, {self.nu0})"
            )


class CovarianceModel:
    """Base class: an isotropic covariance family with exact derivatives.

    A family is a frozen dataclass.  It implements:

    * family, a class attribute: its name in configs and on the CLI;
    * its dataclass fields: its parameters, the keys of model_to_config;
    * sigma_derivative: the radial profile derivatives sigma^(j);
    * radial_moment: the radial spectral moments R_n;
    * sample_frequencies: frequency sampling from the continuous part of F;
    * ring_terms and sample_ring, when that part is one circle;
    * atom_mass, when F has an atom at the origin.

    Instances are immutable and hashable; it is safe to share them
    across concurrent workers.
    """

    family: str = ""

    # -- radial profile -------------------------------------------------

    def sigma_derivative(self, j: int, x) -> np.ndarray | float:
        """j-th derivative of sigma evaluated at x (vectorized in x).

        Computes in longdouble when x is longdouble and in float64
        otherwise: conditioning a derivative vector on a near-degenerate
        event cancels up to ~13 leading digits, so the covariance
        assembly runs in 80-bit arithmetic when its points are longdouble.
        """
        raise NotImplementedError

    # -- spectral measure -----------------------------------------------

    def radial_moment(self, n: int) -> float:
        """R_n = int l^n mu(dl); returns inf on divergence."""
        raise NotImplementedError

    def total_mass(self) -> float:
        """sigma(0) = Var(psi), the total mass of F."""
        return self.radial_moment(0)

    def atom_mass(self) -> float:
        """Mass of the spectral atom at the origin (0 for most families)."""
        return 0.0

    def sample_frequencies(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw `size` iid frequencies from the normalized continuous part of F."""
        raise NotImplementedError

    def ring_terms(self, diameter: float) -> int | None:
        """Terms of the ring design that is exact at lags up to diameter, or None.

        Only a family whose continuous part is one circle has the design
        (exact_ring_terms); it draws the design's frequencies with
        sample_ring(rng, size), from a uniform offset theta0.
        """
        return None


def _require_finite_positive(name: str, value) -> None:
    """Reject a scale parameter (a distance, radius or wavenumber) that
    is not a finite positive number."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _lag_array(x) -> np.ndarray:
    """x as an array: longdouble when it already is, float64 otherwise."""
    x = np.asarray(x)
    return x if x.dtype == np.longdouble else x.astype(float)


def _directions(rng: np.random.Generator, size: int) -> np.ndarray:
    """`size` iid unit vectors, uniform on the circle, shape (size, 2)."""
    theta = rng.uniform(0.0, 2.0 * math.pi, size=size)
    return np.column_stack([np.cos(theta), np.sin(theta)])


@dataclass(frozen=True)
class BargmannFock(CovarianceModel):
    """sigma(x) = exp(-k x); Gaussian spectral measure N(0, 2k I)."""

    k: float
    family = "bargmannfock"

    def __post_init__(self) -> None:
        _require_finite_positive("k", self.k)

    def sigma_derivative(self, j, x):
        x = _lag_array(x)
        k = x.dtype.type(self.k)
        return (-k) ** j * np.exp(-k * x)

    def radial_moment(self, n):
        # |lam| for lam ~ N(0, 2k I) is Rayleigh; R_{2j} = (4k)^j j! and the
        # odd moments follow from the chi distribution with 2 dof.
        return (4.0 * self.k) ** (n / 2.0) * math.gamma(n / 2.0 + 1.0)

    def sample_frequencies(self, rng, size):
        return rng.normal(0.0, math.sqrt(2.0 * self.k), size=(size, 2))


def _bessel_profile_derivative(j, x, k):
    """j-th x-derivative of J0(k sqrt(x)), via the 0F1 representation.

    J0(k sqrt(x)) = 0F1(1; -k^2 x / 4), and each x-derivative shifts the
    0F1 parameter up by one, so the result stays exact at x = 0.  x (an
    array from _lag_array) and k broadcast.  A longdouble x sums the
    series in 80-bit arithmetic, each element up to its own last term,
    within |k^2 x / 4| <= _SERIES_MAX_ARG.  A float64 x uses scipy's
    hyp0f1, imported only when some lag is nonzero: at lag 0, 0F1 is 1
    exactly, which keeps scipy out of the one-point laws.
    """
    if x.dtype != np.longdouble:
        c = -0.25 * k * k
        z = c * x
        if not np.any(z):
            # 0F1(a; 0) = 1 exactly: the lag-0 profile needs no scipy.
            return c**j / math.factorial(j) * np.ones_like(z)
        from scipy.special import hyp0f1

        return c**j / math.factorial(j) * hyp0f1(j + 1.0, z)
    k = np.asarray(k, dtype=np.longdouble)
    z = -k * k * x / 4
    far = np.abs(z) > _SERIES_MAX_ARG
    zs = np.where(far, 0, z)
    term = np.ones_like(zs)
    total = np.ones_like(zs)
    live = np.ones(zs.shape, dtype=bool)
    m = 0
    while live.any():
        m += 1
        term = term * zs / (np.longdouble(m) * np.longdouble(j + m))
        np.add(total, term, out=total, where=live)
        if m > 4:
            live &= np.abs(term) > np.longdouble(1e-25) * np.abs(total)
    pref = (-k * k / 4) ** j
    for i in range(2, j + 1):
        pref /= np.longdouble(i)
    out = pref * total
    if far.any():
        # hyp0f1 runs in float64, which cannot hold a squared lag past
        # its largest double (a lag past ~1.3e154).
        over = x > np.finfo(float).max
        if over.any():
            raise OverflowError(
                f"the Bessel profile cannot take lag {float(np.sqrt(x[over].min()))}: "
                f"its square overflows a double"
            )
        out = np.where(far, _bessel_profile_derivative(j, x.astype(float), k.astype(float)), out)
    return out


# Largest error of the ring design's covariance that exact_ring_terms allows.
_RING_ALIAS = 1e-16


def exact_ring_terms(x: float) -> int:
    """Fewest ring directions whose covariance is exact to 1e-16 at k |lag| <= x.

    The ring design of a circle of radius k has the n directions
    k (cos theta_j, sin theta_j), theta_j = theta0 + pi j / n, j < n, with
    independent N(0, 1 / n) cosine and sine coefficients.  Its covariance
    at a lag t is (1 / n) sum_j cos(lam_j . t), and as cos is even this is
    the 2n-point trapezoidal rule of Bessel's integral
    J0(k |t|) = (1 / 2 pi) int cos(k |t| cos theta) dtheta.  By the
    Jacobi-Anger expansion its error is the aliased terms

        2 sum_{p >= 1} (-1)^(p n) J_{2pn}(k |t|) cos(2 p n (theta0 - arg t))

    (Trefethen & Weideman 2014, SIAM Review 56:385), led by
    2 |J_2n(k |t|)| <= 2 (x / 2)^2n / (2n)! (DLMF 10.14.4:
    |J_nu(x)| <= (x / 2)^nu / Gamma(nu + 1)), which rises with k |t|.  The
    rule returns the smallest n at which that bound is at most 1e-16,
    from math.lgamma: 33 at x = 20 sqrt 2, 22 at 10 sqrt 2 and 54 at
    40 sqrt 2.  The terms past the leading one fall off faster still.
    So on a window of diagonal D the ring design with
    exact_ring_terms(k D) terms has the circle's covariance to rounding
    at every lag inside it.  Berry (1977, J. Phys. A 10:2083) introduced
    this superposition of plane waves.
    """
    if not 0.0 <= x < math.inf:
        raise ValueError(f"the ring rule needs a finite nonnegative k |lag|, got {x}")
    limit = math.log(_RING_ALIAS / 2.0)

    def log_bound(n: int) -> float:  # log of (x / 2)^2n / (2n)!
        return 2 * n * math.log(x / 2.0) - math.lgamma(2 * n + 1)

    if x == 0.0 or log_bound(1) <= limit:
        return 1
    # The bound rises with n up to about x / 4, from above the limit at
    # n = 1, and falls after: bisect its falling side.
    lo = max(1, math.ceil(x / 4.0))
    hi = 2 * lo
    while log_bound(hi) > limit:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if log_bound(mid) > limit else (lo, mid)
    return hi


class _Circle(CovarianceModel):
    """A family whose continuous spectral part is uniform on the circle |lam| = k.

    Besides iid directions it has the ring design (exact_ring_terms), which
    sampling.sample_field draws for Gaussian fields read on a window.
    """

    def sample_frequencies(self, rng, size):
        return self.k * _directions(rng, size)

    def ring_terms(self, diameter):
        return exact_ring_terms(self.k * diameter)

    def sample_ring(self, rng, size):
        theta = rng.uniform(0.0, math.pi) + math.pi * np.arange(size) / size
        return self.k * np.column_stack([np.cos(theta), np.sin(theta)])


@dataclass(frozen=True)
class RandomWave(_Circle):
    """sigma(x) = J0(k sqrt(x)); spectral measure uniform on the circle |lam| = k."""

    k: float
    family = "randomwave"

    def __post_init__(self) -> None:
        _require_finite_positive("k", self.k)

    def sigma_derivative(self, j, x):
        return _bessel_profile_derivative(j, _lag_array(x), self.k)

    def radial_moment(self, n):
        return self.k**n


@dataclass(frozen=True)
class ShiftedRandomWave(_Circle):
    """Random wave plus an independent constant Gaussian shift.

    Spectral measure tau^2 delta_0 + s^2 (uniform circle at radius k), so
    sigma(x) = tau^2 + s^2 J0(k sqrt(x)).  The atom leaves every radial
    moment R_n with n >= 1 untouched; it only raises the variance.
    """

    tau: float
    s: float
    k: float
    family = "shiftedrandomwave"

    def __post_init__(self) -> None:
        if not 0 <= self.tau < math.inf:
            raise ValueError(f"tau must be finite and nonnegative, got {self.tau}")
        _require_finite_positive("s", self.s)
        _require_finite_positive("k", self.k)

    def sigma_derivative(self, j, x):
        x = _lag_array(x)
        real = x.dtype.type
        wave = real(self.s) ** 2 * _bessel_profile_derivative(j, x, self.k)
        if j == 0:
            return wave + real(self.tau) ** 2
        return wave

    def radial_moment(self, n):
        if n == 0:
            return self.tau**2 + self.s**2
        return self.s**2 * self.k**n

    def atom_mass(self):
        return self.tau**2


@dataclass(frozen=True)
class PowerLawTruncated(CovarianceModel):
    """Normalized planar spectral density |lam|^-7 on the annulus 1 <= |lam| <= t.

    Radialized and normalized to unit mass, the radius density is
    g(l) = 5 l^-6 / (1 - t^-5) on [1, t].  The family sweeps the
    repulsion factor across its whole range as t grows; t = inf is
    accepted and makes R_n diverge for n >= 5 (so nu0 = -inf).
    """

    t: float
    family = "powerlawtruncated"

    def __post_init__(self) -> None:
        if not self.t > 1:
            raise ValueError(f"t must exceed 1, got {self.t}")

    def _norm(self) -> float:
        # 1 - t^-5, the unnormalized mass up to the factor 5.
        return 1.0 - (0.0 if math.isinf(self.t) else self.t**-5)

    def sigma_derivative(self, j, x):
        x = _lag_array(x)
        if not math.isinf(self.t):
            radii, weights = _log_rings(self.t, x.dtype)
            return (_bessel_profile_derivative(j, x[..., None], radii) * weights).sum(axis=-1)
        # The untruncated tail has no finite ring rule.  The one-point laws
        # need sigma^(j) only at lag 0 and j <= 2, where it is the closed
        # form (-1)^j R_2j / (4^j j!).  Its pair laws are not computed.
        if np.any(x != 0):
            raise MomentDivergenceError(
                "the untruncated power law has no finite ring rule, so its profile is "
                "evaluated only at lag 0; its pair laws are not computed (R_6 diverges, "
                "so sigma'''(0) is infinite)"
            )
        if j >= 3:
            raise MomentDivergenceError(
                f"sigma^({j})(0) of the untruncated power law diverges: R_{2 * j} is infinite"
            )
        real = x.dtype.type
        value = real((-1) ** j * self.radial_moment(2 * j)) / real(4**j * math.factorial(j))
        return np.full_like(x, value)

    def radial_moment(self, n):
        # R_n = 5 int_1^t l^(n-6) dl / (1 - t^-5), in closed form.
        if n == 5:
            return 5.0 * math.log(self.t) / self._norm()
        return 5.0 * (self.t ** (n - 5) - 1.0) / ((n - 5) * self._norm())

    def sample_frequencies(self, rng, size):
        # Inverse CDF on the radius: P(L <= l) = (1 - l^-5) / (1 - t^-5).
        u = rng.uniform(0.0, 1.0, size=size)
        radius = (1.0 - u * self._norm()) ** (-0.2)
        return radius[:, None] * _directions(rng, size)


@dataclass(frozen=True)
class Interpolation(CovarianceModel):
    """Spectral mixture s F_left + (1-s) F_right of two models."""

    s: float
    left: CovarianceModel
    right: CovarianceModel
    family = "interpolation"

    def __post_init__(self) -> None:
        if not 0.0 <= self.s <= 1.0:
            raise ValueError(f"mixture weight s must lie in [0, 1], got {self.s}")

    def sigma_derivative(self, j, x):
        x = _lag_array(x)
        s = x.dtype.type(self.s)
        return s * self.left.sigma_derivative(j, x) + (1 - s) * self.right.sigma_derivative(j, x)

    def radial_moment(self, n):
        return self.s * self.left.radial_moment(n) + (1.0 - self.s) * self.right.radial_moment(n)

    def atom_mass(self):
        return self.s * self.left.atom_mass() + (1.0 - self.s) * self.right.atom_mass()

    def sample_frequencies(self, rng, size):
        wl = self.s * (self.left.total_mass() - self.left.atom_mass())
        wr = (1.0 - self.s) * (self.right.total_mass() - self.right.atom_mass())
        from_left = rng.uniform(size=size) < wl / (wl + wr)
        out = np.empty((size, 2))
        nl = int(from_left.sum())
        if nl:
            out[from_left] = self.left.sample_frequencies(rng, nl)
        if size - nl:
            out[~from_left] = self.right.sample_frequencies(rng, size - nl)
        return out


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------


def sigma_derivatives(model: CovarianceModel) -> SigmaDerivatives:
    """Exact derivatives of the radial profile at 0, from radial moments.

    Uses sigma^(j)(0) = (-1)^j R_{2j} / (4^j j!), with every family's
    R_{2j} in closed form.  For PowerLawTruncated these are the exact
    moments, which its ring rule reproduces to ~1e-14.

    Returns
    -------
    SigmaDerivatives
        (eta0, mu0, nu0, upsilon).  nu0 is -inf (and upsilon +inf) when
        the corresponding radial moment diverges, so callers can map the
        divergence to a distinguished infinite repulsion factor instead
        of failing.

    Raises
    ------
    OverflowError, FloatingPointError
        If a moment overflows a double, or R_2, R_4 or R_6 underflows to
        0; the message names the model.
    ValueError
        If the computed values violate the sign invariants (possible
        only through a broken model, never for the stock families).
    """
    try:
        r2, r4, r6, r8 = (model.radial_moment(n) for n in (2, 4, 6, 8))
    except OverflowError:
        raise OverflowError(f"a radial moment of {model!r} overflows a double") from None
    if 0.0 in (r2, r4, r6):
        raise FloatingPointError(f"a radial moment of {model!r} underflows to zero")
    return SigmaDerivatives(
        eta0=-r2 / 4.0,
        mu0=r4 / 32.0,
        nu0=-r6 / 384.0,
        upsilon=r8 / 6144.0,
    )


def effective_wavenumber(model: CovarianceModel) -> float:
    """k_eff = sqrt(-4 eta0 / sigma0), the wavenumber of the gradient scale.

    Var(d_i psi) = -2 eta0 = sigma0 k_eff^2 / 2, so k_eff^2 = R_2 / R_0:
    k for RandomWave(k), and k s / sqrt(tau^2 + s^2) for
    ShiftedRandomWave(tau, s, k), whose atom adds variance and no
    gradient (1.2775 for (0.8, 1.3, 1.5)).  Oscillation length, finder
    grid step and default window all derive from it.
    """
    d = sigma_derivatives(model)
    return math.sqrt(-4.0 * d.eta0 / model.total_mass())


def spectral_moment(model: CovarianceModel, a: int, b: int) -> float:
    """Plane spectral moment m_{a,b} = int lam_1^a lam_2^b F(dlam).

    Parameters
    ----------
    model : CovarianceModel
    a, b : int
        Nonnegative exponents with a + b <= 8.

    Returns
    -------
    float
        Zero when a or b is odd (F is symmetric); otherwise
        R_{a+b} (a-1)!! (b-1)!! / (a+b)!!.

    Raises
    ------
    MomentDivergenceError
        If the radial moment R_{a+b} is infinite.
    """
    if a < 0 or b < 0:
        raise ValueError(f"exponents must be nonnegative, got ({a}, {b})")
    if a + b > 2 * MAX_DERIVATIVE_ORDER:
        raise ValueError(f"moment order {a + b} exceeds the supported maximum 8")
    if a % 2 or b % 2:
        return 0.0
    r = model.radial_moment(a + b)
    if math.isinf(r):
        raise MomentDivergenceError(f"radial moment R_{a + b} diverges for {model.family}")
    if a + b == 0:
        return r
    return r * _dfact(a - 1) * _dfact(b - 1) / _dfact(a + b)


def _dfact(n: int) -> int:
    """Double factorial with the empty-product convention (-1)!! = 0!! = 1."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@lru_cache(maxsize=None)
def _log_rings(t: float, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Radii and masses of PowerLawTruncated(t)'s discrete radial measure.

    In u = log l the radius density 5 l^-6 / (1 - t^-5) on [1, t] is
    5 exp(-5u) / (1 - t^-5) on [0, log t]; the rings sit at the
    _GL_ORDER Gauss-Legendre nodes in u.  Built in dtype and read-only,
    since every profile evaluation shares them.
    """
    nodes, weights = np.polynomial.legendre.leggauss(_GL_ORDER)
    t = np.dtype(dtype).type(t)
    half = np.log(t) / 2
    u = half * (nodes.astype(dtype) + 1)
    mass = 5 * half * weights.astype(dtype) * np.exp(-5 * u) / (1 - t**-5)
    radii = np.exp(u)
    radii.flags.writeable = mass.flags.writeable = False
    return radii, mass


@lru_cache(maxsize=None)
def _gamma_partial_terms(a: int, b: int) -> tuple[tuple[int, int, int, int], ...]:
    """Expansion of the Gamma partial d^{(a,b)} Gamma at lag u.

    Gamma(u) = sigma(u1^2 + u2^2), so each partial is a finite sum
    sum c * sigma^(j)(|u|^2) u1^p u2^q.  Terms are (j, p, q, c) with
    integer coefficients, built by recursion on the differentiation
    order: d/du1 maps (j,p,q,c) to (j+1,p+1,q,2c) + (j,p-1,q,pc).
    """
    if a == 0 and b == 0:
        return ((0, 0, 0, 1),)
    if a > 0:
        prev = _gamma_partial_terms(a - 1, b)
        axis = 0
    else:
        prev = _gamma_partial_terms(a, b - 1)
        axis = 1
    acc: dict[tuple[int, int, int], int] = {}
    for j, p, q, c in prev:
        pq = [p, q]
        pq[axis] += 1
        acc[(j + 1, pq[0], pq[1])] = acc.get((j + 1, pq[0], pq[1]), 0) + 2 * c
        power = (p, q)[axis]
        if power > 0:
            pq = [p, q]
            pq[axis] -= 1
            acc[(j, pq[0], pq[1])] = acc.get((j, pq[0], pq[1]), 0) + power * c
    return tuple((j, p, q, c) for (j, p, q), c in acc.items() if c != 0)


def derivative_covariance(model: CovarianceModel, specs) -> np.ndarray:
    """Exact covariance matrix of a list of field derivatives.

    Parameters
    ----------
    model : CovarianceModel
    specs : sequence of (point, alpha)
        Each entry names one scalar variable d^alpha psi(point), where
        point is a planar coordinate and alpha = (order in x1, order in
        x2) is a multi-index of total order <= 4.  A point may carry
        leading batch axes, shape (..., 2); the points broadcast against
        each other and the result has one matrix per batch element.  The
        matrix is assembled in the dtype of the points: 80-bit when any
        point is a longdouble array, as a conditioning step whose result
        lies many orders of magnitude below the entries needs (derivative
        pairs at small separation), and float64 otherwise.

    Returns
    -------
    ndarray
        Symmetric covariance matrices, shape (..., n, n) with one
        row/column per spec, from the identity
        E[d^a psi(t) d^b psi(s)] = (-1)^{|b|} (d^{a+b} Gamma)(t - s)
        with the Gamma partials evaluated in closed form per family.
        Each profile order j is evaluated once, on all the distinct
        squared lags |t - s|^2 of the batch that need it, so a batch
        costs few profile calls and gives every matrix the bits of its
        own unbatched call.

    Raises
    ------
    ValueError
        If any multi-index exceeds total order 4.
    MomentDivergenceError
        If a required sigma derivative does not exist for the model.
    """
    points = [np.asarray(point) for point, _ in specs]
    dtype = np.result_type(*points, float).type
    alphas = []
    for _, alpha in specs:
        a1, a2 = int(alpha[0]), int(alpha[1])
        if a1 < 0 or a2 < 0 or a1 + a2 > MAX_DERIVATIVE_ORDER:
            raise ValueError(f"multi-index {alpha} exceeds total order {MAX_DERIVATIVE_ORDER}")
        alphas.append((a1, a2))
    rows, cols, sign, terms = _covariance_plan(tuple(alphas))
    pts = np.stack(np.broadcast_arrays(*(p.astype(dtype) for p in points)), axis=-2)
    u = pts[..., rows, :] - pts[..., cols, :]
    ux, uy = u[..., 0], u[..., 1]
    x = ux * ux + uy * uy
    keys, key_of = np.unique(x, return_inverse=True)
    key_of = key_of.reshape(x.shape)
    batch = (1,) * (x.ndim - 1)
    js, ps, qs, cs, live = (a.reshape(a.shape[:1] + batch + a.shape[1:]) for a in terms)
    # A term with a factor of the lag is skipped at lag 0, where it
    # vanishes: this keeps sigma^(j)(0) of divergent orders out of the
    # one-point laws, and adding a zero term would flip a -0.0.
    skip = ~live | ((x == 0.0) & (ps + qs > 0))
    # Each order j is evaluated once, on the distinct lags that need it.
    need = np.unique((js * len(keys) + key_of)[~skip])
    sigma = np.zeros((int(js.max()) + 1, len(keys)), dtype=dtype)
    for j in np.unique(need // len(keys)):
        at = need[need // len(keys) == j] % len(keys)
        sigma[j, at] = model.sigma_derivative(int(j), keys[at])
    total = np.zeros(x.shape, dtype=dtype)
    for j, p, q, c, out in zip(js, ps, qs, cs, skip):
        term = c * sigma[j, key_of] * ux**p * uy**q
        total = np.where(out, total, total + term)
    cov = np.empty(pts.shape[:-1] + (len(alphas),), dtype=dtype)
    cov[..., rows, cols] = cov[..., cols, rows] = sign * total
    return cov


@lru_cache(maxsize=None)
def _covariance_plan(alphas: tuple):
    """Upper-triangle entries of derivative_covariance for multi-indices
    alphas and the Gamma-partial terms of each, in term slots.

    Returns (rows, cols, sign, (j, p, q, c, live)): entry e is
    sign[e] * sum over slots s of c[s, e] sigma^(j[s, e]) ux^p[s, e]
    uy^q[s, e], summed slot by slot in the term order of
    _gamma_partial_terms; live[s, e] is False past entry e's last term.
    """
    n = len(alphas)
    rows, cols = np.triu_indices(n)
    sign = np.array([-1.0 if sum(alphas[j]) % 2 else 1.0 for j in cols])
    terms = [
        _gamma_partial_terms(alphas[i][0] + alphas[j][0], alphas[i][1] + alphas[j][1])
        for i, j in zip(rows, cols)
    ]
    slots = np.zeros((4, max(map(len, terms)), len(terms)), dtype=np.int64)
    live = np.zeros(slots.shape[1:], dtype=bool)
    for e, entry in enumerate(terms):
        slots[:, : len(entry), e] = np.array(entry).T
        live[: len(entry), e] = True
    for a in (rows, cols, sign, slots, live):
        a.flags.writeable = False
    return rows, cols, sign, (*slots, live)


# ---------------------------------------------------------------------------
# Config round-trip
# ---------------------------------------------------------------------------

_FAMILIES = {cls.family: cls for cls in (
    BargmannFock, RandomWave, ShiftedRandomWave, PowerLawTruncated, Interpolation)}


def model_to_config(model: CovarianceModel) -> dict:
    """Serialize to a flat {key: value} mapping with a 'family' entry.

    The family's dataclass fields are its parameters: each field gives
    one key, its name.  A field that holds a model nests that model's
    keys behind the field's name and a dot (left.family, left.k).
    """
    config = {"family": model.family}
    for field in fields(model):
        value = getattr(model, field.name)
        if isinstance(value, CovarianceModel):
            config.update({f"{field.name}.{k}": v for k, v in model_to_config(value).items()})
        else:
            config[field.name] = value
    return config


def model_from_config(config: dict) -> CovarianceModel:
    """Build a model from a flat mapping as produced by model_to_config.

    The keys are the family's dataclass fields, nested as in
    model_to_config.  Values may be strings; they are coerced to float
    where a number is expected.

    Raises
    ------
    ValueError
        If the family is unknown, if a field has no key, if a key is not a
        field of its family, or if a number field's value is not a number;
        the message names the full dotted key.
    """
    rest = {str(k): v for k, v in config.items()}
    model = _pop_model(rest, "")
    if rest:
        raise ValueError(f"unknown model key(s) {sorted(rest)}: no field of the family takes them")
    return model


def _pop_model(config: dict, prefix: str) -> CovarianceModel:
    """The model whose keys start with prefix; pops the keys it takes."""
    family = str(_pop(config, prefix + "family")).lower()
    if family not in _FAMILIES:
        raise ValueError(f"unknown model family {family!r} in {prefix}family; "
                         f"expected one of {sorted(_FAMILIES)}")
    cls = _FAMILIES[family]
    # Postponed annotations leave a field's type as its source string.
    return cls(**{
        f.name: _pop_model(config, f"{prefix}{f.name}.") if f.type == "CovarianceModel"
        else _pop_number(config, prefix + f.name)
        for f in fields(cls)
    })


def _pop(config: dict, key: str):
    if key not in config:
        raise ValueError(f"model key {key!r} is missing")
    return config.pop(key)


def _pop_number(config: dict, key: str) -> float:
    value = _pop(config, key)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"model key {key!r} is not a number: {value!r}") from None
