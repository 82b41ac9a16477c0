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
(float64, or longdouble for the extended-precision assembly).  It is
exact except for the power law, whose radial measure becomes a fixed
64-ring rule:

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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

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
    "spectral_moment",
    "derivative_covariance",
    "model_from_config",
    "model_to_config",
]

# Relative tolerance of the untruncated power law's adaptive quadrature.
_QUAD_RTOL = 1e-10

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

    Subclasses implement the radial profile derivatives sigma^(j), the
    radial spectral moments R_n, and frequency sampling from the
    continuous part of F.  Instances are immutable and hashable; it is
    safe to share them across concurrent workers.
    """

    family: str = ""

    # -- radial profile -------------------------------------------------

    def sigma_derivative(self, j: int, x) -> np.ndarray | float:
        """j-th derivative of sigma evaluated at x (vectorized in x).

        Computes in longdouble when x is longdouble and in float64
        otherwise: conditioning a derivative vector on a near-degenerate
        event cancels up to ~13 leading digits, so the covariance
        assembly offers an 80-bit path.
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

    # -- serialization ---------------------------------------------------

    def params(self) -> dict:
        """Flat parameter mapping (numbers only; nested models use dotted keys)."""
        raise NotImplementedError


def _require_finite_positive(name: str, value) -> None:
    """Reject a scale parameter (a distance, radius or wavenumber) that
    is not a finite positive number."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _lag_array(x) -> np.ndarray:
    """x as an array: longdouble when it already is, float64 otherwise."""
    x = np.asarray(x)
    return x if x.dtype == np.longdouble else x.astype(float)


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
        return (4.0 * self.k) ** (n / 2.0) * special.gamma(n / 2.0 + 1.0)

    def sample_frequencies(self, rng, size):
        return rng.normal(0.0, math.sqrt(2.0 * self.k), size=(size, 2))

    def params(self):
        return {"k": self.k}


def _bessel_profile_derivative(j, x, k):
    """j-th x-derivative of J0(k sqrt(x)), via the 0F1 representation.

    J0(k sqrt(x)) = 0F1(1; -k^2 x / 4), and each x-derivative shifts the
    0F1 parameter up by one, so the result stays exact at x = 0.  x (an
    array from _lag_array) and k broadcast.  A longdouble x sums the
    series in 80-bit arithmetic, each element up to its own last term,
    within |k^2 x / 4| <= _SERIES_MAX_ARG.
    """
    if x.dtype != np.longdouble:
        c = -0.25 * k * k
        return c**j / special.factorial(j) * special.hyp0f1(j + 1.0, c * x)
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
        out = np.where(far, _bessel_profile_derivative(j, x.astype(float), k.astype(float)), out)
    return out


@dataclass(frozen=True)
class RandomWave(CovarianceModel):
    """sigma(x) = J0(k sqrt(x)); spectral measure uniform on the circle |lam| = k."""

    k: float
    family = "randomwave"

    def __post_init__(self) -> None:
        _require_finite_positive("k", self.k)

    def sigma_derivative(self, j, x):
        return _bessel_profile_derivative(j, _lag_array(x), self.k)

    def radial_moment(self, n):
        return self.k**n

    def sample_frequencies(self, rng, size):
        theta = rng.uniform(0.0, 2.0 * math.pi, size=size)
        return self.k * np.column_stack([np.cos(theta), np.sin(theta)])

    def params(self):
        return {"k": self.k}


@dataclass(frozen=True)
class ShiftedRandomWave(CovarianceModel):
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

    def sample_frequencies(self, rng, size):
        theta = rng.uniform(0.0, 2.0 * math.pi, size=size)
        return self.k * np.column_stack([np.cos(theta), np.sin(theta)])

    def params(self):
        return {"tau": self.tau, "s": self.s, "k": self.k}


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
        if j >= 3:
            raise MomentDivergenceError(
                "sigma derivative of order >= 3 diverges for the untruncated tail"
            )
        # The untruncated tail has no finite ring rule; adaptive quadrature
        # in doubles is its only route.
        from scipy import integrate

        vals = [
            integrate.quad(
                lambda l: _bessel_profile_derivative(j, x0, l) * 5.0 * l**-6,
                1.0, math.inf, epsrel=_QUAD_RTOL, epsabs=0.0, limit=200,
            )[0]
            for x0 in x.astype(float).ravel()
        ]
        return np.array(vals, dtype=x.dtype).reshape(x.shape)

    def radial_moment(self, n):
        # R_n = 5 int_1^t l^(n-6) dl / (1 - t^-5), in closed form.
        if n == 5:
            return 5.0 * math.log(self.t) / self._norm()
        return 5.0 * (self.t ** (n - 5) - 1.0) / ((n - 5) * self._norm())

    def sample_frequencies(self, rng, size):
        # Inverse CDF on the radius: P(L <= l) = (1 - l^-5) / (1 - t^-5).
        u = rng.uniform(0.0, 1.0, size=size)
        radius = (1.0 - u * self._norm()) ** (-0.2)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=size)
        return radius[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])

    def params(self):
        return {"t": self.t}


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

    def params(self):
        flat = {"s": self.s, "left.family": self.left.family, "right.family": self.right.family}
        for key, val in self.left.params().items():
            flat[f"left.{key}"] = val
        for key, val in self.right.params().items():
            flat[f"right.{key}"] = val
        return flat


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
    ValueError
        If the computed values violate the sign invariants (possible
        only through a broken model, never for the stock families).
    """
    r2 = model.radial_moment(2)
    r4 = model.radial_moment(4)
    r6 = model.radial_moment(6)
    r8 = model.radial_moment(8)
    return SigmaDerivatives(
        eta0=-r2 / 4.0,
        mu0=r4 / 32.0,
        nu0=-r6 / 384.0,
        upsilon=r8 / 6144.0,
    )


def effective_wavenumber(model: CovarianceModel) -> float:
    """k_eff = sqrt(-4 eta0 / sigma0), the wavenumber of the gradient scale.

    Var(d_i psi) = -2 eta0 = sigma0 k_eff^2 / 2, so k_eff is k for
    (shifted) random waves.  Oscillation length, finder grid step and
    default window all derive from it.
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


def _gamma_partial(a: int, b: int, u: np.ndarray, sigma):
    """(d^a_1 d^b_2 Gamma)(u) for a planar lag u.

    sigma(j, x) evaluates the j-th profile derivative at x = |u|^2 (the
    caller memoizes it, in double or extended precision).
    """
    x = u[0] * u[0] + u[1] * u[1]
    total = 0.0
    for j, p, q, c in _gamma_partial_terms(a, b):
        if x == 0.0 and (p or q):
            continue
        total = total + c * sigma(j, x) * u[0] ** p * u[1] ** q
    return total


def derivative_covariance(model: CovarianceModel, specs, extended: bool = False) -> np.ndarray:
    """Exact covariance matrix of a list of field derivatives.

    Parameters
    ----------
    model : CovarianceModel
    specs : sequence of (point, alpha)
        Each entry names one scalar variable d^alpha psi(point), where
        point is a planar coordinate and alpha = (order in x1, order in
        x2) is a multi-index of total order <= 4.
    extended : bool
        Assemble in 80-bit arithmetic (longdouble dtype).  Needed when
        the matrix feeds a conditioning step whose result is many orders
        of magnitude below the entries, e.g. derivative pairs at small
        separation.

    Returns
    -------
    ndarray
        Symmetric covariance matrix, one row/column per spec, from the
        identity E[d^a psi(t) d^b psi(s)] = (-1)^{|b|} (d^{a+b} Gamma)(t - s)
        with the Gamma partials evaluated in closed form per family.

    Raises
    ------
    ValueError
        If any multi-index exceeds total order 4.
    MomentDivergenceError
        If a required sigma derivative does not exist for the model.
    """
    dtype = np.longdouble if extended else float
    parsed = []
    for point, alpha in specs:
        a1, a2 = int(alpha[0]), int(alpha[1])
        if a1 < 0 or a2 < 0 or a1 + a2 > MAX_DERIVATIVE_ORDER:
            raise ValueError(f"multi-index {alpha} exceeds total order {MAX_DERIVATIVE_ORDER}")
        parsed.append((np.asarray(point, dtype=dtype), (a1, a2)))

    # Few distinct (j, |lag|^2) pairs occur across the matrix; memoize
    # the profile evaluations, each made in the dtype of the lag.
    cache: dict = {}

    def sigma(j, x):
        key = (j, float(x))
        if key not in cache:
            cache[key] = dtype(model.sigma_derivative(j, x))
        return cache[key]

    n = len(parsed)
    cov = np.empty((n, n), dtype=dtype)
    for i in range(n):
        pi, (ai1, ai2) = parsed[i]
        for j in range(i, n):
            pj, (aj1, aj2) = parsed[j]
            sign = -1.0 if (aj1 + aj2) % 2 else 1.0
            cov[i, j] = cov[j, i] = sign * _gamma_partial(ai1 + aj1, ai2 + aj2, pi - pj, sigma)
    return cov


# ---------------------------------------------------------------------------
# Config round-trip
# ---------------------------------------------------------------------------

_FAMILIES = {
    "bargmannfock": BargmannFock,
    "randomwave": RandomWave,
    "shiftedrandomwave": ShiftedRandomWave,
    "powerlawtruncated": PowerLawTruncated,
    "interpolation": Interpolation,
}


def model_to_config(model: CovarianceModel) -> dict:
    """Serialize to a flat {key: value} mapping with a 'family' entry."""
    config = {"family": model.family}
    config.update(model.params())
    return config


def model_from_config(config: dict) -> CovarianceModel:
    """Build a model from a flat mapping as produced by model_to_config.

    Nested models (Interpolation children) use dotted keys, e.g.
    left.family = randomwave, left.k = 1.  Values may be strings; they
    are coerced to float where a number is expected.
    """
    config = {str(k): v for k, v in config.items()}
    family = str(config.get("family", "")).lower()
    if family not in _FAMILIES:
        raise ValueError(f"unknown model family {family!r}; expected one of {sorted(_FAMILIES)}")
    if family == "interpolation":
        left = model_from_config(_sub_config(config, "left"))
        right = model_from_config(_sub_config(config, "right"))
        return Interpolation(s=float(config["s"]), left=left, right=right)
    cls = _FAMILIES[family]
    kwargs = {
        key: float(val)
        for key, val in config.items()
        if key != "family" and "." not in key
    }
    return cls(**kwargs)


def _sub_config(config: dict, prefix: str) -> dict:
    dot = prefix + "."
    return {key[len(dot):]: val for key, val in config.items() if key.startswith(dot)}
