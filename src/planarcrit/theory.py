"""Closed-form first- and second-order critical-point statistics.

For a smooth stationary isotropic planar Gaussian field with radial
profile derivatives (eta0, mu0, nu0) at the origin, the critical points
of a realization form a stationary point process whose headline
quantities all have closed forms:

    intensity          lambda_c = 4 mu0 / (sqrt(3) pi (-eta0))
    type split         extrema : saddles = 1/2 : 1/2,
                       minima = maxima = 1/4 of all critical points
    repulsion factor   R_c = sqrt(3)/8 (5 nu0 eta0 / mu0^2 - 3)
    pair density limit a = (10 nu0 eta0 - 6 mu0^2) / (sqrt(3) pi^2 eta0^2)
                       (the small-distance limit of the 2-point
                       correlation function of critical points)

satisfying a = R_c lambda_c^2 identically.  R_c is the small-radius
limit of E[N(N-1)] / E[N]^2 for counts N in a ball: values below 1 mean
local repulsion, 1 is Poisson-like, above 1 is local attraction.  The
minimum over all admissible models is R_c = 1/(8 sqrt(3)), attained
exactly by (shifted) random waves; power-law families push R_c to
arbitrarily large values, so the whole range [1/(8 sqrt(3)), inf) is
reachable.

Second factorial moments of ball counts scale as

    (c,c)  E[N^c(N^c-1)]  ~  R_c lambda_c^2 (pi rho^2)^2      ~ rho^4
    (e,s)  E[N^e N^s]     ~  (1/2) R_c lambda_c^2 (pi rho^2)^2
    (e,e)  E[N^e(N^e-1)]  =  O(rho^7)
    (s,s)  E[N^s(N^s-1)]  =  O(rho^7 |log rho|)

The (e,s) constant is half the (c,c) constant: same-type pairs are
asymptotically negligible, so by the counting identity
c(c-1) = e(e-1) + s(s-1) + 2 e s the mixed moment carries half of the
critical-pair mass.  Same-type pairs have no finite rho^4 constant at
all; only their order is available (see scaling_order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .models import (
    CovarianceModel,
    MomentDivergenceError,
    SigmaDerivatives,
    _require_finite_positive,
    sigma_derivatives,
)

__all__ = [
    "KINDS",
    "KIND_COLUMNS",
    "PAIRS",
    "ScalingOrder",
    "lambda_c",
    "repulsion_factor",
    "k2_limit",
    "second_factorial_asymptotic",
    "ball_area_squared",
    "scaling_order",
    "grw_minimality_gap",
    "theory_report",
    "normalize_kind",
    "normalize_pair",
    "pair_tags",
    "MIN_REPULSION_FACTOR",
]

# Critical-point types (all, extrema, saddles, minima, maxima) and the
# columns of (max, min, saddle) counts that each one adds up.
KIND_COLUMNS = {"c": (0, 1, 2), "e": (0, 1), "s": (2,), "min": (1,), "max": (0,)}
KINDS = tuple(KIND_COLUMNS)

# Pair tags with a known second-moment scaling.
PAIRS = (("c", "c"), ("e", "e"), ("s", "s"), ("e", "s"))

# Fraction of all critical points of each type.
TYPE_FRACTIONS = {"c": 1.0, "e": 0.5, "s": 0.5, "min": 0.25, "max": 0.25}

MIN_REPULSION_FACTOR = 1.0 / (8.0 * math.sqrt(3.0))


def normalize_kind(kind: str) -> str:
    """Map a type tag or spelled-out name onto {c, e, s, min, max}."""
    key = str(kind).lower()
    aliases = {
        "c": "c", "critical": "c", "all": "c",
        "e": "e", "extrema": "e", "extremum": "e",
        "s": "s", "saddle": "s", "saddles": "s",
        "min": "min", "minimum": "min", "minima": "min",
        "max": "max", "maximum": "max", "maxima": "max",
    }
    if key not in aliases:
        raise ValueError(f"unknown critical-point kind {kind!r}")
    return aliases[key]


def pair_tags(pair) -> tuple[str, str]:
    """The two tags of a type pair, in the order given, each c, e or s.

    A string with commas or spaces is split on them ("saddle,extremum");
    one without is read as one-letter tags ("es").  Raises ValueError
    naming the cause: an unsplit name ("minmax"), a count other than two,
    or a tag that is not c, e or s.
    """
    tags = pair
    if isinstance(pair, str):
        if "," in pair or " " in pair:
            tags = pair.replace(",", " ").split()
        elif len(pair) != 2 and not set(pair.lower()) <= set("ces"):
            raise ValueError(
                f"pair {pair!r} reads as one unsplit name; write its two tags "
                "apart with a comma or space, as in 'saddle,extremum'"
            )
    tags = tuple(tags)
    if len(tags) != 2:
        raise ValueError(f"a pair is two tags, got {len(tags)} in {pair!r}")
    kinds = []
    for tag in tags:
        try:
            kind = normalize_kind(tag)
        except ValueError:
            kind = None
        if kind not in ("c", "e", "s"):
            raise ValueError(f"pair tags must be in {{c, e, s}}: {tag!r} is not c, e or s")
        kinds.append(kind)
    return tuple(kinds)


def normalize_pair(pair) -> tuple[str, str]:
    """Canonicalize a type pair (see pair_tags); order is immaterial ((s,e) == (e,s))."""
    order = {"c": 0, "e": 1, "s": 2}
    norm = tuple(sorted(pair_tags(pair), key=order.get))
    if norm not in PAIRS:
        raise ValueError(f"unsupported pair {pair!r}; expected one of {PAIRS}")
    return norm


def lambda_c(d: SigmaDerivatives) -> float:
    """Intensity of critical points per unit area.

    lambda_c = 4 mu0 / (sqrt(3) pi (-eta0)); the expected count in a
    ball of radius rho is lambda_c * pi rho^2.
    """
    return 4.0 / (math.sqrt(3.0) * math.pi) * d.mu0 / (-d.eta0)


def repulsion_factor(d: SigmaDerivatives) -> float:
    """Small-radius limit R_c of E[N(N-1)] / E[N]^2 for critical points.

    R_c = sqrt(3)/8 (5 nu0 eta0 / mu0^2 - 3), at least 1/(8 sqrt(3))
    for every admissible model, with equality exactly for (shifted)
    random waves.  Returns +inf when nu0 = -inf (divergent 6th spectral
    moment), the attractive extreme of the family range.
    """
    return math.sqrt(3.0) / 8.0 * (5.0 * d.nu0 * d.eta0 / d.mu0**2 - 3.0)


def k2_limit(d: SigmaDerivatives) -> float:
    """Small-distance limit a of the critical-point 2-point correlation function.

    a = (10 nu0 eta0 - 6 mu0^2) / (sqrt(3) pi^2 eta0^2), which equals
    repulsion_factor(d) * lambda_c(d)^2 identically.
    """
    return (10.0 * d.nu0 * d.eta0 - 6.0 * d.mu0**2) / (math.sqrt(3.0) * math.pi**2 * d.eta0**2)


def second_factorial_asymptotic(d: SigmaDerivatives, rho: float, pair=("c", "c")) -> float:
    """Leading-order second (factorial) moment of ball counts as rho -> 0.

    Parameters
    ----------
    d : SigmaDerivatives
    rho : float
        Ball radius, > 0.
    pair : pair tag
        ("c","c") for E[N^c(N^c-1)] -> a (pi rho^2)^2, or ("e","s") for
        E[N^e N^s] -> (a/2) (pi rho^2)^2.

    Raises
    ------
    ValueError
        For pairs (e,e) and (s,s), which decay faster than rho^4 and
        have no finite constant of this form; their order is available
        from scaling_order.
    OverflowError
        When (pi rho^2)^2 overflows (ball_area_squared).
    """
    _require_finite_positive("rho", rho)
    area2 = ball_area_squared(rho)
    pair = normalize_pair(pair)
    if pair == ("c", "c"):
        factor = 1.0
    elif pair == ("e", "s"):
        factor = 0.5
    else:
        raise ValueError(
            f"pair {pair} is order-only (no finite rho^4 constant); use scaling_order"
        )
    return factor * k2_limit(d) * area2


def ball_area_squared(rho: float) -> float:
    """(pi rho^2)^2, the squared area of a ball of radius rho.

    Raises OverflowError naming rho when (pi rho^2)^2 is not a finite
    double.  theory_report, second_factorial_asymptotic and the ball
    quadrature of kacrice all scale by it, so each fails the same way.
    """
    # Python's ** raises on overflow but * returns inf: either way, a
    # radius past ~6.5e76 fails here, named.
    try:
        area2 = (math.pi * rho**2) ** 2
    except OverflowError:
        area2 = math.inf
    if area2 == math.inf:
        raise OverflowError(f"ball radius rho = {rho} is too large: (pi rho^2)^2 overflows")
    return area2


@dataclass(frozen=True)
class ScalingOrder:
    """Symbolic small-radius order rho^exponent (optionally with |log rho|)."""

    exponent: int
    log_factor: bool

    def __str__(self) -> str:
        return f"rho^{self.exponent}" + (" * |log rho|" if self.log_factor else "")


def scaling_order(pair) -> ScalingOrder:
    """Small-radius order of the second moment for each type pair.

    (c,c) and (e,s) scale like rho^4; same-type pairs are much rarer:
    (e,e) like rho^7 and (s,s) like rho^7 |log rho|.
    """
    pair = normalize_pair(pair)
    return {
        ("c", "c"): ScalingOrder(4, False),
        ("e", "s"): ScalingOrder(4, False),
        ("e", "e"): ScalingOrder(7, False),
        ("s", "s"): ScalingOrder(7, True),
    }[pair]


def grw_minimality_gap(model: CovarianceModel) -> float:
    """R_c(model) - 1/(8 sqrt(3)), the distance from the repulsion minimum.

    Nonnegative for every admissible model and zero exactly when the
    spectral measure is an atom plus a single circle (shifted random
    wave) -- adding an atom at 0 changes no radial moment of order >= 2,
    so it cannot move R_c.

    Raises
    ------
    MomentDivergenceError
        If the model's 6th radial moment diverges (R_c would be +inf).
    """
    d = sigma_derivatives(model)
    if math.isinf(d.nu0):
        raise MomentDivergenceError(
            f"6th radial moment diverges for {model.family}; the gap is unbounded"
        )
    return repulsion_factor(d) - MIN_REPULSION_FACTOR


def theory_report(model: CovarianceModel, rho: float) -> dict:
    """Every closed-form quantity for a model at ball radius rho > 0.

    A flat mapping: rho, lambda_c, repulsion_factor, k2_limit_a,
    second_factorial_cc (the (c,c) rho^4 asymptote) and then
    expected_count_<kind> for each kind in KINDS.  A radius whose
    (pi rho^2)^2 overflows raises OverflowError naming it.
    """
    _require_finite_positive("rho", rho)
    area2 = ball_area_squared(rho)
    d = sigma_derivatives(model)
    lam = lambda_c(d)
    a = k2_limit(d)
    area = math.pi * rho**2
    flat = {
        "rho": rho,
        "lambda_c": lam,
        "repulsion_factor": repulsion_factor(d),
        "k2_limit_a": a,
        "second_factorial_cc": a * area2,
    }
    for kind in KINDS:
        flat[f"expected_count_{kind}"] = TYPE_FRACTIONS[kind] * lam * area
    return flat
