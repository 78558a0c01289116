"""Sphere entropies, the curvature remainder, and quotient forms.

Sphere-side functionals act on densities on the conservative zonal
finite-volume grid: entropy, Fisher information and deficit are written
once, in sphere_observables, for a stack of densities, with the cell
masses as quadrature and the grid's Dirichlet form as gradient energy.
The curvature remainder acts on a pressure field on the tensor grid of
the weighted space.  Derivatives are taken directly in r, after
subtracting a reference slice in each direction, so that polynomial
radial pressures differentiate exactly and the constant part of the
field never reaches the 1/r^2-amplified stencil weights near the inner
truncation radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import params as params_mod
from .errors import DegenerateInput, DomainError
from .grids import CylinderField, FVZonalGrid, TensorGrid
from .params import CKNParams, mu_star, sphere_area

__all__ = [
    "sphere_observables",
    "PressureField",
    "density_from_pressure",
    "k_functional",
    "cylinder_quotient",
    "gaussian_h",
]


# ---------------------------------------------------------------------------
# sphere functionals


def sphere_observables(grid: FVZonalGrid, rhos: np.ndarray,
                       p: float) -> np.ndarray:
    """Rows (mass, entropy, fisher, deficit) for a (k, n) stack of densities.

    For p != 2 the entropy is ((integral rho)^(2/p) - integral rho^(2/p))
    divided by (p-2); at p = 2 it is half the Boltzmann entropy relative
    to the mass.  The Fisher information is the Dirichlet form of
    rho^(1/p), and the deficit is Fisher minus d times entropy.  All use
    the uniform probability measure.  Each row is bit-identical to
    evaluating that density alone.
    """
    mass = grid.integrate(rhos)
    if p == 2.0:
        ent = 0.5 * grid.integrate(
            rhos * np.log(np.maximum(rhos, 1e-300) / mass[:, None]))
    else:
        # one Python float power per row: NumPy's vectorized power differs
        # from it in the last bit for about one argument in twenty
        mass_pow = np.array([m ** (2.0 / p) for m in mass.tolist()])
        ent = (mass_pow - grid.integrate(rhos ** (2.0 / p))) / (p - 2.0)
    fish = grid.dirichlet_form(rhos ** (1.0 / p))
    return np.stack([mass, ent, fish, fish - grid.sphere_dim * ent], axis=-1)


# ---------------------------------------------------------------------------
# pressure fields on the weighted space


@dataclass
class PressureField:
    """Pressure variable on a tensor grid, with its flow exponents."""

    grid: TensorGrid
    values: np.ndarray
    m: float
    n: float
    alpha: float

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.grid.r), len(self.grid.z)):
            raise DomainError("pressure shape must match its grid")
        if not np.all(np.isfinite(self.values)):
            raise DegenerateInput("pressure carries non-finite values")


def _flow_exponents(params: CKNParams):
    if params.alpha is None or params.n is None or params.m is None:
        raise DomainError("record lacks flow exponents (alpha, n, m)")
    if not 0.0 < params.m < 1.0:
        raise DomainError(f"diffusion exponent must lie in (0,1), "
                          f"got m={params.m}")
    return params.m, params.n, params.alpha


def density_from_pressure(pf: PressureField) -> np.ndarray:
    """Density u of the pressure p = (m/(1-m)) u^(m-1); needs p > 0."""
    if np.any(pf.values <= 0.0):
        raise DegenerateInput("pressure must be positive to invert")
    m = pf.m
    return ((1.0 - m) / m * pf.values) ** (1.0 / (m - 1.0))


def _measure_weights(grid: TensorGrid, n: float) -> np.ndarray:
    """Tensor weights of the measure |x|^(n-d) dx, zonally reduced."""
    area = sphere_area(grid.d)
    return grid.radial_weights(n)[:, None] * (area * grid.wz)[None, :]


def _field_derivatives(grid: TensorGrid, P: np.ndarray):
    """First and second derivatives of a tensor field in r and z.

    Before applying the stencils, the innermost radial slice is
    subtracted along r and the central zonal slice along z.  Constants
    never survive the subtraction, so fields that are constant in one
    direction differentiate to exact zeros there, and the rounding of
    what remains scales with the local variation instead of the field
    magnitude; that is what keeps the 1/r^2-amplified combinations far
    below the curvature tolerances.
    """
    br = P - P[[0], :]
    bz = P - P[:, [len(grid.z) // 2]]
    pr = grid.Dr.apply(br)
    prr = grid.Drr.apply(br)
    pz = grid.Dz.apply(bz, axis=1)
    pzz = grid.Dzz.apply(bz, axis=1)
    return pr, prr, pz, pzz


def k_functional(pf: PressureField, params: CKNParams,
                 zeta_star: float = 1.0):
    """Pointwise carre-du-champ remainder and its weighted integral.

    Returns (field, integral) where the integral weighs the field by
    u^m against the measure |x|^(n-d) dx, with u recovered from the
    pressure.  The radial stencils are polynomial-exact, so quadratic
    radial pressures (the degenerate kernel of the quadratic form) land
    in the rounding floor rather than at truncation order: below 1e-10,
    field and integral alike, on the tensor grids of the test suite.
    Every derivative, the mixed one included, is the grid's five-point
    stencils applied along r or z, so the work and memory are linear in
    the number of grid points.
    """
    if zeta_star <= 0.0:
        raise DomainError(f"zeta_star must be positive, got {zeta_star}")
    m, n, alpha = _flow_exponents(params)
    if n < 2.0:
        raise DomainError(f"needs n >= 2, got n={n}")
    grid = pf.grid
    d = grid.d
    alpha_fs = params_mod.alpha_fs_value(d, n)
    z = grid.z
    one_z2 = (1.0 - z * z)[None, :]
    pr, prr, pz, pzz = _field_derivatives(grid, pf.values)
    prz = grid.Dr.apply(pz)
    lap_omega = one_z2 * pzz - (d - 1.0) * z[None, :] * pz
    rr = grid.r[:, None]
    r2 = rr * rr
    r4 = r2 * r2
    bracket = prr - pr / rr - lap_omega / (alpha ** 2 * (n - 1.0) * r2)
    cross = prz - pz / rr
    field = (alpha ** 4 * (1.0 - 1.0 / n) * bracket ** 2
             + 2.0 * alpha ** 2 * one_z2 * cross ** 2 / r2
             + (n - 2.0) * (alpha_fs ** 2 - alpha ** 2) * one_z2 * pz ** 2 / r4
             + zeta_star * (n - d) * (one_z2 * pz * pz) ** 2 / r4)
    um = density_from_pressure(pf) ** m
    integral = float(np.sum(_measure_weights(grid, n) * field * um))
    return field, integral


# ---------------------------------------------------------------------------
# cylinder quotients


def cylinder_quotient(phi: CylinderField, Lambda: float, p: float,
                      theta: float = 1.0):
    """Interpolation quotient and gradient ratio of a cylinder field.

    Returns a dict with ``mu`` = (energy + Lambda l2)^theta *
    l2^(1-theta) / lp^2 and ``t`` = energy / l2.  The discrete energy
    uses the same quadratic form as the solver, so the Euler-Lagrange
    identity holds to solver residual, not merely to truncation order.
    """
    if not isinstance(phi, CylinderField):
        raise DomainError(f"unsupported field type {type(phi).__name__}")
    U = phi.values
    if not np.any(U != 0.0):
        raise DegenerateInput("quotient of the zero field")
    h, wz = phi.grid.h, phi.grid.wz
    diff_s = np.diff(U, axis=0)
    energy = float(np.sum((diff_s * diff_s) @ wz)) / h
    energy += float(np.sum((U[-1] * U[-1]) * wz)) / h
    energy += float(np.sum(((-(U @ phi.grid.lap_z.T)) * U) @ wz)) * h
    energy *= 2.0
    l2 = phi.integrate(U * U)
    lp = phi.lp_norm(p)
    mu = (energy + Lambda * l2) ** theta * l2 ** (1.0 - theta) / lp ** 2
    return {"mu": mu, "t": energy / l2}


def gaussian_h(d: int, p: float) -> float:
    """Gaussian test quotient against the symmetric constant.

    The numerator is the unweighted interpolation quotient of the unit
    Gaussian (2 pi)^(-d/4) exp(-|x|^2/4) at the endpoint exponent
    theta = d(p-2)/(2p); the denominator is the symmetric cylinder
    constant at the matching threshold, rescaled by the sphere area
    factor that converts per-line cylinder norms into ambient ones.
    Tends to 1 as p decreases to 2 and dips below 1 just above, which
    is the wedge the comparison argument drives in.  Computed in log
    space so it stays finite arbitrarily close to p = 2.
    """
    record = params_mod.derive_params(d, {"p": p, "Lambda": 1.0}, "cylinder")
    theta = record.vartheta
    lam_theta = params_mod.lambda_fs_theta(record, theta)
    denom = mu_star(record, lam_theta, theta)
    log_ambient = (1.0 - 2.0 / p) * math.log(sphere_area(d))
    # norms of (2 pi)^(-d/4) exp(-|x|^2/4): grad energy d/4, unit mass
    log_lp2 = (-d / 2.0) * math.log(2.0 * math.pi) \
        + (d / p) * math.log(4.0 * math.pi / p)
    log_h = theta * math.log(d / 4.0) - log_lp2 - math.log(denom) - log_ambient
    return math.exp(log_h)
