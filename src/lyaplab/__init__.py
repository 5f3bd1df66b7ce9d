"""Numerical laboratory for Lyapunov exponents of SL(2) cocycles.

Submodules
----------
projective   2x2 matrix kernel, projective line, sl(2) exponential
bases        periodic orbits / circle rotations / Bernoulli shifts, potentials
cocycles     cocycle iteration and Lyapunov estimators (exact and sampled)
conefield    uniform-hyperbolicity certification and invariant directions
spectral     periodic Schrodinger bands, IDS, Thouless formula
regularize   the regularized exponent functionals and their identities
search       constructive positivity search and the one-parameter scan
acceptance   the release criteria, also run by `lyaplab reproduce`
cli          scenario-driven command line front end
"""

__version__ = "0.1.0"

from .bases import (BernoulliShift, CircleRotation, CylinderTable,
                    IntegrationScheme, PeriodicOrbits, PeriodicTable,
                    TrigPolynomial, combine, constant_potential, integrate)
from .cocycles import (Cocycle, LyapunovEstimate, ab_average_check, best_lyapunov,
                       constant_cocycle, iterate_renormalized, lyapunov_birkhoff,
                       lyapunov_fubini, lyapunov_periodic_exact, matrix_cocycle,
                       schrodinger_cocycle, schrodinger_entry_cocycle)
from .conefield import (ConeField, UHCertificate, certify_uh, harmonicity_probe,
                        hemisphere_cone, lyapunov_uh_exact, stable_direction,
                        unstable_direction)
from .projective import (Mat2, ProjPoint, Sl2Element, chart, expansion_coeff,
                         exp_sl2, mobius_act, rotation, spherical_dist)
from .regularize import (PhiQuery, Sl2Field, analyticity_probe, phi,
                         phi_boundary, phi_convolved, phi_general,
                         poisson_check, weight)
from .search import (SearchReport, quantita_scan, search_positive_general,
                     search_positive_schrodinger)
from .spectral import (IDS, BandStructure, PeriodicPotential, bands,
                       discriminant, find_hyperbolic_energy, gap_open_perturb,
                       ids, thouless_lyapunov)
