"""Numerical toolkit for the Loewner differential equation.

Solvers for the half-plane and disk Loewner equations under arbitrary driving
terms, singular solutions and swallowed intervals, the exact tangent
circular-slit map with its Lip(1/3) driving term, driving-term conversion
between the two geometries, slit-trace reconstruction, Holder-norm machinery,
and the critical-norm experiments that locate the threshold value 4.
"""

from .driving import (Constant, DrivingTerm, FromCallable, Lind, Sampled, Scaled,
                      Sqrt, load_sampled_csv, parse_term, write_sampled_csv)
from .errors import (ConversionDomainError, DomainError, FitError, IntegrationError,
                     LoewnerError, PoleError, RootFindingError, TraceError)
from .holder import HolderFit, holder_exponent_fit, holder_sup_norm
from .trajectory import Trajectory, write_trajectory_csv

__version__ = "0.1.0"

__all__ = [
    "Constant", "ConversionDomainError", "DomainError", "DrivingTerm", "FitError",
    "FromCallable", "HolderFit", "IntegrationError", "Lind", "LoewnerError",
    "PoleError", "RootFindingError", "Sampled", "Scaled", "Sqrt", "TraceError",
    "Trajectory", "holder_exponent_fit", "holder_sup_norm", "load_sampled_csv",
    "parse_term", "write_sampled_csv", "write_trajectory_csv",
]
