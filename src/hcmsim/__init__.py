"""Simulation library for critical inhomogeneous percolation on the
edge-colored configuration model, the multiplicative coalescent with mass
and weight, and their thinned Levy scaling limits."""

__version__ = "0.1.0"
