"""orbitlab: numerical laboratory for reversible Lagrangian systems.

Integrates orbits of classical Lagrangians (reversible Finsler or Riemannian
kinetic energy plus a potential), realizes the Jacobi-Maupertuis orbit /
geodesic correspondence, locates periodic orbits (brake orbits and rotations)
by shooting, classifies them through monodromy, and detects orbit
intersections.
"""

__version__ = "0.1.0"
