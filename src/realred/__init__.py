"""Structure tables for real reductive groups.

Computes real forms, Cartan classes, real Weyl groups and KGB orbits
for a complex reductive group given by Lie type, central quotient, and
inner class.  All arithmetic is exact.
"""

from __future__ import annotations

__version__ = "0.1.0"
