"""Structure tables for real reductive groups.

Computes real forms, Cartan classes, real Weyl groups and KGB orbits
for a complex reductive group given by Lie type, central quotient, and
inner class.  All arithmetic is exact.

The atlas session asks for a Lie type, then kernel generators of the
center ("sc", "ad" or fractions), then inner-class letters.  group takes
the three at once and returns the inner class (involution.InnerClass);
every bad argument raises InputError:

    >>> from realred import group
    >>> ic = group("A3", "c", "ad")
    >>> [f.name for f in ic.real_forms]
    ['su(4)', 'su(3,1)', 'su(2,2)']
"""

from __future__ import annotations

from . import involution, rootdata

__version__ = "0.1.0"

group = involution.group
InputError = rootdata.InputError
