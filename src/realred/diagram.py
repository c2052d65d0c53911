"""Dynkin diagrams: Cartan matrices of the simple types, and graph walks.

A diagram is given by neighbour lists, one per vertex.  Root data build
their Cartan matrices here (cartan_matrix), the Weyl words order the
simple roots along the components (weyl.piece_chain), and the Cartan
reports name root subsystems by their components and arms.
"""

from __future__ import annotations

from . import lin


def cartan_matrix(letter: str, n: int) -> lin.Matrix:
    """Cartan matrix of a simple type, Bourbaki numbering."""
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i: int, j: int, down: int = -1, up: int = -1) -> None:
        c[i][j] = down
        c[j][i] = up

    if letter == "A":
        for i in range(n - 1):
            bond(i, i + 1)
    elif letter == "B":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, -2, -1)
    elif letter == "C":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, -1, -2)
    elif letter == "D":
        for i in range(n - 3):
            bond(i, i + 1)
        if n >= 3:
            bond(n - 3, n - 2)
            bond(n - 3, n - 1)
    elif letter == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for i, j in zip(chain, chain[1:]):
            bond(i, j)
        bond(1, 3)
    elif letter == "F":
        bond(0, 1)
        bond(1, 2, -2, -1)
        bond(2, 3)
    elif letter == "G":
        bond(0, 1, -1, -3)
    else:
        raise ValueError(f"no Cartan matrix for type {letter}")
    return lin.freeze(c)


def components(adj: list[list[int]]) -> list[list[int]]:
    """Components of a graph given by neighbour lists, as sorted vertex
    lists in order of their least vertex."""
    seen = [False] * len(adj)
    out = []
    for start in range(len(adj)):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        for v in comp:
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
        out.append(sorted(comp))
    return out


def arms(joint: int, adj: list[list[int]]) -> list[list[int]]:
    """Paths leading away from joint, one per neighbour in adj order.

    Each walk takes the first onward neighbour, so the arms are exact
    when they are paths, as at the fork of a D or E diagram.
    """
    out = []
    for first in adj[joint]:
        arm = [first]
        prev = joint
        while nxt := [u for u in adj[arm[-1]] if u != prev]:
            prev = arm[-1]
            arm.append(nxt[0])
        out.append(arm)
    return out
