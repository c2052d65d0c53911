"""Cartan classes of real forms and real Weyl group decompositions.

A conjugacy class of Cartan subgroups corresponds to a class of twisted
involutions; its report combines rank data of the involution, the types
of the imaginary, real, and restricted complex root subsystems, and the
partition of the corresponding adjoint fiber by weak real form.  A
root subsystem is a list of positive-root indices of the involution
table, and its type (system_type) needs only the table.  The real Weyl
group W(K,H) is decomposed as (W_C)^tau . ((A . W_ic) x W_r); A comes
from Schreier generators on the cached moves of a fiber orbit and a
complement A' of W_ic, by orbit-stabilizer, never by listing W_i.
What depends on the class alone, the three types, |W_i|, the complex
and real generators and the Cayley targets, is one ClassFacts record per
table and class, which the class report, the Cayley graph and every real
form's real_weyl of every isogeny read.
"""

from __future__ import annotations

from functools import cached_property
from math import factorial
from typing import NamedTuple

from . import lin
from .diagram import arms, components
from .fiber import FiberOrbit
from .forms import StrongOrbit, strong_orbits
from .involution import InnerClass
from .lattice import RankDecomposition
from .rootdata import InputError
from .weyl import InvolutionTable, compose, word_from_matrix


# -- root subsystem classification --------------------------------------


def _cartan_matrix(table: InvolutionTable, basis: list[int]) -> list[list[int]]:
    """<a, b^v> for the positive roots a, b of a simple system, by index."""
    pos = table.rd.positive_roots
    return [[lin.vec_dot(pos[a].vec, pos[b].covec) for b in basis] for a in basis]


def _diagram(cartan: list[list[int]]) -> list[list[int]]:
    """Neighbour lists of the Dynkin diagram of a Cartan matrix."""
    return [[j for j, c in enumerate(row) if j != i and c] for i, row in enumerate(cartan)]


def _component_name(cartan: list[list[int]], adj: list[list[int]], comp: list[int]) -> str:
    n = len(comp)
    if n == 1:
        return "A1"
    bonds = {(i, j): cartan[i][j] * cartan[j][i] for i in comp for j in adj[i] if i < j}
    doubles = [e for e, p in bonds.items() if p == 2]
    forks = [v for v in comp if len(adj[v]) == 3]
    if any(p == 3 for p in bonds.values()):
        if n == 2:
            return "G2"
    elif len(doubles) == 1:
        i, j = doubles[0]
        if cartan[i][j] != -2:
            i, j = j, i
        # now i is the long and j the short end of the double bond
        if n == 2:
            return "B2"
        if len(adj[j]) == 1:
            return f"B{n}"
        if len(adj[i]) == 1:
            return f"C{n}"
        if n == 4:
            return "F4"
    elif not doubles and not forks:
        if all(len(adj[v]) <= 2 for v in comp):
            return f"A{n}"
    elif not doubles and len(forks) == 1:
        legs = sorted(map(len, arms(forks[0], adj)))
        if legs[:2] == [1, 1]:
            return f"D{n}"
        if legs[:2] == [1, 2] and n in (6, 7, 8):
            return f"E{n}"
    raise RuntimeError("a root subsystem component is not a Dynkin diagram of finite type")


def system_type(table: InvolutionTable, ks) -> str:
    """Cartan type of the root subsystem on the positive roots ks, "" when
    it is empty.

    The Cartan matrix of its simple basis (InvolutionTable.simple_basis)
    is built once; the components of its diagram (diagram.components)
    are named by _component_name in order of their first basis root.
    Rank-two systems with a double bond print as B2, and a pair of
    orthogonal A1's prints as A1.A1.  Only the table is read, so the type
    is the same in every isogeny.  A simple basis is its own simple
    basis, so a caller that holds one passes it for ks: the basis scan
    costs |ks|^2 reflection reads.
    """
    cartan = _cartan_matrix(table, table.simple_basis(ks))
    adj = _diagram(cartan)
    return ".".join(_component_name(cartan, adj, comp) for comp in components(adj))


_EXCEPTIONAL_ORDERS = {"E6": 51840, "E7": 2903040, "E8": 696729600,
                       "F4": 1152, "G2": 12}


def weyl_order(type_str: str) -> int:
    """Order of the Weyl group of a Cartan type string like "A1.D4"."""
    if not type_str:
        return 1
    total = 1
    for part in type_str.split("."):
        letter, rank = part[0], int(part[1:])
        if letter == "A":
            total *= factorial(rank + 1)
        elif letter in ("B", "C"):
            total *= 2 ** rank * factorial(rank)
        elif letter == "D":
            total *= 2 ** (rank - 1) * factorial(rank)
        else:
            total *= _EXCEPTIONAL_ORDERS[part]
    return total


def _complex_factor(table: InvolutionTable, inv: int) -> tuple[list[int], list[tuple[int, int]]]:
    """One side of the free complex root pairs at inv, as positive-root indices.

    The complex roots orthogonal to the half sums of imaginary and of
    real positive coroots split as a product R1 x theta(R1), with theta
    matching up the irreducible components in pairs.  Picks the
    lower-numbered component of each pair; the fixed subgroup of
    W(R1 x theta(R1)) is the diagonal copy of W(R1).  Returns the simple
    roots of R1 together with (simple root, theta partner) pairs, whose
    commuting reflection products generate that diagonal.  Two roots a, b
    are orthogonal exactly when the reflection in b fixes a.
    """
    pos = table.rd.positive_roots
    npos = len(pos)
    theta = table.thetas[inv]
    rho_i = table.rd.coroot_sum(table.imaginary_roots(inv))
    rho_r = table.rd.coroot_sum(table.real_roots(inv))
    free = [
        k for k, r in enumerate(pos)
        if theta[k] % npos != k
        and not lin.vec_dot(r.vec, rho_i) and not lin.vec_dot(r.vec, rho_r)
    ]
    basis = table.simple_basis(free)
    comps = components(_diagram(_cartan_matrix(table, basis)))
    # theta pairs distinct components: the partner of a component is the
    # one with a basis root not orthogonal to theta of its first basis root
    partner = []
    for comp in comps:
        img = theta[basis[comp[0]]] % npos
        partner.append(next(
            (i for i, other in enumerate(comps)
             if any(table.reflections[basis[b]][img] != img for b in other)),
            None,
        ))
    if any(p is None or p == i or partner[p] != i for i, p in enumerate(partner)):
        raise RuntimeError("theta does not pair the complex components")
    side = [basis[b] for i, comp in enumerate(comps) if i < partner[i] for b in comp]
    pairs = []
    for b in side:
        other = theta[b] % npos
        if table.reflections[other][b] != b:
            raise RuntimeError("a complex simple root is not orthogonal to its theta partner")
        pairs.append((b, other))
    return side, pairs


# -- Cartan classes ------------------------------------------------------


class ClassFacts:
    """What cartan_class and real_weyl read of a Cartan class alone.

    Read at the canonical involution of the class, these facts are the
    same for every real form, and as they read only the table, for every
    isogeny too.  class_facts builds them once per table and class and
    keeps them on the table; the generator words, which only real_weyl
    reads, and the Cayley targets, which only cartan_hasse reads, are
    built on first read and kept.

    Attributes:
        table: the involution table, which the words read.
        canonical: the canonical involution of the class.
        imaginary_type, real_type, complex_type: the system_type of the
            imaginary roots, of the real roots and of one side of the
            complex factor (_complex_factor).
        wi_order: |W_i|, the order of the imaginary Weyl group.
        pairs: the (simple root, theta partner) pairs of the complex factor.
        real_basis: the simple basis of the real roots.
    """

    def __init__(self, table: InvolutionTable, c: int):
        self.table = table
        inv = self.canonical = table.canonical_member(c)
        self.real_basis = tuple(table.simple_basis(table.real_roots(inv)))
        side, pairs = _complex_factor(table, inv)
        self.pairs = tuple(pairs)
        self.imaginary_type = system_type(table, table.imaginary_roots(inv))
        self.real_type = system_type(table, self.real_basis)
        self.complex_type = system_type(table, side)
        self.wi_order = weyl_order(self.imaginary_type)

    @cached_property
    def complex_generators(self) -> tuple[tuple[int, ...], ...]:
        """Words of s_b s_theta(b) over the pairs, sorted by (length, word)."""
        r = self.table.reflections
        words = [word_from_matrix(self.table, compose(r[b], r[o])) for b, o in self.pairs]
        return tuple(sorted(words, key=lambda w: (len(w), w)))

    @cached_property
    def real_generators(self) -> tuple[tuple[int, ...], ...]:
        """Words of the reflections in real_basis."""
        return tuple(self.table.reflection_word(k) for k in self.real_basis)

    @cached_property
    def cayley_targets(self) -> tuple[tuple[int, int], ...]:
        """(k, class of s_k.theta) for each imaginary root k at the
        canonical involution, in increasing k."""
        table, inv = self.table, self.canonical
        return tuple([
            (k, table.class_of[table.cayley(inv, k)]) for k in table.imaginary_roots(inv)
        ])


def class_facts(ic: InnerClass, c: int) -> ClassFacts:
    """The class-only facts of Cartan class c, built once per table and
    class and shared by every isogeny of the table."""
    ic.check(cartan=c)
    table = ic.table
    out = table._class_facts.get(c)
    if out is None:
        out = table._class_facts[c] = ClassFacts(table, c)
    return out


class CartanClass(NamedTuple):
    """One conjugacy class of Cartan subgroups of the inner class.

    partition splits the fiber of the adjoint group over the canonical
    involution by weak real form; its member ids are positions in that
    adjoint fiber, numbered orbit by orbit, most split form first.
    """

    index: int
    word: tuple[int, ...]
    decomposition: RankDecomposition
    orbit_size: int
    fiber_rank: int
    xr_count: int
    imaginary_type: str
    real_type: str
    complex_type: str
    partition: tuple[StrongOrbit, ...]


def cartan_class(ic: InnerClass, c: int) -> CartanClass:
    """The class record, built once per context and class and cached on ic;
    its three types are read from the class's ClassFacts."""
    ic.check(cartan=c)
    out = ic._cartan_classes.get(c)
    if out is not None:
        return out
    table = ic.table
    facts = class_facts(ic, c)
    dec = ic.cartan_ranks(c)
    orbit = len(table.classes[c])
    # the fiber of the adjoint group has one square class, numbered 0
    orbits = ic.cartan_orbits(c)
    ids, points = ic._adjoint_orbits([o.points for o in orbits])
    entries = strong_orbits(
        0, [(orbits[ids.index(a)].form, len(pts)) for a, pts in enumerate(points)]
    )
    out = ic._cartan_classes[c] = CartanClass(
        index=c,
        word=table.word(table.canonical_member(c)),
        decomposition=dec,
        orbit_size=orbit,
        fiber_rank=dec.compact,
        xr_count=orbit * 2 ** dec.compact,
        imaginary_type=facts.imaginary_type,
        real_type=facts.real_type,
        complex_type=facts.complex_type,
        partition=entries,
    )
    return out


def cartan_classes(ic: InnerClass, form: int) -> tuple[CartanClass, ...]:
    """Cartan classes of one real form, under the inner-class indices."""
    return tuple(cartan_class(ic, c) for c in ic.form_cartans(form))


def _system_line(label: str, type_str: str) -> str:
    return f"{label}: {type_str}" if type_str else f"{label} is empty"


def format_cartan_block(cc: CartanClass) -> list[str]:
    word = ",".join(str(j + 1) for j in cc.word)
    dec = cc.decomposition
    lines = [
        f"Cartan #{cc.index}:",
        f"split: {dec.split}; compact: {dec.compact}; "
        f"complex: {dec.complex_pairs}",
        "canonical twisted involution:" + (f" {word}" if word else ""),
        f"twisted involution orbit size: {cc.orbit_size};  "
        f"fiber rank: {cc.fiber_rank};  #X_r: {cc.xr_count}",
        _system_line("imaginary root system", cc.imaginary_type),
        _system_line("real root system", cc.real_type),
        _system_line("complex factor", cc.complex_type),
    ]
    for e in cc.partition:
        members = ",".join(str(m) for m in e.members)
        lines.append(f"real form #{e.form}: [{members}] ({len(e.members)})")
    return lines


def format_cartan_report(ic: InnerClass, form: int) -> list[str]:
    out: list[str] = []
    for cc in cartan_classes(ic, form):
        if out:
            out.append("")
        out.extend(format_cartan_block(cc))
    return out


# -- real Weyl groups ----------------------------------------------------


class RealWeylDecomposition(NamedTuple):
    """Factors of W(K,H) = (W_C)^tau . ((A . W_ic) x W_r)."""

    complex_type: str
    a_rank: int
    compact_type: str
    real_type: str
    complex_generators: tuple[tuple[int, ...], ...]
    a_generators: tuple[tuple[int, ...], ...]
    compact_generators: tuple[tuple[int, ...], ...]
    real_generators: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return (
            weyl_order(self.complex_type)
            * 2 ** self.a_rank
            * weyl_order(self.compact_type)
            * weyl_order(self.real_type)
        )


def _a_generators(
    ic: InnerClass, orbit: FiberOrbit, compact_ks: list[int]
) -> tuple[tuple[int, ...], ...]:
    """Words of the A generators at the first member of an orbit (see real_weyl)."""
    table = ic.table
    gens = [table.reflections[k] for k in table.imaginary_basis(orbit.members[0][0])]
    npos = len(table.reflections)
    one = bytes(range(2 * npos))
    # transversal of the orbit from its first member, and the inverses of its elements
    tr = {0: (one, one)}
    queue = [0]
    for m in queue:
        t, t_inv = tr[m]
        for row, g in zip(orbit.moves, gens):
            if row[m] not in tr:
                tr[row[m]] = (compose(g, t), compose(t_inv, g))
                queue.append(row[m])
    if len(tr) != len(orbit.members):
        raise RuntimeError("the cached moves do not connect the orbit")
    a_gens = set()
    for m, (t, _) in tr.items():
        for row, g in zip(orbit.moves, gens):
            back = tr[row[m]][1]
            w = compose(back, compose(g, t))
            while (k := next((k for k in compact_ks if w[k] >= npos), None)) is not None:
                w = compose(w, table.reflections[k])
            a_gens.add(w)
    group = {one}
    frontier = {one}
    while frontier:
        frontier = {compose(g, w) for w in frontier for g in a_gens} - group
        group |= frontier
    if any(compose(w, w) != one for w in group):
        raise RuntimeError("A is not an elementary abelian 2-group")
    a_words = []
    span = {one}
    by_word = {word_from_matrix(table, w): w for w in group - {one}}
    for word in sorted(by_word, key=lambda w: (len(w), w)):
        if (g := by_word[word]) not in span:
            a_words.append(word)
            span |= {compose(g, v) for v in span}
    return tuple(a_words)


def real_weyl(ic: InnerClass, form: int, cartan: int) -> RealWeylDecomposition:
    """Decomposition of W(K,H) at one Cartan class of a real form.

    Grading-dependent factors use the first fiber point x of the form at
    the canonical involution: the first member of the first orbit of the
    form in cartan_orbits.  A is read off Stab_{W_i}(x) by
    orbit-stabilizer, without listing W_i: a breadth-first search over
    the cached moves of the orbit O of x gives a transversal t_m
    (t_m.x = m), and the Schreier generators t_{g.m}^-1 g t_m, for g an
    imaginary-basis reflection, generate the stabiliser.  W_ic lies in it
    and is normal, so A' = {w in Stab(x) : w sends the positive compact
    roots to positive roots} is a complement, A' ~ A.  A Schreier
    generator is pushed into A' by multiplying it on the right by a
    simple compact reflection that it sends to a negative root, until
    there is none; the results generate A', which is closed by
    multiplication.

    The A generators are picked greedily from A' - {1} sorted by (length,
    word), each outside the span of those before.  This is the same list
    as a scan of the whole stabiliser modulo W_ic: the first element such
    a scan meets in a new W_ic-coset is the shortest one, and the
    shortest element of a coset wW' of a reflection subgroup W' is the
    unique one sending the positive roots of W' to positive roots (M.
    Dyer, "Reflection subgroups of Coxeter systems", J. Algebra 1990),
    so it lies in A'.

    The compact type is checked at the first member of each orbit of the
    form only: gradings are W_i-equivariant (see cartan_hasse), so w in
    W_i maps the compact roots at y onto those at w.y, and every member
    of an orbit gives the same compact type.  The compact roots at a
    member are read off one row of pairings (InnerClass.gradings).

    Only the compact roots, their type, A and the W_ic generators depend
    on the form.  The complex and real types and generators and |W_i| are
    the class's, read from its ClassFacts (class_facts), built at the
    first report or real_weyl of the class.

    RuntimeError is raised when A' has an element of order above 2, when
    another orbit of the form gives another compact type, or when some
    orbit O' of the form has |W_i| != |O'| |W_ic| |A|.
    """
    ic.check(form=form, cartan=cartan)
    table = ic.table
    facts = class_facts(ic, cartan)
    orbits = [o for o in ic.cartan_orbits(cartan) if o.form == form]
    if not orbits:
        raise InputError(f"Cartan class #{cartan} does not meet real form #{form}")
    compact_roots = [
        [k for k, noncompact in ic.gradings(o.members[0]).items() if not noncompact]
        for o in orbits
    ]
    compact_ks = table.simple_basis(compact_roots[0])
    compact_type = system_type(table, compact_ks)
    a_words = _a_generators(ic, orbits[0], compact_ks)
    for other in compact_roots[1:]:
        # the same type, possibly with its components in another order
        if sorted(system_type(table, other).split(".")) != sorted(compact_type.split(".")):
            raise RuntimeError("compact type differs between orbits of a form")
    wic_order = weyl_order(compact_type)
    for o in orbits:
        if len(o.members) * wic_order << len(a_words) != facts.wi_order:
            raise RuntimeError("|W_i| is not |orbit| |W_ic| |A| at an orbit of the form")
    return RealWeylDecomposition(
        complex_type=facts.complex_type,
        a_rank=len(a_words),
        compact_type=compact_type,
        real_type=facts.real_type,
        complex_generators=facts.complex_generators,
        a_generators=a_words,
        compact_generators=tuple(table.reflection_word(k) for k in compact_ks),
        real_generators=facts.real_generators,
    )


def format_real_weyl(dec: RealWeylDecomposition) -> list[str]:
    lines = ["real weyl group is W^C.((A.W_ic) x W^R), where:"]
    lines.append(
        f"W^C is isomorphic to a Weyl group of type {dec.complex_type}"
        if dec.complex_type else "W^C is trivial"
    )
    lines.append(
        f"A is an elementary abelian 2-group of rank {dec.a_rank}"
        if dec.a_rank else "A is trivial"
    )
    lines.append(
        f"W_ic is a Weyl group of type {dec.compact_type}"
        if dec.compact_type else "W_ic is trivial"
    )
    lines.append(
        f"W^R is a Weyl group of type {dec.real_type}"
        if dec.real_type else "W^R is trivial"
    )
    sections = (
        ("W^C", dec.complex_generators),
        ("A", dec.a_generators),
        ("W_ic", dec.compact_generators),
        ("W^R", dec.real_generators),
    )
    for label, gens in sections:
        if gens:
            lines.append("")
            lines.append(f"generators for {label}:")
            lines.extend(",".join(str(j + 1) for j in w) for w in gens)
    return lines


# -- Cayley graph of Cartan classes --------------------------------------


class CartanHasse(NamedTuple):
    """Cayley-transform graph on the Cartan classes of one real form.

    Edges point from a class to the more split class reached by a
    Cayley transform; most_split lists the classes that are the most
    split Cartan of some real form of the inner class.
    """

    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    most_split: tuple[int, ...]


def cartan_hasse(ic: InnerClass, form: int) -> CartanHasse:
    """Cayley-transform graph of the Cartan classes of one real form.

    Class c has an edge to the class of s_beta.theta when some strong
    involution x of the form over the canonical theta of c is noncompact
    at the imaginary root beta.  Gradings are read at the first member
    of each cross-action orbit of the imaginary Weyl group W_i only, at
    all imaginary roots at once from the involution's grading row
    (InnerClass.gradings).  That is exact: for w in W_i, w.x is
    noncompact at w.beta exactly when x is noncompact at beta, and
    s_{w.beta}.theta = w (s_beta.theta) w^-1 lies in the class of
    s_beta.theta, so every member of an orbit gives the same edges.  The
    targets s_beta.theta are the class's (ClassFacts.cayley_targets).
    """
    nodes = ic.form_cartans(form)
    edges = set()
    for c in nodes:
        targets = class_facts(ic, c).cayley_targets
        for orbit in ic.cartan_orbits(c):
            if orbit.form == form:
                noncompact = ic.gradings(orbit.members[0])
                edges.update((c, target) for k, target in targets if noncompact[k])
    flags = {ic.most_split_cartan(f) for f in range(len(ic.real_forms))}
    return CartanHasse(
        tuple(nodes),
        tuple(sorted(edges)),
        tuple(sorted(flags & set(nodes))),
    )
