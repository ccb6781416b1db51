"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: dense cubic loops, central finite
differences, golden-section search.  Production code must match these
oracles, never reuse them.
"""

from __future__ import annotations

import math

import numpy as np

from homricci.space_model import HomogeneousSpaceSpec, StructureConstantTable


def brute_force_scalar_curvature(spec: HomogeneousSpaceSpec, x) -> float:
    """Dense s^3 evaluation of the curvature formula."""
    xs = [float(v) for v in x]
    s = spec.s
    total = 0.0
    for i in range(1, s + 1):
        total += 0.5 * spec.d[i - 1] * spec.b[i - 1] / xs[i - 1]
    for i in range(1, s + 1):
        for j in range(1, s + 1):
            for k in range(1, s + 1):
                total -= 0.25 * spec.constant(i, j, k) * xs[k - 1] / (xs[i - 1] * xs[j - 1])
    return total


def brute_force_hat_curvature(spec: HomogeneousSpaceSpec, J, y) -> float:
    """Dense evaluation of the slice extension, term by term."""
    members = sorted(set(int(i) for i in J))
    complement = [i for i in range(1, spec.s + 1) if i not in members]
    ys = {i: float(v) for i, v in zip(members, y)}
    total = 0.0
    for i in members:
        total += 0.5 * spec.d[i - 1] * spec.b[i - 1] / ys[i]
    for i in members:
        for j in complement:
            for k in complement:
                total -= 0.5 * spec.constant(i, j, k) / ys[i]
    for i in members:
        for j in members:
            for k in members:
                total -= 0.25 * spec.constant(i, j, k) * ys[k] / (ys[i] * ys[j])
    return total


def brute_force_ricci(spec: HomogeneousSpaceSpec, x) -> tuple[list[float], list[float]]:
    """Dense s^3 closed form of the Ricci coefficients, returned as (R, r):

        r_m = b_m / (2 x_m) + 1/(4 d_m) sum_{j,k} [mjk] x_m / (x_j x_k)
            - 1/(2 d_m) sum_{j,k} [mjk] x_k / (x_m x_j),    R_m = x_m r_m.
    """
    xs = [float(v) for v in x]
    s = spec.s
    r = []
    for m in range(1, s + 1):
        value = spec.b[m - 1] / (2.0 * xs[m - 1])
        for j in range(1, s + 1):
            for k in range(1, s + 1):
                c = spec.constant(m, j, k)
                value += c * xs[m - 1] / (4.0 * spec.d[m - 1] * xs[j - 1] * xs[k - 1])
                value -= c * xs[k - 1] / (2.0 * spec.d[m - 1] * xs[m - 1] * xs[j - 1])
        r.append(value)
    return [xs[m] * r[m] for m in range(s)], r


def central_difference_gradient(spec: HomogeneousSpaceSpec, x, rel_step: float = 1e-5) -> np.ndarray:
    """Central differences of :func:`brute_force_scalar_curvature`."""
    xs = np.array([float(v) for v in x])
    grad = np.zeros(spec.s)
    for m in range(spec.s):
        h = rel_step * xs[m]
        upper = xs.copy()
        lower = xs.copy()
        upper[m] += h
        lower[m] -= h
        upper_value = brute_force_scalar_curvature(spec, upper)
        grad[m] = (upper_value - brute_force_scalar_curvature(spec, lower)) / (2 * h)
    return grad


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-12, iterations: int = 200):
    """Maximize a unimodal function on [lo, hi]; returns (argmax, value)."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iterations):
        if b - a < tol * max(1.0, abs(a) + abs(b)):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    mid = 0.5 * (a + b)
    return mid, f(mid)


def is_closed_subset(spec: HomogeneousSpaceSpec, J) -> bool:
    """No constant [jkl] with j, k in J and l outside J is nonzero."""
    J = frozenset(J)
    for j in J:
        for k in J:
            for l in range(1, spec.s + 1):
                if l not in J and spec.constant(j, k, l) != 0.0:
                    return False
    return True


def all_closed_subsets(spec: HomogeneousSpaceSpec) -> set[frozenset[int]]:
    """Exhaustive closure scan written independently of the library."""
    s = spec.s
    subsets = (frozenset(i + 1 for i in range(s) if mask >> i & 1) for mask in range(1, (1 << s) - 1))
    return {J for J in subsets if is_closed_subset(spec, J)}


def maximal_closed_within(closed: set[frozenset[int]], J: frozenset[int]) -> set[frozenset[int]]:
    """Members of ``closed`` strictly inside J with no member strictly
    between them and J, by direct pairwise comparison."""
    inside = [K for K in closed if K < J]
    return {K for K in inside if not any(K < other for other in inside)}


def psi_slice_value(z2: float, z4: float, v: float) -> float:
    """One-variable reduction of hatS on the two-summand slice of the
    four-summand catalog space, valid for v above the pole at 6 z4."""
    return (
        7.0 * (v - 6.0 * z4) / (18.0 * v * z2)
        + 4.0 / (3.0 * v)
        - (v - 6.0 * z4) ** 2 / (648.0 * v * z2 * z2)
    )


def psi_peak_location(z2: float, z4: float) -> float:
    """Stationary point of the reduction when z2/z4 < 7/4."""
    return 6.0 * math.sqrt(z4 * z4 + 42.0 * z2 * z4 - 24.0 * z2 * z2)


def psi_peak_value(z2: float, z4: float) -> float:
    return 7.0 / (18.0 * z2) - (math.sqrt(z4 * z4 + 42.0 * z2 * z4 - 24.0 * z2 * z2) - z4) / (54.0 * z2 * z2)


def random_space_spec(rng: np.random.Generator, max_summands: int = 5,
                      density: float = 0.35, allow_zero_b: bool = True,
                      summands: int | None = None) -> HomogeneousSpaceSpec:
    """Deterministic random spec with sparse non-negative constants and
    ``summands`` summands, or a random count up to ``max_summands``."""
    s = int(rng.integers(1, max_summands + 1)) if summands is None else summands
    d = [int(rng.integers(1, 9)) for _ in range(s)]
    while sum(d) < 3:
        d[rng.integers(0, s)] += 1
    if allow_zero_b and rng.random() < 0.05:
        b = [0.0] * s
    else:
        b = [float(rng.uniform(0.5, 2.0)) for _ in range(s)]
    entries = {}
    for i in range(1, s + 1):
        for j in range(i, s + 1):
            for k in range(j, s + 1):
                if rng.random() < density:
                    entries[(i, j, k)] = float(rng.uniform(0.05, 2.0))
    return HomogeneousSpaceSpec(
        name=f"random_s{s}",
        d=tuple(d),
        b=tuple(b),
        triples=StructureConstantTable.from_items(entries),
    )


def slice_term_table(spec: HomogeneousSpaceSpec, J) -> dict[tuple[int, ...], float]:
    """hatS on the slice J as {exponent: coefficient}, the exponents over the
    members of J in ascending order, summed term by term from dense loops."""
    members = sorted(set(int(i) for i in J))
    complement = [i for i in range(1, spec.s + 1) if i not in members]
    pos = {i: p for p, i in enumerate(members)}
    table: dict[tuple[int, ...], float] = {}
    for i in members:
        exponent = tuple(-1 if p == pos[i] else 0 for p in range(len(members)))
        table[exponent] = table.get(exponent, 0.0) + 0.5 * spec.d[i - 1] * spec.b[i - 1]
        for j in complement:
            for k in complement:
                table[exponent] -= 0.5 * spec.constant(i, j, k)
    for i in members:
        for j in members:
            for k in members:
                if spec.constant(i, j, k) != 0.0:
                    exponent = [0] * len(members)
                    exponent[pos[k]] += 1
                    exponent[pos[i]] -= 1
                    exponent[pos[j]] -= 1
                    key = tuple(exponent)
                    table[key] = table.get(key, 0.0) - 0.25 * spec.constant(i, j, k)
    return table


def complement_constant(spec: HomogeneousSpaceSpec, complement) -> float:
    """1/2 sum d_i b_i - 1/4 sum [ijk] over the complement, by dense loops."""
    C = sorted(set(int(i) for i in complement))
    linear = sum(spec.d[i - 1] * spec.b[i - 1] for i in C)
    triple = sum(spec.constant(i, j, k) for i in C for j in C for k in C)
    return 0.5 * linear - 0.25 * triple


def reach_table(spec: HomogeneousSpaceSpec) -> tuple[tuple[int, ...], ...]:
    """``table[a][b]`` for zero-based a, b: the mask (bit c-1) of every c with
    [abc] != 0."""
    s = spec.s
    return tuple(
        tuple(sum(1 << (c - 1) for c in range(1, s + 1) if spec.constant(a, b, c) != 0.0)
              for b in range(1, s + 1))
        for a in range(1, s + 1)
    )


def zeroed_variant(spec: HomogeneousSpaceSpec, rng: np.random.Generator) -> HomogeneousSpaceSpec:
    """``spec`` with every b_i = 0 and about a fifth of its constants stored
    as exact zeros."""
    entries = {m: (0.0 if rng.random() < 0.2 else v) for m, v in spec.triples.entries}
    return HomogeneousSpaceSpec(name=f"{spec.name}_zeroed", d=spec.d, b=(0.0,) * spec.s,
                                triples=StructureConstantTable.from_items(entries))


# (summands, density) of the draws below: lattices of at most a few hundred
# sets up to s = 16
_DRAWS = ((3, 0.3), (4, 0.3), (5, 0.3), (6, 0.2), (8, 0.15), (10, 0.1),
          (12, 0.07), (14, 0.06), (16, 0.05), (16, 0.045))


def seeded_draws(seed: int):
    """Seeded ``random_space_spec`` draws up to s = 16, each followed by its
    :func:`zeroed_variant`; the draws include repeated-index multisets."""
    rng = np.random.default_rng(seed)
    for s, density in _DRAWS:
        spec = random_space_spec(rng, summands=s, density=density)
        yield spec
        yield zeroed_variant(spec, rng)


def has_internal_bracket(spec: HomogeneousSpaceSpec, J) -> bool:
    """Some nonzero [ijk] has all three indices in J."""
    members = sorted(set(int(i) for i in J))
    return any(spec.constant(i, j, k) != 0.0 for i in members for j in members for k in members)


def components(spec: HomogeneousSpaceSpec, J) -> list[frozenset[int]]:
    """The bracket-connected components of J, ordered by smallest member:
    union-find over the members, joining the indices of every nonzero [ijk]
    with all three indices in J."""
    members = set(int(i) for i in J)
    parent = {i: i for i in members}

    def root(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    for (i, j, k), value in spec.triples.entries:
        if value != 0.0 and {i, j, k} <= members:
            for other in (j, k):
                parent[root(other)] = root(i)
    groups: dict[int, set[int]] = {}
    for i in members:
        groups.setdefault(root(i), set()).add(i)
    return sorted((frozenset(group) for group in groups.values()), key=min)


def bracket_free_ratios(spec: HomogeneousSpaceSpec, J, z) -> list[float]:
    """c_i / (d_i z_i) for i in J, where c_i / y_i is the term of hatS on the
    slice of a closed J without internal brackets:
    c_i = 1/2 d_i b_i - 1/2 sum_{j,k not in J} [ijk], summed by loops."""
    members = sorted(set(int(i) for i in J))
    complement = [i for i in range(1, spec.s + 1) if i not in members]
    ratios = []
    for i in members:
        c = 0.5 * spec.d[i - 1] * spec.b[i - 1]
        for j in complement:
            for k in complement:
                c -= 0.5 * spec.constant(i, j, k)
        ratios.append(c / (spec.d[i - 1] * float(z[i - 1])))
    return ratios


def bracket_free_supremum(spec: HomogeneousSpaceSpec, J, z) -> float:
    """Supremum of hatS on the unit-trace slice of a closed J without
    internal brackets: with u_i = d_i z_i / y_i on the simplex sum u_i = 1,
    hatS = sum_i u_i c_i / (d_i z_i) is linear, so the supremum is the
    largest ratio."""
    return max(bracket_free_ratios(spec, J, z))
