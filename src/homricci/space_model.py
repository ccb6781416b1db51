"""Combinatorial descriptions of compact homogeneous spaces G/H.

A space is described by the number s of irreducible isotropy summands, their
dimensions d_i, the Killing coefficients b_i, and the fully symmetric
non-negative structure constants [ijk].  Summand indices are 1-based
everywhere in the public API, matching the JSON file format and all reports.

The toolkit assumes the isotropy summands are pairwise inequivalent, so that
every invariant metric is diagonal in the fixed decomposition and every
intermediate subalgebra is a sum of summands.  Specs describing spaces with
equivalent summands are outside the supported domain; there is no flag to
enable them.
"""

from __future__ import annotations

import functools
import json
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

__all__ = [
    "SpecError",
    "StructureConstantTable",
    "HomogeneousSpaceSpec",
    "SubalgebraIndexSet",
    "parse_number",
    "resolve_indices",
    "load_space_spec",
    "space_spec_to_document",
    "builtin_space",
    "builtin_names",
    "wallach_space",
    "trace_Q_restricted",
]


class SpecError(ValueError):
    """Invalid space description.  ``field`` points at the offending entry."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message if field is None else f"{field}: {message}")


def parse_number(raw, field: str | None) -> float:
    """The value of a JSON number or of a decimal or rational string such as
    ``" 1.5"`` or ``"7/2"``.  Booleans, and values that are not finite or
    overflow a float, raise :class:`SpecError` naming ``field``."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
        raise SpecError("expected a number or rational string", field)
    try:
        if not isinstance(raw, str):
            value = float(raw)
        else:
            num, slash, den = raw.partition("/") if raw.isascii() else ("", "", "")
            if num.isdigit() and den.isdigit():
                value = int(num) / int(den)  # correctly rounded, as float(Fraction(raw)) is
            elif not slash and len(num) <= 640 and num.replace(".", "", 1).isdigit():
                # a plain decimal, correctly rounded too; Fraction's int parts
                # could fail only the int digit limit, which is never below 640
                value = float(num)
            else:
                value = float(Fraction(raw))
    except (ValueError, ZeroDivisionError):
        raise SpecError(f"cannot parse {raw!r} as a number", field) from None
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise SpecError(f"{raw!r} is not a finite number", field)
    return value


def _as_index(value) -> int:
    """``value`` as a summand index: a Python or numpy integer, not a bool,
    float or string."""
    index = getattr(type(value), "__index__", None)
    if index is None or isinstance(value, bool):
        raise ValueError(f"summand index must be an integer, got {value!r}")
    return index(value)


@dataclass(frozen=True)
class StructureConstantTable:
    """Sparse table of structure constants keyed by sorted index multiset.

    Lookup is invariant under permutations of (i, j, k); absent multisets
    evaluate to 0.  Values are squared norms and therefore non-negative.
    """

    entries: tuple[tuple[tuple[int, int, int], float], ...]

    @classmethod
    def from_items(cls, items: Mapping[tuple[int, int, int], float] | Iterable) -> "StructureConstantTable":
        """Table from (i, j, k) keys of integers in any order and values that
        :func:`parse_number` reads; index ranges are the spec's to check."""
        pairs = items.items() if isinstance(items, Mapping) else items
        seen: dict[tuple[int, int, int], float] = {}
        for key, raw in pairs:
            i, j, k = key
            if not (int is type(i) is type(j) is type(k) and i <= j <= k):
                try:
                    i, j, k = sorted(map(_as_index, key))
                except ValueError:
                    raise SpecError("index must be an integer", f"triples[{key}]") from None
            multiset = (i, j, k)
            if multiset in seen:
                raise SpecError("duplicate multiset", f"triples[{multiset}]")
            try:
                value = parse_number(raw, None)
            except SpecError as error:
                raise SpecError(str(error), f"triples[{multiset}].value") from None
            if value < 0:
                raise SpecError("negative structure constant", f"triples[{multiset}].value")
            seen[multiset] = value
        return cls(entries=tuple(sorted(seen.items())))

    @cached_property
    def _by_multiset(self) -> dict[tuple[int, int, int], float]:
        return dict(self.entries)

    def value(self, i: int, j: int, k: int) -> float:
        return self._by_multiset.get(tuple(sorted((i, j, k))), 0.0)

    def nonzero_multisets(self) -> tuple[tuple[tuple[int, int, int], float], ...]:
        return tuple((m, v) for m, v in self.entries if v != 0.0)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class HomogeneousSpaceSpec:
    """Validated description of a homogeneous space.

    Every range check on a space is made here, however the spec is built.
    ``b`` may hold anything :func:`parse_number` reads and is stored as
    floats; all ones is the normalisation in which the background scalar
    product is the negative of the Killing form.
    """

    name: str
    d: tuple[int, ...]
    b: tuple[float, ...]
    triples: StructureConstantTable

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise SpecError("name must be a non-empty string", "name")
        object.__setattr__(self, "d", tuple(self.d))
        if len(self.d) < 1:
            raise SpecError("need at least one summand", "d")
        for pos, dim in enumerate(self.d):
            if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
                raise SpecError("summand dimension must be a positive integer", f"d[{pos + 1}]")
        if sum(self.d) < 3:
            raise SpecError("total dimension must be at least 3", "d")
        if len(self.b) != len(self.d):
            raise SpecError(f"expected {len(self.d)} Killing coefficients", "b")
        b = tuple(parse_number(coeff, f"b[{pos + 1}]") for pos, coeff in enumerate(self.b))
        for pos, coeff in enumerate(b):
            if coeff < 0:
                raise SpecError("Killing coefficient must be non-negative", f"b[{pos + 1}]")
        object.__setattr__(self, "b", b)
        s = len(self.d)
        indices = set(chain.from_iterable(multiset for multiset, _ in self.triples.entries))
        if indices and not (min(indices) >= 1 and max(indices) <= s):
            multiset, idx = next((m, i) for m, _ in self.triples.entries for i in m if not 1 <= i <= s)
            raise SpecError(f"index {idx} out of range 1..{s}", f"triples[{multiset}]")

    def __hash__(self) -> int:
        # equal specs share name and d; the constant table is left out
        # because per-spec caches hash the spec on every lookup
        return hash((self.name, self.d))

    @property
    def s(self) -> int:
        return len(self.d)

    def constant(self, i: int, j: int, k: int) -> float:
        return self.triples.value(i, j, k)

    def summand_indices(self) -> range:
        return range(1, self.s + 1)


def memoize_per_spec(compute):
    """Memoise ``compute(spec)`` with one entry per spec that lives exactly
    as long as the spec object.

    Entries are keyed weakly, so the value must not refer back to its spec or
    the spec is never collected.  Equal specs share an entry.  Concurrent
    first calls may both compute, but every caller gets the first value
    stored.  The table is exposed as ``.cache``.
    """
    cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @functools.wraps(compute)
    def cached(spec: HomogeneousSpaceSpec):
        value = cache.get(spec)
        if value is None:
            value = cache.setdefault(spec, compute(spec))
        return value

    cached.cache = cache
    return cached


@dataclass(frozen=True)
class SubalgebraIndexSet:
    """Non-empty set J of summand indices; stands for the span of those
    summands together with the isotropy algebra."""

    indices: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "indices", frozenset(map(_as_index, self.indices)))
        if not self.indices:
            raise ValueError("index set must be non-empty")
        if any(i < 1 for i in self.indices):
            raise ValueError("summand indices are 1-based")

    @classmethod
    def of(cls, *indices: int) -> "SubalgebraIndexSet":
        return cls(frozenset(indices))

    @classmethod
    def from_iterable(cls, indices: Iterable[int]) -> "SubalgebraIndexSet":
        return cls(frozenset(indices))

    @classmethod
    def from_mask(cls, mask: int) -> "SubalgebraIndexSet":
        """The set with bit i-1 of ``mask`` set for each member i; the bits
        name valid indices, so only emptiness is checked."""
        if mask <= 0:
            raise ValueError("index set must be non-empty")
        J = object.__new__(cls)
        object.__setattr__(J, "indices", frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1))
        J.__dict__["mask"] = mask  # the cached property
        return J

    @cached_property
    def mask(self) -> int:
        """Bit i-1 set for each summand i; K lies inside J when
        ``K.mask & J.mask == K.mask``."""
        return sum(1 << (i - 1) for i in self.indices)

    def complement(self, s: int) -> frozenset[int]:
        return frozenset(range(1, s + 1)) - self.indices

    @cached_property
    def sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.indices))

    def __contains__(self, i: int) -> bool:
        return i in self.indices

    def __iter__(self):
        return iter(self.sorted)

    def __len__(self) -> int:
        return len(self.indices)

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.sorted) + "}"


def resolve_indices(spec: HomogeneousSpaceSpec, indices) -> tuple[int, ...]:
    """Ascending summand indices named by ``indices`` (any iterable or a
    :class:`SubalgebraIndexSet`; ``None`` names every summand), checked
    to be non-empty and in range."""
    if indices is None:
        return tuple(spec.summand_indices())
    if isinstance(indices, SubalgebraIndexSet):
        out = indices.sorted
    else:
        out = tuple(sorted(set(map(_as_index, indices))))
    if not out:
        raise ValueError("index set must be non-empty")
    for i in out:
        if not 1 <= i <= spec.s:
            raise ValueError(f"index {i} out of range 1..{spec.s}")
    return out


def coefficients_array(values, expected_length: int, what: str) -> tuple[float, ...]:
    """``values`` as a tuple of floats, checked to have the expected length
    and to be finite and positive."""
    out = tuple(float(v) for v in values)
    if len(out) != expected_length:
        raise ValueError(f"{what} has length {len(out)}, expected {expected_length}")
    for pos, v in enumerate(out):
        if not 0 < v < math.inf:
            raise ValueError(f"{what}[{pos + 1}] must be finite and positive, got {v}")
    return out


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------
#
# {
#   "name": "...",
#   "d": [4, 2, 4],
#   "b": [1, 1, 1],                      # optional, defaults to all 1
#   "triples": [
#     {"i": 1, "j": 2, "k": 3, "value": "1/2"},
#     {"i": 1, "j": 1, "k": 2, "value": 0.6666666666666666}
#   ]
# }
#
# i <= j <= k is required; values may be numbers or rational strings.


def load_space_spec(document: str | bytes | dict) -> HomogeneousSpaceSpec:
    """Parse a space description document.

    ``document`` may be JSON text or an already-parsed object.  Only the
    document's shape is checked here; :class:`StructureConstantTable` and
    :class:`HomogeneousSpaceSpec` check every value.  Violations raise
    :class:`SpecError` with the offending field path.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SpecError(f"not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise SpecError("top-level document must be an object")
    d = document.get("d")
    if not isinstance(d, list):
        raise SpecError("required array of integers", "d")
    b = document.get("b", [1.0] * len(d))
    if not isinstance(b, list):
        raise SpecError("must be an array of values", "b")
    raw_triples = document.get("triples", [])
    if not isinstance(raw_triples, list):
        raise SpecError("must be an array of entries", "triples")
    return HomogeneousSpaceSpec(name=document.get("name"), d=d, b=b,
                                triples=StructureConstantTable.from_items(_file_items(raw_triples)))


def _file_items(raw_triples: list):
    """(i, j, k) and value of each file entry, checked for shape as
    :class:`StructureConstantTable` reads them, so the triples are walked once."""
    for pos, entry in enumerate(raw_triples):
        if not isinstance(entry, dict):
            raise SpecError("entry must be an object", f"triples[{pos}]")
        try:
            i, j, k, raw = entry["i"], entry["j"], entry["k"], entry["value"]
        except KeyError:
            missing = next(key for key in ("i", "j", "k", "value") if key not in entry)
            raise SpecError(f"missing key {missing!r}", f"triples[{pos}]") from None
        if not (int is type(i) is type(j) is type(k) and i <= j <= k):
            for label, idx in zip("ijk", (i, j, k)):
                try:
                    _as_index(idx)
                except ValueError:
                    raise SpecError("index must be an integer", f"triples[{pos}].{label}") from None
            if not i <= j <= k:
                raise SpecError("indices must satisfy i <= j <= k", f"triples[{pos}]")
        yield (i, j, k), raw


def space_spec_to_document(spec: HomogeneousSpaceSpec) -> dict:
    """Inverse of :func:`load_space_spec`; floats round-trip bit-for-bit."""
    return {
        "name": spec.name,
        "d": list(spec.d),
        "b": list(spec.b),
        "triples": [
            {"i": i, "j": j, "k": k, "value": value}
            for (i, j, k), value in spec.triples.entries
        ],
    }


# ---------------------------------------------------------------------------
# Built-in catalog
# ---------------------------------------------------------------------------

_CATALOG: dict[str, dict] = {
    "E6_Sp3xSp1": {
        "name": "E6_Sp3xSp1",
        "d": [14, 28, 12],
        "b": [1, 1, 1],
        "triples": [{"i": 1, "j": 2, "k": 3, "value": "7/2"}],
    },
    "G2_U2_long": {
        "name": "G2_U2_long",
        "d": [4, 2, 4],
        "b": [1, 1, 1],
        "triples": [
            {"i": 1, "j": 1, "k": 2, "value": "2/3"},
            {"i": 1, "j": 2, "k": 3, "value": "1/2"},
        ],
    },
    "F4_SU3xSU2xU1": {
        "name": "F4_SU3xSU2xU1",
        "d": [12, 18, 4, 6],
        "b": [1, 1, 1, 1],
        "triples": [
            {"i": 1, "j": 1, "k": 2, "value": 2},
            {"i": 1, "j": 2, "k": 3, "value": 1},
            {"i": 1, "j": 3, "k": 4, "value": "2/3"},
            {"i": 2, "j": 2, "k": 4, "value": 2},
        ],
    },
}


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


@functools.cache
def builtin_space(name: str) -> HomogeneousSpaceSpec:
    """One of the three catalogued spaces; raises on unknown names.

    Each name is parsed once and the same spec object is returned on every
    call, so the per-spec caches stay warm for the catalog.
    """
    try:
        document = _CATALOG[name]
    except KeyError:
        known = ", ".join(builtin_names())
        raise SpecError(f"unknown builtin space {name!r} (known: {known})", "name") from None
    return load_space_spec(document)


def wallach_space(d: Sequence[int], value, name: str = "wallach") -> HomogeneousSpaceSpec:
    """Three-summand space whose only possibly nonzero constant is [123]."""
    if len(d) != 3:
        raise SpecError("exactly three summand dimensions required", "d")
    a = parse_number(value, "triples[(1, 2, 3)].value")
    return HomogeneousSpaceSpec(name=name, d=d, b=(1.0, 1.0, 1.0),
                                triples=StructureConstantTable.from_items({(1, 2, 3): a} if a else {}))


def trace_Q_restricted(spec: HomogeneousSpaceSpec, z, index_set: Iterable[int]) -> float:
    """Background trace of the tensor restricted to the named summands,
    sum of d_i z_i over the set.  Covers both a subalgebra and its complement;
    the caller passes whichever index set it needs."""
    zs = coefficients_array(z, spec.s, "z")
    return float(sum(spec.d[i - 1] * zs[i - 1] for i in resolve_indices(spec, index_set)))
