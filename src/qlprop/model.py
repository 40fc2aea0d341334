"""Finite semantic models and their JSON serialisation.

A model fixes a finite set of states, one finite nonempty universe of
objects per state, a finite set of properties, and for every (state,
property) pair an extension (the objects possessing the property in that
state).  Models may carry a Hilbert annotation assigning a ray to each
state and a closed subspace to each property; this is the bridge between
the set-theoretic semantics and the quantum lattice operations.

The JSON file format mirrors the constructor arguments; complex numbers
are written as two-element ``[re, im]`` arrays and unknown keys are
rejected.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .errors import (
    DuplicateId,
    EnumerationCapExceeded,
    ExtensionOutOfUniverse,
    HilbertDimensionMismatch,
    RankError,
    SchemaError,
    UniverseTooSmall,
)
from .hilbert import (
    DEFAULT_TOL,
    HilbertAnnotation,
    Subspace,
    _first_equal_pair,
    check_tol,
    closure_generate,
)

if TYPE_CHECKING:
    from .semantics import ProfileKernel

__all__ = [
    "Model", "make_model", "load_model", "dump_model",
    "enumerate_interpretations", "interpretation_count", "check_cms",
    "default_interpretation", "build_qm_model",
    "canonical_models", "m_sr", "m_cm", "m_qbit", "m_qutrit",
    "DEFAULT_ENUM_CAP", "POLICIES",
]

DEFAULT_ENUM_CAP = 10 ** 6
POLICIES = ("born", "random")

Interpretation = Mapping[str, str]


@dataclass(frozen=True)
class Model:
    states: tuple[str, ...]
    universes: dict[str, tuple[str, ...]]
    properties: tuple[str, ...]
    extensions: dict[str, dict[str, frozenset[str]]]
    hilbert: HilbertAnnotation | None = None

    def universe(self, state: str) -> tuple[str, ...]:
        return self.universes[state]

    def extension(self, state: str, prop: str) -> frozenset[str]:
        return self.extensions[state][prop]

    @cached_property
    def kernel(self) -> "ProfileKernel":
        """This model's classical profile kernel, created on first access."""
        from .semantics import ProfileKernel  # semantics imports this module
        return ProfileKernel(self)


def _ids(ids, what: str, *names) -> tuple:
    """``ids`` as a tuple.  A ``str`` is refused, since its characters
    would be read as ids, and so is a ``set`` or ``frozenset``, whose
    order is its hash order and so differs between processes, and
    anything that cannot be iterated.  The message names
    ``what.format(*names)``, formatted on failure only."""
    if isinstance(ids, str):
        got = f"the string {ids!r}"
    elif isinstance(ids, (set, frozenset)):
        got = (f"a {type(ids).__name__}, whose hash order differs between "
               f"processes")
    else:
        try:
            return tuple(ids)
        except TypeError:
            got = repr(ids)
    raise SchemaError(
        f"{what.format(*names)} must be a sequence of ids, got {got}")


def _mapping(x, what: str, *names) -> Mapping:
    """``x``, refused unless it is a mapping; named as :func:`_ids` does."""
    if not isinstance(x, Mapping):
        raise SchemaError(f"{what.format(*names)} must be a mapping, got {x!r}")
    return x


def _unique(ids: tuple, what: str) -> tuple[str, ...]:
    seen = set()
    for x in ids:
        if not isinstance(x, str) or not x:
            raise SchemaError(f"{what} must be nonempty strings, got {x!r}")
        if x in seen:
            raise DuplicateId(f"duplicate {what}: {x!r}")
        seen.add(x)
    return ids


def make_model(states: Sequence[str], universes: Mapping[str, Sequence[str]],
               properties: Sequence[str],
               extensions: Mapping[str, Mapping[str, Sequence[str]]],
               hilbert: HilbertAnnotation | None = None) -> Model:
    """Validate and freeze a model description.

    Ids may come in any iterable but a ``str``, read once, and the
    universes and extensions in mappings; any other kind of argument is
    refused with :class:`SchemaError`.  The states, the properties and
    each universe keep their given order, which ``dump_model`` writes
    and the interpretations follow, so a ``set`` or ``frozenset`` is
    refused there: its hash order differs between processes.  An
    extension may be any iterable of ids, sets included, since it is
    frozen to a set.

    A Hilbert annotation must keep these rules, checked in this order:

    - its rays and subspaces cover exactly the states and properties;
    - every ray has dimension ``hilbert.dim`` and rank 1, and every
      subspace dimension ``hilbert.dim``;
    - all rays and subspaces share one tolerance;
    - no two rays, and then no two subspaces, are equal at it; the first
      equal pair in declaration order is named.

    The model keeps the annotation, rebuilt in declaration order where
    its order differs: the property table searches in that order.
    """
    sts = _unique(_ids(states, "states"), "state id")
    if not sts:
        raise SchemaError("a model needs at least one state")
    props = _unique(_ids(properties, "properties"), "property id")
    if not props:
        raise SchemaError("a model needs at least one property")

    _mapping(universes, "universes")
    unis: dict[str, tuple[str, ...]] = {}
    for s in sts:
        if s not in universes:
            raise SchemaError(f"no universe for state {s!r}")
        u = _unique(_ids(universes[s], "universe of {!r}", s),
                    f"object id in {s!r}")
        if not u:
            raise SchemaError(f"empty universe for state {s!r}")
        unis[s] = u
    for s in universes:
        if s not in unis:
            raise SchemaError(f"universe for unknown state {s!r}")

    _mapping(extensions, "extensions")
    exts: dict[str, dict[str, frozenset[str]]] = {}
    for s in sts:
        if s not in extensions:
            raise SchemaError(f"no extensions for state {s!r}")
        given = _mapping(extensions[s], "extensions of {!r}", s)
        row: dict[str, frozenset[str]] = {}
        uset = set(unis[s])
        for e in props:
            if e not in given:
                raise SchemaError(f"no extension for ({s!r}, {e!r})")
            ids = given[e]
            # the kinds that JSON and a Model give skip the call, which
            # runs once per pair on every load; an extension is frozen to
            # a set, so a set's order does not matter here
            if not isinstance(ids, (list, tuple, set, frozenset)):
                ids = _ids(ids, "extension of ({!r}, {!r})", s, e)
            for x in ids:
                if not isinstance(x, str):
                    raise SchemaError(f"extension of ({s!r}, {e!r}) must "
                                      f"list object ids, got {x!r}")
            ext = frozenset(ids)
            stray = ext - uset
            if stray:
                raise ExtensionOutOfUniverse(
                    f"extension of {e!r} in {s!r} mentions {sorted(stray)}")
            row[e] = ext
        for e in given:
            if e not in props:
                raise SchemaError(f"extension for unknown property {e!r}")
        exts[s] = row
    for s in extensions:
        if s not in exts:
            raise SchemaError(f"extensions for unknown state {s!r}")

    if hilbert is not None:
        dim = hilbert.dim
        if set(hilbert.state_rays) != set(sts):
            raise SchemaError("state_rays must cover exactly the states")
        if set(hilbert.property_subspaces) != set(props):
            raise SchemaError(
                "property_subspaces must cover exactly the properties")
        for s, ray in hilbert.state_rays.items():
            if ray.dim != dim:
                raise HilbertDimensionMismatch(
                    f"ray of {s!r} has dimension {ray.dim}, expected {dim}")
            if ray.rank != 1:
                raise RankError(f"state {s!r} must map to a rank-1 subspace")
        for e, sub in hilbert.property_subspaces.items():
            if sub.dim != dim:
                raise HilbertDimensionMismatch(
                    f"subspace of {e!r} has dimension {sub.dim}, expected {dim}")
        rays = [hilbert.state_rays[s] for s in sts]
        subs = [hilbert.property_subspaces[e] for e in props]
        tol = rays[0].tol
        other = next((x.tol for x in rays + subs if x.tol != tol), None)
        if other is not None:
            raise SchemaError(f"rays and subspaces must share one tolerance, "
                              f"got {float(tol)!r} and {float(other)!r}")
        # the first equal pair in combinations order, by mutual containment
        pair = _first_equal_pair(rays, tol)
        if pair:
            a, b = (sts[i] for i in pair)
            raise SchemaError(f"states {a!r} and {b!r} map to the same ray")
        pair = _first_equal_pair(subs, tol)
        if pair:
            a, b = (props[i] for i in pair)
            raise SchemaError(
                f"properties {a!r} and {b!r} map to the same subspace")
        if (list(hilbert.state_rays) != list(sts)
                or list(hilbert.property_subspaces) != list(props)):
            hilbert = HilbertAnnotation(dim, dict(zip(sts, rays)),
                                        dict(zip(props, subs)))
    return Model(sts, unis, props, exts, hilbert)


# ---------------------------------------------------------------------------
# JSON serialisation

_TOP_KEYS = {"states", "universes", "properties", "extensions", "hilbert"}
_HILBERT_KEYS = {"dim", "state_rays", "property_subspaces"}


def _is_number(x) -> bool:
    """A finite JSON number; ``bool`` is a subclass of ``int`` but not one,
    and an integer beyond the float range is not finite."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _as_complex_vector(data, what: str) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise SchemaError(f"{what} must be a nonempty array of [re, im] pairs")
    out = np.zeros(len(data), dtype=complex)
    for i, pair in enumerate(data):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(_is_number(x) for x in pair)):
            raise SchemaError(
                f"{what}[{i}] must be a [re, im] pair of finite numbers, "
                f"got {pair!r}")
        out[i] = complex(pair[0], pair[1])
    return out


def _hilbert_vectors(h: dict, dim: int) -> np.ndarray | None:
    """Every vector of a ``hilbert`` section, rays first and then each
    property's vectors in file order, as one complex (n, dim) array.

    One structural check (only ``int`` and ``float`` entries, which
    excludes ``bool``), one ``np.array`` call and one finiteness test
    cover the whole file.  None means some vector is malformed; the
    per-vector path then raises the error naming it.
    """
    vecs = list(h["state_rays"].values())
    for v in h["property_subspaces"].values():
        if not isinstance(v, list):
            return None
        vecs += v
    try:
        if not set(map(type, [x for v in vecs for pair in v for x in pair])) \
                <= {int, float}:
            return None
        arr = np.array(vecs, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged, or 10**400
        return None
    if arr.shape != (len(vecs), dim, 2) or not np.isfinite(arr).all():
        return None
    return arr.view(complex).reshape(len(vecs), dim)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict; refuses a key the object repeats, which
    ``json.loads`` would otherwise let the last occurrence win."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen: set[str] = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise SchemaError(f"key {key!r} repeated in one JSON object")
    return doc


def load_model(data: bytes | str, tol: float = DEFAULT_TOL) -> Model:
    """Parse and validate a model from JSON text or bytes."""
    tol = check_tol(tol)
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"model file is not UTF-8: {exc}") from None
    try:
        doc = json.loads(data, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise SchemaError("invalid JSON: arrays or objects nested too "
                          "deeply") from None
    except ValueError as exc:  # JSONDecodeError, or an integer too long
        raise SchemaError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise SchemaError(f"unknown keys: {sorted(unknown)}")
    for key in ("states", "universes", "properties", "extensions"):
        if key not in doc:
            raise SchemaError(f"missing key {key!r}")
    if not isinstance(doc["states"], list):
        raise SchemaError("'states' must be an array")
    if not isinstance(doc["properties"], list):
        raise SchemaError("'properties' must be an array")
    if not isinstance(doc["universes"], dict):
        raise SchemaError("'universes' must be an object")
    if not isinstance(doc["extensions"], dict):
        raise SchemaError("'extensions' must be an object")
    for s, u in doc["universes"].items():
        if not isinstance(u, list):
            raise SchemaError(f"universe of {s!r} must be an array")
    for s, row in doc["extensions"].items():
        if not isinstance(row, dict):
            raise SchemaError(f"extensions of {s!r} must be an object")
        for e, ext in row.items():
            if not isinstance(ext, list):
                raise SchemaError(f"extension of ({s!r}, {e!r}) must be an array")

    hilbert = None
    if "hilbert" in doc and doc["hilbert"] is not None:
        h = doc["hilbert"]
        if not isinstance(h, dict):
            raise SchemaError("'hilbert' must be an object")
        unknown = set(h) - _HILBERT_KEYS
        if unknown:
            raise SchemaError(f"unknown hilbert keys: {sorted(unknown)}")
        for key in _HILBERT_KEYS:
            if key not in h:
                raise SchemaError(f"missing hilbert key {key!r}")
        dim = h["dim"]
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise SchemaError(
                f"'hilbert.dim' must be a positive integer, got {dim!r}")
        for key in ("state_rays", "property_subspaces"):
            if not isinstance(h[key], dict):
                raise SchemaError(f"'hilbert.{key}' must be an object")
        fast = _hilbert_vectors(h, dim)
        rays = {}
        for i, (s, vec) in enumerate(h["state_rays"].items()):
            if fast is not None:
                v = fast[i]
            else:
                v = _as_complex_vector(vec, f"state_rays[{s!r}]")
                if v.shape != (dim,):
                    raise HilbertDimensionMismatch(
                        f"ray of {s!r} has length {v.shape[0]}, expected {dim}")
            try:
                rays[s] = Subspace.ray(v, dim, tol)
            except RankError:
                raise RankError(f"ray of {s!r} is the zero vector") from None
        subs = {}
        start = len(rays)
        for e, vecs in h["property_subspaces"].items():
            if fast is not None:
                mat = fast[start:start + len(vecs)]
                start += len(vecs)
            else:
                if not isinstance(vecs, list):
                    raise SchemaError(
                        f"property_subspaces[{e!r}] must be an array of vectors")
                mat = [_as_complex_vector(v, f"property_subspaces[{e!r}]")
                       for v in vecs]
                for v in mat:
                    if v.shape != (dim,):
                        raise HilbertDimensionMismatch(
                            f"basis vector of {e!r} has length {v.shape[0]}, "
                            f"expected {dim}")
            subs[e] = Subspace.span(mat, dim, tol)
        hilbert = HilbertAnnotation(dim, rays, subs)

    return make_model(doc["states"], doc["universes"], doc["properties"],
                      doc["extensions"], hilbert)


def _complex_out(v: np.ndarray) -> list[list[float]]:
    return [[float(x.real), float(x.imag)] for x in v]


def dump_model(m: Model) -> str:
    """Serialise a model to the JSON file format."""
    doc: dict = {
        "states": list(m.states),
        "universes": {s: list(m.universes[s]) for s in m.states},
        "properties": list(m.properties),
        "extensions": {
            s: {e: [o for o in m.universes[s] if o in m.extensions[s][e]]
                for e in m.properties}
            for s in m.states},
    }
    if m.hilbert is not None:
        h = m.hilbert
        doc["hilbert"] = {
            "dim": h.dim,
            "state_rays": {s: _complex_out(h.state_rays[s].basis[0])
                           for s in m.states},
            "property_subspaces": {
                e: [_complex_out(v) for v in h.property_subspaces[e].basis]
                for e in m.properties},
        }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Interpretations


def interpretation_count(m: Model) -> int:
    """Number of interpretations: the product of the universe sizes."""
    return math.prod(len(m.universes[s]) for s in m.states)


def enumerate_interpretations(m: Model,
                              cap: int = DEFAULT_ENUM_CAP) -> Iterator[dict[str, str]]:
    """All choice functions picking one object per state.

    Yields dicts in lexicographic order (by state list, then universe
    order).  Raises :class:`EnumerationCapExceeded` up front if the count
    exceeds ``cap``.
    """
    count = interpretation_count(m)
    if count > cap:
        raise EnumerationCapExceeded(
            f"{count} interpretations exceed the cap {cap}")
    states = m.states

    def gen():
        for combo in itertools.product(*(m.universes[s] for s in states)):
            yield dict(zip(states, combo))

    return gen()


def default_interpretation(m: Model,
                           overrides: Mapping[str, str] | None = None) -> dict[str, str]:
    """First object per state, with optional per-state overrides."""
    interp = {s: m.universes[s][0] for s in m.states}
    if overrides:
        for s, o in overrides.items():
            if s not in interp:
                raise SchemaError(f"unknown state {s!r}")
            if o not in m.universes[s]:
                raise ExtensionOutOfUniverse(
                    f"object {o!r} is not in the universe of {s!r}")
            interp[s] = o
    return interp


def check_cms(m: Model) -> tuple[bool, tuple[str, str] | None]:
    """Does every extension equal the full universe or the empty set?

    Returns ``(True, None)`` or ``(False, (state, property))`` with the
    first violation in declaration order.
    """
    for s in m.states:
        full = set(m.universes[s])
        for e in m.properties:
            ext = m.extensions[s][e]
            if ext and set(ext) != full:
                return False, (s, e)
    return True, None


# ---------------------------------------------------------------------------
# Quantum model construction


def build_qm_model(dim: int, rays: Mapping[str, Sequence],
                   subspaces: Mapping[str, Sequence], universe_size: int = 2,
                   policy: str = "born", seed: int = 0,
                   tol: float = DEFAULT_TOL) -> Model:
    """Build a model from Hilbert data, deriving classical extensions.

    Each state gets a universe ``o1..on``.  Where the state's ray lies in
    a property's subspace the extension is full; where it is orthogonal
    to the subspace the extension is empty; otherwise a proper nonempty
    subset is fabricated.  Both facts are read from the annotation's
    property table (``certain`` and ``orthogonal``), which the model
    keeps.  The default ``born`` policy takes the first
    ``k = round(p * n)`` objects (clamped to ``[1, n-1]``), with ``p`` the
    squared projection norm of the ray; the ``random`` policy draws a
    seeded random proper subset.  Proper subsets need ``n >= 2``.
    """
    if policy not in POLICIES:
        raise SchemaError(f"unknown extension policy {policy!r}")
    tol = check_tol(tol)
    _mapping(rays, "rays")
    _mapping(subspaces, "subspaces")
    states = list(rays)
    props = list(subspaces)
    ray_subs = {s: Subspace.ray(np.asarray(v, dtype=complex), dim, tol)
                for s, v in rays.items()}
    prop_subs = {e: Subspace.span(list(vs), dim, tol)
                 for e, vs in subspaces.items()}
    # in declaration order at one tolerance, so make_model keeps this
    # annotation, and the table filled below
    ann = HilbertAnnotation(dim, ray_subs, prop_subs)
    table = ann.table
    universe = tuple(f"o{i + 1}" for i in range(universe_size))
    rng = random.Random(seed)

    universes = {s: universe for s in states}
    extensions: dict[str, dict[str, frozenset[str]]] = {}
    for s in states:
        psi = ray_subs[s].basis[0]
        row: dict[str, frozenset[str]] = {}
        for e in props:
            sub = prop_subs[e]
            if s in table.certain(e):
                row[e] = frozenset(universe)
            elif s in table.orthogonal(e):
                row[e] = frozenset()
            else:
                n = universe_size
                if n < 2:
                    raise UniverseTooSmall(
                        f"state {s!r} needs a proper nonempty extension for "
                        f"{e!r}; use universe_size >= 2")
                if policy == "born":
                    p = float(np.linalg.norm(sub.project(psi)) ** 2)
                    k = min(n - 1, max(1, round(p * n)))
                    row[e] = frozenset(universe[:k])
                else:
                    k = rng.randint(1, n - 1)
                    picks = sorted(rng.sample(range(n), k))
                    row[e] = frozenset(universe[i] for i in picks)
        extensions[s] = row
    return make_model(states, universes, props, extensions, ann)


# ---------------------------------------------------------------------------
# Canonical fixtures


def m_sr() -> Model:
    """Two-state fixture separating the logical and physical preorders."""
    return make_model(
        states=["S1", "S2"],
        universes={"S1": ["u1", "u2"], "S2": ["v1"]},
        properties=["E", "F"],
        extensions={
            "S1": {"E": ["u1"], "F": ["u2"]},
            "S2": {"E": ["v1"], "F": []},
        })


def m_cm() -> Model:
    """Three-state fixture with every extension full or empty."""
    return make_model(
        states=["S1", "S2", "S3"],
        universes={"S1": ["a1", "a2"], "S2": ["b1"], "S3": ["c1"]},
        properties=["E", "F"],
        extensions={
            "S1": {"E": ["a1", "a2"], "F": []},
            "S2": {"E": ["b1"], "F": ["b1"]},
            "S3": {"E": [], "F": ["c1"]},
        })


_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def m_qbit() -> Model:
    """Qubit fixture: four spin states, six properties closed under the
    subspace operations."""
    return build_qm_model(
        dim=2,
        rays={
            "Sz+": [1.0, 0.0],
            "Sz-": [0.0, 1.0],
            "Sx+": [_INV_SQRT2, _INV_SQRT2],
            "Sx-": [_INV_SQRT2, -_INV_SQRT2],
        },
        subspaces={
            "E0": [],
            "Ez+": [[1.0, 0.0]],
            "Ez-": [[0.0, 1.0]],
            "Ex+": [[_INV_SQRT2, _INV_SQRT2]],
            "Ex-": [[_INV_SQRT2, -_INV_SQRT2]],
            "EI": [[1.0, 0.0], [0.0, 1.0]],
        },
        universe_size=2, policy="born", seed=0)


def m_qutrit() -> Model:
    """Qutrit fixture: three orthogonal rays plus one oblique ray in a
    coordinate plane, with properties generated by subspace closure
    (twelve subspaces)."""
    dim = 3
    gens = [
        Subspace.ray([1.0, 0.0, 0.0], dim),
        Subspace.ray([0.0, 1.0, 0.0], dim),
        Subspace.ray([0.0, 0.0, 1.0], dim),
        Subspace.ray([_INV_SQRT2, _INV_SQRT2, 0.0], dim),
    ]
    closure = closure_generate(dim, gens, cap=32)
    rays = {}
    subs = {}
    for i, sub in enumerate(closure):
        subs[f"P{i}"] = [list(v) for v in sub.basis]
        if sub.rank == 1:
            rays[f"T{len(rays) + 1}"] = list(sub.basis[0])
    return build_qm_model(dim, rays, subs, universe_size=2, policy="born",
                          seed=0)


def canonical_models() -> dict[str, Model]:
    """The named fixtures used throughout the tests and demos."""
    return {"m_sr": m_sr(), "m_cm": m_cm(), "m_qbit": m_qbit(),
            "m_qutrit": m_qutrit()}
