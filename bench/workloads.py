"""Seeded inputs for the qlprop benchmark.

Everything here is plain Python with no qlprop import: the same seed
gives the same model descriptions and the same request plan, and the
work they cause does not depend on the seed.  The seed only picks which
of several equally sized inputs is used (which property types the
objects carry, which rays, which atoms and tree shapes).

Formula trees are nested tuples:

    ("atom", name)                  classical and quantum atoms
    ("not", t)  ("and", l, r)  ("or", l, r)         classical
    ("qnot", t) ("qor", l, r)  ("sasaki", l, r)     quantum surface
    ("assert", name)  ("N", t)  ("K", l, r)  ("A", l, r)   assertive
"""

from __future__ import annotations

import itertools
import math
import random

WORKLOADS = ("verify-classical", "verify-quantum", "query-stream")

# ---------------------------------------------------------------------------
# Model descriptions (the JSON model format without the Hilbert part)

CM128_UNIVERSES = {"S1": ["a1", "a2", "a3"], "S2": ["b1", "b2"],
                   "S3": ["c1", "c2"]}
SEC3_UNIVERSES = {"S1": ["u1", "u2"], "S2": ["v1", "v2"], "S3": ["w1"]}
COLLAPSE_STATES = ["S1", "S2", "S3", "S4"]
COLLAPSE_OBJECTS = 8


def _doc(universes: dict, props: list, ext: dict) -> dict:
    return {"states": list(universes), "universes": universes,
            "properties": props, "extensions": ext}


def cm128_model(rng: random.Random) -> dict:
    """Three properties, seven objects carrying seven distinct property
    types, so the closed quotient algebra has 2^7 = 128 classes."""
    props = ["E1", "E2", "E3"]
    types = list(itertools.product((0, 1), repeat=3))
    rng.shuffle(types)
    slots = [(s, o) for s, objs in CM128_UNIVERSES.items() for o in objs]
    ext = {s: {e: [] for e in props} for s in CM128_UNIVERSES}
    for (s, o), ty in zip(slots, types[:7]):
        for e, bit in zip(props, ty):
            if bit:
                ext[s][e].append(o)
    return _doc(CM128_UNIVERSES, props, ext)


def sec3_model(rng: random.Random) -> dict:
    """Two properties with proper extensions in every two-object state."""
    props = ["E1", "E2"]
    ext = {}
    for s, objs in SEC3_UNIVERSES.items():
        row = {}
        for e in props:
            if len(objs) == 1:
                row[e] = list(objs) if rng.random() < 0.5 else []
            else:
                row[e] = [rng.choice(objs)]
        ext[s] = row
    return _doc(SEC3_UNIVERSES, props, ext)


def collapse_model(rng: random.Random) -> dict:
    """Four states of eight objects, every extension full or empty, with
    four distinct state types: 8^4 = 4,096 interpretations."""
    props = ["E1", "E2", "E3"]
    universes = {s: [f"{s.lower()}o{j + 1}" for j in range(COLLAPSE_OBJECTS)]
                 for s in COLLAPSE_STATES}
    types = rng.sample(list(itertools.product((0, 1), repeat=3)), 4)
    ext = {s: {e: (list(universes[s]) if bit else []) for e, bit in zip(props, ty)}
           for s, ty in zip(COLLAPSE_STATES, types)}
    return _doc(universes, props, ext)


def classical_models(seed: int) -> dict[str, dict]:
    rng = random.Random(f"verify-classical/{seed}")
    return {"cm128": cm128_model(rng), "sec3": sec3_model(rng),
            "collapse": collapse_model(rng)}


def _unit2(rng: random.Random) -> list[complex]:
    v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
    n = math.sqrt(sum(abs(x) ** 2 for x in v))
    return [x / n for x in v]


def _perp2(v: list[complex]) -> list[complex]:
    return [-v[1].conjugate(), v[0].conjugate()]


def qubit_geometry(seed: int) -> tuple[dict, dict]:
    """Two random orthogonal ray pairs in C^2 plus 0 and I: six
    properties forming MO2.  The pairs are kept well apart so every
    containment decision is far from the tolerance."""
    rng = random.Random(f"verify-quantum/{seed}")
    while True:
        a, b = _unit2(rng), _unit2(rng)
        overlap = abs(sum(x.conjugate() * y for x, y in zip(a, b))) ** 2
        if 0.1 <= overlap <= 0.9:
            break
    rays = {"A+": a, "A-": _perp2(a), "B+": b, "B-": _perp2(b)}
    subspaces = {"E0": [], "Ea+": [a], "Ea-": [_perp2(a)], "Eb+": [b],
                 "Eb-": [_perp2(b)], "EI": [[1, 0], [0, 1]]}
    return rays, subspaces


# ---------------------------------------------------------------------------
# Check batches of the verify workloads: (label, model file stem, argv tail)

VERIFY_BATCH = {
    "verify-classical": [
        ("cm-128", "cm128", ["--suite", "cm", "--depth", "3"]),
        ("sec3-d3", "sec3", ["--suite", "sec3", "--depth", "3"]),
        ("cm-collapse", "collapse", ["--suite", "cm", "--depth", "3"]),
    ],
    "verify-quantum": [
        ("qm-qubit-d3", "qubit", ["--suite", "qm", "--depth", "3"]),
        ("prag-qubit-d3", "qubit", ["--suite", "prag", "--depth", "3"]),
        ("qm-qutrit-d2", "m_qutrit", ["--suite", "qm", "--depth", "2"]),
        ("prag-qutrit-d2", "m_qutrit", ["--suite", "prag", "--depth", "2"]),
    ],
}

QUERY_MODELS = ("m_sr", "m_cm", "m_qbit", "m_qutrit")


def model_files(workload: str) -> tuple[str, ...]:
    if workload == "query-stream":
        return QUERY_MODELS
    return tuple(dict.fromkeys(stem for _, stem, _ in VERIFY_BATCH[workload]))


# ---------------------------------------------------------------------------
# Query stream: a fixed request mix, shuffled by the seed

REQUESTS_PER_PASS = 2000

# (kind, model or None, requests per pass)
QUERY_MIX = (
    ("parse-lx", None, 200), ("parse-ltq", None, 200), ("parse-prag", None, 200),
    ("parse-bad-lx", None, 10), ("parse-bad-ltq", None, 10),
    ("parse-bad-prag", None, 10),
    ("eval-lx", "m_sr", 80), ("eval-lx", "m_cm", 80),
    ("eval-lx", "m_qbit", 80), ("eval-lx", "m_qutrit", 80),
    ("eval-bad-lx", "m_sr", 10), ("eval-bad-ltq", "m_qbit", 10),
    ("eval-bad-prag", "m_qutrit", 10),
    ("eval-qtruth", "m_qbit", 100), ("eval-qtruth", "m_qutrit", 100),
    ("eval-prag", "m_qbit", 100), ("eval-prag", "m_qutrit", 100),
    ("props-physical", "m_sr", 70), ("props-physical", "m_cm", 70),
    ("props-individual", "m_sr", 70), ("props-individual", "m_cm", 70),
    ("props-forall", "m_sr", 70), ("props-forall", "m_cm", 70),
    ("props-ltq", "m_qbit", 100), ("props-ltq", "m_qutrit", 100),
)

MAX_NODES = 80
SIZE_BUCKETS = ((1, 1), (2, 3), (4, 7), (8, 15), (16, 31), (32, 63), (64, 80))

# Work-size facts every run checks; they must not depend on the seed.
EXPECTED_WORK = {
    "verify-classical": {
        "cm-128.closed_classes": 128, "cm-128.depth2_formulas": 24,
        "cm-128.interpretations": 12,
        "sec3-d3.formulas": 302, "sec3-d3.pairs": 91204,
        "cm-collapse.closed_classes": 16, "cm-collapse.depth2_formulas": 24,
        "cm-collapse.interpretations": 4096,
    },
    "verify-quantum": {
        "qm-qubit-d3.formulas": 2358, "qm-qubit-d3.classes": 6,
        "qm-qubit-d3.lattice": 6,
        "prag-qubit-d3.formulas": 2358, "prag-qubit-d3.classes": 6,
        "qm-qutrit-d2.formulas": 168, "qm-qutrit-d2.classes": 12,
        "qm-qutrit-d2.lattice": 12,
        "prag-qutrit-d2.formulas": 168, "prag-qutrit-d2.classes": 12,
    },
    "query-stream": {
        "requests": REQUESTS_PER_PASS,
        "mix": {f"{k}@{m}" if m else k: c for k, m, c in QUERY_MIX},
        "sizes": {"1": 600, "2-3": 456, "4-7": 285, "8-15": 231, "16-31": 187,
                  "32-63": 175, "64-80": 66},
    },
}


def size_of_rank(i: int, count: int) -> int:
    """Formula size for the i-th of ``count`` requests of one kind: a
    long-tailed quantile ladder from 1 node up to MAX_NODES."""
    u = (i + 1) / count
    return max(1, min(MAX_NODES, round(MAX_NODES ** (u * u))))


def size_bucket(n: int) -> str:
    for lo, hi in SIZE_BUCKETS:
        if lo <= n <= hi:
            return str(lo) if lo == hi else f"{lo}-{hi}"
    raise ValueError(f"formula size {n} outside 1..{MAX_NODES}")


def connective_counts(n: int) -> tuple[int, int]:
    """(unary, binary) node counts for an n-node tree; fixed per size."""
    u = round(0.25 * n)
    if (n - 1 - u) % 2:
        u = u - 1 if u > 0 else u + 1
    return u, (n - 1 - u) // 2


def nodes(t) -> int:
    if t[0] in ("atom", "assert"):
        return 1
    return 1 + sum(nodes(c) for c in t[1:])


_UNARY = {"lx": "not", "ltq": "qnot", "prag": "N"}
_LEAF = {"lx": "atom", "ltq": "atom", "prag": "assert"}


def _binary_ops(lang: str, b: int, sugar: bool) -> list[str]:
    if lang == "lx":
        return ["and"] * ((b + 1) // 2) + ["or"] * (b // 2)
    if lang == "prag":
        return ["K"] * (b - b // 4) + ["A"] * (b // 4)
    ops = ["and"] * (b - b // 4) + ["qor"] * (b // 4)
    if sugar and b >= 2:
        ops[0] = "sasaki"
    return ops


def _blocks_decidability(t) -> bool:
    # N over K(x, y), where both x and y translate back to a quantum
    # negation (x, y in N or A), reads back as A and so is not in the
    # image of the assertive translation; no N goes on top of it.
    return t[0] == "K" and t[1][0] in "NA" and t[2][0] in "NA"


def random_tree(rng: random.Random, lang: str, props, n: int,
                sugar: bool = False):
    """A random tree of exactly n nodes with the size's fixed mix of
    unary and binary connectives; ``sugar`` adds one Sasaki arrow."""
    u, b = connective_counts(n)
    pool = [(_LEAF[lang], rng.choice(props)) for _ in range(b + 1)]
    ops = [_UNARY[lang]] * u + _binary_ops(lang, b, sugar)
    rng.shuffle(ops)
    for op in ops:
        if op == _UNARY[lang]:
            ok = [i for i, t in enumerate(pool)
                  if lang != "prag" or not _blocks_decidability(t)]
            if ok:
                i = rng.choice(ok)
            else:
                i = rng.randrange(len(pool))
                pool[i] = ("A",) + pool[i][1:]
            pool[i] = (op, pool[i])
        else:
            i, j = rng.sample(range(len(pool)), 2)
            left, right = pool[i], pool[j]
            for k in sorted((i, j), reverse=True):
                pool.pop(k)
            pool.append((op, left, right))
    (tree,) = pool
    return tree


# ---------------------------------------------------------------------------
# Rendering.  ``render`` writes the surface text sent to the program;
# the oracle's canonical printer lives in oracle.py.

_PREC = {"or": 1, "and": 2, "not": 3, "atom": 4, "qnot": 3, "qor": 1,
         "sasaki": 0, "assert": 4, "N": 3, "K": 2, "A": 1}
_INFIX = {"or": " | ", "and": " & ", "qor": " |q ", "sasaki": " ->q ",
          "K": " K ", "A": " A "}


def render(t, rng: random.Random | None = None, noise: float = 0.0) -> str:
    """Minimally parenthesised text; with ``rng`` and ``noise`` some
    subterms get redundant parentheses and classical negation is
    spelled ``!`` or ``~`` at random."""
    def wrap(g, floor: int, strict: bool) -> str:
        s = go(g)
        p = _PREC[g[0]]
        if p < floor or (strict and p == floor) or (rng and rng.random() < noise):
            return f"({s})"
        return s

    def go(g) -> str:
        tag = g[0]
        if tag == "atom":
            return f"{g[1]}(x)"
        if tag == "assert":
            return f"|- {g[1]}(x)"
        if tag == "not":
            return (rng.choice("!~") if rng else "!") + wrap(g[1], 3, False)
        if tag == "qnot":
            return "~q " + wrap(g[1], 3, False)
        if tag == "N":
            return "N " + wrap(g[1], 3, False)
        p = _PREC[tag]
        return wrap(g[1], p, False) + _INFIX[tag] + wrap(g[2], p, True)

    return go(t)


def corrupt(text: str, lang: str, rng: random.Random) -> str:
    """A malformed variant whose only possible error is a plain
    ParseError: a dangling connective, a missing ')' or a wrong variable."""
    mode = rng.choice(("dangling", "unclosed", "variable"))
    if mode == "dangling":
        return text + (" K" if lang == "prag" else " &")
    if mode == "unclosed":
        return text[:-1]
    return text.replace("(x)", "(y)", 1)


# ---------------------------------------------------------------------------
# Query plan


def _random_interp(states, universes, rng) -> dict[str, str]:
    return {s: rng.choice(universes[s]) for s in states}


def _interp_text(interp: dict[str, str]) -> str:
    return ",".join(f"{s}={o}" for s, o in interp.items())


PARSE_PROPS = ("E", "F", "Ez+", "Ex-", "P3", "G_1")


def query_requests(seed: int, docs: dict[str, dict], model_path) -> list[dict]:
    """The fixed request list of one pass, shuffled by the seed.

    Each request carries the argv, its kind, its model, and the surface
    tree it was generated from (the oracle works from that tree).
    """
    rng = random.Random(f"query-stream/{seed}")
    out: list[dict] = []
    for kind, mname, count in QUERY_MIX:
        doc = docs[mname] if mname else None
        props = doc["properties"] if doc else PARSE_PROPS
        states = doc["states"] if doc else ()
        for i in range(count):
            n = size_of_rank(i, count)
            verb, _, rest = kind.partition("-")
            state, interp = None, None
            bad = rest.startswith("bad-")
            lang = rest[4:] if bad else rest
            if verb == "parse":
                tree = random_tree(rng, lang, props, n, sugar=(lang == "ltq"))
                text = render(tree, rng, 0.1)
                argv = ["parse", "--lang", lang]
            elif verb == "eval":
                lang = {"lx": "lx", "ltq": "ltq", "qtruth": "ltq",
                        "prag": "prag"}[lang]
                tree = random_tree(rng, lang, props, n)
                text = render(tree, rng, 0.1)
                state = rng.choice(states)
                argv = ["eval", "--model", model_path(mname), "--lang", lang,
                        "--state", state]
                if kind == "eval-lx":
                    how = rng.choice(("default", "object", "interp"))
                    if how == "object":
                        interp = {state: rng.choice(doc["universes"][state])}
                        argv += ["--object", interp[state]]
                    elif how == "interp":
                        interp = _random_interp(states, doc["universes"], rng)
                        argv += ["--interp", _interp_text(interp)]
                elif kind == "eval-qtruth":
                    argv.append("--qtruth")
            else:
                lang = "ltq" if kind == "props-ltq" else "lx"
                tree = random_tree(rng, lang, props, n)
                text = render(tree, rng, 0.1)
                argv = ["props", "--model", model_path(mname)]
                if kind == "props-ltq":
                    argv += ["--lang", "ltq", "--physical"]
                elif kind == "props-physical":
                    argv.append("--physical")
                elif kind == "props-individual":
                    interp = _random_interp(states, doc["universes"], rng)
                    argv += ["--individual", _interp_text(interp)]
                else:
                    argv.append("--forall")
            if bad:
                text = corrupt(text, lang, rng)
            out.append({"kind": kind, "model": mname, "lang": lang,
                        "size": n, "tree": tree, "bad": bad, "state": state,
                        "interp": interp, "argv": argv + [text]})
    rng.shuffle(out)
    return out


def query_work(requests: list[dict]) -> dict:
    """Work-size facts of a request list, measured from the trees."""
    mix: dict[str, int] = {}
    sizes: dict[str, int] = {}
    for r in requests:
        key = f"{r['kind']}@{r['model']}" if r["model"] else r["kind"]
        mix[key] = mix.get(key, 0) + 1
        b = size_bucket(nodes(r["tree"]))
        sizes[b] = sizes.get(b, 0) + 1
    return {"requests": len(requests), "mix": mix,
            "sizes": {b: sizes.get(b, 0) for b in
                      (size_bucket(lo) for lo, _ in SIZE_BUCKETS)}}

