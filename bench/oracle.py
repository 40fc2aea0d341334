"""Answer oracles for the qlprop benchmark.

None of this imports qlprop and none of it reads the program's output:
known answers come from the model files the program is given, from the
generator's own formula trees and from theory.

* a frozenset evaluator for classical extensions and propositions;
* a projector-matrix evaluator for quantum formulas: ``I - P`` for the
  orthocomplement, the null space of ``[I - P; I - Q]`` for the meet and
  the range of ``P + Q`` for the join;
* a canonical printer for ``parse`` answers;
* the expected report of each ``qlprop check`` suite.  Verdicts that
  hold by theory are fixed here: every law of a Boolean algebra passes
  on a classical quotient (it is an algebra of sets); the connective
  laws of section 3 always hold; the certainty lattice of a model whose
  properties are closed under the subspace operations is an
  orthomodular, atomistic, modular lattice with the covering property,
  and it is not distributive as soon as it contains MO2.  Witnesses
  (first violation, first strict inclusion) are recomputed here in the
  documented enumeration order.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from workloads import render

TOL = 1e-6
BOOLEAN_LAWS = ("bounded", "distributive_meet_over_join",
                "distributive_join_over_meet", "unique_complement")
STATE_LATTICE_LAWS = ("ortho_involution", "ortho_order_reversal",
                      "ortho_complement", "orthomodular", "atomic",
                      "atomistic", "covering")


class OracleError(Exception):
    """The oracle cannot produce a known answer for this input."""


# ---------------------------------------------------------------------------
# Formula trees


def qjoin(a, b):
    return ("qnot", ("and", ("qnot", a), ("qnot", b)))


def expand(t):
    """Quantum surface tree -> core tree (atom, qnot, and)."""
    tag = t[0]
    if tag == "atom":
        return t
    if tag == "qnot":
        return ("qnot", expand(t[1]))
    a, b = expand(t[1]), expand(t[2])
    if tag == "and":
        return ("and", a, b)
    if tag == "qor":
        return qjoin(a, b)
    if tag == "sasaki":
        return qjoin(("qnot", a), ("and", a, b))
    raise OracleError(f"not a quantum node: {tag!r}")


def preimage(t):
    """Assertive tree -> the quantum formula it translates."""
    tag = t[0]
    if tag == "assert":
        return ("atom", t[1])
    if tag == "N":
        return ("qnot", preimage(t[1]))
    if tag == "K":
        return ("and", preimage(t[1]), preimage(t[2]))
    if tag == "A":
        return qjoin(preimage(t[1]), preimage(t[2]))
    raise OracleError(f"not an assertive node: {tag!r}")


def canonical(t, lang: str) -> str:
    """The canonical text ``qlprop parse`` must print for a tree."""
    return render(expand(t) if lang == "ltq" else t)


def enumerate_trees(props, depth: int, unary: tuple, binary: tuple) -> list:
    """All trees to ``depth`` in the documented canonical order: atoms,
    then per depth the unary nodes, then each binary connective over
    index pairs in lexicographic order."""
    items = [("atom", p) for p in props]
    depths = [1] * len(items)
    for d in range(2, depth + 1):
        prev = len(items)
        for u in unary:
            for i in range(prev):
                if depths[i] == d - 1:
                    items.append((u, items[i]))
                    depths.append(d)
        for b in binary:
            for i in range(prev):
                for j in range(prev):
                    if max(depths[i], depths[j]) == d - 1:
                        items.append((b, items[i], items[j]))
                        depths.append(d)
    return items


def set_text(states, members) -> str:
    return "{" + ", ".join(s for s in states if s in members) + "}"


# ---------------------------------------------------------------------------
# Classical: frozenset evaluator


class Classical:
    def __init__(self, doc: dict):
        self.states = list(doc["states"])
        self.props = list(doc["properties"])
        self.universe = {s: frozenset(doc["universes"][s]) for s in self.states}
        self.order = {s: list(doc["universes"][s]) for s in self.states}
        self.ext = {s: {e: frozenset(doc["extensions"][s][e]) for e in self.props}
                    for s in self.states}

    def extension(self, s: str, t) -> frozenset:
        tag = t[0]
        if tag == "atom":
            return self.ext[s][t[1]]
        if tag == "not":
            return self.universe[s] - self.extension(s, t[1])
        a, b = self.extension(s, t[1]), self.extension(s, t[2])
        return a & b if tag == "and" else a | b

    def profile(self, t) -> tuple:
        return tuple(self.extension(s, t) for s in self.states)

    def physical(self, t) -> set:
        return {s for s in self.states if self.extension(s, t) == self.universe[s]}

    def individual(self, interp: dict, t) -> set:
        return {s for s in self.states if interp[s] in self.extension(s, t)}

    def forall(self, t) -> set:
        """Intersection of individual propositions over every
        interpretation, by enumeration."""
        acc = set(self.states)
        for combo in itertools.product(*(self.order[s] for s in self.states)):
            acc &= self.individual(dict(zip(self.states, combo)), t)
        return acc

    def interpretation_count(self) -> int:
        return math.prod(len(self.universe[s]) for s in self.states)

    def closed_classes(self) -> int:
        """Size of the Boolean algebra the extensions generate on the
        (state, object) slots: 2 ** (number of distinct property types)."""
        types = {tuple(o in self.ext[s][e] for e in self.props)
                 for s in self.states for o in self.universe[s]}
        return 2 ** len(types)


def classical_answer(cm: Classical, req: dict) -> str:
    tree, kind = req["tree"], req["kind"]
    if kind == "eval-lx":
        interp = {s: cm.order[s][0] for s in cm.states}
        interp.update(req.get("interp") or {})
        return "T" if interp[req["state"]] in cm.extension(req["state"], tree) else "F"
    if kind == "props-physical":
        return set_text(cm.states, cm.physical(tree))
    if kind == "props-individual":
        return set_text(cm.states, cm.individual(req["interp"], tree))
    if kind == "props-forall":
        return (set_text(cm.states, cm.forall(tree))
                + "\nmatches per-state form: yes")
    raise OracleError(f"not a classical request: {kind!r}")


# ---------------------------------------------------------------------------
# Quantum: projector-matrix evaluator


def _vec(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=complex)


def range_projector(columns: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the column span, rank from the SVD."""
    dim = columns.shape[0]
    if columns.size == 0:
        return np.zeros((dim, dim), dtype=complex)
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    r = int(np.sum(s > 1e-9 * max(1.0, float(s[0]))))
    return u[:, :r] @ u[:, :r].conj().T


class Quantum:
    def __init__(self, doc: dict):
        h = doc["hilbert"]
        self.dim = h["dim"]
        self.eye = np.eye(self.dim, dtype=complex)
        self.states = list(doc["states"])
        self.props = list(doc["properties"])
        self.rays = {}
        for s in self.states:
            v = _vec(h["state_rays"][s])
            self.rays[s] = v / np.linalg.norm(v)
        self.P = {}
        for e in self.props:
            cols = np.array([_vec(v) for v in h["property_subspaces"][e]],
                            dtype=complex).reshape(-1, self.dim).T
            self.P[e] = range_projector(cols)
        self.cert = {e: frozenset(self.certain(self.P[e])) for e in self.props}

    # subspace operations on projectors

    def ortho(self, p: np.ndarray) -> np.ndarray:
        return self.eye - p

    def meet(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        stacked = np.vstack([self.eye - p, self.eye - q])
        _, s, vh = np.linalg.svd(stacked)
        null = vh[s < 1e-8].conj().T
        return null @ null.conj().T

    def join(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return range_projector(p + q)

    def projector(self, t) -> np.ndarray:
        tag = t[0]
        if tag == "atom":
            return self.P[t[1]]
        if tag == "qnot":
            return self.ortho(self.projector(t[1]))
        if tag == "and":
            return self.meet(self.projector(t[1]), self.projector(t[2]))
        raise OracleError(f"not a core quantum node: {tag!r}")

    def name_of(self, p: np.ndarray) -> str:
        for e in self.props:
            if np.linalg.norm(p - self.P[e]) < TOL:
                return e
        raise OracleError("subspace is not a declared property")

    def inside(self, s: str, p: np.ndarray) -> bool:
        v = self.rays[s]
        return float(np.linalg.norm(v - p @ v)) < TOL

    def certain(self, p: np.ndarray) -> list[str]:
        return [s for s in self.states if self.inside(s, p)]

    def q_truth(self, s: str, core) -> str:
        p = self.projector(core)
        if self.inside(s, p):
            return "QTrue"
        if self.inside(s, self.ortho(p)):
            return "QFalse"
        return "QIndeterminate"

    # tables over declared properties, for the check suites

    def tables(self):
        ortho = {e: self.name_of(self.ortho(self.P[e])) for e in self.props}
        meet = {(e, f): self.name_of(self.meet(self.P[e], self.P[f]))
                for e in self.props for f in self.props}
        join = {(e, f): self.name_of(self.join(self.P[e], self.P[f]))
                for e in self.props for f in self.props}
        return ortho, meet, join


def quantum_answer(qm: Quantum, req: dict) -> str:
    tree, kind, s = req["tree"], req["kind"], req.get("state")
    if kind == "eval-qtruth":
        return qm.q_truth(s, expand(tree))
    if kind == "eval-prag":
        return ("Justified" if qm.q_truth(s, preimage(tree)) == "QTrue"
                else "Unjustified")
    if kind == "props-ltq":
        return set_text(qm.states, qm.certain(qm.projector(expand(tree))))
    raise OracleError(f"not a quantum request: {kind!r}")


# ---------------------------------------------------------------------------
# Known answers of single requests


def expected_answer(req: dict, docs: dict) -> tuple[int, str, str]:
    """(exit code, stdout, stderr prefix) a request must produce."""
    if req["bad"]:
        return 1, "", "ERROR ParseError:"
    kind = req["kind"]
    if kind.startswith("parse-"):
        return 0, canonical(req["tree"], req["lang"]) + "\n", ""
    if kind in ("eval-qtruth", "eval-prag", "props-ltq"):
        text = quantum_answer(docs.quantum(req["model"]), req)
    else:
        text = classical_answer(docs.classical(req["model"]), req)
    return 0, text + "\n", ""


class ModelDocs(dict):
    """Model documents by name, with cached evaluators."""

    def __init__(self, docs: dict):
        super().__init__(docs)
        self._c: dict = {}
        self._q: dict = {}

    def classical(self, name: str) -> Classical:
        if name not in self._c:
            self._c[name] = Classical(self[name])
        return self._c[name]

    def quantum(self, name: str) -> Quantum:
        if name not in self._q:
            self._q[name] = Quantum(self[name])
        return self._q[name]


# ---------------------------------------------------------------------------
# Known reports of the check suites


def _passfail(ok: bool, what: str, extra: str = "") -> str:
    return f"{'PASS' if ok else 'FAIL'} {what}" + (f": {extra}" if not ok and extra else "")


def suite_cm(cm: Classical, depth: int) -> tuple[list[str], int, dict]:
    lines = []
    witness = next(((s, e) for s in cm.states for e in cm.props
                    if cm.ext[s][e] and cm.ext[s][e] != cm.universe[s]), None)
    lines.append(_passfail(witness is None, "every extension full or empty",
                           f"witness {witness}"))
    formulas = enumerate_trees(cm.props, min(depth, 2), ("not",), ("and", "or"))
    profiles = [cm.profile(f) for f in formulas]
    rho_ok = all(x in (frozenset(), cm.universe[s])
                 for p in profiles for s, x in zip(cm.states, p))
    lines.append(_passfail(rho_ok, "truth independent of the interpretation"))
    if cm.interpretation_count() <= 10 ** 4:
        # An individual proposition differs from the physical one exactly
        # when some formula has a proper extension at some state.
        lines.append(_passfail(rho_ok, "individual propositions collapse to physical"))
    atom_profiles = {cm.profile(("atom", e)) for e in cm.props}
    untestable = sum(p not in atom_profiles for p in profiles)
    if untestable:
        lines.append(f"REPORT {untestable} of {len(formulas)} formulas lack "
                     "a testable witness")
    lines += [f"PASS quotient algebra law {law}" for law in BOOLEAN_LAWS]
    rc = 1 if any(x.startswith("FAIL") for x in lines) else 0
    work = {"closed_classes": cm.closed_classes(),
            "depth2_formulas": len(formulas),
            "interpretations": cm.interpretation_count()}
    return lines, rc, work


def suite_sec3(cm: Classical, depth: int) -> tuple[list[str], int, dict]:
    formulas = enumerate_trees(cm.props, depth, ("not",), ("and", "or"))
    states = cm.states
    bits = {s: {o: 1 << k for k, o in enumerate(cm.order[s])} for s in states}
    full = [sum(bits[s].values()) for s in states]
    cache: dict = {}

    def prof(t) -> tuple:
        key = id(t)
        if key not in cache:
            tag = t[0]
            if tag == "atom":
                r = tuple(sum(bits[s][o] for o in cm.ext[s][t[1]]) for s in states)
            elif tag == "not":
                r = tuple(u ^ x for u, x in zip(full, prof(t[1])))
            elif tag == "and":
                r = tuple(x & y for x, y in zip(prof(t[1]), prof(t[2])))
            else:
                r = tuple(x | y for x, y in zip(prof(t[1]), prof(t[2])))
            cache[key] = (t, r)
        return cache[key][1]

    def phys(p) -> int:
        return sum(1 << k for k, (x, u) in enumerate(zip(p, full)) if x == u)

    every = (1 << len(states)) - 1
    lines = ["PASS negation proposition below set complement"]
    for f in formulas:
        p, pn = phys(prof(f)), phys(prof(("not", f)))
        if pn != every & ~p:
            lines.append(f"REPORT strict negation inclusion at {render(f)!r}")
            break
    lines.append("PASS conjunction proposition equals intersection")
    lines.append("PASS disjunction proposition above union")
    physes = [phys(prof(f)) for f in formulas]
    strict = None
    for a, pa, profa in zip(formulas, physes, map(prof, formulas)):
        for b, pb in zip(formulas, physes):
            por = phys(tuple(x | y for x, y in zip(profa, prof(b))))
            if (pa | pb) != por:
                strict = (render(a), render(b))
                break
        if strict:
            break
    if strict:
        lines.append(f"REPORT strict disjunction inclusion at {strict!r}")
    work = {"formulas": len(formulas), "pairs": len(formulas) ** 2}
    return lines, 0, work


def _first_triple(n: int, bad) -> tuple | None:
    for x, y, z in itertools.product(range(n), repeat=3):
        if bad(x, y, z):
            return x, y, z
    return None


def _tq_witnesses(qm: Quantum, depth: int, ortho: dict, meet: dict):
    """Witness property of every enumerated quantum formula, in order."""
    formulas = enumerate_trees(qm.props, depth, ("qnot",), ("and",))
    wit: dict = {}

    def w(t) -> str:
        key = id(t)
        if key not in wit:
            tag = t[0]
            if tag == "atom":
                r = t[1]
            elif tag == "qnot":
                r = ortho[w(t[1])]
            else:
                r = meet[w(t[1]), w(t[2])]
            wit[key] = (t, r)
        return wit[key][1]

    return formulas, [w(f) for f in formulas]


def suite_qm(qm: Quantum, depth: int) -> tuple[list[str], int, dict]:
    ortho, meet, join = qm.tables()
    reps_by_cert: dict = {}
    for e in qm.props:
        reps_by_cert.setdefault(qm.cert[e], e)
    elems = list(reps_by_cert.values())
    index = {c: i for i, c in enumerate(reps_by_cert)}
    n = len(elems)
    M = [[index[qm.cert[meet[a, b]]] for b in elems] for a in elems]
    J = [[index[qm.cert[join[a, b]]] for b in elems] for a in elems]
    labels = [set_text(qm.states, qm.cert[e]) for e in elems]

    lines = [f"PASS state lattice law {law}" for law in STATE_LATTICE_LAWS]
    lines.append("REPORT modularity: holds")
    laws = {
        "distributive_meet_over_join":
            lambda x, y, z: M[x][J[y][z]] != J[M[x][y]][M[x][z]],
        "distributive_join_over_meet":
            lambda x, y, z: J[x][M[y][z]] != M[J[x][y]][J[x][z]],
    }
    for name, bad in laws.items():
        t = _first_triple(n, bad)
        verdict = "holds" if t is None else f"fails at {tuple(labels[i] for i in t)}"
        lines.append(f"REPORT {name}: {verdict}")
    lines.append("PASS negation proposition is the lattice orthocomplement")
    lines.append("PASS conjunction proposition is the lattice meet")
    lines.append("PASS disjunction proposition is the lattice join")

    formulas, wits = _tq_witnesses(qm, depth, ortho, meet)
    reps: dict = {}
    for f, w in zip(formulas, wits):
        reps.setdefault(w, f)
    strict = None
    for wa, a in reps.items():
        for wb, b in reps.items():
            joined = qm.cert[ortho[meet[ortho[wa], ortho[wb]]]]
            if (qm.cert[wa] | qm.cert[wb]) < joined:
                strict = (render(a), render(b))
                break
        if strict:
            break
    if strict:
        lines.append(f"REPORT join strictly above union at {strict!r}")
    injective = len(set(qm.cert.values())) == len(qm.props)
    lines.append(f"REPORT certain-state map injective: {'yes' if injective else 'no'}")
    work = {"formulas": len(formulas), "classes": len(reps), "lattice": n}
    return lines, 0, work


def suite_prag(qm: Quantum, depth: int) -> tuple[list[str], int, dict]:
    ortho, meet, _ = qm.tables()
    formulas, wits = _tq_witnesses(qm, depth, ortho, meet)
    classes = len(set(wits))
    line = (f"PASS assertive translation preserves semantics "
            f"({len(formulas)} formulas, {classes} classes)")
    return [line], 0, {"formulas": len(formulas), "classes": classes}


def expected_check(suite: str, depth: int, doc: dict):
    """(stdout lines, exit code, work-size facts) of ``qlprop check``."""
    if suite == "cm":
        return suite_cm(Classical(doc), depth)
    if suite == "sec3":
        return suite_sec3(Classical(doc), depth)
    if suite == "qm":
        return suite_qm(Quantum(doc), depth)
    return suite_prag(Quantum(doc), depth)
