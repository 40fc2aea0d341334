"""When every extension is full or empty, the logic turns classical.

On such models the truth of a formula at a state cannot depend on which
object the variable names, so individual and physical propositions
coincide, every quotient of formulas by equivalence is Boolean, and
testability becomes a question about the richness of the declared
property set.
"""

from qlprop import (
    check_boolean,
    check_cms,
    enumerate_formulas,
    enumerate_interpretations,
    format_lx,
    individual_proposition,
    lindenbaum_tarski,
    m_cm,
    m_sr,
    physical_proposition,
    testable_proposition_poset,
    testable_witness,
)

m = m_cm()
ok, _ = check_cms(m)
print(f"full-or-empty check on the three-state fixture: {ok}")
print()

formulas = enumerate_formulas(m.properties, 2)
interps = list(enumerate_interpretations(m))
print(f"{len(formulas)} formulas to depth 2, {len(interps)} interpretations")
agree = all(individual_proposition(m, i, f) == physical_proposition(m, f)
            for f in formulas for i in interps)
print(f"individual proposition == physical proposition everywhere: {agree}")
print()

alg = lindenbaum_tarski(m, 3)
print(f"equivalence classes of depth-3 formulas: {len(alg.classes)}")
for c in alg.classes:
    states = [s for s, e in zip(m.states, c.profile) if e]
    print(f"  [{format_lx(c.representative)}]  true in {states}  "
          f"({c.size} members)")
rep = check_boolean(alg.poset)
print("Boolean laws on the quotient:",
      ", ".join(f"{c.law}={c.passed}" for c in rep.checks))
print()

# testability: not every formula has an equivalent declared property
untestable = [f for f in formulas if testable_witness(m, f) is None]
print(f"{len(untestable)} of {len(formulas)} formulas lack a declared "
      f"witness property, e.g. {format_lx(untestable[0])!r}")
poset = testable_proposition_poset(m, 2)
print("poset of certainty regions of the testable ones:",
      ", ".join(poset.labels))
print()

# contrast: the two-state fixture is not full-or-empty and the collapse
# fails there.  The distinct individual propositions are printed with
# their states in the model's state order, and sorted by those state
# positions, so the output does not depend on set iteration order.
msr = m_sr()
ok, witness = check_cms(msr)
print(f"full-or-empty check on the two-state fixture: {ok}, "
      f"witness cell {witness}")
f = enumerate_formulas(msr.properties, 1)[0]
position = {s: i for i, s in enumerate(msr.states)}
props = sorted({tuple(sorted(individual_proposition(msr, i, f),
                             key=position.get))
                for i in enumerate_interpretations(msr)},
               key=lambda p: [position[s] for s in p])
print(f"{format_lx(f)!r} has {len(props)} distinct individual "
      f"propositions there: {[list(p) for p in props]}")
