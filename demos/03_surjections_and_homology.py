"""The surjection chain operad: differential, composition, exact homology.

Bar-free nondegenerate integer strings span chain complexes graded by
excess (length minus arity).  The differential deletes occurrences with
signs; composition inserts bars in all positions and composes underlying
strings.  Homology is computed exactly over the integers via Smith normal
form.
"""

from operadix import strings, surjections

s = surjections.Surjection(strings.parse("(1212)^c"))
print("d(1212)^c =", {
    strings.text(b.underlying): c for b, c in surjections.differential(s)
})

f = surjections.Surjection(strings.parse("(1u21)^o"))
g = surjections.Surjection(strings.parse("(12)^c"))
print("(1u21)^o o_1 (12)^c =", {
    strings.text(b.underlying): c for b, c in surjections.rs_compose(f, 1, g)
})

print("\nexact homology of small components (rank, torsion) by degree:")
for ins, out, label in [
    ([False, False], False, "c,c : c"),
    ([True, True], True, "o,o : o"),
    ([False], True, "c : o"),
    ([False, True], True, "c,o : o"),
]:
    hom = surjections.component_homology(ins, out, 2)
    nonzero = {d: v for d, v in hom.items() if v != (0, [])}
    print("  %-8s %s" % (label, nonzero))

report = surjections.is_generated_up_to(max_labels=3, max_length=6)
print("\ngenerators span every small component:", report["all_spanned"])
print("components checked:", len(report["components"]))
print("total basis dimension:", sum(
    info["dimension"] for info in report["components"].values()
))
