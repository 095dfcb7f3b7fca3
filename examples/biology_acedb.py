"""ACeDB-style biological data: loose schemas and arbitrary-depth trees.

Run::

    python examples/biology_acedb.py

Reproduces the paper's second motivation (section 1.1): a database whose
schema "imposes only loose constraints on the data" and whose
containment trees have no depth bound, queried with the tools schema-first
systems lack.
"""

from repro.automata.product import rpq_nodes
from repro.core.bisim import bisimilar
from repro.datasets import acedb_schema, generate_acedb
from repro.schema.dataguide import DataGuide
from repro.schema.prune import pruned_rpq_nodes, schema_reachable_states
from repro.storage import dumps, loads
from repro.unql import unql


def main() -> None:
    db = generate_acedb(120, seed=7, max_depth=9)
    schema = acedb_schema()
    print(f"ACeDB-like database: {db.num_nodes} nodes, {db.num_edges} edges")
    print(f"conforms to the loose schema: {schema.conforms(db)}")

    print("\n=== Trees of arbitrary depth ===")
    for depth in range(1, 8):
        pattern = "Locus.Clone" + ".Contains" * depth
        count = len(rpq_nodes(db, pattern))
        print(f"clones at containment depth {depth}: {count}")
        if count == 0:
            break
    deep = rpq_nodes(db, "Locus.Clone.Contains+.Length.<int>")
    print(f"length values at ANY containment depth: {len(deep)} "
          "(a query no fixed-depth schema language can write)")

    print("\n=== Loose schema in action ===")
    loci = rpq_nodes(db, "Locus")
    with_pheno = rpq_nodes(db, "Locus.Phenotype")
    with_ref = rpq_nodes(db, "Locus.Reference")
    print(f"loci: {len(loci)}; with Phenotype: {len(with_pheno)}; "
          f"with Reference: {len(with_ref)} -- no attribute is mandatory")

    print("\n=== Schema-based pruning (section 5) ===")
    bogus = "Locus.Salary"
    print(f"schema admits '{bogus}'? "
          f"{bool(schema_reachable_states(schema, bogus))} "
          "-> query answered empty with zero data traversal")
    assert pruned_rpq_nodes(db, schema, bogus) == set()

    print("\n=== UnQL over biological data ===")
    result = unql(
        r'select {gene: \n} where '
        r'{Locus: {Locus_name: \n, Phenotype: "lethal"}} in db',
        db=db,
    )
    print(f"lethal loci found: {result.out_degree(result.root)}")

    print("\n=== Browsing via the DataGuide ===")
    guide = DataGuide(db)
    from repro.core.labels import sym

    print(f"DataGuide states: {guide.num_states} (database: {db.num_nodes})")
    print("what can follow Locus.Reference?",
          [str(l.value) for l in guide.labels_after((sym('Locus'), sym('Reference')))])

    print("\n=== Stored directly (section 4) ===")
    data = dumps(db)
    back = loads(data)
    assert bisimilar(back, db)
    print(f"SSD1 image: {len(data)} bytes ({len(data) / db.num_edges:.1f} B/edge), "
          "reloads bisimilar")


if __name__ == "__main__":
    main()
