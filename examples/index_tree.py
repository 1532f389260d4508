"""Visualize the execution index tree (the paper's Fig. 4).

Run with::

    python examples/index_tree.py

The paper's Fig. 4(c) shows why dependence profiling needs more than
calling contexts: the nesting structure of *loop iterations* matters.
This example runs a miniature of that figure — nested loops inside a
procedure — records the full index tree, and prints it. Iterations of
each loop appear as siblings (rule 4 of the instrumentation rules), so
a dependence between two iterations is visibly a *cross-boundary*
dependence for the loop while remaining internal to the procedure.
"""

from repro import record_index_tree
from repro.core.profile_data import DepKind

SOURCE = """
int g;

void D() {
    int i;
    int j;
    for (i = 0; i < 2; i++) {          // the paper's loop "2"
        g += i;
        for (j = 0; j < 2; j++) {      // the paper's loop "4"
            g += j;                    //   (iterations become siblings)
        }
    }
}

int main() {
    D();
    return g;
}
"""


def main() -> None:
    tree, report = record_index_tree(SOURCE)

    print("=== Execution index tree (Fig. 4 style) ===")
    print(tree.render())

    print()
    print("=== Execution indices ===")
    inner = tree.instances_of(
        next(n.name for _, n in tree.root.walk()
             if n.name.startswith("loop(D:9")))
    first_inner = tree.index_of_first(inner[0].name)
    print(f"index of the first inner-loop iteration: {first_inner}")
    print("(the paper's bracket notation: the path from the root)")

    print()
    print("=== The profile collected by the same run ===")
    for prof in sorted(report.store.profiles.values(),
                       key=lambda p: -p.total_duration):
        raw = len([e for e in prof.edges.values()
                   if e.kind is DepKind.RAW])
        print(f"{prof.static.name:16s} Ttotal={prof.total_duration:<6d} "
              f"inst={prof.instances:<3d} RAW edges={raw}")


if __name__ == "__main__":
    main()
