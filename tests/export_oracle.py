"""Per-line reference writers of the orbit graph's DOT and CSV exports.

Each formats one line per vertex and per edge from the graph's public parts,
the label of an index, its class and its ladder-rule alpha target, and joins
the lines once. The tests hold OrbitGraphWindow.to_dot and to_csv, which
assemble the same text from a label table, against them byte for byte.
"""

from foldmap.orbit import VertexClass, alpha_targets
from foldmap.serialize import rows_to_csv


def to_dot(graph) -> str:
    """'digraph orbit {', a line per vertex, the rung and alpha edge lines, '}'."""
    labels = [str(graph.label_at(i)) for i in range(graph.size)]
    names = [VertexClass(int(c)).name.capitalize() for c in graph.classes]
    lines = ["digraph orbit {"]
    lines += [f'  "{lab}" [label="{lab}/{name}"];' for lab, name in zip(labels, names)]
    targets = alpha_targets(graph.values, graph.alpha, graph.window)
    for i, lab in enumerate(labels):
        lines.append(f'  "{lab}" -> "{labels[graph.size - 1 - i]}" [label="1"];')
        if targets[i] >= 0:  # none at n = -W
            lines.append(f'  "{lab}" -> "{labels[targets[i]]}" [label="a"];')
    lines.append("}\n")
    return "\n".join(lines)


def to_csv(graph) -> str:
    """The rows (n, eps, value, class) of every vertex, through rows_to_csv."""
    rows = []
    for i in range(graph.size):
        lab = graph.label_at(i)
        rows.append((lab.n, lab.eps, graph.values[i],
                     VertexClass(int(graph.classes[i])).name.lower()))
    return rows_to_csv(["n", "eps", "value", "class"], rows)
