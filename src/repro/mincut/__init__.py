"""Maximum-flow / minimum-cut algorithms (the paper's first baseline).

The paper compares its spectral cut against "the maximum flow minimum cut
algorithm" (Ford-Fulkerson, specialised as Edmonds-Karp).  This package
implements that baseline from scratch on the undirected weighted graph
substrate, with the source/sink selection that turns an s-t cut into the
bisection the planner needs.  Tests and the cut-algorithm ablation bench
use ``networkx`` as the independent min-cut oracle.
"""

from repro.mincut.edmonds_karp import MaxFlowResult, edmonds_karp
from repro.mincut.residual import ResidualNetwork
from repro.mincut.st_selection import maxflow_bisect, select_source_sink

__all__ = [
    "ResidualNetwork",
    "edmonds_karp",
    "MaxFlowResult",
    "select_source_sink",
    "maxflow_bisect",
]
