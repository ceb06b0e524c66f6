"""Ablation — cut algorithms head-to-head on identical sub-graphs.

Compares the cut weight and runtime of the paper's spectral split (sign
and median) against its two baselines, Edmonds-Karp and Kernighan-Lin
(plain and with FM refinement), on the same compressed components.
``networkx.stoer_wagner``'s global minimum cut is the independent
optimum every method is judged against.
"""

from __future__ import annotations

import networkx

from repro.compression import GraphCompressor
from repro.experiments.reporting import render_table
from repro.graphs.components import connected_components
from repro.mincut.st_selection import maxflow_bisect
from repro.partition.kernighan_lin import kernighan_lin_bisect
from repro.partition.refinement import fm_refine
from repro.spectral.bisection import spectral_bisect
from repro.utils.timer import Stopwatch
from repro.workloads.applications import call_graph_from_weighted_graph
from repro.workloads.netgen import NetgenConfig, netgen_graph

from conftest import bench_profile


def _compressed_components():
    profile = bench_profile()
    size = profile.graph_sizes[-1]
    graph = netgen_graph(
        NetgenConfig(n_nodes=size, n_edges=profile.edges_for(size), seed=profile.seed)
    )
    call_graph = call_graph_from_weighted_graph(
        graph, unoffloadable_fraction=profile.unoffloadable_fraction, seed=profile.seed
    )
    compressed = GraphCompressor().compress(call_graph.offloadable_subgraph())
    working = compressed.compressed.graph
    return [
        working.subgraph(c)
        for c in connected_components(working)
        if len(c) >= 3
    ]


def _global_min_cut(graph) -> float:
    nxg = networkx.Graph()
    for u, v, w in graph.edges():
        nxg.add_edge(u, v, weight=w)
    return networkx.stoer_wagner(nxg)[0]


def test_ablation_cut_algorithms(benchmark):
    components = _compressed_components()
    assert components, "workload produced no cuttable components"

    methods = {
        "spectral (sign)": lambda g: spectral_bisect(g).cut_value,
        "spectral (median)": lambda g: spectral_bisect(g, balanced=True).cut_value,
        "edmonds-karp": lambda g: maxflow_bisect(g).cut_value,
        "kernighan-lin": lambda g: kernighan_lin_bisect(g).cut_value,
        "kl + fm": lambda g: fm_refine(g, kernighan_lin_bisect(g).part_one)[2],
    }

    benchmark.pedantic(
        lambda: [spectral_bisect(g) for g in components], rounds=3, iterations=1
    )

    rows = []
    optimum = sum(_global_min_cut(g) for g in components)
    for name, method in methods.items():
        watch = Stopwatch()
        with watch:
            total = sum(method(g) for g in components)
        rows.append([name, total, total / optimum if optimum else 1.0, f"{watch.elapsed:.3f}s"])
    rows.append(["stoer-wagner (networkx, opt)", optimum, 1.0, "-"])

    print("\n=== Ablation: cut algorithms on identical compressed components ===")
    print(render_table(["method", "total cut", "vs optimum", "time"], rows))

    totals = {row[0]: row[1] for row in rows}
    # The global optimum lower-bounds every bisection method.
    for name, value in totals.items():
        assert value >= optimum - 1e-6, name
    # Spectral's sign cut must land under KL's balanced cut.
    assert totals["spectral (sign)"] <= totals["kernighan-lin"] + 1e-9
