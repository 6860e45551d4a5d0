"""Workloads: the synthetic IMDB scenario of Figs. 1–2, random generators,
combinatorial instances for the hardness reductions, and the catalog of every
query named in the paper."""

from .catalog import CatalogEntry, catalog_by_key, paper_query_catalog
from .generators import (
    chain_query,
    cycle_query,
    pick_endogenous_tuple,
    random_database_for_query,
    random_two_table_instance,
    scaling_series,
    star_instance,
    star_query,
    wide_fanout_instance,
)
from .hypergraphs import (
    CNF3Formula,
    TripartiteHypergraph,
    UndirectedGraph,
    figure6_hypergraph,
    random_3sat,
    random_graph,
    random_tripartite_hypergraph,
)
from .imdb import (
    BURTON_FILMOGRAPHY,
    FIGURE_2B_EXPECTED,
    ImdbScenario,
    burton_genre_query,
    generate_imdb,
    imdb_schema,
)

__all__ = [
    "BURTON_FILMOGRAPHY",
    "CNF3Formula",
    "CatalogEntry",
    "FIGURE_2B_EXPECTED",
    "ImdbScenario",
    "TripartiteHypergraph",
    "UndirectedGraph",
    "burton_genre_query",
    "catalog_by_key",
    "chain_query",
    "cycle_query",
    "figure6_hypergraph",
    "generate_imdb",
    "imdb_schema",
    "paper_query_catalog",
    "pick_endogenous_tuple",
    "random_3sat",
    "random_database_for_query",
    "random_graph",
    "random_tripartite_hypergraph",
    "random_two_table_instance",
    "scaling_series",
    "star_instance",
    "star_query",
    "wide_fanout_instance",
]
