"""Shared fixtures: a hand-built mini NBA database plus small generated
NBA/MIMIC instances (session-scoped — generation is the expensive part).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.apt import APTAttribute, AugmentedProvenanceTable
from repro.core.join_graph import JoinGraph
from repro.core.kernel import MiningKernel
from repro.core.schema_graph import SchemaGraph
from repro.db import ColumnType, Database, Relation, TableSchema
from repro.db.provenance import ProvenanceTable
from repro.engine import MaterializationEngine


@pytest.fixture(scope="session")
def mini_db() -> Database:
    """A deterministic 3-table database mirroring the paper's Example 1.

    game(year, gameno PK, ...) — player(player_id PK) —
    player_game(player_id, year, gameno PK) with embedded signal:
    Curry scores ≥ 30 in 2015-16 wins and ≤ 22 in 2012-13.
    """
    db = Database("mini")
    games = []
    # 8 games per season; GSW wins 6 in 2015-16 and 3 in 2012-13.
    schedule = {
        "2012-13": ["GSW", "GSW", "GSW", "LAL", "LAL", "LAL", "LAL", "MIA"],
        "2015-16": ["GSW", "GSW", "GSW", "GSW", "GSW", "GSW", "LAL", "MIA"],
    }
    for si, (season, winners) in enumerate(sorted(schedule.items())):
        year = 2012 + si * 3
        for g, winner in enumerate(winners):
            home = "GSW" if g % 2 == 0 else "LAL"
            away = "MIA" if home == "GSW" else "GSW"
            games.append((year, g + 1, home, away, winner, season))
    db.create_table(
        TableSchema.build(
            "game",
            {
                "year": ColumnType.INT,
                "gameno": ColumnType.INT,
                "home": ColumnType.TEXT,
                "away": ColumnType.TEXT,
                "winner": ColumnType.TEXT,
                "season": ColumnType.TEXT,
            },
            primary_key=("year", "gameno"),
        ),
        games,
    )
    players = ["Curry", "Thompson", "Green"]
    db.create_table(
        TableSchema.build(
            "player",
            {"player_id": ColumnType.INT, "player_name": ColumnType.TEXT},
            primary_key=("player_id",),
        ),
        list(enumerate(players)),
    )
    pgs = []
    for (year, gameno, home, away, winner, season) in games:
        if "GSW" not in (home, away):
            continue
        for pid, name in enumerate(players):
            if name == "Curry":
                pts = 32 if season == "2015-16" else 20
            elif name == "Thompson":
                pts = 18
            else:
                pts = 8 if season == "2015-16" else 4
            pgs.append((pid, year, gameno, pts))
    db.create_table(
        TableSchema.build(
            "player_game",
            {
                "player_id": ColumnType.INT,
                "year": ColumnType.INT,
                "gameno": ColumnType.INT,
                "pts": ColumnType.INT,
            },
            primary_key=("player_id", "year", "gameno"),
        ),
        pgs,
    )
    db.add_foreign_key("player_game", ("year", "gameno"), "game", ("year", "gameno"))
    db.add_foreign_key("player_game", ("player_id",), "player", ("player_id",))
    return db


@pytest.fixture(scope="session")
def mini_schema_graph(mini_db) -> SchemaGraph:
    return SchemaGraph.from_database(mini_db)


GSW_WINS_SQL = (
    "SELECT winner AS team, season, COUNT(*) AS win FROM game g "
    "WHERE winner = 'GSW' GROUP BY winner, season"
)


@pytest.fixture(scope="session")
def nba_small():
    """A small generated NBA instance with its schema graph."""
    from repro.datasets import load_nba

    return load_nba(scale=0.12, seed=5)


@pytest.fixture(scope="session")
def mimic_small():
    """A small generated MIMIC instance with its schema graph."""
    from repro.datasets import load_mimic

    return load_mimic(scale=0.08, seed=5)


@pytest.fixture(scope="session")
def gate_databases():
    """NBA and MIMIC as ``benchmarks/e2e`` generates them (scale 0.25),
    keyed by dataset name — for whole-question oracle comparisons at the
    gate's scale."""
    from repro.datasets import load_mimic, load_nba

    return {"nba": load_nba(scale=0.25), "mimic": load_mimic(scale=0.25)}


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture()
def kernel_verify(monkeypatch) -> list[int]:
    """Cross-check the kernel's coverage counts made during the test —
    every pattern-level call and every mined pool — against
    ``tests/oracles/coverage.py`` (raises on the first mismatch); the
    value is a one-element list counting the counts checked."""
    from tests.oracles import coverage

    return coverage.cross_check(monkeypatch)


def engine_apts(
    engine: MaterializationEngine,
    join_graphs: list[JoinGraph],
    restrict_row_ids: np.ndarray | None = None,
) -> list[AugmentedProvenanceTable]:
    """``engine``'s APTs of ``join_graphs``, in input order."""
    apts: list = [None] * len(join_graphs)
    for index, apt in engine.materialize_iter(join_graphs, restrict_row_ids):
        apts[index] = apt
    return apts


def engine_apt(
    join_graph: JoinGraph,
    pt: ProvenanceTable,
    db: Database,
    restrict_row_ids: np.ndarray | None = None,
) -> AugmentedProvenanceTable:
    """APT(Q, D, Ω) from a fresh engine with no trie."""
    engine = MaterializationEngine(pt, db, cache_mb=0)
    return engine_apts(engine, [join_graph], restrict_row_ids)[0]


def apt_of(columns: dict[str, np.ndarray]) -> AugmentedProvenanceTable:
    """An identity-frame APT whose minable attributes are ``columns``: an
    object array is TEXT (``str | None`` cells), an integer one INT and
    any other FLOAT."""
    def ctype(arr: np.ndarray) -> ColumnType:
        if arr.dtype == object:
            return ColumnType.TEXT
        return ColumnType.INT if arr.dtype.kind in "iu" else ColumnType.FLOAT

    types = {name: ctype(arr) for name, arr in columns.items()}
    relation = Relation(TableSchema.build("apt", types), dict(columns))
    return AugmentedProvenanceTable(
        join_graph=None,
        relation=relation,
        attributes=[
            APTAttribute(name, t.is_numeric, from_provenance=True)
            for name, t in types.items()
        ],
    )


def kernel_of(
    columns: dict[str, np.ndarray], row_slot: np.ndarray, m1: int
) -> MiningKernel:
    """The kernel over every row of :func:`apt_of` ``(columns)``."""
    return MiningKernel(apt_of(columns), None, row_slot, m1)
