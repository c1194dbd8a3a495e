"""Acceptance checks for the whole engine.

Each test prints one ``criterion N: PASS/FAIL`` line so a full run
reads as a short scorecard, independent of the pytest report format.
"""

import json
import math
import random
import time
from contextlib import contextmanager

import pytest

from arcindex.baselines import agreement
from arcindex.catalogue import load as load_catalogue, save as save_catalogue
from arcindex.clustering import cluster_matrix
from arcindex.ingest import load_cmu_summaries
from arcindex.pipeline import evaluate
from arcindex.series import (INTERPOLATED, PRIMARY, SECONDARY, SentimentSeries,
                             SeriesPoint, align_lengths)
from arcindex.similarity import SimilarityMatrix, spsi

from oracle_reference import ref_spsi
from reference_data import (CLOSED_FORM_SPSI, EXPECTED_SPSI, GRID_FIRST_MERGE,
                            GRID_IDS, GRID_PARTITION_AT_04, SERIES_A, SERIES_B,
                            grid_matrix_values)


@pytest.fixture
def announce(capsys):
    @contextmanager
    def _announce(number, label):
        verdict = "FAIL"
        try:
            yield
            verdict = "PASS"
        finally:
            with capsys.disabled():
                print(f"criterion {number}: {verdict} ({label})")
    return _announce


def _series(positions, values, provenance=PRIMARY, book_id="s"):
    points = [SeriesPoint(p, v, provenance) for p, v in zip(positions, values)]
    return SentimentSeries(book_id=book_id, points=points)


def test_criterion_1_similarity_identity_symmetry_range_speed(announce):
    with announce(1, "identity, bit-exact symmetry, range, under 1s"):
        rng = random.Random(99173)
        start = time.perf_counter()
        for _ in range(1000):
            n = rng.randint(2, 16)
            a = [rng.random() for _ in range(n)]
            b = [rng.random() for _ in range(n)]
            assert abs(spsi(a, a) - 1.0) <= 1e-12
            forward = spsi(a, b)
            assert forward == spsi(b, a)
            assert 0.0 < forward <= 1.0
        assert time.perf_counter() - start < 1.0


def test_criterion_2_closed_form_opposite_pair(announce):
    with announce(2, "spsi([1,0],[0,1]) equals 1/(1+ln 2)"):
        value = spsi([1.0, 0.0], [0.0, 1.0])
        assert abs(value - 1.0 / (1.0 + math.log(2.0))) <= 1e-12
        assert abs(value - CLOSED_FORM_SPSI) <= 1e-12


def test_criterion_3_reference_series_match_the_oracle(announce):
    with announce(3, "twelve-point reference pair matches the oracle"):
        library = spsi(SERIES_A, SERIES_B)
        oracle = ref_spsi(SERIES_A, SERIES_B)
        assert abs(library - oracle) <= 1e-9
        assert abs(library - EXPECTED_SPSI) <= 1e-9


def test_criterion_4_fixture_matrix_partition(announce):
    with announce(4, "nine-book fixture partition at threshold 0.4, under 1s"):
        matrix = SimilarityMatrix(list(GRID_IDS), grid_matrix_values())
        start = time.perf_counter()
        partition, trace = cluster_matrix(matrix, 0.4)
        assert time.perf_counter() - start < 1.0
        got = {frozenset(members) for members in partition}
        want = {frozenset(group) for group in GRID_PARTITION_AT_04}
        assert got == want
        first_a, first_b, first_sim = trace[0]
        assert {first_a, first_b} == set(GRID_FIRST_MERGE[:2])
        assert first_sim == GRID_FIRST_MERGE[2]


def test_criterion_5_alignment_fixture_and_properties(announce):
    with announce(5, "gap-midpoint alignment and the resampling route"):
        long_positions = [i / 9 for i in range(10)]
        short_positions = [0.0, 0.30, 0.52, 0.60, 0.68, 0.76, 0.88, 1.0]
        longer = _series(long_positions, [0.5] * 10, book_id="long")
        shorter = _series(short_positions, [0.1 * i for i in range(8)],
                          book_id="short")

        aligned_long, aligned_short = align_lengths(longer, shorter, 0.3)
        assert aligned_long is longer
        assert len(aligned_long) == len(aligned_short) == 10
        kept = [p for p in aligned_short.points if p.provenance == PRIMARY]
        assert kept == shorter.points
        added = [p for p in aligned_short.points if p.provenance != PRIMARY]
        assert len(added) == 2
        assert all(p.provenance == INTERPOLATED for p in added)
        # one new point inside each of the two widest gaps
        assert sum(1 for p in added if 0.0 < p.position < 0.30) == 1
        assert sum(1 for p in added if 0.30 < p.position < 0.52) == 1

        rng = random.Random(55021)
        for _ in range(500):
            n_long = rng.randint(3, 16)
            floor = max(2, -(-7 * n_long // 10))
            n_short = rng.randint(floor, n_long)
            s_long = _series(sorted(rng.sample(range(1001), n_long)),
                             [rng.random() for _ in range(n_long)], book_id="a")
            s_short = _series(sorted(rng.sample(range(1001), n_short)),
                              [rng.random() for _ in range(n_short)], book_id="b")
            out_long, out_short = align_lengths(s_long, s_short, 0.3)
            assert len(out_long) == len(out_short) == n_long
            survivors = [p for p in out_short.points if p.provenance == PRIMARY]
            assert survivors == s_short.points
            positions = [p.position for p in out_short.points]
            assert positions == sorted(positions)

        wide_long = _series([i / 9 for i in range(10)], [0.5] * 10, book_id="a")
        wide_short = _series([0.0, 0.4, 1.0], [0.2, 0.9, 0.3], book_id="b")
        wide_short.context = [(0.7, 0.8), (0.2, 0.6), (0.9, 0.4), (0.55, 0.5)]
        blocks = {position for position, _ in wide_short.context}
        # Above the ratio the context blocks are promoted; within it, midpoints only.
        out_long, out_short = align_lengths(wide_long, wide_short, 0.3)
        assert len(out_long) == len(out_short) == 10
        promoted = [p.position for p in out_short.points if p.provenance == SECONDARY]
        assert promoted and set(promoted) <= blocks
        _, out_short = align_lengths(wide_long, wide_short, 0.8)
        assert {p.provenance for p in out_short.points} == {PRIMARY, INTERPOLATED}


def test_criterion_6_synthetic_corpus_recovery(announce, synth_full,
                                               synth_outcome):
    result = synth_outcome["result"]
    elapsed = synth_outcome["elapsed"]
    partition = [list(c.members) for c in result.clusters]
    purity = agreement(partition, synth_full.labels).purity
    exact_cores = sum(
        1 for a in result.analyses
        if frozenset(a.core) == synth_full.truth[a.book_id].core
    )
    total = len(result.analyses)
    with announce(6, f"synthetic recovery: purity {purity:.3f}, "
                     f"cores {exact_cores}/{total}, {elapsed:.1f}s"):
        assert total == 100
        assert purity >= 0.85
        assert exact_cores / total >= 0.95
        assert elapsed < 120.0


def test_criterion_7_margin_over_both_baselines(announce, synth_full, synth_cfg):
    report = evaluate(synth_full.documents, synth_full.labels, synth_cfg)
    margins = report.purity_margins()
    with announce(7, "progression beats metadata baseline by "
                     f"{margins['over_metadata']:.3f} and summary baseline "
                     f"by {margins['over_summary']:.3f}"):
        assert margins["over_metadata"] >= 0.15
        assert margins["over_summary"] >= 0.15


def test_criterion_8_catalogue_round_trip(announce, synth_outcome, tmp_path):
    with announce(8, "catalogue reload equality and byte-stable re-save"):
        catalogue = synth_outcome["result"].catalogue
        first = tmp_path / "catalogue.json"
        save_catalogue(catalogue, first)
        loaded = load_catalogue(first)
        assert loaded == catalogue
        second = tmp_path / "again.json"
        save_catalogue(loaded, second)
        assert first.read_bytes() == second.read_bytes()


def test_criterion_9_summary_dump_ingestion(announce, tmp_path):
    with announce(9, "20-row summary TSV parses; malformed rows are counted"):
        rows = []
        for i in range(20):
            genres = json.dumps({"fb1": "Gothic", "fb2": "Adventure"})
            rows.append(f"{100 + i}\t/m/{i:04d}\tBook {i}\tAuthor {i}\t"
                        f"{1890 + i}\t{genres}\tA tale numbered {i} "
                        "about Mira and Jorin at the mill.")
        clean = tmp_path / "clean.tsv"
        clean.write_text("\n".join(rows) + "\n", encoding="utf-8")
        docs, skipped = load_cmu_summaries(clean)
        assert len(docs) == 20
        assert skipped == 0
        for doc in docs:
            assert doc.metadata["genres"] == ["Gothic", "Adventure"]
            assert doc.metadata["summary"]
            assert doc.token_count > 0

        bad_rows = rows + [
            "999\ttoo\tshort",
            rows[0],                              # duplicate id
            "998\t/m/x\tT\tA\t1900\tnot json\tSummary text here.",
        ]
        messy = tmp_path / "messy.tsv"
        messy.write_text("\n".join(bad_rows) + "\n", encoding="utf-8")
        docs, skipped = load_cmu_summaries(messy)
        assert len(docs) == 20
        assert skipped == 3
