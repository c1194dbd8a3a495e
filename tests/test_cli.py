import json

import pytest

from arcindex.cli import main
from arcindex.config import PipelineConfig, parse_config_text
from arcindex.similarity import SimilarityMatrix, read_matrix_csv, write_matrix_csv

from reference_data import GRID_IDS, grid_matrix_values

SYNTH_ARGS = ["--per-archetype", "2", "--archetypes", "2", "--seed", "7"]
SET_BLOCKS = ["--set", "block_size=120", "--set", "dt=0.95"]


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    """A small corpus generated through the CLI itself."""
    outdir = tmp_path_factory.mktemp("cli-corpus")
    assert main(["synth", "-o", str(outdir)] + SYNTH_ARGS) == 0
    return outdir


@pytest.fixture(scope="module")
def cli_truth(cli_corpus):
    with open(cli_corpus / "groundtruth.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_print_config_emits_the_effective_settings(capsys):
    assert main(["--print-config"]) == 0
    out = capsys.readouterr().out
    assert parse_config_text(out) == PipelineConfig()


def test_set_overrides_reach_the_config(capsys):
    assert main(["--set", "dt=0.7", "--set", "block_size=99", "--print-config"]) == 0
    cfg = parse_config_text(capsys.readouterr().out)
    assert cfg.dt == 0.7
    assert cfg.block_size == 99


def test_flags_work_after_the_subcommand_too(capsys):
    assert main(["cluster", "--set", "dt=0.7", "--print-config", "ignored"]) == 0
    assert "dt = 0.7" in capsys.readouterr().out


def test_usage_and_config_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["--set", "dt=nope", "--print-config"]) == 1
    assert main(["--set", "no_such_key=1", "--print-config"]) == 1
    assert main(["--set", "dt0.5", "--print-config"]) == 1
    assert main(["cluster", "--bogus-flag"]) == 1
    assert main(["spsi"]) == 1
    assert main(["cluster"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err or "config error" in err


def test_missing_input_exits_two(capsys):
    assert main(["characters", "/no/such/corpus"]) == 2
    assert "data error" in capsys.readouterr().err


def test_synth_reports_what_it_wrote(cli_corpus, capsys):
    assert main(["synth", "-o", str(cli_corpus / "again"), "--json"] + SYNTH_ARGS) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["books"] == 4
    assert payload["archetypes"] == 2
    assert payload["seed"] == 7
    assert payload["recommended_config"]["block_size"] == 120


def test_ingest_then_characters_from_a_store(cli_corpus, tmp_path, capsys):
    store = tmp_path / "store.json"
    assert main(["ingest", str(cli_corpus), "-o", str(store)]) == 0
    out = capsys.readouterr().out
    assert "ingested 4 document(s)" in out
    assert store.is_file()

    assert main(["characters", str(store), "--json"] + SET_BLOCKS) == 0
    payload = json.loads(capsys.readouterr().out)
    with open(cli_corpus / "groundtruth.json", encoding="utf-8") as fh:
        truth = json.load(fh)
    assert sorted(payload) == sorted(truth["books"])
    for book_id, entry in payload.items():
        assert entry["core"] == truth["books"][book_id]["core"]
        assert sorted(entry["pair"]) == truth["books"][book_id]["pair"]


def test_ingest_reports_skipped_tsv_rows(tmp_path, capsys):
    tsv = tmp_path / "summaries.tsv"
    good = "1\tfb\tTitle\tAuthor\t1900\t{}\tA fine tale about Mira."
    bad = "2\tfb\tshort row"
    tsv.write_text(good + "\n" + bad + "\n", encoding="utf-8")
    assert main(["ingest", str(tsv), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["documents"] == 1
    assert payload["skipped"] == 1


def test_pivots_lists_blocks_for_one_book(cli_corpus, cli_truth, capsys):
    book_id = sorted(cli_truth["books"])[0]
    assert main(["pivots", str(cli_corpus), "--book", book_id, "--json"]
                + SET_BLOCKS) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == [book_id]
    blocks = [p["block"] for p in payload[book_id]["pivots"]]
    assert blocks == cli_truth["books"][book_id]["pivot_blocks"]


def test_series_exports_one_csv_per_book(cli_corpus, tmp_path, capsys):
    outdir = tmp_path / "series"
    assert main(["series", str(cli_corpus), "-o", str(outdir)] + SET_BLOCKS) == 0
    capsys.readouterr()
    names = sorted(p.name for p in outdir.glob("*.csv"))
    assert names == [f"{b}.csv" for b in sorted(b for b in
                     json.load(open(cli_corpus / "groundtruth.json"))["books"])]


def test_spsi_of_a_series_with_itself_is_one(cli_corpus, tmp_path, capsys):
    outdir = tmp_path / "series"
    assert main(["series", str(cli_corpus), "-o", str(outdir)] + SET_BLOCKS) == 0
    capsys.readouterr()
    csv_path = sorted(outdir.glob("*.csv"))[0]
    assert main(["spsi", "--series-a", str(csv_path),
                 "--series-b", str(csv_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spsi"] == 1.0
    assert payload["ps"] == 0.5


def test_spsi_pair_needs_both_series(capsys):
    assert main(["spsi", "--series-a", "only-one.csv"]) == 1


def test_spsi_writes_a_matrix(cli_corpus, tmp_path, capsys):
    out = tmp_path / "matrix.csv"
    assert main(["spsi", str(cli_corpus), "-o", str(out)] + SET_BLOCKS) == 0
    assert "4x4 similarity matrix" in capsys.readouterr().out
    matrix = read_matrix_csv(out)
    assert len(matrix.book_ids) == 4
    for i in range(4):
        assert matrix.values[i][i] == 1.0


def test_cluster_matrix_reports_threshold_and_partition(tmp_path, capsys):
    path = tmp_path / "grid.csv"
    write_matrix_csv(SimilarityMatrix(list(GRID_IDS), grid_matrix_values()), path)

    assert main(["cluster", "--matrix", str(path), "--dt", "0.4"]) == 0
    out = capsys.readouterr().out
    assert "threshold = 0.400000" in out
    assert "partition: {1, 4, 8}, {2}, {3, 5, 6, 7, 9}" in out

    assert main(["cluster", "--matrix", str(path), "--adaptive"]) == 0
    out = capsys.readouterr().out
    assert "threshold = 0.464149" in out
    assert "partition: {1, 4, 8}, {2}, {3, 5, 6, 7, 9}" in out


def test_cluster_threshold_flags_are_exclusive(tmp_path, capsys):
    path = tmp_path / "grid.csv"
    write_matrix_csv(SimilarityMatrix(list(GRID_IDS), grid_matrix_values()), path)
    assert main(["cluster", "--matrix", str(path), "--dt", "0.4", "--adaptive"]) == 1


def test_cluster_corpus_prints_partition(cli_corpus, cli_truth, capsys):
    assert main(["cluster", str(cli_corpus)] + SET_BLOCKS) == 0
    out = capsys.readouterr().out
    assert "threshold = 0.950000" in out
    groups = {}
    for book_id, entry in cli_truth["books"].items():
        groups.setdefault(entry["archetype_id"], []).append(book_id)
    for members in groups.values():
        assert "{" + ", ".join(sorted(members)) + "}" in out


def test_index_then_search_by_book(cli_corpus, tmp_path, capsys):
    catalogue = tmp_path / "catalogue.json"
    assert main(["index", str(cli_corpus), "-o", str(catalogue)] + SET_BLOCKS) == 0
    out = capsys.readouterr().out
    assert "indexed 4 book(s) into 2 cluster(s)" in out
    assert catalogue.is_file()

    with open(cli_corpus / "groundtruth.json", encoding="utf-8") as fh:
        truth = json.load(fh)
    book_id = sorted(truth["books"])[0]
    twin = next(b for b, e in sorted(truth["books"].items())
                if b != book_id
                and e["archetype_id"] == truth["books"][book_id]["archetype_id"])

    assert main(["search", "--catalogue", str(catalogue),
                 "--like", book_id, "--json", "-k", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"][0]["book_id"] == twin
    assert book_id not in {r["book_id"] for r in payload["results"]}


def test_search_by_pattern_reports_nearest_cluster(cli_corpus, tmp_path, capsys):
    catalogue = tmp_path / "catalogue.json"
    series_dir = tmp_path / "series"
    assert main(["index", str(cli_corpus), "-o", str(catalogue)] + SET_BLOCKS) == 0
    assert main(["series", str(cli_corpus), "-o", str(series_dir)] + SET_BLOCKS) == 0
    capsys.readouterr()

    pattern = sorted(series_dir.glob("*.csv"))[0]
    assert main(["search", "--catalogue", str(catalogue),
                 "--pattern", str(pattern), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "nearest_cluster" in payload
    assert payload["results"][0]["spsi"] == pytest.approx(1.0, abs=1e-9)


def test_search_needs_exactly_one_query(tmp_path, capsys):
    assert main(["search", "--catalogue", "cat.json"]) == 1
    assert main(["search", "--catalogue", "cat.json",
                 "--like", "b", "--pattern", "p.csv"]) == 1


def test_search_for_unknown_book_is_a_data_error(cli_corpus, tmp_path, capsys):
    catalogue = tmp_path / "catalogue.json"
    assert main(["index", str(cli_corpus), "-o", str(catalogue)] + SET_BLOCKS) == 0
    capsys.readouterr()
    assert main(["search", "--catalogue", str(catalogue), "--like", "ghost"]) == 2
    assert "data error" in capsys.readouterr().err


def test_eval_reports_progression_agreement(cli_corpus, capsys):
    labels = cli_corpus / "labels.csv"
    assert main(["eval", str(cli_corpus), "--labels", str(labels)] + SET_BLOCKS) == 0
    assert "progression: purity 1.0000" in capsys.readouterr().out


def test_eval_with_baselines_reports_margins(cli_corpus, capsys):
    labels = cli_corpus / "labels.csv"
    assert main(["eval", str(cli_corpus), "--labels", str(labels),
                 "--baselines", "--json"] + SET_BLOCKS) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["progression"]["purity"] == 1.0
    assert set(payload["baseline_dts"]) == {"tfidf-metadata", "tfidf-summary"}
    assert set(payload["purity_margins"]) == {"over_metadata", "over_summary"}


def test_eval_without_labels_file_is_a_data_error(cli_corpus, capsys):
    assert main(["eval", str(cli_corpus), "--labels",
                 str(cli_corpus / "missing.csv")] + SET_BLOCKS) == 2


def test_eval_with_a_one_column_labels_row_is_a_data_error(cli_corpus, tmp_path, capsys):
    labels = tmp_path / "labels.csv"
    labels.write_text("book_id,label\nsynth-000\n", encoding="utf-8")
    assert main(["eval", str(cli_corpus), "--labels", str(labels)] + SET_BLOCKS) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_non_finite_inputs_are_data_errors(tmp_path, capsys):
    matrix = tmp_path / "nan.csv"
    matrix.write_text("book_id,a,b\na,1.0,nan\nb,nan,1.0\n", encoding="utf-8")
    assert main(["cluster", "--matrix", str(matrix), "--dt", "0.4"]) == 2
    series = tmp_path / "nan-series.csv"
    series.write_text("0.0,0.2\n0.5,nan\n1.0,0.8\n", encoding="utf-8")
    assert main(["spsi", "--series-a", str(series), "--series-b", str(series)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_synth_is_deterministic_across_runs(tmp_path, capsys):
    one = tmp_path / "one"
    two = tmp_path / "two"
    assert main(["synth", "-o", str(one)] + SYNTH_ARGS) == 0
    assert main(["synth", "-o", str(two)] + SYNTH_ARGS) == 0
    capsys.readouterr()
    for name in sorted(p.name for p in (one / "books").glob("*.txt")):
        assert (one / "books" / name).read_bytes() == \
            (two / "books" / name).read_bytes()
    assert (one / "groundtruth.json").read_bytes() == \
        (two / "groundtruth.json").read_bytes()
