import copy
import json
import re
import shlex
from pathlib import Path

import pytest

from arcindex.cli import main
from arcindex.config import PipelineConfig, parse_config_text
from arcindex.pipeline import evaluate, load_corpus_dir, load_labels
from arcindex.series import read_series_csv
from arcindex.similarity import SimilarityMatrix, read_matrix_csv, score, write_matrix_csv

from reference_data import GRID_IDS, grid_matrix_values

SYNTH_ARGS = ["--per-archetype", "2", "--archetypes", "2", "--seed", "7"]
SET_BLOCKS = ["--set", "block_size=120", "--set", "dt=0.95"]
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    """A small corpus generated through the CLI itself."""
    outdir = tmp_path_factory.mktemp("cli-corpus")
    assert main(["synth", "-o", str(outdir)] + SYNTH_ARGS) == 0
    return outdir


@pytest.fixture(scope="module")
def cli_catalogue(cli_corpus, tmp_path_factory):
    """The saved catalogue of cli_corpus, as parsed JSON."""
    path = tmp_path_factory.mktemp("cli-catalogue") / "catalogue.json"
    assert main(["index", str(cli_corpus), "-o", str(path)] + SET_BLOCKS) == 0
    return json.loads(path.read_text(encoding="utf-8"))


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


def test_ingest_of_a_triple_format_store_is_a_data_error(tmp_path, capsys):
    store = tmp_path / "old.json"
    store.write_text('{"documents":[],"format":"arcindex-store","version":"1.0"}\n',
                     encoding="utf-8")
    assert main(["ingest", str(store)]) == 2
    err = capsys.readouterr().err
    assert "arcindex ingest" in err
    assert "Traceback" not in err


def test_ingest_of_a_format_2_store_is_a_data_error(tmp_path, capsys):
    store = tmp_path / "old.json"
    store.write_text('{"documents":[{"author":null,"book_id":"b","language":"en",'
                     '"metadata":{},"title":"B","tokens":{"capitalized":[1],'
                     '"sentence_start":[1],"text":["word"]}}],'
                     '"format":"arcindex-store","version":"2.0"}\n', encoding="utf-8")
    assert main(["ingest", str(store)]) == 2
    err = capsys.readouterr().err
    assert "version '2.0'" in err
    assert "arcindex ingest" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["index", "eval"])
def test_a_store_with_a_malformed_document_is_a_data_error(cli_corpus, tmp_path, capsys,
                                                            command):
    store = tmp_path / "store.json"
    assert main(["ingest", str(cli_corpus), "-o", str(store)]) == 0
    payload = json.loads(store.read_text(encoding="utf-8"))
    payload["documents"][0]["book_id"] = 5
    store.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    extra = (["-o", str(tmp_path / "catalogue.json")] if command == "index"
             else ["--labels", str(cli_corpus / "labels.csv")])
    assert main([command, str(store)] + extra + SET_BLOCKS) == 2
    err = capsys.readouterr().err
    assert str(store) in err
    assert "Traceback" not in err
    assert not (tmp_path / "catalogue.json").exists()


def test_ingest_reports_skipped_tsv_rows(tmp_path, capsys):
    tsv = tmp_path / "summaries.tsv"
    good = "1\tfb\tTitle\tAuthor\t1900\t{}\tA fine tale about Mira."
    bad = "2\tfb\tshort row"
    not_a_file_name = "a/b\tfb\tTitle\tAuthor\t1900\t{}\tA tale about Mira."
    tsv.write_text(good + "\n" + bad + "\n" + not_a_file_name + "\n", encoding="utf-8")
    assert main(["ingest", str(tsv), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["documents"] == 1
    assert payload["skipped"] == 2
    # A corpus directory reports the skipped rows of its summaries.tsv too.
    (tmp_path / "1.txt").write_text("Mira walked. Mira ran.\n", encoding="utf-8")
    assert main(["ingest", str(tmp_path)]) == 0
    assert "ingested 1 document(s), 4 tokens, skipped 2 malformed row(s)" in \
        capsys.readouterr().out
    assert main(["ingest", str(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["documents"], payload["skipped"]) == (1, 2)


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


@pytest.mark.parametrize("book_id", ["../escaped", "ABS", "sub/escaped", "..", ".", "",
                                     "nul\0byte"])
def test_series_refuses_a_book_id_that_is_not_a_file_name(cli_corpus, tmp_path, capsys,
                                                          book_id):
    store = tmp_path / "store.json"
    assert main(["ingest", str(cli_corpus), "-o", str(store)]) == 0
    payload = json.loads(store.read_text(encoding="utf-8"))
    # An absolute id inside tmp_path, so that a missed one writes where it is seen.
    payload["documents"][0]["book_id"] = str(tmp_path / "abs") if book_id == "ABS" else book_id
    store.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    # The store refuses the id when it loads, so no command gets to write.
    for argv in (["series", str(store), "-o", str(tmp_path / "out" / "sub")],
                 ["index", str(store), "-o", str(tmp_path / "out" / "cat.json")],
                 ["characters", str(store)]):
        assert main(argv + SET_BLOCKS) == 2, argv
        captured = capsys.readouterr()
        assert "is not a plain file name" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert [p.name for p in tmp_path.rglob("*")] == ["store.json"]


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


def test_spsi_of_a_series_pair_is_the_pair_scorer(tmp_path, capsys):
    # 6 and 4 points: the pair is aligned before it is scored.
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("0.0,0.1\n0.2,0.7\n0.4,0.3\n0.6,0.9\n0.8,0.2\n1.0,0.5\n", encoding="utf-8")
    b.write_text("0.0,0.4\n0.3,0.6\n0.7,0.1\n1.0,0.8\n", encoding="utf-8")
    assert main(["spsi", "--series-a", str(a), "--series-b", str(b), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    expected = score(read_series_csv(a), read_series_csv(b), PipelineConfig().length_ratio_limit)
    assert payload["spsi"].hex() == expected.hex()


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

    assert main(["cluster", "--matrix", str(path), "--set", "dt=0.4"]) == 0
    out = capsys.readouterr().out
    assert "threshold = 0.400000" in out
    assert "partition: {1, 4, 8}, {2}, {3, 5, 6, 7, 9}" in out

    assert main(["cluster", "--matrix", str(path), "--set", "dt_mode=adaptive"]) == 0
    out = capsys.readouterr().out
    assert "threshold = 0.464149" in out
    assert "partition: {1, 4, 8}, {2}, {3, 5, 6, 7, 9}" in out


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


def test_ingest_of_a_format_3_store_is_a_data_error(tmp_path, capsys):
    store = tmp_path / "old.json"
    store.write_text('{"documents":[{"author":null,"book_id":"b","language":"en",'
                     '"metadata":{},"title":"B","tokens":{"capitalized":[0],'
                     '"sentence_start":[0],"text":"word"}}],'
                     '"format":"arcindex-store","version":"3.0"}\n', encoding="utf-8")
    for argv in (["ingest", str(store)], ["index", str(store), "-o", str(tmp_path / "c.json")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "version '3.0' is not '4.0'" in err
        assert "arcindex ingest" in err
        assert "Traceback" not in err
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("k", ["0", "-1"])
def test_search_refuses_a_count_below_one(cli_catalogue, tmp_path, capsys, k):
    path = tmp_path / "catalogue.json"
    path.write_text(json.dumps(cli_catalogue), encoding="utf-8")
    assert main(["search", "--catalogue", str(path), "--like", "synth-000", "-k", k]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"-k must be at least 1, got {k}" in err
    assert main(["search", "--catalogue", str(path), "--like", "synth-000", "-k", "1"]) == 0
    assert capsys.readouterr().out.startswith("1. ")


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


def test_eval_reports_what_evaluate_reports_for_the_progression(cli_corpus, capsys):
    labels = cli_corpus / "labels.csv"
    assert main(["eval", str(cli_corpus), "--labels", str(labels), "--json"]
                + SET_BLOCKS) == 0
    payload = json.loads(capsys.readouterr().out)
    docs, aliases = load_corpus_dir(cli_corpus)
    cfg = parse_config_text("block_size = 120\ndt = 0.95", base=PipelineConfig()).validate()
    report = evaluate(docs, load_labels(labels), cfg, aliases=aliases)
    assert payload == json.loads(json.dumps(report.progression.to_dict()))


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
    assert main(["cluster", "--matrix", str(matrix), "--set", "dt=0.4"]) == 2
    series = tmp_path / "nan-series.csv"
    series.write_text("0.0,0.2\n0.5,nan\n1.0,0.8\n", encoding="utf-8")
    assert main(["spsi", "--series-a", str(series), "--series-b", str(series)]) == 2
    assert "Traceback" not in capsys.readouterr().err


SPSI_A = ["spsi", "--series-a", "a.csv", "--series-b", "a.csv"]
CLUSTER_M = ["cluster", "--matrix", "m.csv"]
INGEST_S = ["ingest", "s.json"]
# Nesting too deep for the JSON decoder, and one CSV field over
# csv.field_size_limit() (131,072 characters).
DEEP_JSON = "[" * 100_000 + "]" * 100_000
LONG_FIELD = "1" * 131_073
# A valid store but for the NaN in its metadata.
NAN_STORE = ('{"documents":[{"author":null,"book_id":"b1","language":"en",'
             '"metadata":{"x":NaN},"title":"T","tokens":{"capitalized":[0],'
             '"codes":"AAABAA==","sentence_start":[0],"vocab":"more words"}}],'
             '"format":"arcindex-store","version":"4.0"}')


@pytest.mark.parametrize("name, text, argv, message", [
    ("a.csv", "0.0,0.2,primary,x\n1.0,0.3\n", SPSI_A, "expected 2 or 3 columns"),
    ("a.csv", "0.0,0.2\n1.0,0.3,guess\n", SPSI_A, "unknown provenance 'guess'"),
    ("m.csv", "book_id,a\n", CLUSTER_M, "empty matrix"),
    ("m.csv", "book_id,a,b\na,1.0,0.5\n", CLUSTER_M, "header names 2 books but 1 rows"),
    ("m.csv", "book_id,a,b\na,1.0,high\nb,0.5,1.0\n", CLUSTER_M, "non-numeric matrix entry"),
    ("m.csv", "book_id,a,b\nb,1.0,0.5\na,0.5,1.0\n", CLUSTER_M, "row labels do not match"),
    ("m.csv", "book_id,a,a,b\na,1,0.9,0\na,0.9,1,0\nb,0,0,1\n", CLUSTER_M,
     "book id 'a' is repeated"),
    ("m.csv", f"book_id,a\na,{LONG_FIELD}\n", CLUSTER_M, "row 2: field larger than"),
    ("a.csv", f"0.0,0.2\n{LONG_FIELD},0.3\n",
     ["search", "--catalogue", "cat.json", "--pattern", "a.csv"], "row 2: field larger than"),
    ("s.json", '{"format": "arcindex-store", }', INGEST_S, "invalid JSON"),
    ("s.json", DEEP_JSON, INGEST_S, "invalid JSON: maximum recursion depth exceeded"),
    ("s.json", '{"format": "arcindex-store", "version": ' + "1" * 5000 + "}", INGEST_S,
     "invalid JSON: Exceeds the limit"),
    ("s.json", NAN_STORE, INGEST_S, "invalid JSON: non-finite number NaN"),
    ("c.json", DEEP_JSON, ["search", "--catalogue", "c.json", "--like", "synth-000"],
     "invalid JSON: maximum recursion depth exceeded"),
], ids=["series-columns", "series-provenance", "matrix-empty", "matrix-row-count",
        "matrix-non-numeric", "matrix-row-labels", "matrix-repeated-id", "matrix-long-field",
        "pattern-long-field", "store-json", "store-deep", "store-long-int", "store-nan",
        "catalogue-deep"])
def test_malformed_reader_input_is_a_data_error(tmp_path, capsys, cli_catalogue, name, text,
                                                argv, message):
    # cat.json is a valid catalogue, for a case whose bad input is another file.
    (tmp_path / "cat.json").write_text(json.dumps(cli_catalogue), encoding="utf-8")
    (tmp_path / name).write_text(text, encoding="utf-8")
    assert main([str(tmp_path / a) if a in (name, "cat.json") else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert str(tmp_path / name) in captured.err
    assert "Traceback" not in captured.err


def test_negative_series_values_are_data_errors(cli_corpus, tmp_path, capsys):
    negative = tmp_path / "neg.csv"
    negative.write_text("0.0,0.6\n0.5,-0.5\n1.0,0.3\n", encoding="utf-8")
    positive = tmp_path / "pos.csv"
    positive.write_text("0.0,0.5\n0.5,0.2\n1.0,0.3\n", encoding="utf-8")
    assert main(["spsi", "--series-a", str(negative), "--series-b", str(positive)]) == 2
    catalogue = tmp_path / "catalogue.json"
    assert main(["index", str(cli_corpus), "-o", str(catalogue)] + SET_BLOCKS) == 0
    capsys.readouterr()
    assert main(["search", "--catalogue", str(catalogue), "--pattern", str(negative)]) == 2
    err = capsys.readouterr().err
    assert "negative" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("files, argv, code", [
    ({"book.txt": b"Mara walked.\xff Mara ran.\n"}, ["ingest", "book.txt"], 2),
    ({"summaries.tsv": b"1\t/m/1\tTitle\tAuthor\t2000\t{}\tMara \xff ran.\n"},
     ["ingest", "summaries.tsv"], 2),
    ({"store.json": b'{"format":"arcindex-store",\xff}'}, ["ingest", "store.json"], 2),
    ({"corpus/b1.txt": b"Mara walked. Mara ran.\n",
      "corpus/aliases.tsv": b"Mara\tMar\xff\n"}, ["ingest", "corpus"], 2),
    ({"a.csv": b"0.0,0.2\n0.5,0.4\xff\n1.0,0.3\n", "b.csv": b"0.0,0.2\n1.0,0.3\n"},
     ["spsi", "--series-a", "a.csv", "--series-b", "b.csv"], 2),
    ({"matrix.csv": b"book_id,a\xff,b\n"}, ["cluster", "--matrix", "matrix.csv"], 2),
    ({"arcindex.conf": b"dt = 0.5 # \xff\n"}, ["--config", "arcindex.conf", "--print-config"], 1),
    ({"catalogue.json": b'{"format_version": "1.0", \xff}'},
     ["search", "--catalogue", "catalogue.json", "--like", "b1"], 2),
    ({"corpus/b1.txt": b"Mara walked. Mara ran.\n", "labels.csv": b"b1,arc\xff\n"},
     ["eval", "corpus", "--labels", "labels.csv"], 2),
], ids=["text", "summaries", "store", "aliases", "series", "matrix", "config",
        "catalogue", "labels"])
def test_undecodable_input_is_a_data_error(tmp_path, capsys, files, argv, code):
    for name, data in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes(data)
    names = {name.split("/")[0] for name in files}
    assert main([str(tmp_path / a) if a in names else a for a in argv]) == code
    err = capsys.readouterr().err
    assert "is not UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["series", "{corpus}", "-o", "{afile}"],
    ["synth", "-o", "{afile}", *SYNTH_ARGS],
    ["ingest", "{corpus}", "-o", "{afile}/x.json"],
    ["spsi", "{corpus}", "-o", "{afile}/m.csv"],
    ["index", "{corpus}", "-o", "{afile}/c.json"],
], ids=["series", "synth", "ingest", "spsi", "index"])
def test_an_output_path_through_a_file_is_a_data_error(cli_corpus, tmp_path, capsys, argv):
    afile = tmp_path / "afile"
    afile.write_text("kept\n", encoding="utf-8")
    args = [a.format(corpus=cli_corpus, afile=afile) for a in argv]
    assert main(args + SET_BLOCKS) == 2
    err = capsys.readouterr().err
    assert "data error" in err
    assert "Traceback" not in err
    assert afile.read_text(encoding="utf-8") == "kept\n"


def test_search_rejects_an_overflowing_catalogue_number(cli_corpus, tmp_path, capsys):
    catalogue = tmp_path / "catalogue.json"
    assert main(["index", str(cli_corpus), "-o", str(catalogue)] + SET_BLOCKS) == 0
    payload = json.loads(catalogue.read_text(encoding="utf-8"))
    book_id = payload["entries"][0]["book_id"]
    payload["entries"][0]["series"][0]["value"] = 12345.678
    catalogue.write_text(json.dumps(payload).replace("12345.678", "1e999"), encoding="utf-8")
    capsys.readouterr()
    assert main(["search", "--catalogue", str(catalogue), "--like", book_id]) == 2
    err = capsys.readouterr().err
    assert "non-finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("corrupt", [
    lambda p: p.update(config=[]),
    lambda p: p["config"].update(colour="blue"),
    lambda p: p["config"].update(length_ratio_limit="x"),
    lambda p: p["config"].update(length_ratio_limit=1.5),
    lambda p: p["entries"][0]["series"].reverse(),
    lambda p: p["entries"][0]["series"].__delitem__(slice(1, None)),
    # The second entry ties with the first, so search would sort by title.
    lambda p: p["entries"][0].update(title=None, series=p["entries"][1]["series"]),
    lambda p: p["entries"][0].update(cluster_id="nowhere"),
    lambda p: p["entries"][1].update(book_id=p["entries"][0]["book_id"]),
    lambda p: p["config"].update(block_size=120.5),
    lambda p: p["config"].update(prime_max=True),
    lambda p: p["entries"][0]["series"][1].update(value="0.2"),
    lambda p: p["clusters"][0]["representative"][0].update(position=True),
    lambda p: p.update(format_version=1),
    lambda p: p.update(format_version="1.0"),
], ids=["config-not-a-mapping", "unknown-config-key", "ratio-not-a-number",
        "ratio-out-of-range", "swapped-positions", "one-point", "null-title-with-a-tie",
        "entry-names-no-cluster", "duplicate-book-id", "block-size-not-an-int",
        "prime-max-a-bool", "string-value", "bool-position", "numeric-format-version",
        "format-1-catalogue"])
def test_search_of_a_malformed_catalogue_names_the_file(cli_catalogue, tmp_path, capsys,
                                                         corrupt):
    payload = copy.deepcopy(cli_catalogue)
    corrupt(payload)
    path = tmp_path / "catalogue.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    book_id = payload["entries"][-1]["book_id"]
    capsys.readouterr()
    assert main(["search", "--catalogue", str(path), "--like", book_id]) == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("query", ["../x", "synth-000"])
def test_search_refuses_an_entry_id_that_is_not_a_file_name(cli_catalogue, tmp_path, capsys,
                                                            query):
    payload = copy.deepcopy(cli_catalogue)
    assert payload["entries"][0]["book_id"] == "synth-000"
    payload["entries"][1]["book_id"] = "../x"
    path = tmp_path / "catalogue.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert main(["search", "--catalogue", str(path), "--like", query]) == 2
    out, err = capsys.readouterr()
    assert f"{path}: malformed catalogue structure: entry '../x': book_id is not a plain " \
           "file name" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("corrupt, rule", [
    (lambda p: p.update(clusters={"c": p["clusters"][0]}), "clusters must be a list of objects"),
    (lambda p: p["clusters"].append("c9"), "clusters must be a list of objects"),
    (lambda p: p.update(entries=None), "entries must be a list of objects"),
    (lambda p: p["entries"].insert(0, ["synth-000"]), "entries must be a list of objects"),
    (lambda p: p["entries"][0].update(series="0.1 0.2"),
     "entry 'synth-000': series must be a list of points"),
    (lambda p: p["entries"][0]["series"].__setitem__(1, [0.5, 0.2]),
     "entry 'synth-000': series must be a list of points"),
    (lambda p: p["clusters"][0].update(representative={"position": 0.0, "value": 0.5}),
     "representative must be a list of points"),
    (lambda p: p["clusters"][0]["representative"].__setitem__(0, 0.5),
     "representative must be a list of points"),
], ids=["clusters-an-object", "cluster-a-string", "entries-null", "entry-a-list",
        "series-a-string", "point-a-list", "representative-an-object", "point-a-number"])
def test_search_names_the_structure_rule_a_catalogue_breaks(cli_catalogue, tmp_path, capsys,
                                                            corrupt, rule):
    payload = copy.deepcopy(cli_catalogue)
    corrupt(payload)
    path = tmp_path / "catalogue.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["search", "--catalogue", str(path), "--like", "synth-000"]) == 2
    out, err = capsys.readouterr()
    assert f"{path}: malformed catalogue structure: " in err
    assert rule in err
    assert "Traceback" not in err
    assert out == ""


def _readme_commands():
    """The ``arcindex`` lines of README's sh blocks, continuations joined."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("arcindex "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_commands_run(tmp_path):
    commands = _readme_commands()
    assert commands
    for argv in commands:
        argv = [arg.replace("/tmp/demo", str(tmp_path)) for arg in argv]
        assert main(argv) == 0, argv


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
